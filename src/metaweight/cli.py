"""Command-line interface: prep, gen, train, experiment, report.

Exit codes: 0 success, 1 usage or config error, 2 data error,
3 numerical-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Sequence

from .backbones import BACKBONE_KINDS, BackboneArch, ModelState, build_embedding
from .data import (
    FewShotSpec,
    ShiftSpec,
    balance_downsample,
    few_shot_manifest,
    filter_labels,
    gen_synthetic_shift,
    load_tsv,
    sample_few_shot,
    write_tsv,
)
from .errors import ConfigError, DataError, DimensionError, DomainError, NumericalError
from .experiment import emit_results, load_config, load_results, run_experiment
from .regulator import INIT_POLICIES, RegulatorConfig
from .stats import accuracy, predict
from .training import METHODS, TrainSpec, run_training, save_report, write_weight_trace
from .vectors import RngState, derive_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage problems to exit code 1
        raise ConfigError(message)


def _label_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integer labels, got {text!r}") from None


def _cmd_prep(args) -> int:
    ds = load_tsv(args.input, args.max_len)
    print(f"loaded {args.input}: {len(ds)} examples, {ds.class_count} classes")
    if args.keep_labels:
        ds = filter_labels(ds, args.keep_labels)
        print(f"kept labels {args.keep_labels}: {len(ds)} examples, {ds.class_count} classes")
    if args.balance:
        ds = balance_downsample(ds, args.seed)
        print(f"balanced: {len(ds)} examples, counts {ds.label_counts()}")
    write_tsv(ds, args.out)
    print(f"wrote {args.out}")
    if args.few_shot:
        if not (args.fs_out and args.rest_out):
            raise ConfigError("--few-shot requires --fs-out and --rest-out")
        spec = FewShotSpec(k=args.few_shot, seed=args.seed)
        manifest = few_shot_manifest(ds, spec)
        fs, rest = sample_few_shot(ds, spec)
        write_tsv(fs, args.fs_out)
        write_tsv(rest, args.rest_out)
        print(f"few-shot split k={args.few_shot}: {len(fs)} + {len(rest)} examples")
        if args.manifest_out:
            Path(args.manifest_out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.manifest_out, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2)
                fh.write("\n")
            print(f"wrote {args.manifest_out}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = ShiftSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(ShiftSpec)})
    source, target = gen_synthetic_shift(spec, RngState(args.seed))
    out = Path(args.out_dir)
    write_tsv(source, out / "source.tsv")
    write_tsv(target, out / "target.tsv")
    manifest = {"seed": args.seed, "spec": spec.__dict__}
    with open(out / "gen_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out / 'source.tsv'} ({len(source)} examples)")
    print(f"wrote {out / 'target.tsv'} ({len(target)} examples)")
    return EXIT_OK


def _cmd_train(args) -> int:
    t_fs = load_tsv(args.target_fs, args.max_len)
    source = load_tsv(args.source, args.max_len) if args.source else None
    if args.method != "backbone_only" and source is None:
        raise ConfigError(f"--source is required for method {args.method}")
    class_count = t_fs.class_count
    if source is not None:
        if source.class_count != t_fs.class_count:
            raise DataError(
                f"source has {source.class_count} classes but target has {t_fs.class_count}"
            )
    emb = build_embedding(derive_seed(args.seed, "embedding"), args.buckets, args.embedding_dim)
    arch = BackboneArch(args.backbone, emb, class_count, args.hidden_dim)
    model = ModelState(arch.init_params(derive_seed(args.seed, "init")), arch)
    regulator = None
    if args.method == "mwr":
        regulator = RegulatorConfig(
            init_policy=args.init_policy,
            clamp_nonnegative=not args.no_clamp,
            target_batch_size=args.target_batch_size,
        )
    spec = TrainSpec(
        method=args.method,
        epochs=args.epochs,
        alpha=args.alpha,
        seed=args.seed,
        batch_size=args.batch_size,
        regulator=regulator,
    )
    report = run_training(spec, model, source.examples if source else (), t_fs.examples)
    print(f"{args.method}: final target-train loss {report.target_loss_trace[-1]:.6f}")
    if args.out:
        save_report(report, args.out)
        print(f"wrote {args.out}")
    if args.weight_trace:
        write_weight_trace(report.weight_trace, args.weight_trace)
        print(f"wrote {args.weight_trace} ({len(report.weight_trace)} rows)")
    if args.eval:
        test = load_tsv(args.eval, args.max_len)
        acc = accuracy(predict(report.model, test.examples))
        print(f"accuracy on {args.eval}: {acc:.4f}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    table = run_experiment(cfg)
    paths = emit_results(table, args.out_dir or cfg.output_dir)
    for row in table.aggregates:
        print(f"{row.method} {row.shot}-shot: mean accuracy {row.mean_accuracy:.4f}")
    if table.errors:
        print(f"{len(table.errors)} cell(s) failed; see {paths['csv']}", file=sys.stderr)
    print(f"wrote {paths['csv']}, {paths['json']}, {paths['summary']}")
    return EXIT_OK


def _cmd_report(args) -> int:
    table = load_results(args.results)
    paths = emit_results(table, args.out_dir)
    print(f"wrote {paths['csv']}, {paths['json']}, {paths['summary']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="metaweight", description="Few-shot adaptation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    prep = sub.add_parser("prep", help="load, filter, balance, and split a TSV dataset")
    prep.add_argument("--input", required=True)
    prep.add_argument("--out", required=True)
    prep.add_argument("--keep-labels", type=_label_list, default=None, help="comma-separated labels to keep")
    prep.add_argument("--balance", action="store_true")
    prep.add_argument("--seed", type=int, default=0)
    prep.add_argument("--max-len", type=int, default=50)
    prep.add_argument("--few-shot", type=int, default=None, help="k per class to split off")
    prep.add_argument("--fs-out", default=None)
    prep.add_argument("--rest-out", default=None)
    prep.add_argument("--manifest-out", default=None)
    prep.set_defaults(handler=_cmd_prep)

    gen = sub.add_parser("gen", help="generate a synthetic source/target pair of TSVs")
    gen.add_argument("--out-dir", required=True)
    gen.add_argument("--seed", type=int, default=0)
    for field in dataclasses.fields(ShiftSpec):  # one flag per field, with the library default
        gen.add_argument("--" + field.name.replace("_", "-"), type=type(field.default), default=field.default)
    gen.set_defaults(handler=_cmd_gen)

    train = sub.add_parser("train", help="run one training method")
    train.add_argument("--method", required=True, choices=METHODS)
    train.add_argument("--target-fs", required=True, help="TSV used as the few-shot target set")
    train.add_argument("--source", default=None, help="TSV source training set")
    train.add_argument("--eval", default=None, help="TSV test set to score after training")
    train.add_argument("--backbone", default="mlp", choices=BACKBONE_KINDS)
    train.add_argument("--embedding-dim", type=int, default=16)
    train.add_argument("--buckets", type=int, default=4096)
    train.add_argument("--hidden-dim", type=int, default=32)
    train.add_argument("--alpha", type=float, default=0.05)
    train.add_argument("--epochs", type=int, default=20)
    train.add_argument("--batch-size", type=int, default=64)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--max-len", type=int, default=50)
    train.add_argument("--init-policy", default="zero", choices=INIT_POLICIES)
    train.add_argument("--no-clamp", action="store_true")
    train.add_argument("--target-batch-size", type=int, default=None)
    train.add_argument("--out", default=None, help="write the training report JSON here")
    train.add_argument("--weight-trace", default=None, help="write the weight trace CSV here")
    train.set_defaults(handler=_cmd_train)

    experiment = sub.add_parser("experiment", help="run a full grid from a JSON config")
    experiment.add_argument("--config", required=True)
    experiment.add_argument("--out-dir", default=None, help="override the config output_dir")
    experiment.set_defaults(handler=_cmd_experiment)

    report = sub.add_parser("report", help="re-emit tables from a results.json")
    report.add_argument("--results", required=True)
    report.add_argument("--out-dir", required=True)
    report.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, DomainError, DimensionError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
