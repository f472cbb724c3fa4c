"""Workload definitions, one repetition of a workload, and its output checks.

Every workload is a metaweight experiment config run through the public
entry points `config_from_dict`, `run_experiment` and `emit_results`, the
same path `metaweight experiment --config` takes. Workload sizes keep the
per-step shapes of the cells they stand for (batch, target set, model
dimensions) and shrink the source set so that one repetition takes a few
seconds on a 2-core machine; a run repeats the workload for its whole length.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import NAME, Tracer, badly_nested, duration, percentile, self_times

# The frozen benchmark's synthetic shift (tests/test_acceptance.py SUITE_SHIFT),
# without its source size, which each workload sets.
FLIP_SHIFT = {
    "flip_fraction": 0.5,
    "n_target": 600,
    "source_vocab": 200,
    "target_vocab": 200,
    "marker_pairs": 2,
    "marker_repeats": 3,
    "min_fillers": 2,
    "max_fillers": 4,
}


def _config(kind, synthetic, methods, shot, seeds, epochs, output_dir):
    return {
        "data": {"synthetic": synthetic},
        "backbone": {"kind": kind, "embedding_dim": 32, "buckets": 4096, "hidden_dim": 32},
        "methods": list(methods),
        "shots": [shot],
        "seeds": list(seeds),
        "alpha": 0.05,
        "epochs": epochs,
        "batch_size": 16,
        "regulator": {"init_policy": "zero", "clamp_nonnegative": True, "target_batch_size": None},
        "reference_method": None,
        "n_permutations": 10000,
        "output_dir": str(output_dir),
    }


def flip_cell(seed, out):
    """The frozen benchmark cell (mlp, d=32, H=32, alpha 0.05, batch 16, zero
    init, 50-shot, 600 target examples) with 2k source examples and 10
    epochs in place of 32k and 20. Per-step shapes are those of the frozen
    cell, so the per-step cost is the same. Traced on a 2-vCPU VM, mwr takes
    54% of the wall time, and within its steps the target probe 43%, the
    alignment scores 33% and the final gradient 15%; 98.6% of feature
    lookups hit the cache."""
    synthetic = dict(FLIP_SHIFT, n_source=2000)
    return _config("mlp", synthetic, ("backbone_only", "data_merging", "mwr"), 50, [seed], 10, out)


def wide_target(seed, out):
    """Bilinear backbone, 300-shot: 600 few-shot examples exceed the
    256-example target cap, so every mwr step draws a balanced target batch.
    Traced on a 2-vCPU VM, the target side dominates the step (probe 67%,
    batch draw 11%); generation takes 20% of the wall time and the
    permutation test 18%."""
    synthetic = dict(FLIP_SHIFT, n_source=4000, n_target=2000)
    return _config("bilinear", synthetic, ("data_merging", "mwr"), 300, [seed], 1, out)


def eval_grid(seed, out):
    """A 2-seed logistic grid, one epoch. Traced on a 2-vCPU VM, the
    10000-draw permutation tests take 51% of the wall time, generation 25%,
    prediction 9% and training 17%; 14% of feature lookups miss the cache,
    the most of the three workloads. mwr runs last so that every workload
    reports mwr throughput; here it is 8% of the wall time."""
    synthetic = dict(FLIP_SHIFT, n_source=2000, n_target=1000)
    methods = ("backbone_only", "data_merging", "mwr")
    return _config("logistic", synthetic, methods, 50, [seed, seed + 1], 1, out)


WORKLOADS = {"flip-cell": flip_cell, "wide-target": wide_target, "eval-grid": eval_grid}
# references.json holds the accuracies and flip ratios of data seeds
# 0..RECORDED_SEEDS-1; a run's --seed picks one of them, so every run's
# outputs are checked against a recorded reference.
RECORDED_SEEDS = 100


def data_seed(seed: int) -> int:
    return seed % RECORDED_SEEDS


# Relative tolerance on the flip ratio of a recorded seed. Acceptance
# criterion 4 asks for a ratio of at least 10 on the frozen 32k-source cell;
# on the smaller flip-cell it settles per seed anywhere between 1.9 and 137
# (median 6.4 over seeds 0-99), so it is checked against the recorded value.
FLIP_RATIO_TOL = 0.1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


@dataclass
class TrainRecord:
    key: str
    method: str
    examples: int
    span: list
    source: tuple
    report: object


@dataclass
class Rep:
    workload: str
    traced: bool
    tracer: Tracer
    trainings_expected: int
    trainings: list[TrainRecord] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    accuracies: dict[str, float] = field(default_factory=dict)
    end_to_end: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float | None] = field(default_factory=dict)
    step_us: list[float] = field(default_factory=list)
    flip_ratio: float | None = None
    oracle: bool = False
    predictions: list[tuple] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def trainings_failed(self) -> int:
        return self.trainings_expected - len(self.trainings)


def _install_phases(tracer: Tracer, rep: Rep, mw) -> None:
    """Boundaries at the public calls, installed on every repetition; they
    fire a few dozen times per repetition, so their cost is negligible."""
    exp = mw.experiment

    def trained(span, report, args, kwargs):
        spec = _arg(args, kwargs, 0, "spec")
        source = _arg(args, kwargs, 2, "s_train")
        target = _arg(args, kwargs, 3, "t_fs")
        per_epoch = {"backbone_only": len(target), "mwr": len(source)}.get(spec.method, len(source) + len(target))
        key = f"{spec.method}/{spec.seed}"
        rep.trainings.append(TrainRecord(key, spec.method, spec.epochs * per_epoch, span, source, report))

    def training_name(args, kwargs):
        return "training.run." + _arg(args, kwargs, 0, "spec").method

    def predicted(span, record, args, kwargs):
        examples = _arg(args, kwargs, 1, "examples")
        tracer.add("stats.predict_examples", len(examples))
        if rep.oracle:
            rep.predictions.append((_arg(args, kwargs, 0, "model"), examples, record))

    tracer.wrap(mw, "run_experiment", "experiment.run")
    tracer.wrap(mw, "emit_results", "experiment.emit")
    tracer.wrap(exp, "run_training", training_name, after=trained)
    tracer.wrap(exp, "predict", "stats.predict", after=predicted)
    tracer.wrap(exp, "accuracy", "stats.accuracy")
    tracer.wrap(exp, "permutation_test", "stats.permutation",
                after=lambda span, r, a, k: tracer.add("stats.permutation_draws", int(_arg(a, k, 2, "n_perm"))))


def _install_layers(tracer: Tracer, mw) -> None:
    """Boundaries inside training, installed only on traced repetitions."""
    exp, training, regulator, backbones = mw.experiment, mw.training, mw.regulator, mw.backbones
    step = {"source": None, "aligned": False}

    def step_begins(args, kwargs):
        tracer.step += 1
        step["source"] = _arg(args, kwargs, 1, "source_batch")
        step["aligned"] = False

    def aligned(args, kwargs):
        step["aligned"] = True

    def gradient_role(args, kwargs):
        if _arg(args, kwargs, 1, "examples") is not step["source"]:
            return "regulator.probe"
        return "regulator.final_grad" if step["aligned"] else "regulator.provisional_grad"

    def regulated(span, weights, args, kwargs):
        tracer.add("regulator.weights", int(weights.size))
        tracer.add("regulator.clamped", int(np.count_nonzero(weights == 0.0)))

    tracer.wrap(exp, "_run_cell", "experiment.cell")
    tracer.wrap(exp, "gen_synthetic_shift", "data.gen")
    tracer.wrap(exp, "sample_few_shot", "data.split")
    tracer.wrap(training, "batch_weighted_gradient_fast", "training.sgd_step")
    tracer.wrap(training, "target_loss", "training.epoch_loss")
    step_attr = "mwr_step_detail" if hasattr(training, "mwr_step_detail") else "mwr_step"
    tracer.wrap(training, step_attr, "regulator.step", before=step_begins)
    tracer.wrap(regulator, "select_target_batch", "regulator.select_target")
    tracer.wrap(regulator, "batch_weighted_gradient_fast", gradient_role)
    tracer.wrap(regulator, "alignment_scores", "backbones.alignment", before=aligned)
    tracer.wrap(regulator, "regulate_weights", "regulator.regulate", after=regulated)
    tracer.wrap(backbones, "featurize_pair", "backbones.featurize")
    tracer.count(backbones, "example_features", "backbones.feature_lookups")
    tracer.count(mw.stats, "example_features", "backbones.feature_lookups")


# The boundaries each per-layer metric needs; a metric with a missing
# boundary is reported as missing. The probe and the final gradient are told
# apart by the step's source batch, so they also need the step boundary.
LAYER_SOURCES = {
    "data.gen_s": "gen_synthetic_shift",
    "data.split_s": "sample_few_shot",
    "backbones.featurize_s": "featurize_pair",
    "backbones.featurize_calls": "featurize_pair",
    "backbones.feature_hit_ratio": "example_features",
    "backbones.alignment_s": "alignment_scores",
    "regulator.steps": "mwr_step",
    "regulator.step_p50_us": "mwr_step",
    "regulator.step_p99_us": "mwr_step",
    "regulator.probe_s": ("regulator.batch_weighted_gradient_fast", "mwr_step"),
    "regulator.final_grad_s": ("regulator.batch_weighted_gradient_fast", "mwr_step"),
    "regulator.select_target_s": "select_target_batch",
    "regulator.self_s": "mwr_step",
    "regulator.clamped_frac": "regulate_weights",
    "training.sgd_step_s": "training.batch_weighted_gradient_fast",
    "training.sgd_steps": "training.batch_weighted_gradient_fast",
    "training.epoch_loss_s": "target_loss",
    "training.self_s": "run_training",
    "stats.predict_s": "predict",
    "stats.predict_examples": "predict",
    "stats.permutation_s": "permutation_test",
    "stats.permutation_draws": "permutation_test",
    "experiment.cell_s": "_run_cell",
    "experiment.emit_s": "emit_results",
}


def _totals(spans):
    ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    for span in spans:
        ns[span[NAME]] = ns.get(span[NAME], 0) + duration(span)
        calls[span[NAME]] = calls.get(span[NAME], 0) + 1
    return ns, calls


def _end_to_end(rep: Rep) -> dict[str, float]:
    ns, _ = _totals(rep.tracer.spans)
    run = ns.get("experiment.run", 0)
    emit = ns.get("experiment.emit", 0)
    train = sum(duration(t.span) for t in rep.trainings)
    scoring = ns.get("stats.predict", 0) + ns.get("stats.accuracy", 0) + ns.get("stats.permutation", 0)

    def throughput(mwr: bool):
        picked = [t for t in rep.trainings if (t.method == "mwr") == mwr]
        seconds = sum(duration(t.span) for t in picked) / 1e9
        return sum(t.examples for t in picked) / seconds if seconds > 0 else math.nan

    return {
        "setup_s": (run - train - scoring) / 1e9,
        "train_s": train / 1e9,
        "mwr_examples_per_s": throughput(True),
        "sgd_examples_per_s": throughput(False),
        "eval_s": (scoring + emit) / 1e9,
        "wall_s": (run + emit) / 1e9,
    }


def _layers(rep: Rep) -> dict[str, float | None]:
    tracer = rep.tracer
    spans = tracer.spans
    ns, calls = _totals(spans)
    counts = tracer.counts
    selfs = self_times(spans)
    steps = [i for i, s in enumerate(spans) if s[NAME] == "regulator.step"]
    # children plus regulator.self_s equal each step's span only if the
    # children nest inside the step one after another
    broken = badly_nested(spans, steps)
    rep.check("trace.step_nesting", not broken, f"{len(broken)} of {len(steps)} steps")
    rep.step_us = [duration(spans[i]) / 1e3 for i in steps]
    ordered = sorted(rep.step_us)
    lookups = counts.get("backbones.feature_lookups", 0)
    weights = counts.get("regulator.weights", 0)

    def seconds(name):
        return ns.get(name, 0) / 1e9

    def self_of(prefix):
        return sum(selfs[i] for i, s in enumerate(spans) if s[NAME].startswith(prefix)) / 1e9

    values = {
        "data.gen_s": seconds("data.gen"),
        "data.split_s": seconds("data.split"),
        "backbones.featurize_s": seconds("backbones.featurize"),
        "backbones.featurize_calls": calls.get("backbones.featurize", 0),
        "backbones.feature_hit_ratio": 1.0 - calls.get("backbones.featurize", 0) / lookups if lookups else None,
        "backbones.alignment_s": seconds("backbones.alignment"),
        "regulator.steps": len(steps),
        "regulator.step_p50_us": percentile(ordered, 50),
        "regulator.step_p99_us": percentile(ordered, 99),
        "regulator.probe_s": seconds("regulator.probe"),
        "regulator.final_grad_s": seconds("regulator.final_grad"),
        "regulator.select_target_s": seconds("regulator.select_target"),
        "regulator.self_s": self_of("regulator.step"),
        "regulator.clamped_frac": counts.get("regulator.clamped", 0) / weights if weights else None,
        "training.sgd_step_s": seconds("training.sgd_step"),
        "training.sgd_steps": calls.get("training.sgd_step", 0),
        "training.epoch_loss_s": seconds("training.epoch_loss"),
        "training.self_s": self_of("training.run."),
        "stats.predict_s": seconds("stats.predict"),
        "stats.predict_examples": counts.get("stats.predict_examples", 0),
        "stats.permutation_s": seconds("stats.permutation"),
        "stats.permutation_draws": counts.get("stats.permutation_draws", 0),
        "experiment.cell_s": seconds("experiment.cell"),
        "experiment.emit_s": seconds("experiment.emit"),
    }
    for metric, needs in LAYER_SOURCES.items():
        if any(m.endswith(needs) for m in tracer.missing):
            values[metric] = None
    return values


def params_digest(report) -> str:
    return hashlib.sha256(np.ascontiguousarray(report.model.params).tobytes()).hexdigest()


def flip_ratio(mw, synthetic: dict, record: TrainRecord) -> float:
    """Mean regulated weight of label-consistent over flipped source examples."""
    spec = mw.ShiftSpec(**synthetic)
    consistent = np.array([ex.label == mw.rule_label(spec, ex.text_a, ex.text_b) for ex in record.source])
    trace = record.report.weight_trace
    ids = np.fromiter((row.example_id for row in trace), dtype=np.int64, count=len(trace))
    weights = np.fromiter((row.weight for row in trace), dtype=np.float64, count=len(trace))
    flags = consistent[ids]
    return float(weights[flags].mean() / max(weights[~flags].mean(), 1e-300))


def _check_accuracy(rep: Rep, key: str, value: float, references: dict, seed: int) -> None:
    """Within the tolerance of the accuracy recorded for this data seed."""
    known = references["workloads"].get(rep.workload, {}).get(str(seed), {})
    if key not in known:
        rep.check(f"accuracy {key}", False, "no reference recorded")
        return
    ref, tol = known[key], references["tolerance"]
    rep.check(f"accuracy {key}", abs(value - ref) <= tol, f"{value:.4f} vs reference {ref:.4f}")


def oracle_predictions(mw, model, examples) -> np.ndarray:
    """Argmax class per example from per-example losses, one call per class:
    a path independent of `predict`, its feature cache and its batching."""
    classes = model.arch.class_count
    out = np.empty(len(examples), dtype=np.int64)
    for i, ex in enumerate(examples):
        losses = [mw.per_example_loss(model, mw.Example(ex.text_a, ex.text_b, c)) for c in range(classes)]
        out[i] = int(np.argmin(losses))
    return out


def _check_predictions(rep: Rep, mw, rows) -> None:
    """Every prediction and every reported accuracy against the oracle."""
    rep.check("oracle.calls", len(rep.predictions) == len(rows), f"{len(rep.predictions)} predict calls")
    for row, (model, examples, record) in zip(rows, rep.predictions):
        key = f"{row['method']}@{row['seed']}"
        expected = oracle_predictions(mw, model, examples)
        truth = np.array([ex.label for ex in examples])
        same = np.array_equal(np.asarray(record.predicted), expected)
        acc = float(np.mean(expected == truth))
        rep.check(f"oracle {key}", same and acc == row["accuracy"], f"accuracy {row['accuracy']} vs oracle {acc}")
    rep.predictions.clear()


def _check_outputs(rep: Rep, mw, cfg: dict, paths, references: dict, seed: int) -> None:
    cells = len(cfg["seeds"]) * len(cfg["shots"])
    expected_rows = cells * len(cfg["methods"])
    payload = json.loads(Path(paths["json"]).read_text(encoding="utf-8"))
    rows, errors = payload["rows"], payload["errors"]
    rep.check("results.cells", not errors and len(rows) == expected_rows,
              f"{len(rows)} rows, {len(errors)} error rows")
    csv_lines = Path(paths["csv"]).read_text(encoding="utf-8").splitlines()
    rep.check("results.csv", len(csv_lines) == 1 + expected_rows and all(l.endswith(",ok") for l in csv_lines[1:]),
              f"{len(csv_lines)} lines")
    rep.check("results.summary", Path(paths["summary"]).stat().st_size > 0)
    if rep.oracle:
        _check_predictions(rep, mw, rows)
    for row in rows:
        key = f"{row['method']}@{row['seed']}"
        rep.accuracies[key] = row["accuracy"]
        _check_accuracy(rep, key, row["accuracy"], references, seed)
        p = row["p_value"]
        rep.check(f"p_value {key}", (p is None) == (row["method"] == row["reference"]) and (p is None or 0 < p <= 1),
                  f"p={p} reference={row['reference']}")
    for record in rep.trainings:
        rep.digests[record.key] = params_digest(record.report)
        if record.method == "mwr" and rep.workload == "flip-cell":
            rep.flip_ratio = flip_ratio(mw, cfg["data"]["synthetic"], record)
            _check_flip_ratio(rep, references, seed)
        # the datasets and the weight trace would otherwise inflate peak RSS
        record.source = record.report = None


def _check_flip_ratio(rep: Rep, references: dict, seed: int) -> None:
    """The mwr consistent/flipped weight ratio, within FLIP_RATIO_TOL of the
    value recorded for this data seed."""
    ratio = rep.flip_ratio
    ref = references["flip_ratio"].get(str(seed))
    if ref is None:
        rep.check("flip_ratio", False, "no reference recorded")
        return
    ok = abs(ratio / ref - 1.0) <= FLIP_RATIO_TOL
    rep.check("flip_ratio", ok, f"consistent/flipped weight ratio {ratio:.2f} vs reference {ref:.2f}")


def run_rep(mw, workload: str, seed: int, traced: bool, out_dir: Path, references: dict, oracle: bool) -> Rep:
    """One repetition: run the experiment, emit its results, check them.

    With `oracle`, every prediction is also recomputed by an independent
    path; later repetitions must reproduce the first one bit for bit, so the
    run does this once.
    """
    seed = data_seed(seed)
    cfg = WORKLOADS[workload](seed, out_dir)
    tracer = Tracer()
    rep = Rep(workload, traced, tracer, len(cfg["seeds"]) * len(cfg["shots"]) * len(cfg["methods"]), oracle=oracle)
    _install_phases(tracer, rep, mw)
    if traced:
        _install_layers(tracer, mw)
    try:
        table = mw.run_experiment(mw.config_from_dict(cfg))
        paths = mw.emit_results(table, out_dir)
    except Exception as exc:  # a failed repetition is counted, never fatal
        rep.check("experiment", False, f"{type(exc).__name__}: {exc}")
        return rep
    finally:
        tracer.uninstall()
    try:
        _check_outputs(rep, mw, cfg, paths, references, seed)
    except Exception as exc:
        rep.check("outputs", False, f"{type(exc).__name__}: {exc}")
    rep.end_to_end = _end_to_end(rep)
    if traced:
        rep.layers = _layers(rep)
    return rep
