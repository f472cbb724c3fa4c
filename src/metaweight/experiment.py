"""Experiment grids: datasets -> methods -> accuracy table with significance.

A run is a grid over (shot, seed) cells. Inside one cell every method
trains from the same backbone initialization on the same source / few-shot
split, is scored on the same held-out target test set, and is compared to
a reference method with a paired permutation test. Cells that fail record
an error row and the run continues. Everything is a pure function of the
config, so repeated runs emit byte-identical results files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .backbones import BACKBONE_KINDS, MAX_EMBEDDING_ENTRIES, BackboneArch, ModelState, build_embedding
from .data import (
    Dataset,
    FewShotSpec,
    ShiftSpec,
    balance_downsample,
    few_shot_indices,
    filter_labels,
    gen_synthetic_shift,
    load_tsv,
    sample_few_shot,
)
from .errors import ConfigError, DataError, DomainError, MetaweightError
from .regulator import RegulatorConfig
from .stats import PredictionRecord, accuracy, permutation_test, predict
from .training import METHODS, TrainSpec, run_training
from .vectors import RngState, derive_seed


@dataclass(frozen=True)
class FileData:
    source: str
    target: str
    target_test: str | None = None
    max_len: int = 50
    keep_labels: tuple[int, ...] | None = None
    balance: bool = False
    balance_seed: int = 0


@dataclass(frozen=True)
class BackboneConfig:
    kind: str = "mlp"
    embedding_dim: int = 16
    buckets: int = 4096
    hidden_dim: int = 32

    def __post_init__(self):
        if self.kind not in BACKBONE_KINDS:
            raise ConfigError(f"unknown backbone kind {self.kind!r}; expected one of {BACKBONE_KINDS}")
        if self.embedding_dim < 1 or self.buckets < 1 or self.hidden_dim < 1:
            raise ConfigError("backbone dimensions must be >= 1")
        if self.buckets * self.embedding_dim > MAX_EMBEDDING_ENTRIES:
            raise ConfigError(
                f"backbone.buckets * embedding_dim = {self.buckets * self.embedding_dim} "
                f"exceeds the cap of {MAX_EMBEDDING_ENTRIES} embedding entries"
            )


@dataclass(frozen=True)
class RegulatorSection:
    init_policy: str = "zero"
    clamp_nonnegative: bool = True
    target_batch_size: int | None = None


# Largest n_permutations a config may ask for. A permutation test computes
# n_perm words per example on which the two methods differ, so its time is
# linear in n_perm; the cap is 1000x the 10^4 of the committed configs and
# the benchmark, and keeps a typo such as 10^18 from running for years.
MAX_PERMUTATIONS = 10**7


@dataclass(frozen=True)
class ExperimentConfig:
    data_synthetic: ShiftSpec | None
    data_files: FileData | None
    backbone: BackboneConfig
    methods: tuple[str, ...]
    shots: tuple[int, ...]
    seeds: tuple[int, ...]
    alpha: float = 0.05
    epochs: int = 20
    batch_size: int = 64
    regulator: RegulatorSection = RegulatorSection()
    reference_method: str | None = None
    n_permutations: int = 10000
    output_dir: str = "results"

    def __post_init__(self):
        if (self.data_synthetic is None) == (self.data_files is None):
            raise ConfigError("exactly one of synthetic or file data must be configured")
        if not self.methods:
            raise ConfigError("at least one method is required")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; expected a subset of {METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("methods must be unique")
        if not self.shots or any(s < 1 for s in self.shots):
            raise ConfigError("at least one shot value >= 1 is required")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError(f"alpha must be a finite number > 0, got {self.alpha}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.reference_method is not None and self.reference_method not in self.methods:
            raise ConfigError(f"reference method {self.reference_method!r} is not in methods")
        if not 1 <= self.n_permutations <= MAX_PERMUTATIONS:
            raise ConfigError(
                f"n_permutations must be between 1 and the cap of {MAX_PERMUTATIONS}, got {self.n_permutations}"
            )


_TOP_KEYS = {
    "data",
    "backbone",
    "methods",
    "shots",
    "seeds",
    "alpha",
    "epochs",
    "batch_size",
    "regulator",
    "reference_method",
    "n_permutations",
    "output_dir",
}


def _require_keys(mapping: Mapping, allowed, where: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


# The field annotations a config value is checked against, the Python types
# each accepts and how an error names it; bool is never a number here.
_KINDS = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
}


def _is_a(value, kind: str) -> bool:
    types = _KINDS[kind][0]
    return isinstance(value, types) and isinstance(value, bool) == (bool in types)


def _check_fields(cls, mapping: Mapping, where: str) -> None:
    """Values of fields annotated int, float, bool or str, alone or `| None`,
    must have that type (the annotations are strings); callers check the rest."""
    for f in dataclasses.fields(cls):
        kinds = f.type.split(" | ")
        if f.name not in mapping or not set(kinds) <= set(_KINDS) | {"None"}:
            continue
        value = mapping[f.name]
        if value is None and "None" in kinds:
            continue
        if not any(_is_a(value, k) for k in kinds if k != "None"):
            wanted = " or ".join(_KINDS[k][1] if k in _KINDS else "null" for k in kinds)
            raise ConfigError(f"{where}.{f.name} must be {wanted}, got {value!r}")


def _build(cls, mapping: Mapping, where: str):
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {mapping!r}")
    _require_keys(mapping, {f.name for f in dataclasses.fields(cls)}, where)
    _check_fields(cls, mapping, where)
    try:
        return cls(**mapping)
    except TypeError as exc:
        raise ConfigError(f"bad {where} section: {exc}") from None


def _list_of(raw: Mapping, key: str, kind: str) -> tuple:
    values = raw.get(key, ())
    if not isinstance(values, (list, tuple)) or not all(_is_a(v, kind) for v in values):
        raise ConfigError(f"{key} must be a list whose items are each {_KINDS[kind][1]}, got {values!r}")
    return tuple(values)


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    """Strict parse: every unknown key at any level is an error, every section
    must be a mapping, and every value must have the type its field declares."""
    if not isinstance(raw, Mapping):
        raise ConfigError("config must be a mapping")
    _require_keys(raw, _TOP_KEYS, "config")
    data = raw.get("data")
    if not isinstance(data, Mapping):
        raise ConfigError("config needs a 'data' section")
    _require_keys(data, {"synthetic", "files"}, "data")
    if ("synthetic" in data) == ("files" in data):
        raise ConfigError("data section must contain exactly one of 'synthetic' or 'files'")
    synthetic = None
    files = None
    if "synthetic" in data:
        synthetic = _build(ShiftSpec, data["synthetic"], "data.synthetic")
    else:
        files_raw = data["files"]
        if isinstance(files_raw, Mapping) and files_raw.get("keep_labels") is not None:
            files_raw = dict(files_raw, keep_labels=_list_of(files_raw, "keep_labels", "int"))
        files = _build(FileData, files_raw, "data.files")
    backbone = _build(BackboneConfig, raw.get("backbone", {}), "backbone")
    regulator = _build(RegulatorSection, raw.get("regulator", {}), "regulator")
    kwargs = {}
    for key in ("alpha", "epochs", "batch_size", "reference_method", "n_permutations", "output_dir"):
        if key in raw:
            kwargs[key] = raw[key]
    _check_fields(ExperimentConfig, kwargs, "config")
    return ExperimentConfig(
        data_synthetic=synthetic,
        data_files=files,
        backbone=backbone,
        methods=_list_of(raw, "methods", "str"),
        shots=_list_of(raw, "shots", "int"),
        seeds=_list_of(raw, "seeds", "int"),
        regulator=regulator,
        **kwargs,
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    if cfg.data_synthetic is not None:
        data = {"synthetic": dataclasses.asdict(cfg.data_synthetic)}
    else:
        files = dataclasses.asdict(cfg.data_files)
        if files["keep_labels"] is not None:
            files["keep_labels"] = list(files["keep_labels"])
        data = {"files": files}
    return {
        "data": data,
        "backbone": dataclasses.asdict(cfg.backbone),
        "methods": list(cfg.methods),
        "shots": list(cfg.shots),
        "seeds": list(cfg.seeds),
        "alpha": cfg.alpha,
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "regulator": dataclasses.asdict(cfg.regulator),
        "reference_method": cfg.reference_method,
        "n_permutations": cfg.n_permutations,
        "output_dir": cfg.output_dir,
    }


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return config_from_dict(raw)


@dataclass(frozen=True)
class CellResult:
    method: str
    shot: int
    seed: int
    accuracy: float
    p_value: float | None
    reference: str | None


@dataclass(frozen=True)
class AggregateRow:
    method: str
    shot: int
    mean_accuracy: float


@dataclass(frozen=True)
class CellError:
    shot: int
    seed: int
    message: str


@dataclass(frozen=True, eq=False)
class ResultsTable:
    rows: tuple[CellResult, ...]
    aggregates: tuple[AggregateRow, ...]
    errors: tuple[CellError, ...]
    config: dict
    manifests: tuple[dict, ...] = ()


def _prepare_file_datasets(files: FileData) -> tuple[Dataset, Dataset, Dataset | None]:
    source = load_tsv(files.source, files.max_len)
    target = load_tsv(files.target, files.max_len)
    test = load_tsv(files.target_test, files.max_len) if files.target_test else None
    if files.keep_labels is not None:
        keep = set(files.keep_labels)
        source = filter_labels(source, keep)
        target = filter_labels(target, keep)
        if test is not None:
            test = filter_labels(test, keep)
    if files.balance:
        source = balance_downsample(source, files.balance_seed)
        target = balance_downsample(target, files.balance_seed)
    if source.class_count != target.class_count:
        raise DataError(
            f"source has {source.class_count} classes but target has {target.class_count}"
        )
    return source, target, test


def _params_digest(params: np.ndarray) -> str:
    return hashlib.sha256(params.tobytes()).hexdigest()[:16]


def _pick_reference(cfg: ExperimentConfig, accs: dict[str, float]) -> str | None:
    if cfg.reference_method is not None:
        return cfg.reference_method
    if len(cfg.methods) < 2:
        return None
    candidates = [m for m in cfg.methods if m != "mwr"]
    if not candidates:
        return None
    return max(candidates, key=lambda m: (accs[m], -cfg.methods.index(m)))


def _run_cell(
    cfg: ExperimentConfig,
    file_data: tuple[Dataset, Dataset, Dataset | None] | None,
    shot: int,
    seed: int,
    manifests: list[dict],
) -> list[CellResult]:
    if cfg.data_synthetic is not None:
        data_rng = RngState(derive_seed(seed, "data", shot))
        source, target_pool = gen_synthetic_shift(cfg.data_synthetic, data_rng)
        explicit_test = None
    else:
        source, target_pool, explicit_test = file_data
    fs_spec = FewShotSpec(k=shot, seed=derive_seed(seed, "split", shot))
    t_fs, remainder = sample_few_shot(target_pool, fs_spec)
    test = explicit_test if explicit_test is not None else remainder
    if len(test) == 0:
        raise DomainError("no target test examples left after the few-shot split")

    emb = build_embedding(
        derive_seed(seed, "embedding", shot), cfg.backbone.buckets, cfg.backbone.embedding_dim
    )
    arch = BackboneArch(
        kind=cfg.backbone.kind,
        embedding=emb,
        class_count=source.class_count,
        hidden_dim=cfg.backbone.hidden_dim,
    )
    init = arch.init_params(derive_seed(seed, "init", shot))
    reg = RegulatorConfig(
        learning_rate=cfg.alpha,
        init_policy=cfg.regulator.init_policy,
        clamp_nonnegative=cfg.regulator.clamp_nonnegative,
        source_batch_size=cfg.batch_size,
        target_batch_size=cfg.regulator.target_batch_size,
    )

    records: dict[str, PredictionRecord] = {}
    accs: dict[str, float] = {}
    init_digests: dict[str, str] = {}
    for method in cfg.methods:
        model0 = ModelState(init, arch)
        spec = TrainSpec(
            method=method,
            epochs=cfg.epochs,
            alpha=cfg.alpha,
            seed=derive_seed(seed, "train", method, shot),
            batch_size=cfg.batch_size,
            regulator=reg if method == "mwr" else None,
        )
        report = run_training(spec, model0, source.examples, t_fs.examples)
        init_digests[method] = _params_digest(report.initial_params)
        records[method] = predict(report.model, test.examples)
        accs[method] = accuracy(records[method])

    manifests.append(
        {
            "shot": shot,
            "seed": seed,
            "split_seed": fs_spec.seed,
            "few_shot_indices": few_shot_indices(target_pool, fs_spec),
            "init_digest": _params_digest(init),
            "method_init_digests": init_digests,
        }
    )

    reference = _pick_reference(cfg, accs)
    out = []
    for method in cfg.methods:
        p_value = None
        if reference is not None and method != reference:
            p_value = permutation_test(
                records[method],
                records[reference],
                cfg.n_permutations,
                RngState(derive_seed(seed, "perm", shot, method)),
            )
        out.append(CellResult(method, shot, seed, accs[method], p_value, reference))
    return out


def run_experiment(cfg: ExperimentConfig) -> ResultsTable:
    """Full (shot, seed) grid; failed cells become error rows, the run continues."""
    file_data = _prepare_file_datasets(cfg.data_files) if cfg.data_files is not None else None
    rows: list[CellResult] = []
    errors: list[CellError] = []
    manifests: list[dict] = []
    for shot in cfg.shots:
        for seed in cfg.seeds:
            try:
                rows.extend(_run_cell(cfg, file_data, shot, seed, manifests))
            except (MetaweightError, OSError) as exc:
                errors.append(CellError(shot, seed, f"{type(exc).__name__}: {exc}"))
    aggregates = []
    for method in cfg.methods:
        for shot in cfg.shots:
            cell = [r.accuracy for r in rows if r.method == method and r.shot == shot]
            if cell:
                aggregates.append(AggregateRow(method, shot, sum(cell) / len(cell)))
    return ResultsTable(tuple(rows), tuple(aggregates), tuple(errors), config_to_dict(cfg), tuple(manifests))


def _csv_safe(text: str) -> str:
    return text.replace(",", ";").replace("\n", " ")


def _summary_text(table: ResultsTable) -> str:
    methods = list(dict.fromkeys(r.method for r in table.aggregates))
    shots = sorted({r.shot for r in table.aggregates})
    means = {(r.method, r.shot): r.mean_accuracy for r in table.aggregates}
    lines = ["mean target-test accuracy over seeds", ""]
    if methods and shots:
        name_w = max(len("method"), max(len(m) for m in methods))
        header = "method".ljust(name_w) + "".join(f"  {f'{s}-shot':>9}" for s in shots)
        lines.append(header)
        for method in methods:
            cells = []
            for shot in shots:
                mean = means.get((method, shot))
                cells.append(f"  {mean:>9.4f}" if mean is not None else f"  {'-':>9}")
            lines.append(method.ljust(name_w) + "".join(cells))
    else:
        lines.append("(no completed cells)")
    if table.errors:
        lines.append("")
        lines.append(f"{len(table.errors)} failed cell(s); see results.csv / results.json")
    lines.append("")
    return "\n".join(lines)


def table_to_dict(table: ResultsTable) -> dict:
    return {
        "config": table.config,
        "rows": [dataclasses.asdict(r) for r in table.rows],
        "aggregates": [dataclasses.asdict(r) for r in table.aggregates],
        "errors": [dataclasses.asdict(e) for e in table.errors],
        "manifests": list(table.manifests),
    }


def table_from_dict(payload: Mapping) -> ResultsTable:
    """Inverse of table_to_dict; a missing or malformed table is a DataError."""
    if not isinstance(payload, Mapping):
        raise DataError("results must be a JSON object")
    missing = [key for key in ("config", "rows", "aggregates", "errors") if key not in payload]
    if missing:
        raise DataError(f"results lack the key(s) {missing}")
    try:
        return ResultsTable(
            rows=tuple(CellResult(**r) for r in payload["rows"]),
            aggregates=tuple(AggregateRow(**r) for r in payload["aggregates"]),
            errors=tuple(CellError(**e) for e in payload["errors"]),
            config=dict(payload["config"]),
            manifests=tuple(payload.get("manifests", ())),
        )
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed results table: {exc}") from None


def load_results(path) -> ResultsTable:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from None
    try:
        return table_from_dict(payload)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def emit_results(table: ResultsTable, out_dir) -> dict[str, Path]:
    """Write results.csv (long form), results.json (full), summary.txt (grid)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("method,shot,seed,accuracy,p_value,reference,status\n")
        for r in table.rows:
            p = "" if r.p_value is None else repr(r.p_value)
            fh.write(f"{r.method},{r.shot},{r.seed},{r.accuracy!r},{p},{r.reference or ''},ok\n")
        for e in table.errors:
            fh.write(f",{e.shot},{e.seed},,,,error: {_csv_safe(e.message)}\n")
    json_path = out / "results.json"
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(table_to_dict(table), fh, indent=2)
        fh.write("\n")
    summary_path = out / "summary.txt"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_summary_text(table))
    return {"csv": csv_path, "json": json_path, "summary": summary_path}
