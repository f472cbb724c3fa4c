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
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .backbones import BACKBONE_KINDS, MAX_EMBEDDING_ENTRIES, BackboneArch, ModelState, build_embedding, param_count
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

    def __post_init__(self):
        if self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")


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
        # two classes is the fewest a backbone takes, so this is a lower bound
        param_count(self.kind, self.embedding_dim, 2, self.hidden_dim)

    def arch(self, class_count: int, embedding_seed: int) -> BackboneArch:
        """This backbone at class_count classes, over the table drawn from embedding_seed."""
        emb = build_embedding(embedding_seed, self.buckets, self.embedding_dim)
        return BackboneArch(self.kind, emb, class_count, self.hidden_dim)


# Largest n_permutations a config may ask for. A permutation test computes
# n_perm words per example on which the two methods differ, so its time is
# linear in n_perm; the cap is 1000x the 10^4 of the committed configs and
# the benchmark, and keeps a typo such as 10^18 from running for years.
MAX_PERMUTATIONS = 10**7


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment grid. alpha and batch_size are the one copy of
    the step size and the batch size: the regulator's learning_rate and
    source_batch_size stay None ("the TrainSpec's"), and every mwr run's
    TrainSpec fills them in."""

    data_synthetic: ShiftSpec | None = None
    data_files: FileData | None = None
    backbone: BackboneConfig = BackboneConfig()
    methods: tuple[str, ...] = ()
    shots: tuple[int, ...] = ()
    seeds: tuple[int, ...] = ()
    alpha: float = 0.05
    epochs: int = 20
    batch_size: int = 64
    regulator: RegulatorConfig = RegulatorConfig()
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
        # alpha, epochs, batch_size and the regulator, as every run will check them
        TrainSpec("mwr", self.epochs, self.alpha, batch_size=self.batch_size, regulator=self.regulator)
        if self.reference_method is not None and self.reference_method not in self.methods:
            raise ConfigError(f"reference method {self.reference_method!r} is not in methods")
        if not 1 <= self.n_permutations <= MAX_PERMUTATIONS:
            raise ConfigError(
                f"n_permutations must be between 1 and the cap of {MAX_PERMUTATIONS}, got {self.n_permutations}"
            )


# The section classes that field annotations (strings) name.
_SECTIONS = {cls.__name__: cls for cls in (BackboneConfig, RegulatorConfig)}
# Fields a section's JSON does not hold under their own name: the regulator's
# learning_rate and source_batch_size are the config's alpha and batch_size,
# and the data fields are the "synthetic" or "files" key of its "data" section.
_HIDDEN = {
    RegulatorConfig: ("learning_rate", "source_batch_size"),
    ExperimentConfig: ("data_synthetic", "data_files"),
}
# The scalar annotations, the Python types each accepts and how an error
# names it; bool is never a number here.
_KINDS = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
}


def _fields(cls) -> dict[str, str]:
    """The JSON keys of a section, each with its field's annotation."""
    return {f.name: f.type for f in dataclasses.fields(cls) if f.name not in _HIDDEN.get(cls, ())}


def _require_keys(mapping: Mapping, allowed, where: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _is_a(value, kind: str) -> bool:
    types = _KINDS[kind][0]
    return isinstance(value, types) and isinstance(value, bool) == (bool in types)


def _parse(annotation: str, value, where: str):
    """value as a field annotated `annotation` holds it: a section class, a
    `tuple[T, ...]` (a JSON list) or a _KINDS scalar, each alone or
    `| None`. A value of another type is a ConfigError naming `where`."""
    kinds = annotation.split(" | ")
    if value is None and "None" in kinds:
        return None
    if kinds[0] in _SECTIONS:
        return _section(_SECTIONS[kinds[0]], value, where)
    if kinds[0].startswith("tuple["):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        item = kinds[0][len("tuple[") : -len(", ...]")]
        return tuple(_parse(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    if not any(_is_a(value, k) for k in kinds if k != "None"):
        wanted = " or ".join(_KINDS[k][1] if k in _KINDS else "null" for k in kinds)
        raise ConfigError(f"{where} must be {wanted}, got {value!r}")
    return value


def _section(cls, mapping, where: str, **given):
    """cls from a JSON section (where "" is the whole config), each key
    parsed by its field's annotation; `given` holds the hidden fields."""
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {mapping!r}")
    fields = _fields(cls)
    _require_keys(mapping, fields, where or "config")
    parsed = {key: _parse(fields[key], value, f"{where}.{key}" if where else key) for key, value in mapping.items()}
    try:
        return cls(**given, **parsed)
    except TypeError as exc:
        raise ConfigError(f"bad {where} section: {exc}") from None


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    """Strict parse: every unknown key at any level is an error, every section
    must be a mapping, and every value must have the type its field declares."""
    if not isinstance(raw, Mapping):
        raise ConfigError("config must be a mapping")
    data = raw.get("data")
    if not isinstance(data, Mapping):
        raise ConfigError("config needs a 'data' section")
    sources = {"synthetic": ShiftSpec, "files": FileData}
    _require_keys(data, sources, "data")
    given = {f"data_{key}": _section(sources[key], value, f"data.{key}") for key, value in data.items()}
    return _section(ExperimentConfig, {key: value for key, value in raw.items() if key != "data"}, "", **given)


def _plain(value):
    """Dataclasses to dicts (without hidden fields) and tuples to lists, recursively."""
    if dataclasses.is_dataclass(value):
        return {name: _plain(getattr(value, name)) for name in _fields(type(value))}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The JSON form config_from_dict reads back, keys in field order."""
    data = {"synthetic": _plain(cfg.data_synthetic)} if cfg.data_files is None else {"files": _plain(cfg.data_files)}
    return {"data": data, **_plain(cfg)}


def _read_json(path, error: type[MetaweightError]):
    """The JSON value in a UTF-8 file; text that is not raises `error` naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: invalid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not valid UTF-8 text ({exc.reason})") from None


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_read_json(path, ConfigError))


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

    arch = cfg.backbone.arch(source.class_count, derive_seed(seed, "embedding", shot))
    init = arch.init_params(derive_seed(seed, "init", shot))

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
            regulator=cfg.regulator if method == "mwr" else None,
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
    if file_data is not None:  # the parse checked the backbone at two classes; files may have more
        b = cfg.backbone
        param_count(b.kind, b.embedding_dim, file_data[0].class_count, b.hidden_dim)
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
    out = _plain(table)
    return {"config": out.pop("config"), **out}


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
    payload = _read_json(path, DataError)
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
