"""Training loops: three plain baselines plus the reweighted source loop.

All methods share one optimizer, plain mini-batch gradient descent on the
SUM of per-example cross-entropies, so a batch with all-ones weights and a
reweighted step with unit weights coincide exactly. Fixed budget, no
schedule, no early stopping: a run is `epochs` full passes. Callers supply
the initial model, which makes it easy to hold the initialization constant
across methods when comparing them.

Each run featurizes its training sets once into a FeatureBatch, every step
trains on a row slice of it and each epoch's target loss is scored on the
run's target rows, which gives bit for bit the numbers of featurizing each
batch afresh.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .backbones import (
    BackboneArch,
    Example,
    FeatureBatch,
    ModelState,
    batch_weighted_gradient_fast,
    build_embedding,
    featurize,
    linearize,
)
from .errors import ConfigError, DomainError
from .regulator import RegulatorConfig, mwr_step, target_loss
from .vectors import RngState, derive_seed

METHODS = ("backbone_only", "fine_tuning", "data_merging", "mwr")
# Largest epochs a run may ask for. A run is `epochs` full passes, and mwr
# preallocates its weight trace at epochs x len(source) rows, so both time and
# trace memory are linear in epochs; the cap is 500x the 20 of the committed
# configs, and keeps a typo such as 10^20 from failing in that allocation or
# looping for ever.
MAX_EPOCHS = 10**4


@dataclass(frozen=True)
class TrainSpec:
    """One training run. For mwr the regulator (default RegulatorConfig())
    is stored resolved: its learning_rate and source_batch_size, where None
    means "the TrainSpec's", become alpha and batch_size, and a given value
    that differs is a ConfigError."""

    method: str
    epochs: int = 20
    alpha: float = 0.05
    seed: int = 0
    batch_size: int = 64
    regulator: RegulatorConfig | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not 1 <= self.epochs <= MAX_EPOCHS:
            raise ConfigError(f"epochs must be between 1 and the cap of {MAX_EPOCHS}, got {self.epochs}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError(f"alpha must be a finite number > 0, got {self.alpha}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.method == "mwr":
            reg = self.regulator or RegulatorConfig()
            if reg.learning_rate not in (None, self.alpha):
                raise ConfigError("the regulator learning_rate must equal the TrainSpec alpha")
            if reg.source_batch_size not in (None, self.batch_size):
                raise ConfigError("the regulator source_batch_size must equal the TrainSpec batch_size")
            resolved = replace(reg, learning_rate=self.alpha, source_batch_size=self.batch_size)
            object.__setattr__(self, "regulator", resolved)


@dataclass(frozen=True)
class WeightTraceRow:
    step: int
    example_id: int
    metagrad: float
    weight: float


@dataclass(frozen=True, eq=False)
class WeightTrace:
    """The per-(step, example) trace of an mwr run as four columns.

    Read row by row it is a sequence of WeightTraceRow (length, indexing,
    iteration), and it equals another trace with equal columns or a sequence
    of equal rows.
    """

    step: np.ndarray
    example_id: np.ndarray
    metagrad: np.ndarray
    weight: np.ndarray

    @classmethod
    def zeros(cls, n: int = 0) -> WeightTrace:
        return cls(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), np.zeros(n), np.zeros(n))

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return self.step, self.example_id, self.metagrad, self.weight

    def __len__(self) -> int:
        return int(self.step.shape[0])

    def __iter__(self):
        return map(WeightTraceRow, *(column.tolist() for column in self.columns))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(WeightTrace(*(column[index] for column in self.columns)))
        return WeightTraceRow(*(column[index].item() for column in self.columns))

    def __eq__(self, other):
        if isinstance(other, WeightTrace):
            return all(np.array_equal(a, b) for a, b in zip(self.columns, other.columns))
        if isinstance(other, (tuple, list)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None


@dataclass(frozen=True, eq=False)
class TrainReport:
    method: str
    seed: int
    model: ModelState
    initial_params: np.ndarray
    target_loss_trace: tuple[float, ...]
    weight_trace: WeightTrace = field(default_factory=WeightTrace.zeros)


def merge_datasets(s_train: Sequence[Example], t_fs: Sequence[Example]) -> tuple[Example, ...]:
    """Concatenated training pool used by the data-merging baseline."""
    return tuple(s_train) + tuple(t_fs)


def sgd_epoch(
    model: ModelState, data: FeatureBatch | Sequence[Example], alpha: float, batch_size: int, rng: RngState
) -> ModelState:
    """One shuffled pass of summed-loss mini-batch gradient descent."""
    if len(data) == 0:
        raise DomainError("sgd_epoch needs a non-empty dataset")
    if batch_size < 1:
        raise DomainError("batch_size must be >= 1")
    if not isinstance(data, FeatureBatch):
        data = featurize(model.arch, data)
    order = rng.permutation(len(data))
    params = model.params
    for start in range(0, len(order), batch_size):
        batch = data.take(order[start : start + batch_size])
        probe = ModelState(params, model.arch)
        grad = batch_weighted_gradient_fast(probe, batch, np.ones(len(batch)))
        with np.errstate(over="ignore"):
            params = params - float(alpha) * grad
    return ModelState(params, model.arch)


def train_backbone_only(spec: TrainSpec, model: ModelState, t_fs: Sequence[Example]) -> TrainReport:
    """Fit on the few-shot target set alone."""
    if len(t_fs) == 0:
        raise DomainError("target few-shot set must be non-empty")
    rng = RngState(derive_seed(spec.seed, "backbone_only"))
    initial = model.params
    target = featurize(model.arch, t_fs)
    trace = []
    for _ in range(spec.epochs):
        model = sgd_epoch(model, target, spec.alpha, spec.batch_size, rng)
        trace.append(target_loss(model.arch, model.params, target))
    return TrainReport("backbone_only", spec.seed, model, initial, tuple(trace))


def train_fine_tuning(
    spec: TrainSpec, model: ModelState, s_train: Sequence[Example], t_fs: Sequence[Example]
) -> TrainReport:
    """Pretrain on the source set, then fine-tune on the few-shot target set.

    Each phase runs spec.epochs passes. The loss trace covers the target
    fine-tuning phase, so its length stays equal to epochs.
    """
    if len(s_train) == 0 or len(t_fs) == 0:
        raise DomainError("both training sets must be non-empty")
    rng = RngState(derive_seed(spec.seed, "fine_tuning"))
    initial = model.params
    source = featurize(model.arch, s_train)
    for _ in range(spec.epochs):
        model = sgd_epoch(model, source, spec.alpha, spec.batch_size, rng)
    target = featurize(model.arch, t_fs)
    trace = []
    for _ in range(spec.epochs):
        model = sgd_epoch(model, target, spec.alpha, spec.batch_size, rng)
        trace.append(target_loss(model.arch, model.params, target))
    return TrainReport("fine_tuning", spec.seed, model, initial, tuple(trace))


def train_data_merging(
    spec: TrainSpec, model: ModelState, s_train: Sequence[Example], t_fs: Sequence[Example]
) -> TrainReport:
    """Train on the concatenated source plus few-shot target pool."""
    if len(s_train) == 0 or len(t_fs) == 0:
        raise DomainError("both training sets must be non-empty")
    merged = featurize(model.arch, merge_datasets(s_train, t_fs))
    target = merged.take(np.arange(len(s_train), len(merged)))
    rng = RngState(derive_seed(spec.seed, "data_merging"))
    initial = model.params
    trace = []
    for _ in range(spec.epochs):
        model = sgd_epoch(model, merged, spec.alpha, spec.batch_size, rng)
        trace.append(target_loss(model.arch, model.params, target))
    return TrainReport("data_merging", spec.seed, model, initial, tuple(trace))


def train_mwr(
    spec: TrainSpec, model: ModelState, s_train: Sequence[Example], t_fs: Sequence[Example]
) -> TrainReport:
    """Reweighted source training: one regulation step per source batch.

    Weights are re-initialized fresh for every batch; the raw meta-gradients
    and regulated weights go into a WeightTrace sized for the whole run, one
    row per (step, example). Each step's source batch is linearized here,
    once, and mwr_step reuses that forward pass for every source gradient.
    """
    if len(s_train) == 0 or len(t_fs) == 0:
        raise DomainError("both training sets must be non-empty")
    cfg = spec.regulator
    if cfg is None:
        raise ConfigError("mwr training needs a RegulatorConfig")
    rng = RngState(derive_seed(spec.seed, "mwr"))
    initial = model.params
    source = featurize(model.arch, s_train)
    target = featurize(model.arch, t_fs)
    n = len(source)
    trace = []
    weight_trace = WeightTrace.zeros(spec.epochs * n)
    step = 0
    for epoch in range(spec.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.source_batch_size):
            picked = order[start : start + cfg.source_batch_size]
            detail = mwr_step(model, linearize(model, source.take(picked)), target, cfg, rng)
            model = detail.model
            rows = slice(epoch * n + start, epoch * n + start + len(picked))
            weight_trace.step[rows] = step
            weight_trace.example_id[rows] = picked
            weight_trace.metagrad[rows] = detail.metagrad
            weight_trace.weight[rows] = detail.weights
            step += 1
        trace.append(target_loss(model.arch, model.params, target))
    return TrainReport("mwr", spec.seed, model, initial, tuple(trace), weight_trace)


def run_training(
    spec: TrainSpec, model: ModelState, s_train: Sequence[Example], t_fs: Sequence[Example]
) -> TrainReport:
    """Dispatch one TrainSpec; s_train may be empty only for backbone_only."""
    if spec.method == "backbone_only":
        return train_backbone_only(spec, model, t_fs)
    if spec.method == "fine_tuning":
        return train_fine_tuning(spec, model, s_train, t_fs)
    if spec.method == "data_merging":
        return train_data_merging(spec, model, s_train, t_fs)
    return train_mwr(spec, model, s_train, t_fs)


def write_weight_trace(trace: WeightTrace, path) -> None:
    """CSV trace: step, example_id, raw_metagrad, regulated_weight."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,example_id,raw_metagrad,regulated_weight\n")
        fh.writelines(
            f"{step},{example_id},{metagrad!r},{weight!r}\n"
            for step, example_id, metagrad, weight in zip(*(column.tolist() for column in trace.columns))
        )


def arch_to_dict(arch: BackboneArch) -> dict:
    return {
        "kind": arch.kind,
        "class_count": arch.class_count,
        "hidden_dim": arch.hidden_dim,
        "embedding": {"seed": arch.embedding.seed, "buckets": arch.embedding.buckets, "dim": arch.embedding.dim},
    }


def arch_from_dict(payload: dict) -> BackboneArch:
    emb = payload["embedding"]
    return BackboneArch(
        kind=payload["kind"],
        class_count=payload["class_count"],
        hidden_dim=payload["hidden_dim"],
        embedding=build_embedding(emb["seed"], emb["buckets"], emb["dim"]),
    )


def report_to_dict(report: TrainReport) -> dict:
    """JSON-ready report; the weight trace goes to CSV, not here."""
    return {
        "method": report.method,
        "seed": report.seed,
        "arch": arch_to_dict(report.model.arch),
        "final_params": [float(x) for x in report.model.params],
        "initial_params": [float(x) for x in report.initial_params],
        "target_loss_trace": [float(x) for x in report.target_loss_trace],
        "weight_trace_rows": len(report.weight_trace),
    }


def report_from_dict(payload: dict) -> TrainReport:
    arch = arch_from_dict(payload["arch"])
    return TrainReport(
        method=payload["method"],
        seed=payload["seed"],
        model=ModelState(np.array(payload["final_params"]), arch),
        initial_params=np.array(payload["initial_params"]),
        target_loss_trace=tuple(payload["target_loss_trace"]),
    )


def save_report(report: TrainReport, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")


def load_report(path) -> TrainReport:
    with open(path, encoding="utf-8") as fh:
        return report_from_dict(json.load(fh))
