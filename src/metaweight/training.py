"""Training: three plain baselines and the reweighted source loop, behind
one entry point, `run_training`.

All methods share one optimizer, plain mini-batch gradient descent on the
SUM of per-example cross-entropies, so a batch with all-ones weights and a
reweighted step with unit weights coincide exactly. Fixed budget, no
schedule, no early stopping: a run is `epochs` full passes. Callers supply
the initial model, which makes it easy to hold the initialization constant
across methods when comparing them.

`run_training` takes examples and featurizes each training set once into a
FeatureBatch; below it everything works on rows. Every step trains on a
row slice and each epoch's target loss is scored on the run's target rows,
which gives bit for bit the numbers of featurizing each batch afresh. The
three baselines are one SGD loop over phases of rows: backbone_only is one
scored phase on the target, fine_tuning an unscored source phase and then a
scored target phase, data_merging one scored phase on the merged rows.
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


def sgd_epoch(model: ModelState, data: FeatureBatch, alpha: float, batch_size: int, rng: RngState) -> ModelState:
    """One shuffled pass of summed-loss mini-batch gradient descent over the rows."""
    if len(data) == 0:
        raise DomainError("sgd_epoch needs a non-empty dataset")
    if batch_size < 1:
        raise DomainError("batch_size must be >= 1")
    order = rng.permutation(len(data))
    params = model.params
    for start in range(0, len(order), batch_size):
        batch = data.take(order[start : start + batch_size])
        probe = ModelState(params, model.arch)
        grad = batch_weighted_gradient_fast(probe, batch, np.ones(len(batch)))
        with np.errstate(over="ignore"):
            params = params - float(alpha) * grad
    return ModelState(params, model.arch)


def _train_sgd(spec: TrainSpec, model: ModelState, phases, target: FeatureBatch) -> TrainReport:
    """Plain SGD through the phases in order, on one RNG for the run. A phase
    is (rows, scored): spec.epochs passes over the rows, each followed by the
    target loss in the trace when the phase is scored."""
    rng = RngState(derive_seed(spec.seed, spec.method))
    initial = model.params
    trace = []
    for rows, scored in phases:
        for _ in range(spec.epochs):
            model = sgd_epoch(model, rows, spec.alpha, spec.batch_size, rng)
            if scored:
                trace.append(target_loss(model.arch, model.params, target))
    return TrainReport(spec.method, spec.seed, model, initial, tuple(trace))


def _train_mwr(spec: TrainSpec, model: ModelState, source: FeatureBatch, target: FeatureBatch) -> TrainReport:
    """Reweighted source training: one regulation step per source batch.

    Weights are re-initialized fresh for every batch; the raw meta-gradients
    and regulated weights go into a WeightTrace sized for the whole run, one
    row per (step, example). Each step's source batch is linearized here,
    once, and mwr_step reuses that forward pass for every source gradient.
    """
    cfg = spec.regulator
    rng = RngState(derive_seed(spec.seed, "mwr"))
    initial = model.params
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
    """Train by spec.method, featurizing each set once for the run.

    backbone_only fits the few-shot target set alone and never reads s_train,
    which may be empty; fine_tuning runs spec.epochs passes over the source,
    then spec.epochs over the target, its loss trace covering the second
    phase; data_merging trains on the source and target concatenated; mwr
    reweights each source batch by its alignment with the target.
    """
    if spec.method == "backbone_only":
        if len(t_fs) == 0:
            raise DomainError("target few-shot set must be non-empty")
    elif len(s_train) == 0 or len(t_fs) == 0:
        raise DomainError("both training sets must be non-empty")
    arch = model.arch
    if spec.method == "data_merging":
        merged = featurize(arch, (*s_train, *t_fs))
        return _train_sgd(spec, model, ((merged, True),), merged.take(np.arange(len(s_train), len(merged))))
    source = None if spec.method == "backbone_only" else featurize(arch, s_train)
    target = featurize(arch, t_fs)
    if spec.method == "mwr":
        return _train_mwr(spec, model, source, target)
    phases = ((target, True),) if source is None else ((source, False), (target, True))
    return _train_sgd(spec, model, phases, target)


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
