"""Training loops: three plain baselines plus the reweighted source loop.

All methods share one optimizer, plain mini-batch gradient descent on the
SUM of per-example cross-entropies, so a batch with all-ones weights and a
reweighted step with unit weights coincide exactly. Fixed budget, no
schedule, no early stopping: a run is `epochs` full passes. Callers supply
the initial model, which makes it easy to hold the initialization constant
across methods when comparing them.

Each run featurizes its training sets once into a FeatureBatch and every
step trains on a row slice of it, which gives bit for bit the numbers of
featurizing each batch afresh.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
)
from .errors import ConfigError, DomainError
from .regulator import RegulatorConfig, mwr_step, target_loss
from .vectors import RngState, derive_seed

METHODS = ("backbone_only", "fine_tuning", "data_merging", "mwr")


@dataclass(frozen=True)
class TrainSpec:
    method: str
    epochs: int = 20
    alpha: float = 0.05
    seed: int = 0
    batch_size: int = 64
    regulator: RegulatorConfig | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.method == "mwr":
            if self.regulator is None:
                object.__setattr__(
                    self,
                    "regulator",
                    RegulatorConfig(learning_rate=self.alpha, source_batch_size=self.batch_size),
                )
            elif self.regulator.learning_rate != self.alpha:
                raise ConfigError("the regulator learning_rate must equal the TrainSpec alpha")
            elif self.regulator.source_batch_size != self.batch_size:
                raise ConfigError("the regulator source_batch_size must equal the TrainSpec batch_size")


@dataclass(frozen=True)
class WeightTraceRow:
    step: int
    example_id: int
    metagrad: float
    weight: float


@dataclass(frozen=True, eq=False)
class TrainReport:
    method: str
    seed: int
    model: ModelState
    initial_params: np.ndarray
    target_loss_trace: tuple[float, ...]
    weight_trace: tuple[WeightTraceRow, ...] = ()


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
        trace.append(target_loss(model.arch, model.params, t_fs))
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
        trace.append(target_loss(model.arch, model.params, t_fs))
    return TrainReport("fine_tuning", spec.seed, model, initial, tuple(trace))


def train_data_merging(
    spec: TrainSpec, model: ModelState, s_train: Sequence[Example], t_fs: Sequence[Example]
) -> TrainReport:
    """Train on the concatenated source plus few-shot target pool."""
    if len(s_train) == 0 or len(t_fs) == 0:
        raise DomainError("both training sets must be non-empty")
    merged = featurize(model.arch, merge_datasets(s_train, t_fs))
    rng = RngState(derive_seed(spec.seed, "data_merging"))
    initial = model.params
    trace = []
    for _ in range(spec.epochs):
        model = sgd_epoch(model, merged, spec.alpha, spec.batch_size, rng)
        trace.append(target_loss(model.arch, model.params, t_fs))
    return TrainReport("data_merging", spec.seed, model, initial, tuple(trace))


def train_mwr(
    spec: TrainSpec, model: ModelState, s_train: Sequence[Example], t_fs: Sequence[Example]
) -> TrainReport:
    """Reweighted source training: one regulation step per source batch.

    Weights are re-initialized fresh for every batch; the trace of raw
    meta-gradients and regulated weights is recorded per (step, example).
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
    trace = []
    rows: list[WeightTraceRow] = []
    step = 0
    for _ in range(spec.epochs):
        order = rng.permutation(len(source))
        for start in range(0, len(order), cfg.source_batch_size):
            picked = order[start : start + cfg.source_batch_size]
            detail = mwr_step(model, source.take(picked), target, cfg, rng)
            model = detail.model
            rows.extend(
                WeightTraceRow(step, ex_id, float(m), float(w))
                for ex_id, m, w in zip(picked.tolist(), detail.metagrad, detail.weights)
            )
            step += 1
        trace.append(target_loss(model.arch, model.params, t_fs))
    return TrainReport("mwr", spec.seed, model, initial, tuple(trace), tuple(rows))


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


def write_weight_trace(rows: Sequence[WeightTraceRow], path) -> None:
    """CSV trace: step, example_id, raw_metagrad, regulated_weight."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,example_id,raw_metagrad,regulated_weight\n")
        for r in rows:
            fh.write(f"{r.step},{r.example_id},{r.metagrad!r},{r.weight!r}\n")


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
