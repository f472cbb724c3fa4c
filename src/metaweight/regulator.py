"""Batchwise source reweighting by gradient alignment with a small target set.

For one source batch with fresh weights w the step runs:

  1. provisional update: theta_tilde = theta - alpha * sum_i w_i g_i, where
     g_i is the per-example gradient at the original theta
  2. target probe: evaluate the gradient of the summed target loss at
     theta_tilde
  3. weight regulation: the derivative of that target loss with respect to
     w_i is -alpha * <g_i, grad_target(theta_tilde)>, exactly, because
     theta_tilde is linear in w with d theta_tilde / d w_i = -alpha * g_i;
     one descent step gives
     w~_i = w_i + alpha^2 * <g_i, grad_target(theta_tilde)>, optionally
     clamped at zero so no source example is trained against
  4. real update, restarted from the ORIGINAL theta:
     theta' = theta - alpha * sum_i w~_i g_i

mwr_step is exactly init_weights, select_target_batch, weight_meta_gradient
(steps 1 to 3), regulate_weights and weighted_training_step composed, so the
finite-difference checks exercise the code that trains. Each gradient and
alignment is one batched backbone call; no g_i is ever formed.

Weights never persist across batches: every batch starts from its
configured initialization. With zero initialization the provisional update
is skipped, theta_tilde is theta itself, and the regulated weights reduce to
alpha^2 * <g_i, grad_target(theta)>; the whole step is then a positive
semi-definite preconditioning of target-loss descent by the source
gradients, so aligned source examples are promoted and conflicting ones
are silenced. Reductions over examples are fixed matrix reductions, so
repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backbones import (
    Example,
    FeatureBatch,
    ModelState,
    alignment_scores,
    batch_loss,
    batch_weighted_gradient_fast,
)
from .errors import ConfigError, DimensionError, DomainError
from .vectors import RngState, as_vector, require_finite, require_same_length, sample_uniform

INIT_POLICIES = ("zero", "one", "random")
TARGET_BATCH_CAP = 256


@dataclass(frozen=True)
class RegulatorConfig:
    """Hyperparameters of the reweighting step; one learning rate drives
    the provisional update, the weight regulation, and the real update."""

    learning_rate: float = 0.05
    init_policy: str = "zero"
    clamp_nonnegative: bool = True
    source_batch_size: int = 64
    target_batch_size: int | None = None  # None: full target set, capped at TARGET_BATCH_CAP

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be a finite number > 0, got {self.learning_rate}")
        if self.init_policy not in INIT_POLICIES:
            raise ConfigError(f"unknown init policy {self.init_policy!r}; expected one of {INIT_POLICIES}")
        if self.source_batch_size < 1:
            raise ConfigError("source_batch_size must be >= 1")
        if self.target_batch_size is not None and self.target_batch_size < 1:
            raise ConfigError("target_batch_size must be >= 1 when given")


def init_weights(n: int, policy: str, rng: RngState) -> np.ndarray:
    """Fresh per-example weights for one batch: zeros, ones, or uniform [0, 1)."""
    if n < 1:
        raise DomainError("weight count must be >= 1")
    if policy == "zero":
        return np.zeros(n)
    if policy == "one":
        return np.ones(n)
    if policy == "random":
        return sample_uniform(rng, 0.0, 1.0, n)
    raise ConfigError(f"unknown init policy {policy!r}; expected one of {INIT_POLICIES}")


def virtual_update(
    model: ModelState, batch: FeatureBatch | Sequence[Example], weights, alpha: float
) -> np.ndarray:
    """Provisional parameters theta - alpha * sum_i w_i g_i; the model is untouched.

    The result is linear in the weights (d theta_tilde / d w_i = -alpha * g_i),
    which is exactly the dependence the meta-gradient differentiates through.
    All-zero weights return the model's parameters themselves.
    """
    weights = as_vector(weights)
    if weights.shape[0] != len(batch):
        raise DimensionError(f"{len(batch)} examples but {weights.shape[0]} weights")
    if not weights.any():
        return model.params
    return model.params - float(alpha) * batch_weighted_gradient_fast(model, batch, weights)


def target_loss(arch, theta_tilde, target_set: Sequence[Example]) -> float:
    """Summed cross-entropy of the target examples at the given parameters."""
    if len(target_set) == 0:
        raise DomainError("target set must be non-empty")
    return batch_loss(ModelState(theta_tilde, arch), target_set)


def target_gradient(arch, theta, target_set: FeatureBatch | Sequence[Example]) -> np.ndarray:
    """Gradient of the summed target loss at theta."""
    if len(target_set) == 0:
        raise DomainError("target set must be non-empty")
    return batch_weighted_gradient_fast(ModelState(theta, arch), target_set, np.ones(len(target_set)))


def weight_meta_gradient(
    model: ModelState,
    batch: FeatureBatch | Sequence[Example],
    weights,
    target_set: FeatureBatch | Sequence[Example],
    alpha: float,
) -> np.ndarray:
    """d target_loss(virtual_update(w)) / d w, one entry per source example.

    Entry i is -alpha * <g_i(theta), grad_target(theta_tilde)>. This is the
    exact derivative, not an approximation: g_i is evaluated at the original
    theta and does not depend on w, so the composed map is linear inside the
    target loss.
    """
    theta_tilde = virtual_update(model, batch, weights, alpha)
    tgrad = target_gradient(model.arch, theta_tilde, target_set)
    return -float(alpha) * alignment_scores(model, batch, tgrad)


def regulate_weights(weights, metagrad, alpha: float, clamp: bool = True) -> np.ndarray:
    """One descent step on the weights, optionally clamped at zero."""
    weights = as_vector(weights)
    metagrad = as_vector(metagrad)
    require_same_length(weights, metagrad)
    out = weights - float(alpha) * metagrad
    if clamp:
        np.maximum(out, 0.0, out=out)
    return require_finite(out, "regulated weights")


def weighted_training_step(
    model: ModelState, batch: FeatureBatch | Sequence[Example], regulated, alpha: float
) -> ModelState:
    """Real update from the ORIGINAL parameters with the regulated weights.

    The provisional parameters are discarded; only the weights they produced
    survive into this step.
    """
    grad = batch_weighted_gradient_fast(model, batch, regulated)
    return ModelState(model.params - float(alpha) * grad, model.arch)


def select_target_batch(
    target_set: FeatureBatch | Sequence[Example], cfg: RegulatorConfig, rng: RngState
) -> FeatureBatch | tuple[Example, ...]:
    """Target examples for one step: the full set, or a class-balanced seeded draw.

    With target_batch_size None the full set is used whenever it holds at
    most TARGET_BATCH_CAP examples; larger sets fall back to a balanced
    draw of TARGET_BATCH_CAP. The draw takes one permutation per class in
    ascending class order and keeps the picked rows in set order. A
    FeatureBatch gives a FeatureBatch of the picked rows (the set itself
    when it is used whole); examples give a tuple of examples.
    """
    rows = isinstance(target_set, FeatureBatch)
    size = cfg.target_batch_size
    if size is None:
        size = min(len(target_set), TARGET_BATCH_CAP)
    if size >= len(target_set):
        return target_set if rows else tuple(target_set)
    if rows:
        labels = target_set.labels
    else:
        labels = np.fromiter((ex.label for ex in target_set), dtype=np.int64, count=len(target_set))
    classes = np.unique(labels)
    base, extra = divmod(size, len(classes))
    chosen = []
    for rank, cls in enumerate(classes):
        members = np.flatnonzero(labels == cls)
        take = min(base + (1 if rank < extra else 0), len(members))
        order = rng.permutation(len(members))
        chosen.append(members[order[:take]])
    picked = np.sort(np.concatenate(chosen))
    return target_set.take(picked) if rows else tuple(target_set[i] for i in picked)


@dataclass(frozen=True, eq=False)
class StepDetail:
    """Everything one regulation step produced, for tracing and analysis."""

    model: ModelState
    weights: np.ndarray
    metagrad: np.ndarray
    initial_weights: np.ndarray


def mwr_step(
    model: ModelState,
    source_batch: FeatureBatch | Sequence[Example],
    target_set: FeatureBatch | Sequence[Example],
    cfg: RegulatorConfig,
    rng: RngState,
) -> StepDetail:
    """One full regulation step: the public operations composed in order.

    Both sets may be FeatureBatch rows or example sequences; either gives
    bit-identical results. An empty source batch or target set is a
    DomainError.
    """
    alpha = cfg.learning_rate
    initial = init_weights(len(source_batch), cfg.init_policy, rng)
    target_batch = select_target_batch(target_set, cfg, rng)
    metagrad = weight_meta_gradient(model, source_batch, initial, target_batch, alpha)
    regulated = regulate_weights(initial, metagrad, alpha, cfg.clamp_nonnegative)
    new_model = weighted_training_step(model, source_batch, regulated, alpha)
    return StepDetail(model=new_model, weights=regulated, metagrad=metagrad, initial_weights=initial)
