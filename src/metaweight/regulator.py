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

Steps 1, 3 and 4 read the source batch at the same theta, so the step
linearizes it once (`backbones.linearize`: rows, hidden layer and
p - onehot, tied to the model they were taken at) and passes that one
object to the provisional update, the alignment and the real update; a step
runs one forward pass over the source batch and one over the target batch.
The per-step trace of metagradients and weights is kept by the caller, in
the columns of a `training.WeightTrace`.

Every function here takes feature rows: a FeatureBatch, or a source batch
already linearized. virtual_update, weight_meta_gradient, target_loss and
target_gradient also take example lists, which they featurize on entry
(`backbones.as_rows`), with bit for bit the results of the rows.

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
    Batch,
    Example,
    FeatureBatch,
    ModelState,
    alignment_scores,
    as_rows,
    batch_loss,
    batch_weighted_gradient_fast,
    linearize,
)
from .errors import ConfigError, DimensionError, DomainError
from .vectors import RngState, as_vector, require_finite, require_same_length, sample_uniform

INIT_POLICIES = ("zero", "one", "random")
TARGET_BATCH_CAP = 256


@dataclass(frozen=True)
class RegulatorConfig:
    """Hyperparameters of the reweighting step; one learning rate drives
    the provisional update, the weight regulation, and the real update.
    learning_rate and source_batch_size None mean "the TrainSpec's": a
    TrainSpec fills in its alpha and batch_size. Given values are checked."""

    learning_rate: float | None = None
    init_policy: str = "zero"
    clamp_nonnegative: bool = True
    source_batch_size: int | None = None
    target_batch_size: int | None = None  # None: full target set, capped at TARGET_BATCH_CAP

    def __post_init__(self):
        if self.learning_rate is not None and not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be a finite number > 0, got {self.learning_rate}")
        if self.init_policy not in INIT_POLICIES:
            raise ConfigError(f"unknown init policy {self.init_policy!r}; expected one of {INIT_POLICIES}")
        if self.source_batch_size is not None and self.source_batch_size < 1:
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


def virtual_update(model: ModelState, batch: Batch | Sequence[Example], weights, alpha: float) -> np.ndarray:
    """Provisional parameters theta - alpha * sum_i w_i g_i; the model is untouched.

    The result is linear in the weights (d theta_tilde / d w_i = -alpha * g_i),
    which is exactly the dependence the meta-gradient differentiates through.
    All-zero weights return the model's parameters themselves.
    """
    batch = as_rows(model.arch, batch)
    weights = as_vector(weights)
    if weights.shape[0] != len(batch):
        raise DimensionError(f"{len(batch)} examples but {weights.shape[0]} weights")
    if not weights.any():
        return model.params
    return model.params - float(alpha) * batch_weighted_gradient_fast(model, batch, weights)


def target_loss(arch, theta_tilde, target_set: Batch | Sequence[Example]) -> float:
    """Summed cross-entropy of the target examples at the given parameters."""
    if len(target_set) == 0:
        raise DomainError("target set must be non-empty")
    return batch_loss(ModelState(theta_tilde, arch), as_rows(arch, target_set))


def target_gradient(arch, theta, target_set: Batch | Sequence[Example]) -> np.ndarray:
    """Gradient of the summed target loss at theta."""
    return _probe(ModelState(theta, arch), as_rows(arch, target_set))


def _probe(model: ModelState, target_set: Batch) -> np.ndarray:
    """Gradient of the summed target loss at the model's parameters."""
    if len(target_set) == 0:
        raise DomainError("target set must be non-empty")
    return batch_weighted_gradient_fast(model, target_set, np.ones(len(target_set)))


def weight_meta_gradient(
    model: ModelState,
    batch: Batch | Sequence[Example],
    weights,
    target_set: Batch | Sequence[Example],
    alpha: float,
) -> np.ndarray:
    """d target_loss(virtual_update(w)) / d w, one entry per source example.

    Entry i is -alpha * <g_i(theta), grad_target(theta_tilde)>. This is the
    exact derivative, not an approximation: g_i is evaluated at the original
    theta and does not depend on w, so the composed map is linear inside the
    target loss.
    """
    batch, target_set = as_rows(model.arch, batch), as_rows(model.arch, target_set)
    theta_tilde = virtual_update(model, batch, weights, alpha)
    # all-zero weights give model.params itself: probe at the model, whose
    # parameters are already checked, rather than at a copy of them
    probe = model if theta_tilde is model.params else ModelState(theta_tilde, model.arch)
    tgrad = _probe(probe, target_set)
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


def weighted_training_step(model: ModelState, batch: Batch, regulated, alpha: float) -> ModelState:
    """Real update from the ORIGINAL parameters with the regulated weights.

    The provisional parameters are discarded; only the weights they produced
    survive into this step.
    """
    grad = batch_weighted_gradient_fast(model, batch, regulated)
    return ModelState(model.params - float(alpha) * grad, model.arch)


def select_target_batch(target_set: FeatureBatch, cfg: RegulatorConfig, rng: RngState) -> FeatureBatch:
    """Target rows for one step: the full set, or a class-balanced seeded draw.

    With target_batch_size None the full set is used whenever it holds at
    most TARGET_BATCH_CAP examples; larger sets fall back to a balanced
    draw of TARGET_BATCH_CAP. The draw orders each class's members by one
    uniform each, classes in ascending order, and keeps the first of each
    class in set order: the words and picks of one `permutation` per class,
    from one `uniforms` call. The set keeps its class members, so a run
    lists them once; the result is the set itself when it is used whole.
    """
    size = cfg.target_batch_size
    if size is None:
        size = min(len(target_set), TARGET_BATCH_CAP)
    if size >= len(target_set):
        return target_set
    members = target_set.class_members
    draws = rng.uniforms(len(target_set))
    base, extra = divmod(size, len(members))
    chosen = []
    start = 0
    for rank, cls_members in enumerate(members):
        stop = start + len(cls_members)
        order = np.argsort(draws[start:stop], kind="stable")
        chosen.append(cls_members[order[: base + (1 if rank < extra else 0)]])
        start = stop
    return target_set.take(np.sort(np.concatenate(chosen)))


@dataclass(frozen=True, eq=False)
class StepDetail:
    """Everything one regulation step produced, for tracing and analysis."""

    model: ModelState
    weights: np.ndarray
    metagrad: np.ndarray
    initial_weights: np.ndarray


def mwr_step(
    model: ModelState,
    source_batch: Batch,
    target_set: FeatureBatch,
    cfg: RegulatorConfig,
    rng: RngState,
) -> StepDetail:
    """One full regulation step: the public operations composed in order.

    The source batch is linearized once at the model, or used as given when
    it is already a Linearized of this model, and that one linearization
    serves the provisional update, the alignment and the real update; a
    FeatureBatch source gives bit-identical results. An empty source batch
    or target set is a DomainError, a config without a learning_rate a
    ConfigError.
    """
    alpha = cfg.learning_rate
    if alpha is None:
        raise ConfigError("mwr_step needs a learning_rate; give one or let a TrainSpec fill in its alpha")
    initial = init_weights(len(source_batch), cfg.init_policy, rng)
    target_batch = select_target_batch(target_set, cfg, rng)
    source_batch = linearize(model, source_batch)
    metagrad = weight_meta_gradient(model, source_batch, initial, target_batch, alpha)
    regulated = regulate_weights(initial, metagrad, alpha, cfg.clamp_nonnegative)
    new_model = weighted_training_step(model, source_batch, regulated, alpha)
    return StepDetail(model=new_model, weights=regulated, metagrad=metagrad, initial_weights=initial)
