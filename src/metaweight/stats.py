"""Accuracy and the paired sign-flip permutation test."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backbones import Example, ModelState, _probs, example_features
from .errors import DimensionError, DomainError
from .vectors import RngState, require_finite


@dataclass(frozen=True, eq=False)
class PredictionRecord:
    """Predicted and true class per example, aligned by position."""

    predicted: np.ndarray
    true: np.ndarray

    def __post_init__(self):
        pred = np.asarray(self.predicted, dtype=np.int64)
        true = np.asarray(self.true, dtype=np.int64)
        if pred.ndim != 1 or true.ndim != 1 or pred.shape != true.shape:
            raise DimensionError("prediction and truth vectors must be 1-D and equal length")
        if len(pred) and (pred.min() < 0 or true.min() < 0):
            raise DomainError("class ids must be non-negative")
        pred.setflags(write=False)
        true.setflags(write=False)
        object.__setattr__(self, "predicted", pred)
        object.__setattr__(self, "true", true)

    def __len__(self) -> int:
        return int(self.predicted.shape[0])


def predict(model: ModelState, examples: Sequence[Example]) -> PredictionRecord:
    """Argmax class per example (lowest index wins ties), from one batched
    forward pass. Truth labels are carried over unchecked against the model's
    class count."""
    arch = model.arch
    rows = [example_features(arch, ex) for ex in examples]
    X = np.array(rows, dtype=np.float64).reshape(len(rows), arch.feature_dim)
    X *= arch.input_scale
    probs = require_finite(_probs(arch, model.params, X), "forward probabilities")
    true = np.fromiter((ex.label for ex in examples), dtype=np.int64, count=len(examples))
    return PredictionRecord(probs.argmax(axis=1), true)


def accuracy(record: PredictionRecord) -> float:
    """Fraction of correct predictions."""
    if len(record) == 0:
        raise DomainError("cannot score an empty prediction record")
    return float(np.mean(record.predicted == record.true))


# Words computed per block of the permutation test: small enough that the
# block and its temporaries stay in cache, large enough to amortize numpy calls.
_BLOCK_WORDS = 1 << 15


def permutation_test(
    preds_a: PredictionRecord, preds_b: PredictionRecord, n_perm: int, rng: RngState
) -> float:
    """Two-sided paired sign-flip permutation test on per-example correctness.

    The statistic is |acc_a - acc_b|. Each permutation swaps the two
    methods' correctness per example with probability one half. The p-value
    uses the add-one estimator (1 + #{permuted >= observed}) / (1 + n_perm),
    so it is never zero and equals 1.0 when the predictions agree everywhere.

    Permutation t flips example j when uniform number t * n + j of `rng` is
    below one half, that is when the top bit of that word is clear. With
    diff_j = correct_a_j - correct_b_j, the permuted sum is
    S_t = 2 * sum_j bit_tj diff_j - sum_j diff_j, and only the m examples with
    diff_j != 0 contribute, so only their n_perm x m words are computed, in
    blocks of about _BLOCK_WORDS, straight from the counter. Every S_t is a
    sum of +-1 terms and exact in float64, so the p-value equals that of
    drawing all n_perm x n uniforms; the cursor advances past them all.
    """
    if n_perm < 1:
        raise DomainError("n_perm must be >= 1")
    if len(preds_a) != len(preds_b) or not np.array_equal(preds_a.true, preds_b.true):
        raise DomainError("permutation test needs two prediction records over the same examples")
    if len(preds_a) == 0:
        raise DomainError("cannot test empty prediction records")
    diff = (preds_a.predicted == preds_a.true).astype(np.float64) - (
        preds_b.predicted == preds_b.true
    )
    n = diff.shape[0]
    observed = abs(float(diff.mean()))
    cols = np.flatnonzero(diff).astype(np.uint64)
    vals = diff[cols]
    total = vals.sum()
    if cols.size == 0:
        exceed = n_perm  # every permuted sum is 0, and so is the observed one
    else:
        exceed = 0
        rows = max(1, _BLOCK_WORDS // cols.size)
        for start in range(0, n_perm, rows):
            perms = np.arange(start, min(start + rows, n_perm), dtype=np.uint64)
            words = rng.words_at(perms[:, None] * np.uint64(n) + cols)
            bits = (words >> np.uint64(63)).astype(np.float64)
            stats = np.abs(2.0 * (bits @ vals) - total) / n
            exceed += int((stats >= observed).sum())
    rng.position += n_perm * n
    return (1 + exceed) / (1 + n_perm)
