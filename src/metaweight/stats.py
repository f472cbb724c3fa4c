"""Accuracy and the paired sign-flip permutation test."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backbones import Example, ModelState, _probs, example_features
from .errors import DimensionError, DomainError
from .vectors import RngState, _mix_rounds, counter_step, require_finite


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
# block and its one scratch buffer (256 KiB each) stay in cache, large enough
# to amortize numpy calls.
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
    below one half, that is when bit 63 of that word is clear. Only the m
    examples where exactly one method is right contribute. If P of them
    favour a and Q favour b, the observed difference sum is D = P - Q; if
    k_P and k_Q of them keep their sign in permutation t, its sum is
    S_t = 2 * (k_P - k_Q) - D, and it counts when |S_t| >= |D|. These are
    integer counts, compared exactly, so the p-value equals that of drawing
    all n_perm x n uniforms; the cursor advances past them all.

    Only the n_perm x m words the test reads are computed, in blocks of about
    _BLOCK_WORDS, straight from the counter: each column's counter and the
    row step n * GAMMA are folded once, two buffers are allocated once, and
    per block the counters go into the first, mix64's two rounds run in place
    with the second as scratch, and bit 63 is read without the final
    xor-shift, which cannot change it.
    """
    if n_perm < 1:
        raise DomainError("n_perm must be >= 1")
    if len(preds_a) != len(preds_b) or not np.array_equal(preds_a.true, preds_b.true):
        raise DomainError("permutation test needs two prediction records over the same examples")
    if len(preds_a) == 0:
        raise DomainError("cannot test empty prediction records")
    right_a = preds_a.predicted == preds_a.true
    right_b = preds_b.predicted == preds_b.true
    favour_a, favour_b = np.flatnonzero(right_a & ~right_b), np.flatnonzero(right_b & ~right_a)
    n, p, m = len(preds_a), favour_a.size, favour_a.size + favour_b.size
    total = p - favour_b.size  # D: the observed difference sum
    if m == 0:
        exceed = n_perm  # every permuted sum is 0, and so is the observed one
    else:
        start = rng.counters_at(np.concatenate([favour_a, favour_b]))
        row_step = counter_step(n)
        rows = max(1, _BLOCK_WORDS // m)
        block, scratch = np.empty((rows, m), dtype=np.uint64), np.empty((rows, m), dtype=np.uint64)
        exceed = 0
        for t in range(0, n_perm, rows):
            r = min(rows, n_perm - t)
            z, tmp = block[:r], scratch[:r]
            np.add((np.arange(t, t + r, dtype=np.uint64) * row_step)[:, None], start, out=z)
            _mix_rounds(z, tmp)
            np.right_shift(z, np.uint64(63), out=tmp)
            kept = tmp[:, :p].sum(axis=1).view(np.int64) - tmp[:, p:].sum(axis=1).view(np.int64)
            exceed += int(np.count_nonzero(np.abs(2 * kept - total) >= abs(total)))
    rng.position += n_perm * n
    return (1 + exceed) / (1 + n_perm)
