"""Flat float64 vectors and a portable seeded random stream.

Every parameter vector and gradient in this package is a plain 1-D float64
numpy array. The helpers below add the two guarantees the rest of the code
leans on: operand lengths are checked, and non-finite results raise a
NumericalError instead of propagating silently.

Randomness comes from SplitMix64, a counter-based generator: draw number i
of the stream with seed s is mix64(s + (i + 1) * GAMMA), where mix64 is a
fixed 64-bit avalanche function: two xor-shift-multiply rounds, then
z ^ (z >> 31). The array mixer runs them in place over the counters with
one scratch array, so a call to `words_at` allocates two arrays in all. A
stream is a pure function of (seed, position) built from wrapping unsigned
arithmetic, so every platform and numpy version reproduces it bit for bit.
Each RngState must stay confined to a single consumer; sharing one across
concurrent users breaks reproducibility.

Because word i is a pure function of i, a consumer that uses only some of
the next words can compute just those: `RngState.words_at(k)` returns the
words at offsets k past the cursor without moving it, and sequential draws
are `words_at(0..n-1)` followed by a cursor advance of n. A uniform is the
top 53 bits of its word scaled to [0, 1), so `u < 0.5` holds exactly when
the word's top bit is clear; the permutation test in `stats.py` reads only
that bit, for the words a draw of n_perm x n uniforms would place at
t * n + j, and only for the columns j it needs. z >> 31 has bit 63 clear,
so the final xor-shift cannot change bit 63, and the test reads it after
the two rounds (`_mix_rounds`, into its own preallocated buffers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericalError

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53
_U_GAMMA, _U_MIX_A, _U_MIX_B = np.uint64(_GAMMA), np.uint64(_MIX_A), np.uint64(_MIX_B)
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix_rounds(z: np.ndarray, scratch: np.ndarray) -> None:
    """mix64's two xor-shift-multiply rounds on the uint64 array z, in place,
    with `scratch` (same shape) for the shifted copies. What is left of mix64
    is z ^ (z >> 31), which cannot change bit 63."""
    np.right_shift(z, _U30, out=scratch)
    np.bitwise_xor(z, scratch, out=z)
    np.multiply(z, _U_MIX_A, out=z)
    np.right_shift(z, _U27, out=scratch)
    np.bitwise_xor(z, scratch, out=z)
    np.multiply(z, _U_MIX_B, out=z)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """mix64 of every element of the uint64 array z, written over z."""
    scratch = np.empty_like(z)
    _mix_rounds(z, scratch)
    np.right_shift(z, _U31, out=scratch)
    np.bitwise_xor(z, scratch, out=z)
    return z


def counter_step(k: int) -> np.uint64:
    """k * GAMMA mod 2^64: how far apart the counters of words k draws apart are."""
    return np.uint64((k * _GAMMA) & _MASK)


def _mix_int(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *parts: int | str) -> int:
    """Fold tag values into a seed, giving an independent child stream.

    Tags are hashed through the same mixer as the stream itself, one UTF-8
    byte at a time with a separator between parts, so ("ab", "c") and
    ("a", "bc") land on different children.
    """
    h = seed & _MASK
    for part in parts:
        for byte in str(part).encode("utf-8"):
            h = _mix_int((h + _GAMMA) ^ byte)
        h = _mix_int(h + _GAMMA)
    return h


@dataclass
class RngState:
    """SplitMix64 stream: `seed` fixes the stream, `position` is the cursor."""

    seed: int
    position: int = 0

    def counters_at(self, offsets: np.ndarray) -> np.ndarray:
        """The SplitMix64 counters, before mixing, of the words at `offsets`
        past the cursor: seed + (position + k + 1) * GAMMA mod 2^64, as a new array."""
        # the base is folded in Python ints: numpy scalar uint64 products warn on wrap
        base = np.uint64((self.seed + (self.position + 1) * _GAMMA) & _MASK)
        counters = np.asarray(offsets, dtype=np.uint64) * _U_GAMMA
        counters += base
        return counters

    def words_at(self, offsets: np.ndarray) -> np.ndarray:
        """The uint64 words at `offsets` past the cursor, which does not move:
        word k is the one the (k+1)-th of the next sequential draws uses."""
        return _mix_array(self.counters_at(offsets))

    def _words(self, n: int) -> np.ndarray:
        words = self.words_at(np.arange(n, dtype=np.uint64))
        self.position += n
        return words

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), one per draw, from the top 53 bits of each word."""
        if n < 1:
            raise DomainError("draw count must be >= 1")
        return (self._words(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def choice_int(self, bound: int) -> int:
        """One integer in [0, bound)."""
        if bound < 1:
            raise DomainError("bound must be >= 1")
        return min(int(self.uniform() * bound), bound - 1)

    def permutation(self, n: int) -> np.ndarray:
        """Seeded permutation of range(n): stable argsort of one uniform per slot."""
        if n == 0:
            return np.empty(0, dtype=np.int64)
        return np.argsort(self.uniforms(n), kind="stable").astype(np.int64)


def as_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


def require_same_length(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")


def require_finite(arr: np.ndarray, what: str = "result") -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericalError(f"non-finite values in {what}")
    return arr


def dot(a, b) -> float:
    """Inner product sum_i a_i * b_i of two equal-length vectors."""
    a = as_vector(a)
    b = as_vector(b)
    require_same_length(a, b)
    with np.errstate(over="ignore"):
        out = float(a @ b)
    if not math.isfinite(out):
        raise NumericalError("non-finite dot product")
    return out


def sample_uniform(rng: RngState, lo: float, hi: float, n: int) -> np.ndarray:
    """n seeded draws in [lo, hi)."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise DomainError(f"invalid interval [{lo}, {hi})")
    if n < 1:
        raise DomainError("n must be >= 1")
    draws = lo + (hi - lo) * rng.uniforms(n)
    # guard the open upper bound against rounding at the very top of the range
    np.minimum(draws, np.nextafter(hi, lo), out=draws)
    return draws
