import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from metaweight.errors import DimensionError, DomainError, NumericalError
from metaweight.vectors import (
    RngState,
    _mix_array,
    _mix_rounds,
    derive_seed,
    dot,
    sample_uniform,
)

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def _mix64(z: int) -> int:
    # independent scalar implementation of SplitMix64's mixer
    mask = 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _splitmix_words(seed: int, position: int, n: int) -> list[int]:
    # independent scalar implementation of the same counter-based stream
    return [_mix64((seed + i * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF) for i in range(position + 1, position + n + 1)]


def _splitmix_reference(seed: int, n: int) -> list[float]:
    return [(z >> 11) * 2.0**-53 for z in _splitmix_words(seed, 0, n)]


class TestDot:
    def test_direct_arithmetic(self):
        assert dot([1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_zero_annihilates(self):
        v = RngState(1).uniforms(32)
        assert dot(np.zeros(32), v) == 0.0

    def test_matches_summation_oracle(self):
        rng = RngState(7)
        a = sample_uniform(rng, -5.0, 5.0, 100)
        b = sample_uniform(rng, -5.0, 5.0, 100)
        oracle = 0.0
        for x, y in zip(a, b):
            oracle += float(x) * float(y)
        assert abs(dot(a, b) - oracle) <= 1e-12 * abs(oracle)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            dot([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_overflow_raises(self):
        big = np.full(4, 1e200)
        with pytest.raises(NumericalError):
            dot(big, big)

    @given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=40))
    def test_symmetry(self, pairs):
        a = np.array([p[0] for p in pairs])
        b = np.array([p[1] for p in pairs])
        assert dot(a, b) == dot(b, a)


class TestRng:
    def test_same_seed_same_stream(self):
        assert np.array_equal(RngState(99).uniforms(50), RngState(99).uniforms(50))

    def test_matches_scalar_reference(self):
        got = RngState(1234567).uniforms(64)
        want = np.array(_splitmix_reference(1234567, 64))
        assert np.array_equal(got, want)

    def test_block_and_scalar_draws_agree(self):
        block = RngState(17).uniforms(20)
        one_at_a_time = RngState(17)
        singles = np.array([one_at_a_time.uniform() for _ in range(20)])
        assert np.array_equal(block, singles)

    def test_mixed_draw_sizes_resume_stream(self):
        r = RngState(5)
        first = np.concatenate([r.uniforms(3), r.uniforms(7), r.uniforms(2)])
        assert np.array_equal(first, RngState(5).uniforms(12))

    def test_permutation_is_permutation(self):
        perm = RngState(8).permutation(100)
        assert sorted(perm.tolist()) == list(range(100))

    @given(
        seed=st.one_of(st.integers(2**64 - 2**16, 2**64 - 1), st.integers(0, 2**64 - 1)),
        position=st.integers(0, 2**40),
        n=st.integers(1, 200),
        data=st.data(),
    )
    def test_addressed_words_match_sequential_draws(self, seed, position, n, data):
        """Word k past the cursor is the k-th word of the next sequential
        draws, including where seed + i * GAMMA wraps; the cursor stays."""
        offsets = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)), dtype=np.uint64)
        rng = RngState(seed, position)
        words = rng.words_at(offsets)
        assert rng.position == position
        reference = _splitmix_words(seed, position, n)
        assert words.tolist() == [reference[k] for k in offsets.tolist()]
        uniforms = RngState(seed, position).uniforms(n)
        assert np.array_equal((words >> np.uint64(11)).astype(np.float64) * 2.0**-53, uniforms[offsets])

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(RngState(1).uniforms(10), RngState(2).uniforms(10))


class TestMixer:
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    @example([0, 2**64 - 1, 2**63, 2**63 - 1])
    def test_in_place_rounds_fix_bit_63(self, values):
        """`_mix_array` is mix64 element-wise, and bit 63 after the two
        in-place rounds alone (all the permutation test reads) is already
        bit 63 of mix64."""
        z = np.array(values, dtype=np.uint64)
        words = _mix_array(z.copy())
        assert words.tolist() == [_mix64(v) for v in values]
        _mix_rounds(z, np.empty_like(z))
        assert np.array_equal(z >> np.uint64(63), words >> np.uint64(63))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, "train", 3) == derive_seed(5, "train", 3)

    def test_part_boundaries_matter(self):
        assert derive_seed(5, "ab", "c") != derive_seed(5, "a", "bc")

    def test_different_tags_diverge(self):
        children = {derive_seed(0, tag) for tag in ("data", "init", "split", "train", "perm")}
        assert len(children) == 5


class TestSampleUniform:
    def test_deterministic(self):
        a = sample_uniform(RngState(3), -1.0, 1.0, 20)
        b = sample_uniform(RngState(3), -1.0, 1.0, 20)
        assert np.array_equal(a, b)

    def test_law_of_large_numbers(self):
        draws = sample_uniform(RngState(0), 0.0, 1.0, 10000)
        assert abs(draws.mean() - 0.5) < 0.02

    def test_single_draw_in_range(self):
        val = sample_uniform(RngState(9), 2.0, 3.0, 1)
        assert 2.0 <= val[0] < 3.0

    def test_all_draws_in_range(self):
        draws = sample_uniform(RngState(10), -0.25, 0.75, 5000)
        assert (draws >= -0.25).all() and (draws < 0.75).all()

    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            sample_uniform(RngState(1), 1.0, 1.0, 5)
        with pytest.raises(DomainError):
            sample_uniform(RngState(1), 2.0, 1.0, 5)

    def test_bad_count_rejected(self):
        with pytest.raises(DomainError):
            sample_uniform(RngState(1), 0.0, 1.0, 0)
