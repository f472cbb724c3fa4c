from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_example, oracle_permutation_test, random_model, small_arch, small_task
from metaweight import stats
from metaweight.backbones import BACKBONE_KINDS, ModelState, example_features, forward
from metaweight.errors import DimensionError, DomainError
from metaweight.stats import PredictionRecord, accuracy, permutation_test, predict
from metaweight.vectors import RngState, sample_uniform


def _record(pred, true):
    return PredictionRecord(np.array(pred), np.array(true))


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(_record([0, 1, 1], [0, 1, 1])) == 1.0

    def test_three_quarters(self):
        assert accuracy(_record([0, 1, 0, 1], [0, 1, 1, 1])) == 0.75

    def test_chance_level_simulation(self):
        rng = RngState(123)
        preds = (rng.uniforms(10000) < 0.5).astype(np.int64)
        true = (rng.uniforms(10000) < 0.5).astype(np.int64)
        assert abs(accuracy(_record(preds, true)) - 0.5) < 0.02

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            accuracy(_record([], []))

    def test_record_validation(self):
        with pytest.raises(DimensionError):
            _record([0, 1], [0, 1, 1])
        with pytest.raises(DomainError):
            _record([0, -1], [0, 1])


class TestPredict:
    def test_predictions_in_range_and_aligned(self):
        src, _ = small_task(seed=5)
        arch = small_arch("mlp")
        model = random_model(arch, 2)
        record = predict(model, src.examples)
        assert len(record) == len(src.examples)
        assert set(np.unique(record.predicted)) <= {0, 1}
        assert np.array_equal(record.true, [ex.label for ex in src.examples])

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(BACKBONE_KINDS),
        classes=st.integers(2, 4),
        pairs=st.lists(
            st.tuples(
                st.lists(st.sampled_from("abcdefgh"), max_size=4),
                st.lists(st.sampled_from("abcdefgh"), max_size=4),
                st.integers(0, 5),
            ),
            min_size=1,
            max_size=9,
        ),
        seed=st.integers(0, 2**32),
    )
    def test_batched_matches_per_example_forward(self, kind, classes, pairs, seed):
        """One batched forward picks the class that the one-row `forward` of
        each example does; truth labels beyond the class count pass through."""
        arch = small_arch(kind, dim=3, hidden=5, buckets=32, seed=seed % 97, classes=classes)
        model = ModelState(sample_uniform(RngState(seed), -1.0, 1.0, arch.param_count), arch)
        examples = [make_example(a, b, label) for a, b, label in pairs]
        record = predict(model, examples)
        want = [int(np.argmax(forward(model, example_features(arch, ex)))) for ex in examples]
        assert record.predicted.tolist() == want
        assert record.true.tolist() == [label for _, _, label in pairs]

    def test_empty_and_out_of_range_truth(self):
        model = random_model(small_arch("logistic"), 4)
        empty = predict(model, [])
        assert len(empty) == 0 and empty.predicted.dtype == np.int64
        record = predict(model, [make_example("ab", "cd", 7)])
        assert record.true.tolist() == [7] and record.predicted[0] in (0, 1)


class TestPermutationTest:
    def test_identical_predictions_give_one(self):
        rec = _record([0, 1, 0, 1, 1], [0, 1, 1, 1, 0])
        other = _record([0, 1, 0, 1, 1], [0, 1, 1, 1, 0])
        assert permutation_test(rec, other, 500, RngState(1)) == 1.0

    def test_extreme_separation_minimal_p(self):
        n = 200
        true = np.zeros(n, dtype=np.int64)
        a = _record(np.zeros(n), true)  # all correct
        b = _record(np.ones(n), true)  # all wrong
        p = permutation_test(a, b, 999, RngState(2))
        assert p <= 2.0 / 1000.0

    def test_symmetry(self):
        rng = RngState(3)
        true = (rng.uniforms(150) < 0.5).astype(np.int64)
        pa = (rng.uniforms(150) < 0.4).astype(np.int64)
        pb = (rng.uniforms(150) < 0.6).astype(np.int64)
        a, b = _record(pa, true), _record(pb, true)
        p_ab = permutation_test(a, b, 2000, RngState(9))
        p_ba = permutation_test(b, a, 2000, RngState(9))
        assert p_ab == p_ba

    def test_mismatched_examples_rejected(self):
        a = _record([0, 1], [0, 1])
        b = _record([0, 1], [1, 1])
        with pytest.raises(DomainError):
            permutation_test(a, b, 10, RngState(0))

    def test_null_calibration_quick(self):
        # small version of the calibration check; the full one runs in acceptance
        rng = RngState(42)
        rejections = 0
        sims = 200
        for sim in range(sims):
            true = np.zeros(150, dtype=np.int64)
            pa = (rng.uniforms(150) < 0.35).astype(np.int64)
            pb = (rng.uniforms(150) < 0.35).astype(np.int64)
            p = permutation_test(_record(pa, true), _record(pb, true), 199, RngState(sim))
            rejections += p < 0.05
        assert 0.005 <= rejections / sims <= 0.105

    @given(st.integers(min_value=1, max_value=400))
    @settings(deadline=None, max_examples=20)
    def test_p_value_in_unit_interval(self, seed):
        rng = RngState(seed)
        true = (rng.uniforms(30) < 0.5).astype(np.int64)
        pa = (rng.uniforms(30) < 0.5).astype(np.int64)
        pb = (rng.uniforms(30) < 0.5).astype(np.int64)
        p = permutation_test(_record(pa, true), _record(pb, true), 99, RngState(seed + 1))
        assert 0.0 < p <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 300),
        n_perm=st.integers(1, 3000),
        disagree=st.floats(0.0, 1.0),
        classes=st.integers(2, 4),
        data_seed=st.integers(0, 2**32),
        seed=st.integers(0, 2**64 - 1),
        position=st.integers(0, 2**40),
    )
    @example(n=300, n_perm=3000, disagree=0.0, classes=2, data_seed=0, seed=5, position=0)
    @example(n=300, n_perm=3000, disagree=1.0, classes=3, data_seed=1, seed=2**64 - 1, position=7)
    def test_matches_dense_oracle(self, n, n_perm, disagree, classes, data_seed, seed, position):
        """p-value and final cursor equal the dense draw's, exactly, across
        block boundaries and for all-zero differences."""
        gen = np.random.default_rng(data_seed)
        true = gen.integers(0, classes, n)
        wrong = (true + gen.integers(1, classes, n)) % classes
        differ = gen.random(n) < disagree
        a_wrong = gen.random(n) < 0.5
        both_wrong = ~differ & (gen.random(n) < 0.3)
        pa = np.where((differ & a_wrong) | both_wrong, wrong, true)
        pb = np.where((differ & ~a_wrong) | both_wrong, wrong, true)
        a, b = _record(pa, true), _record(pb, true)
        fast, dense = RngState(seed, position), RngState(seed, position)
        assert permutation_test(a, b, n_perm, fast) == oracle_permutation_test(a, b, n_perm, dense)
        assert fast.position == dense.position == position + n_perm * n

    def test_cancelling_differences_give_one(self):
        """m > 0 examples differ but their sum is 0: every permuted sum
        reaches |0|, so p = 1 and the cursor still moves past n_perm x n."""
        true = np.zeros(10, dtype=np.int64)
        a = _record([0, 0, 0, 0, 1, 1, 1, 1, 0, 1], true)
        b = _record([1, 1, 1, 1, 0, 0, 0, 0, 0, 1], true)
        rng = RngState(4, 9)
        assert permutation_test(a, b, 777, rng) == 1.0
        assert rng.position == 9 + 777 * 10

    @pytest.mark.parametrize(
        "n, m, block_words, n_perm",
        [
            (40, 7, 3, 13),  # m > _BLOCK_WORDS: one permutation per block
            (40, 7, 7, 13),  # one permutation per block, exactly filled
            (40, 7, 21, 13),  # three per block, the last one ragged
            (40, 1, 4, 11),  # m = 1, four per block, ragged
            (40, 40, 120, 10),  # m = n, three per block, ragged
            (40, 40, 16, 5),  # m = n > _BLOCK_WORDS
        ],
    )
    def test_small_blocks_match_dense_oracle(self, n, m, block_words, n_perm):
        """With the block shrunk, the block edges fall between permutations
        that the default block holds together; the p-value and cursor still
        equal the dense draw's."""
        gen = np.random.default_rng(n * m + block_words)
        true = gen.integers(0, 3, n)
        wrong = (true + 1) % 3
        differ = np.zeros(n, dtype=bool)
        differ[gen.choice(n, m, replace=False)] = True
        a_right = gen.random(n) < 0.6
        pa = np.where(differ & ~a_right, wrong, true)
        pb = np.where(differ & a_right, wrong, true)
        a, b = _record(pa, true), _record(pb, true)
        for seed, position in ((2**64 - 3, 0), (17, 2**40 + 5)):
            fast, dense = RngState(seed, position), RngState(seed, position)
            with mock.patch.object(stats, "_BLOCK_WORDS", block_words):
                p = permutation_test(a, b, n_perm, fast)
            assert p == oracle_permutation_test(a, b, n_perm, dense)
            assert fast.position == dense.position == position + n_perm * n
