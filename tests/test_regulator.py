import math
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import metaweight.regulator
from helpers import max_relative_error, oracle_select_target_batch, random_model, small_arch, small_task
from metaweight.backbones import (
    BackboneArch,
    Example,
    FeatureBatch,
    Linearized,
    ModelState,
    alignment_scores,
    batch_loss,
    batch_weighted_gradient_fast,
    build_embedding,
    featurize,
    linearize,
    per_example_gradient,
    per_example_loss,
)
from metaweight.errors import ConfigError, DimensionError, DomainError
from metaweight.regulator import (
    TARGET_BATCH_CAP,
    RegulatorConfig,
    init_weights,
    mwr_step,
    regulate_weights,
    select_target_batch,
    target_gradient,
    target_loss,
    virtual_update,
    weight_meta_gradient,
    weighted_training_step,
)
from metaweight.vectors import RngState, dot, sample_uniform


@pytest.fixture(scope="module")
def setup():
    src, tgt = small_task(seed=51, n_source=32, n_target=16)
    arch = small_arch("logistic", dim=4)
    model = random_model(arch, 23)
    return src, tgt, arch, model


class TestInitWeights:
    def test_zero_policy(self):
        assert np.array_equal(init_weights(4, "zero", RngState(0)), np.zeros(4))

    def test_one_policy(self):
        assert np.array_equal(init_weights(4, "one", RngState(0)), np.ones(4))

    def test_random_policy_reproducible(self):
        a = init_weights(4, "random", RngState(77))
        b = init_weights(4, "random", RngState(77))
        assert np.array_equal(a, b)
        assert ((a >= 0.0) & (a < 1.0)).all()

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            init_weights(4, "gaussian", RngState(0))

    def test_bad_count(self):
        with pytest.raises(DomainError):
            init_weights(0, "zero", RngState(0))


class TestVirtualUpdate:
    def test_zero_weights_identity(self, setup):
        src, _, _, model = setup
        theta = virtual_update(model, src.examples[:5], np.zeros(5), 0.3)
        assert np.array_equal(theta, model.params)

    def test_single_example_unit_weight(self, setup):
        src, _, _, model = setup
        ex = src.examples[0]
        alpha = 0.25
        theta = virtual_update(model, [ex], np.ones(1), alpha)
        oracle = model.params - alpha * per_example_gradient(model, ex)
        assert max_relative_error(theta, oracle, floor=1e-14) <= 1e-12

    def test_mixed_weights_match_loop_oracle(self, setup):
        src, _, _, model = setup
        batch = src.examples[:4]
        weights = np.array([0.5, 0.0, 2.0, -1.0])
        alpha = 0.1
        accum = np.zeros_like(model.params)
        for w, ex in zip(weights, batch):
            accum = accum + float(w) * per_example_gradient(model, ex)
        oracle = model.params - alpha * accum
        got = virtual_update(model, batch, weights, alpha)
        assert max_relative_error(got, oracle, floor=1e-14) <= 1e-10

    def test_model_untouched(self, setup):
        src, _, _, model = setup
        before = model.params.copy()
        virtual_update(model, src.examples[:5], np.ones(5), 0.9)
        assert np.array_equal(model.params, before)


class TestTargetLoss:
    def test_perfect_predictions_give_zero(self, setup):
        src, _, arch, _ = setup
        ex = src.examples[0]
        from test_backbones import _saturated_logistic

        model = _saturated_logistic(arch, ex)
        assert target_loss(arch, model.params, [ex, ex, ex]) <= 3e-9

    def test_uniform_params_log2_per_example(self, setup):
        _, tgt, arch, _ = setup
        targets = tgt.examples[:7]
        loss = target_loss(arch, np.zeros(arch.param_count), targets)
        assert abs(loss - 7 * math.log(2.0)) <= 1e-10

    def test_matches_sum_oracle(self, setup):
        _, tgt, arch, model = setup
        targets = tgt.examples[:5]
        probe = ModelState(model.params, arch)
        oracle = sum(per_example_loss(probe, ex) for ex in targets)
        got = target_loss(arch, model.params, targets)
        assert abs(got - oracle) <= 1e-12 * max(oracle, 1.0)

    def test_empty_target_rejected(self, setup):
        _, _, arch, _ = setup
        with pytest.raises(DomainError):
            target_loss(arch, np.zeros(arch.param_count), [])


class TestWeightMetaGradient:
    def test_cancelling_targets_give_zero(self, setup):
        src, _, arch, _ = setup
        model = ModelState(np.zeros(arch.param_count), arch)
        ex = src.examples[0]
        flipped = Example(ex.text_a, ex.text_b, 1 - ex.label)
        # at uniform predictions the flipped twin has the exact opposite gradient,
        # so the target gradient vanishes and so does every meta-gradient entry
        targets = [ex, flipped]
        batch = src.examples[:4]
        mg = weight_meta_gradient(model, batch, np.zeros(4), targets, 0.5)
        assert np.array_equal(mg, np.zeros(4))

    def test_identical_example_negative_entry(self, setup):
        src, _, arch, _ = setup
        model = random_model(arch, 3)
        ex = src.examples[1]
        alpha = 0.4
        mg = weight_meta_gradient(model, [ex], np.zeros(1), [ex], alpha)
        grad_norm_sq = dot(per_example_gradient(model, ex), per_example_gradient(model, ex))
        assert mg[0] < 0
        assert abs(mg[0] + alpha * grad_norm_sq) <= 1e-10 * max(grad_norm_sq, 1.0)

    @pytest.mark.parametrize("kind", ["logistic", "mlp", "bilinear"])
    def test_matches_finite_differences(self, kind):
        src, tgt = small_task(seed=61, n_source=16, n_target=8)
        arch = small_arch(kind)
        for case in range(3):
            model = random_model(arch, 200 + case)
            batch = src.examples[4 * case : 4 * case + 4]
            targets = tgt.examples[:6]
            alpha = 0.2
            weights = sample_uniform(RngState(case), 0.0, 1.0, 4) if case else np.zeros(4)
            mg = weight_meta_gradient(model, batch, weights, targets, alpha)
            for i in range(4):
                h = 1e-4
                up, down = weights.copy(), weights.copy()
                up[i] += h
                down[i] -= h
                f_up = target_loss(arch, virtual_update(model, batch, up, alpha), targets)
                f_down = target_loss(arch, virtual_update(model, batch, down, alpha), targets)
                fd = (f_up - f_down) / (2 * h)
                assert abs(mg[i] - fd) <= 1e-5 * max(abs(fd), abs(mg[i]), 1e-10)

    def test_dimension_checks(self, setup):
        src, tgt, _, model = setup
        with pytest.raises(DimensionError):
            weight_meta_gradient(model, src.examples[:3], np.ones(2), tgt.examples[:2], 0.1)
        with pytest.raises(DimensionError):
            weight_meta_gradient(model, src.examples[:3], np.zeros(2), tgt.examples[:2], 0.1)
        with pytest.raises(DomainError):
            weight_meta_gradient(model, src.examples[:3], np.ones(3), [], 0.1)


class TestRegulateWeights:
    def test_zero_metagrad_fixed_point(self):
        w = np.array([0.3, 0.0, 1.2])
        assert np.array_equal(regulate_weights(w, np.zeros(3), 0.5), w)

    def test_clamp_negative_to_zero(self):
        out = regulate_weights(np.zeros(2), np.array([1.0, -1.0]), 0.5, clamp=True)
        assert np.array_equal(out, np.array([0.0, 0.5]))

    def test_unclamped_keeps_negative(self):
        out = regulate_weights(np.zeros(2), np.array([1.0, -1.0]), 0.5, clamp=False)
        assert np.array_equal(out, np.array([-0.5, 0.5]))

    def test_zero_init_closed_form(self, setup):
        src, tgt, arch, model = setup
        batch = src.examples[:5]
        targets = tgt.examples[:6]
        alpha = 0.3
        mg = weight_meta_gradient(model, batch, np.zeros(5), targets, alpha)
        regulated = regulate_weights(np.zeros(5), mg, alpha, clamp=False)
        tgrad = target_gradient(arch, model.params, targets)
        closed = np.array(
            [alpha * alpha * dot(per_example_gradient(model, ex), tgrad) for ex in batch]
        )
        assert max_relative_error(regulated, closed, floor=1e-12) <= 1e-8

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            regulate_weights(np.zeros(3), np.zeros(2), 0.1)


class TestWeightedTrainingStep:
    def test_zero_weights_no_op(self, setup):
        src, _, arch, model = setup
        out = weighted_training_step(model, featurize(arch, src.examples[:4]), np.zeros(4), 0.7)
        assert np.array_equal(out.params, model.params)

    def test_unit_weights_plain_batch_step(self, setup):
        src, _, arch, model = setup
        batch = src.examples[:4]
        alpha = 0.15
        accum = np.zeros_like(model.params)
        for ex in batch:
            accum = accum + per_example_gradient(model, ex)
        oracle = model.params - alpha * accum
        out = weighted_training_step(model, featurize(arch, batch), np.ones(4), alpha)
        assert max_relative_error(out.params, oracle, floor=1e-14) <= 1e-10

    def test_mixed_weights_match_loop_oracle(self, setup):
        src, _, arch, model = setup
        batch = src.examples[:5]
        weights = np.array([0.2, 0.0, 1.5, 0.4, 0.9])
        alpha = 0.05
        accum = np.zeros_like(model.params)
        for w, ex in zip(weights, batch):
            accum = accum + float(w) * per_example_gradient(model, ex)
        oracle = model.params - alpha * accum
        out = weighted_training_step(model, featurize(arch, batch), weights, alpha)
        assert max_relative_error(out.params, oracle, floor=1e-14) <= 1e-10


class TestSelectTargetBatch:
    def _targets(self, n):
        # row i holds the value i, so a pick shows which rows it took
        return FeatureBatch(np.arange(n, dtype=np.float64)[:, None], np.arange(n) % 2)

    def test_small_set_used_whole(self):
        cfg = RegulatorConfig(learning_rate=0.1)
        targets = self._targets(40)
        assert select_target_batch(targets, cfg, RngState(0)) is targets

    def test_large_set_capped_and_balanced(self):
        cfg = RegulatorConfig(learning_rate=0.1)
        picked = select_target_batch(self._targets(600), cfg, RngState(1))
        assert len(picked) == 256
        assert np.count_nonzero(picked.labels == 0) == 128 and np.count_nonzero(picked.labels == 1) == 128
        assert np.array_equal(picked.labels, picked.scaled[:, 0].astype(np.int64) % 2)

    def test_explicit_size(self):
        cfg = RegulatorConfig(learning_rate=0.1, target_batch_size=10)
        picked = select_target_batch(self._targets(100), cfg, RngState(2))
        assert len(picked) == 10
        assert picked.labels.sum() == 5


class TestMwrStep:
    def test_self_aligned_batch_descends_target_loss(self, setup):
        src, _, arch, model = setup
        batch = featurize(arch, src.examples[:6])
        cfg = RegulatorConfig(learning_rate=0.2, init_policy="zero")
        before = target_loss(arch, model.params, batch)
        detail = mwr_step(model, batch, batch, cfg, RngState(3))
        weights = detail.weights
        after = target_loss(arch, detail.model.params, batch)
        assert (weights >= 0.0).all()
        assert weights.max() > 0.0
        assert after < before

    def test_single_aligned_example_weight_value(self, setup):
        src, _, arch, model = setup
        ex = src.examples[2]
        alpha = 0.3
        cfg = RegulatorConfig(learning_rate=alpha, init_policy="zero")
        rows = featurize(arch, [ex])
        weights = mwr_step(model, rows, rows, cfg, RngState(0)).weights
        g = per_example_gradient(model, ex)
        expected = alpha * alpha * dot(g, g)
        assert weights[0] > 0
        assert abs(weights[0] - expected) <= 1e-10 * max(expected, 1.0)

    def test_label_flipped_batch_clamps_and_freezes(self):
        src, _ = small_task(seed=50, n_source=8, n_target=8)
        arch = small_arch("logistic")
        model = ModelState(np.zeros(arch.param_count), arch)
        targets = list(src.examples[:4])
        flipped = [Example(ex.text_a, ex.text_b, 1 - ex.label) for ex in targets]
        # at uniform predictions each flipped gradient is the exact negative of
        # its twin's, so alignments are negative, weights clamp to zero, and the
        # parameters do not move
        cfg = RegulatorConfig(learning_rate=0.4, init_policy="zero")
        detail = mwr_step(model, featurize(arch, flipped), featurize(arch, targets), cfg, RngState(5))
        assert np.array_equal(detail.weights, np.zeros(4))
        assert np.array_equal(detail.model.params, model.params)

    def test_matches_straight_line_composition(self, setup):
        src, tgt, arch, model = setup
        batch = featurize(arch, src.examples[:5])
        targets = featurize(arch, tgt.examples[:8])
        alpha = 0.25
        for policy in ("zero", "one", "random"):
            cfg = RegulatorConfig(learning_rate=alpha, init_policy=policy, clamp_nonnegative=True)
            got = mwr_step(model, batch, targets, cfg, RngState(99))
            # independent composition of the public operations
            w0 = init_weights(5, policy, RngState(99))
            mg = weight_meta_gradient(model, batch, w0, targets, alpha)
            w1 = regulate_weights(w0, mg, alpha, clamp=True)
            oracle = weighted_training_step(model, batch, w1, alpha)
            assert np.array_equal(got.weights, w1)
            assert np.array_equal(got.model.params, oracle.params)

    def test_sign_property_without_clamp(self, setup):
        src, tgt, arch, model = setup
        batch = list(src.examples[:8])
        targets = list(tgt.examples[:8])
        alpha = 0.2
        cfg = RegulatorConfig(learning_rate=alpha, init_policy="random", clamp_nonnegative=False)
        detail = mwr_step(model, featurize(arch, batch), featurize(arch, targets), cfg, RngState(13))
        theta_tilde = virtual_update(model, batch, detail.initial_weights, alpha)
        tgrad = target_gradient(arch, theta_tilde, targets)
        for i, ex in enumerate(batch):
            alignment = dot(per_example_gradient(model, ex), tgrad)
            increased = detail.weights[i] > detail.initial_weights[i]
            assert increased == (alignment > 0)

    def test_fresh_weights_each_step(self, setup):
        src, tgt, arch, model = setup
        batch = featurize(arch, src.examples[:4])
        targets = featurize(arch, tgt.examples[:4])
        cfg = RegulatorConfig(learning_rate=0.1, init_policy="zero")
        rng = RngState(1)
        first = mwr_step(model, batch, targets, cfg, rng)
        second = mwr_step(first.model, batch, targets, cfg, rng)
        assert np.array_equal(first.initial_weights, np.zeros(4))
        assert np.array_equal(second.initial_weights, np.zeros(4))

    def test_empty_inputs_rejected(self, setup):
        src, tgt, arch, model = setup
        cfg = RegulatorConfig(learning_rate=0.1)
        with pytest.raises(DomainError):
            mwr_step(model, featurize(arch, []), featurize(arch, tgt.examples[:2]), cfg, RngState(0))
        with pytest.raises(DomainError):
            mwr_step(model, featurize(arch, src.examples[:2]), featurize(arch, []), cfg, RngState(0))


class TestFeatureBatchPath:
    """Rows in the core against example lists at the edge: a Linearized
    source batch and FeatureBatch rows give bit-identical steps, and both
    equal the step composed from the entry points that take examples."""

    @staticmethod
    def _uneven_targets(n):
        # three classes of unequal size, so the balanced draw is uneven
        return [Example((f"t{i}", "x"), (f"u{i}",), (0, 0, 1, 2, 2)[i % 5]) for i in range(n)]

    @pytest.mark.parametrize("n, size", [(TARGET_BATCH_CAP + 150, None), (40, 7), (40, None)])
    def test_select_target_batch_same_rows_and_cursor(self, n, size):
        arch = BackboneArch("logistic", build_embedding(5, 64, 4), 3)
        targets = self._uneven_targets(n)
        cfg = RegulatorConfig(learning_rate=0.1, target_batch_size=size)
        rng_rows, rng_examples = RngState(8), RngState(8)
        rows = select_target_batch(featurize(arch, targets), cfg, rng_rows)
        examples = oracle_select_target_batch(targets, cfg, rng_examples)
        assert isinstance(rows, FeatureBatch)
        expected = featurize(arch, examples)
        assert np.array_equal(rows.scaled, expected.scaled)
        assert np.array_equal(rows.labels, expected.labels)
        assert rng_rows.position == rng_examples.position

    @pytest.mark.parametrize("kind", ["logistic", "mlp", "bilinear"])
    @pytest.mark.parametrize("policy, size", [("zero", None), ("random", 6), ("one", 5)])
    def test_mwr_step_detail_same_as_examples(self, kind, policy, size):
        src, tgt = small_task(seed=52, n_source=24, n_target=20)
        arch = small_arch(kind)
        model = random_model(arch, 4)
        batch, targets = tuple(src.examples[:9]), tuple(tgt.examples)
        rows = featurize(arch, batch)
        for clamp in (True, False):
            cfg = RegulatorConfig(learning_rate=0.3, init_policy=policy, clamp_nonnegative=clamp, target_batch_size=size)
            alpha = cfg.learning_rate
            details, cursors = [], []
            for source in (linearize(model, rows), rows):
                rng = RngState(21)
                details.append(mwr_step(model, source, featurize(arch, targets), cfg, rng))
                cursors.append(rng.position)
            # the same step on example lists: the real update is the
            # provisional one taken with the regulated weights
            rng = RngState(21)
            initial = init_weights(len(batch), policy, rng)
            picked = oracle_select_target_batch(targets, cfg, rng)
            metagrad = weight_meta_gradient(model, batch, initial, picked, alpha)
            weights = regulate_weights(initial, metagrad, alpha, clamp)
            params = virtual_update(model, batch, weights, alpha)
            cursors.append(rng.position)
            for detail in details:
                assert np.array_equal(detail.model.params, params)
                assert np.array_equal(detail.weights, weights)
                assert np.array_equal(detail.metagrad, metagrad)
                assert np.array_equal(detail.initial_weights, initial)
            assert len(set(cursors)) == 1

    @pytest.mark.parametrize("kind", ["logistic", "mlp", "bilinear"])
    def test_example_entry_points_equal_their_rows(self, kind):
        """The six entry points that take examples give bit for bit what
        the featurized rows give, linearized or not."""
        src, tgt = small_task(seed=54, n_source=12, n_target=10)
        arch = small_arch(kind)
        model = random_model(arch, 6)
        batch, targets = src.examples[:7], tgt.examples
        rows, target_rows = featurize(arch, batch), featurize(arch, targets)
        alpha = 0.3
        for weights in (sample_uniform(RngState(4), 0.0, 1.0, len(batch)), np.zeros(len(batch))):
            want = virtual_update(model, batch, weights, alpha)
            for source in (rows, linearize(model, rows)):
                assert np.array_equal(virtual_update(model, source, weights, alpha), want)
            want = weight_meta_gradient(model, batch, weights, targets, alpha)
            for source in (rows, linearize(model, rows)):
                assert np.array_equal(weight_meta_gradient(model, source, weights, target_rows, alpha), want)
        assert target_loss(arch, model.params, targets) == target_loss(arch, model.params, target_rows)
        assert np.array_equal(target_gradient(arch, model.params, targets), target_gradient(arch, model.params, target_rows))
        for i, ex in enumerate(batch):
            one = rows.take([i])
            assert per_example_loss(model, ex) == batch_loss(model, one)
            assert np.array_equal(per_example_gradient(model, ex), batch_weighted_gradient_fast(model, one, np.ones(1)))

    def test_take_is_featurizing_the_rows(self):
        src, _ = small_task(seed=53, n_source=20, n_target=8)
        arch = small_arch("mlp")
        ids = np.array([7, 2, 19, 2])
        taken = featurize(arch, src.examples).take(ids)
        assert len(taken) == 4
        assert np.array_equal(taken.scaled, featurize(arch, [src.examples[i] for i in ids]).scaled)


class TestLinearizedPath:
    """A linearization is reused only at the very model it was taken at."""

    def test_same_model_reuses_the_linearization(self, setup):
        src, _, arch, model = setup
        lin = linearize(model, featurize(arch, src.examples[:5]))
        assert linearize(model, lin) is lin

    def test_other_model_with_equal_params_is_recomputed(self, setup):
        src, tgt, arch, model = setup
        rows = featurize(arch, src.examples[:6])
        twin = ModelState(model.params.copy(), arch)
        true = linearize(model, rows)
        # stored logit gradients of zero: a gradient read from them is zero
        stale = Linearized(model, rows.scaled, rows.labels, true.hidden, np.zeros_like(true.dlog))
        weights = np.linspace(0.5, 1.5, 6)
        assert not batch_weighted_gradient_fast(model, stale, weights).any()
        expected = batch_weighted_gradient_fast(model, rows, weights)
        assert np.array_equal(batch_weighted_gradient_fast(twin, stale, weights), expected)
        reference = target_gradient(arch, model.params, tgt.examples[:4])
        assert np.array_equal(alignment_scores(twin, stale, reference), alignment_scores(model, rows, reference))
        cfg = RegulatorConfig(learning_rate=0.2, init_policy="one")
        targets = featurize(arch, tgt.examples[:4])
        got = mwr_step(twin, stale, targets, cfg, RngState(2))
        want = mwr_step(twin, rows, targets, cfg, RngState(2))
        assert np.array_equal(got.model.params, want.model.params)
        assert np.array_equal(got.metagrad, want.metagrad)


class TestSelectTargetBatchOracle:
    """One uniforms call split per class against one permutation per class."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        classes=st.integers(2, 5),
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**48),
    )
    def test_same_picks_and_cursor(self, data, classes, seed, start):
        labels = data.draw(st.lists(st.integers(0, classes - 1), min_size=1, max_size=80))
        size = data.draw(st.integers(1, len(labels)))
        cfg = RegulatorConfig(learning_rate=0.1, target_batch_size=size)
        targets = tuple(Example((f"t{i}",), ("u",), label) for i, label in enumerate(labels))
        rows = FeatureBatch(np.arange(len(labels), dtype=np.float64)[:, None], np.array(labels, dtype=np.int64))
        fast, slow = RngState(seed, start), RngState(seed, start)
        want = oracle_select_target_batch(targets, cfg, slow)
        picked = select_target_batch(rows, cfg, fast)
        assert picked.scaled[:, 0].astype(np.int64).tolist() == [int(ex.text_a[0][1:]) for ex in want]
        assert fast.position == slow.position


class TestRegulatorInvariants:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.tuples(st.floats(-10, 10), st.floats(-1e3, 1e3)), min_size=1, max_size=30
        ),
        alpha=st.floats(1e-4, 10),
    )
    def test_clamp_is_the_positive_part_of_the_step(self, values, alpha):
        weights, metagrad = (np.array(column) for column in zip(*values))
        free = regulate_weights(weights, metagrad, alpha, clamp=False)
        clamped = regulate_weights(weights, metagrad, alpha, clamp=True)
        assert (clamped >= 0.0).all()
        assert np.array_equal(clamped[free > 0], free[free > 0])
        assert not clamped[free <= 0].any()

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["logistic", "mlp", "bilinear"]),
        model_seed=st.integers(0, 2**32),
        n=st.integers(1, 10),
        alpha=st.floats(0.01, 1.0),
        clamp=st.booleans(),
    )
    def test_zero_init_step(self, kind, model_seed, n, alpha, clamp):
        src, tgt = small_task(seed=55, n_source=12, n_target=8)
        arch = small_arch(kind)
        model = random_model(arch, model_seed)
        batch, targets = featurize(arch, src.examples[:n]), featurize(arch, tgt.examples)
        assert virtual_update(model, batch, np.zeros(n), alpha) is model.params
        cfg = RegulatorConfig(learning_rate=alpha, init_policy="zero", clamp_nonnegative=clamp)
        detail = mwr_step(model, batch, targets, cfg, RngState(model_seed))
        metagrad = -alpha * alignment_scores(model, batch, target_gradient(arch, model.params, targets))
        assert np.array_equal(detail.metagrad, metagrad)
        assert np.array_equal(detail.weights, regulate_weights(np.zeros(n), metagrad, alpha, clamp))
        step = batch_weighted_gradient_fast(model, batch, detail.weights)
        assert np.array_equal(detail.model.params, model.params - alpha * step)

    @pytest.mark.parametrize("policy", ["zero", "one"])
    def test_probe_model(self, policy):
        """Zero weights probe at the model itself, others at a new state at theta~."""
        src, tgt = small_task(seed=56, n_source=8, n_target=6)
        model = random_model(small_arch("mlp"), 4)
        batch, targets = featurize(model.arch, src.examples), featurize(model.arch, tgt.examples)
        weights = init_weights(len(src), policy, RngState(0))
        probes = []

        def spy(probe, examples, w):
            if examples is targets:
                probes.append(probe)
            return batch_weighted_gradient_fast(probe, examples, w)

        with mock.patch.object(metaweight.regulator, "batch_weighted_gradient_fast", spy):
            metagrad = weight_meta_gradient(model, batch, weights, targets, 0.3)
        theta_tilde = virtual_update(model, batch, weights, 0.3)
        assert len(probes) == 1 and (probes[0] is model) == (policy == "zero")
        assert np.array_equal(probes[0].params, theta_tilde)
        tgrad = target_gradient(model.arch, theta_tilde, targets)
        assert np.array_equal(metagrad, -0.3 * alignment_scores(model, batch, tgrad))


class TestRegulatorConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RegulatorConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            RegulatorConfig(init_policy="half")
        with pytest.raises(ConfigError):
            RegulatorConfig(source_batch_size=0)
        with pytest.raises(ConfigError):
            RegulatorConfig(target_batch_size=0)

    def test_unresolved_learning_rate_refused_by_mwr_step(self, setup):
        src, _, arch, model = setup
        batch = featurize(arch, src.examples[:4])
        cfg = RegulatorConfig()
        assert cfg.learning_rate is None and cfg.source_batch_size is None
        with pytest.raises(ConfigError, match="mwr_step needs a learning_rate"):
            mwr_step(model, batch, batch, cfg, RngState(0))
