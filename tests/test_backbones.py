import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    central_difference_gradient,
    make_example,
    max_relative_error,
    oracle_featurize_pair,
    oracle_gradient,
    oracle_pooled_embedding,
    oracle_predictions,
    oracle_scaled_rows,
    oracle_weighted_gradient,
    random_model,
    small_arch,
    small_task,
)
from metaweight.backbones import (
    BACKBONE_KINDS,
    FEATURIZE_BLOCK,
    MAX_PARAM_COUNT,
    BackboneArch,
    Example,
    ModelState,
    alignment_scores,
    batch_loss,
    batch_weighted_gradient_fast,
    build_embedding,
    example_features,
    featurize,
    featurize_pair,
    forward,
    per_example_gradient,
    per_example_loss,
    stable_token_hash,
)
from metaweight.errors import ConfigError, DimensionError, DomainError, NumericalError
from metaweight.stats import predict
from metaweight.vectors import RngState, sample_uniform


class TestTokenHash:
    def test_known_fnv1a_vectors(self):
        assert stable_token_hash("") == 0xCBF29CE484222325
        assert stable_token_hash("a") == 0xAF63DC4C8601EC8C
        assert stable_token_hash("foobar") == 0x85944171F73967E8

    def test_stable_across_calls(self):
        assert stable_token_hash("cat") == stable_token_hash("cat")


class TestEmbedding:
    def test_deterministic(self):
        a = build_embedding(42, 128, 8)
        b = build_embedding(42, 128, 8)
        assert np.array_equal(a.values, b.values)

    def test_entry_magnitudes_bounded(self):
        emb = build_embedding(7, 256, 10)
        assert (np.abs(emb.values) <= 0.5 / 10).all()

    def test_distinct_seeds_mostly_differ(self):
        a = build_embedding(1, 512, 8).values
        b = build_embedding(2, 512, 8).values
        assert (a != b).mean() >= 0.99

    def test_values_read_only(self):
        emb = build_embedding(1, 16, 4)
        with pytest.raises(ValueError):
            emb.values[0, 0] = 1.0

    def test_bad_dimensions(self):
        with pytest.raises(DomainError):
            build_embedding(1, 0, 4)
        with pytest.raises(DomainError):
            build_embedding(1, 4, 0)


class TestParamCap:
    def test_oversized_backbones_refused_before_allocation(self):
        tiny = build_embedding(1, 1, 1)
        wide = build_embedding(1, 1, 4096)  # bilinear: 2 * 4096^2 + 2 parameters
        for kind, emb, hidden in (("mlp", tiny, 10**15), ("bilinear", wide, 32)):
            with pytest.raises(ConfigError, match=f"cap of {MAX_PARAM_COUNT}"):
                BackboneArch(kind, emb, 2, hidden)

    def test_cap_is_inclusive(self):
        # mlp with feature dim 4 and 2 classes: 7 * hidden + 2 parameters.
        hidden = (MAX_PARAM_COUNT - 2) // 7
        assert BackboneArch("mlp", build_embedding(1, 1, 1), 2, hidden).param_count <= MAX_PARAM_COUNT
        with pytest.raises(ConfigError):
            BackboneArch("mlp", build_embedding(1, 1, 1), 2, hidden + 1)


class TestFeaturize:
    def test_equal_sides_zero_difference_block(self):
        emb = build_embedding(3, 64, 4)
        feats = featurize_pair(("x", "y"), ("x", "y"), emb)
        assert np.array_equal(feats[8:12], np.zeros(4))

    def test_empty_side_pools_to_zero(self):
        emb = build_embedding(3, 64, 4)
        feats = featurize_pair((), ("x", "y"), emb)
        v = oracle_pooled_embedding(("x", "y"), emb)
        assert np.array_equal(feats[0:4], np.zeros(4))  # u block
        assert np.array_equal(feats[12:16], np.zeros(4))  # u * v block
        # |u - v| with empty u reduces to |v|, per the featurize definition
        assert np.array_equal(feats[8:12], np.abs(v))

    def test_both_sides_empty(self):
        emb = build_embedding(3, 64, 4)
        assert np.array_equal(featurize_pair((), (), emb), np.zeros(16))

    def test_matches_mean_pool_oracle(self):
        emb = build_embedding(5, 128, 6)
        a, b = ("red", "green", "blue"), ("blue", "red", "cyan")
        feats = featurize_pair(a, b, emb)
        u = sum(emb.values[emb.bucket(t)] for t in a) / 3.0
        v = sum(emb.values[emb.bucket(t)] for t in b) / 3.0
        oracle = np.concatenate([u, v, np.abs(u - v), u * v])
        assert max_relative_error(feats, oracle, floor=0.0) <= 1e-12


# Tokens for the pair-feature property: a small pool so that sides repeat
# tokens, and fresh ones, which no table has bucketed before.
_POOL_TOKENS = [f"w{i}" for i in range(12)]
_pair_side = st.lists(st.sampled_from(_POOL_TOKENS) | st.text(min_size=1, max_size=6), max_size=60)


class TestFeaturizeMatchesOracle:
    """featurize_pair gathers both sides at once and pools each with
    np.add.reduce / count; the oracle pools each side on its own with
    `.mean(axis=0)`. The bytes must agree, and so must the batched rows and
    predictions built on them."""

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.sampled_from([1, 2, 3, 8, 32]),
        buckets=st.integers(1, 4096),
        seed=st.integers(0, 2**32 - 1),
        pairs=st.lists(st.tuples(_pair_side, _pair_side), min_size=1, max_size=6),
        warm=st.sets(st.sampled_from(_POOL_TOKENS)),
    )
    def test_same_bytes_as_per_side_mean(self, dim, buckets, seed, pairs, warm):
        emb = build_embedding(seed, buckets, dim)
        for token in sorted(warm):  # some tokens already bucketed, the rest not
            emb.bucket(token)
        for a, b in pairs:
            got = featurize_pair(a, b, emb)
            want = oracle_featurize_pair(a, b, emb)
            assert got.shape == (4 * dim,)
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(BACKBONE_KINDS),
        dim=st.sampled_from([1, 2, 3, 8]),
        seed=st.integers(0, 2**32 - 1),
        pairs=st.lists(st.tuples(_pair_side, _pair_side, st.integers(0, 2)), min_size=1, max_size=8),
    )
    def test_featurize_and_predict_match_oracle_rows(self, kind, dim, seed, pairs):
        arch = BackboneArch(kind, build_embedding(seed, 64, dim), class_count=3, hidden_dim=4)
        examples = [Example(a, b, label) for a, b, label in pairs]
        assert featurize(arch, examples).scaled.tobytes() == oracle_scaled_rows(arch, examples).tobytes()
        model = random_model(arch, seed % 1000)
        assert np.array_equal(predict(model, examples).predicted, oracle_predictions(model, examples))


def _bulk_set(seed: int, n: int, classes: int = 3) -> list[Example]:
    """n examples with sides of 0-40 tokens: pooled tokens repeat, fresh ones
    (unique to their side) are never bucketed before featurize, and one
    example in five repeats an earlier one."""
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        if examples and rng.random() < 0.2:
            examples.append(examples[rng.integers(len(examples))])
            continue
        sides = []
        for side in "ab":
            width = int(rng.choice([0, 1, 2, 7, 8, 9, 40])) if rng.random() < 0.3 else int(rng.integers(0, 16))
            tokens = [_POOL_TOKENS[j] if j < len(_POOL_TOKENS) else f"{side}{i}.{k}"
                      for k, j in enumerate(rng.integers(0, 2 * len(_POOL_TOKENS), width))]
            sides.append(tokens)
        examples.append(Example(sides[0], sides[1], int(rng.integers(classes))))
    return examples


class TestBulkFeaturize:
    """featurize builds its unseen rows FEATURIZE_BLOCK examples at a time
    with one bulk kernel; rows, memo and predictions must be those of the
    per-pair path."""

    @settings(max_examples=12, deadline=None)
    @given(dim=st.sampled_from([1, 2, 3, 8, 32]), seed=st.integers(0, 2**32 - 1), warm=st.integers(0, 90))
    def test_blocks_match_oracle_rows(self, dim, seed, warm):
        arch = BackboneArch("logistic", build_embedding(seed, 97, dim), class_count=3)
        examples = _bulk_set(seed, 2 * FEATURIZE_BLOCK + 45)
        hits = examples[::7][:warm]  # a pre-featurized subset: memo hits
        featurize(arch, hits)
        kept = {ex: arch.embedding._feature_cache[ex] for ex in hits}
        batch = featurize(arch, examples)
        assert batch.scaled.tobytes() == oracle_scaled_rows(arch, examples).tobytes()
        assert batch.labels.tolist() == [ex.label for ex in examples]
        # memo hits are reused, not rebuilt
        assert all(arch.embedding._feature_cache[ex] is row for ex, row in kept.items())
        assert len(arch.embedding._feature_cache) == len(set(examples))

    @pytest.mark.parametrize("kind", BACKBONE_KINDS)
    def test_memo_rows_after_bulk_featurize(self, kind):
        arch = small_arch(kind, dim=3, hidden=5, buckets=61, classes=3)
        examples = _bulk_set(5, FEATURIZE_BLOCK + 30)
        featurize(arch, examples)
        emb = arch.embedding
        for ex in examples:
            row = example_features(arch, ex)
            assert row is emb._feature_cache[ex]  # a memo hit, not rebuilt
            assert not row.flags.writeable
            assert row.tobytes() == featurize_pair(ex.text_a, ex.text_b, emb).tobytes()
        model = random_model(arch, 8)
        assert np.array_equal(predict(model, examples).predicted, oracle_predictions(model, examples))

    def test_out_of_range_label_builds_no_row(self):
        arch = small_arch("mlp", classes=2)
        examples = _bulk_set(9, 2 * FEATURIZE_BLOCK, classes=2)
        examples.append(Example(("a",), ("b",), 2))
        with pytest.raises(DomainError, match="out of range"):
            featurize(arch, examples)
        assert arch.embedding._feature_cache == {}


class TestForward:
    def test_zero_params_uniform(self):
        for kind in BACKBONE_KINDS:
            arch = small_arch(kind)
            model = ModelState(np.zeros(arch.param_count), arch)
            feats = RngState(4).uniforms(arch.feature_dim)
            assert np.allclose(forward(model, feats), 0.5, atol=1e-15)

    def test_sums_to_one(self):
        for kind in BACKBONE_KINDS:
            arch = small_arch(kind)
            model = random_model(arch, 3)
            for seed in range(5):
                feats = sample_uniform(RngState(seed), -0.2, 0.2, arch.feature_dim)
                assert abs(forward(model, feats).sum() - 1.0) <= 1e-9

    def test_logistic_matches_hand_sigmoid(self):
        arch = small_arch("logistic", dim=1)  # feature dim 4
        w = np.array([[0.3, -0.2, 0.5, 0.1], [-0.4, 0.6, 0.2, -0.3]])
        b = np.array([0.05, -0.15])
        model = ModelState(np.concatenate([w.ravel(), b]), arch)
        feats = np.array([0.5, -0.3, 0.8, 0.1])
        scaled = arch.input_scale * feats
        z1 = w[1] @ scaled + b[1]
        z0 = w[0] @ scaled + b[0]
        expected_p1 = 1.0 / (1.0 + math.exp(-(z1 - z0)))
        probs = forward(model, feats)
        assert abs(probs[1] - expected_p1) <= 1e-12

    def test_feature_length_checked(self):
        arch = small_arch("logistic")
        model = random_model(arch, 1)
        with pytest.raises(DimensionError):
            forward(model, np.zeros(arch.feature_dim + 1))

    def test_model_state_validations(self):
        arch = small_arch("mlp")
        with pytest.raises(DimensionError):
            ModelState(np.zeros(arch.param_count - 1), arch)
        bad = np.zeros(arch.param_count)
        bad[0] = np.inf
        with pytest.raises(NumericalError):
            ModelState(bad, arch)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            BackboneArch("transformer", build_embedding(1, 8, 2), 2)


def _saturated_logistic(arch: BackboneArch, example: Example) -> ModelState:
    # huge weights aligned with the example's features force p(label) -> 1
    feats = example_features(arch, example) * arch.input_scale
    w = np.zeros((2, arch.feature_dim))
    w[example.label] = 200.0 * feats / max(float(feats @ feats), 1e-12)
    w[1 - example.label] = -w[example.label]
    return ModelState(np.concatenate([w.ravel(), np.zeros(2)]), arch)


class TestLoss:
    def test_perfect_prediction_zero_loss(self):
        arch = small_arch("logistic")
        ex = make_example(("alpha", "beta"), ("alpha", "gamma"), 1)
        model = _saturated_logistic(arch, ex)
        assert per_example_loss(model, ex) <= 1e-9

    def test_uniform_prediction_log2(self):
        for kind in BACKBONE_KINDS:
            arch = small_arch(kind)
            model = ModelState(np.zeros(arch.param_count), arch)
            ex = make_example(("tok",), ("tok", "tok2"), 0)
            assert abs(per_example_loss(model, ex) - math.log(2.0)) <= 1e-12

    def test_matches_forward_log_composition(self):
        for kind in BACKBONE_KINDS:
            arch = small_arch(kind)
            model = random_model(arch, 9)
            ex = make_example(("one", "two", "three"), ("four", "five"), 1)
            probs = forward(model, example_features(arch, ex))
            oracle = -math.log(max(float(probs[1]), 1e-12))
            got = per_example_loss(model, ex)
            assert abs(got - oracle) <= 1e-12 * max(abs(oracle), 1.0)

    def test_label_out_of_range(self):
        arch = small_arch("logistic")
        model = random_model(arch, 1)
        with pytest.raises(DomainError):
            per_example_loss(model, make_example(("a",), ("b",), 2))


class TestGradient:
    def test_saturated_gradient_vanishes(self):
        arch = small_arch("logistic")
        ex = make_example(("alpha", "beta"), ("alpha", "gamma"), 1)
        model = _saturated_logistic(arch, ex)
        assert np.linalg.norm(per_example_gradient(model, ex)) <= 1e-9

    @pytest.mark.parametrize("kind", BACKBONE_KINDS)
    def test_matches_finite_differences(self, kind):
        src, _ = small_task(seed=21)
        arch = small_arch(kind)
        for case in range(5):
            model = random_model(arch, 100 + case)
            ex = src.examples[case]

            def loss_at(params):
                return per_example_loss(ModelState(params, arch), ex)

            fd = central_difference_gradient(loss_at, model.params.copy(), 1e-5)
            grad = per_example_gradient(model, ex)
            assert max_relative_error(grad, fd) <= 1e-4

    def test_logistic_matches_hand_formula(self):
        arch = small_arch("logistic", dim=1)
        w = np.array([[0.2, -0.1, 0.4, 0.0], [-0.3, 0.5, 0.1, -0.2]])
        b = np.array([0.1, -0.1])
        model = ModelState(np.concatenate([w.ravel(), b]), arch)
        ex = make_example(("p", "q"), ("p", "r"), 1)
        feats = example_features(arch, ex)
        probs = forward(model, feats)
        dlog = probs.copy()
        dlog[1] -= 1.0
        hand = np.concatenate([np.outer(dlog, arch.input_scale * feats).ravel(), dlog])
        assert max_relative_error(per_example_gradient(model, ex), hand, floor=0.0) <= 1e-12

    def test_model_not_mutated(self):
        arch = small_arch("mlp")
        model = random_model(arch, 5)
        before = model.params.copy()
        ex = make_example(("x", "y"), ("z",), 0)
        per_example_loss(model, ex)
        per_example_gradient(model, ex)
        forward(model, example_features(arch, ex))
        assert np.array_equal(model.params, before)


class TestBatchOps:
    @pytest.mark.parametrize("kind", BACKBONE_KINDS)
    def test_weighted_gradient_linearity(self, kind):
        src, _ = small_task(seed=31)
        arch = small_arch(kind)
        model = random_model(arch, 77)
        batch = src.examples[:6]
        weights = sample_uniform(RngState(13), -1.0, 2.0, 6)
        total = batch_weighted_gradient_fast(model, featurize(arch, batch), weights)
        oracle = np.zeros(arch.param_count)
        for w_i, ex in zip(weights, batch):
            oracle = oracle + float(w_i) * per_example_gradient(model, ex)
        assert max_relative_error(total, oracle, floor=1e-12) <= 1e-10

    @pytest.mark.parametrize("kind", BACKBONE_KINDS)
    def test_fast_paths_match_reference(self, kind):
        src, _ = small_task(seed=41)
        arch = small_arch(kind)
        model = random_model(arch, 5)
        batch = src.examples[:8]
        weights = sample_uniform(RngState(2), 0.0, 1.0, 8)
        rows = featurize(arch, batch)
        slow = oracle_weighted_gradient(model, batch, weights)
        fast = batch_weighted_gradient_fast(model, rows, weights)
        assert max_relative_error(fast, slow, floor=1e-12) <= 1e-10
        reference = sample_uniform(RngState(3), -1.0, 1.0, arch.param_count)
        scores = alignment_scores(model, rows, reference)
        oracle = np.array([float(oracle_gradient(model, ex) @ reference) for ex in batch])
        assert max_relative_error(scores, oracle, floor=1e-12) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(BACKBONE_KINDS),
        dim=st.integers(1, 6),
        hidden=st.integers(1, 8),
        classes=st.integers(2, 4),
        pairs=st.lists(
            st.tuples(
                st.lists(st.sampled_from("abcdefgh"), max_size=4),
                st.lists(st.sampled_from("abcdefgh"), max_size=4),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=9,
        ),
        seed=st.integers(0, 2**32),
    )
    def test_batched_core_matches_per_example_oracle(self, kind, dim, hidden, classes, pairs, seed):
        """The batched forward / VJP / JVP against the hand-derived per-example
        formulas, for random shapes, class counts, batches, weights and
        reference vectors; errors are relative to the largest entry."""
        arch = small_arch(kind, dim=dim, hidden=hidden, buckets=32, seed=seed % 97, classes=classes)
        rng = RngState(seed)
        model = ModelState(sample_uniform(rng, -1.0, 1.0, arch.param_count), arch)
        batch = [make_example(a, b, label % classes) for a, b, label in pairs]
        weights = sample_uniform(rng, -1.0, 2.0, len(batch))
        reference = sample_uniform(rng, -1.0, 1.0, arch.param_count)

        def close(got, want):
            return np.abs(got - want).max() <= 1e-10 * max(np.abs(want).max(), 1e-300)

        rows = featurize(arch, batch)
        grad = batch_weighted_gradient_fast(model, rows, weights)
        assert close(grad, oracle_weighted_gradient(model, batch, weights))
        scores = np.array([float(oracle_gradient(model, ex) @ reference) for ex in batch])
        assert close(alignment_scores(model, rows, reference), scores)
        for ex in batch:
            assert close(per_example_gradient(model, ex), oracle_gradient(model, ex))

    def test_weight_count_checked(self):
        src, _ = small_task()
        arch = small_arch("logistic")
        model = random_model(arch, 1)
        with pytest.raises(DimensionError):
            batch_weighted_gradient_fast(model, featurize(arch, src.examples[:3]), np.ones(4))

    def test_batch_loss_is_sum(self):
        src, _ = small_task()
        arch = small_arch("mlp")
        model = random_model(arch, 2)
        batch = src.examples[:5]
        oracle = sum(per_example_loss(model, ex) for ex in batch)
        assert abs(batch_loss(model, featurize(arch, batch)) - oracle) <= 1e-12 * max(oracle, 1.0)
