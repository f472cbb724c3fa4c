import numpy as np
import pytest

from helpers import data_merging_loop, max_relative_error, mwr_loop
from metaweight.backbones import BackboneArch, Example, ModelState, build_embedding
from metaweight.data import FewShotSpec, ShiftSpec, gen_synthetic_shift, sample_few_shot
from metaweight.errors import ConfigError, DomainError
from metaweight.regulator import RegulatorConfig, weighted_training_step
from metaweight.stats import accuracy, predict
from metaweight.training import (
    TrainSpec,
    load_report,
    merge_datasets,
    run_training,
    save_report,
    sgd_epoch,
    train_backbone_only,
    train_data_merging,
    train_fine_tuning,
    train_mwr,
    write_weight_trace,
)
from metaweight.vectors import RngState


def _task(flip=0.0, seed=7, n_source=240, n_target=120):
    spec = ShiftSpec(
        n_source=n_source,
        n_target=n_target,
        source_vocab=20,
        target_vocab=20,
        flip_fraction=flip,
    )
    src, tgt_pool = gen_synthetic_shift(spec, RngState(seed))
    t_fs, rest = sample_few_shot(tgt_pool, FewShotSpec(k=10, seed=seed))
    return spec, src, t_fs, rest


def _model(seed=1, kind="mlp", dim=8, hidden=16):
    arch = BackboneArch(kind, build_embedding(31, 2048, dim), 2, hidden_dim=hidden)
    return ModelState(arch.init_params(seed), arch)


class TestSgdEpoch:
    def test_zero_alpha_leaves_model(self):
        _, src, t_fs, _ = _task()
        model = _model()
        out = sgd_epoch(model, t_fs.examples, 0.0, 8, RngState(0))
        assert np.array_equal(out.params, model.params)

    def test_single_example_single_batch_equals_unit_weighted_step(self):
        _, src, t_fs, _ = _task()
        model = _model()
        ex = t_fs.examples[0]
        alpha = 0.2
        via_epoch = sgd_epoch(model, [ex], alpha, 1, RngState(5))
        via_step = weighted_training_step(model, [ex], np.ones(1), alpha)
        assert max_relative_error(via_epoch.params, via_step.params, floor=1e-14) <= 1e-12

    def test_learns_separable_toy_set(self):
        # two fixed examples whose only difference is the marker pairing
        data = [
            Example(("qm00", "qm00"), ("rm00", "rm00"), 1),
            Example(("qm00", "qm00"), ("rm01", "rm01"), 0),
        ]
        model = _model(seed=3)
        for _ in range(2):
            model = sgd_epoch(model, data, 0.5, 2, RngState(9))
        record = predict(model, data)
        assert accuracy(record) == 1.0

    def test_empty_data_rejected(self):
        model = _model()
        with pytest.raises(DomainError):
            sgd_epoch(model, [], 0.1, 4, RngState(0))


class TestTrainSpec:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            TrainSpec(method="backbone_only", epochs=0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            TrainSpec(method="distill")

    @pytest.mark.parametrize("alpha", [0.0, -0.1, float("nan"), float("inf"), float("-inf")])
    def test_non_positive_or_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ConfigError, match="alpha must be a finite number > 0"):
            TrainSpec(method="backbone_only", alpha=alpha)
        with pytest.raises(ConfigError, match="learning_rate must be a finite number > 0"):
            RegulatorConfig(learning_rate=alpha)

    def test_mwr_gets_default_regulator(self):
        spec = TrainSpec(method="mwr", alpha=0.07, batch_size=12)
        assert spec.regulator is not None
        assert spec.regulator.learning_rate == 0.07
        assert spec.regulator.source_batch_size == 12

    def test_mwr_alpha_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            TrainSpec(method="mwr", alpha=0.1, regulator=RegulatorConfig(learning_rate=0.2))

    def test_mwr_batch_size_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="source_batch_size"):
            TrainSpec(method="mwr", batch_size=16, regulator=RegulatorConfig(source_batch_size=64))


class TestBackboneOnly:
    def test_beats_chance_on_holdout(self):
        _, _, t_fs, rest = _task()
        spec = TrainSpec(method="backbone_only", epochs=12, alpha=0.05, seed=4, batch_size=8)
        report = train_backbone_only(spec, _model(), t_fs.examples)
        assert accuracy(predict(report.model, rest.examples)) > 0.5

    def test_deterministic(self):
        _, _, t_fs, _ = _task()
        spec = TrainSpec(method="backbone_only", epochs=3, alpha=0.05, seed=8)
        a = train_backbone_only(spec, _model(), t_fs.examples)
        b = train_backbone_only(spec, _model(), t_fs.examples)
        assert np.array_equal(a.model.params, b.model.params)
        assert a.target_loss_trace == b.target_loss_trace

    def test_trace_length_is_epochs(self):
        _, _, t_fs, _ = _task()
        spec = TrainSpec(method="backbone_only", epochs=5, alpha=0.05, seed=1)
        report = train_backbone_only(spec, _model(), t_fs.examples)
        assert len(report.target_loss_trace) == 5

    def test_empty_target_rejected(self):
        spec = TrainSpec(method="backbone_only", epochs=1)
        with pytest.raises(DomainError):
            train_backbone_only(spec, _model(), [])


class TestFineTuning:
    def test_matched_distribution_beats_backbone_only(self):
        spec_cfg = ShiftSpec(
            n_source=400,
            n_target=120,
            source_vocab=20,
            target_vocab=20,
            source_prefix="w",
            target_prefix="w",
        )
        wins = 0
        for seed in range(5):
            src, tgt_pool = gen_synthetic_shift(spec_cfg, RngState(100 + seed))
            t_fs, rest = sample_few_shot(tgt_pool, FewShotSpec(k=5, seed=seed))
            model = _model(seed)
            ft = train_fine_tuning(
                TrainSpec(method="fine_tuning", epochs=8, alpha=0.04, seed=seed, batch_size=8),
                model,
                src.examples,
                t_fs.examples,
            )
            bo = train_backbone_only(
                TrainSpec(method="backbone_only", epochs=8, alpha=0.04, seed=seed, batch_size=8),
                model,
                t_fs.examples,
            )
            wins += accuracy(predict(ft.model, rest.examples)) >= accuracy(predict(bo.model, rest.examples))
        assert wins >= 4

    def test_deterministic(self):
        _, src, t_fs, _ = _task()
        spec = TrainSpec(method="fine_tuning", epochs=2, alpha=0.05, seed=6, batch_size=16)
        a = train_fine_tuning(spec, _model(), src.examples, t_fs.examples)
        b = train_fine_tuning(spec, _model(), src.examples, t_fs.examples)
        assert np.array_equal(a.model.params, b.model.params)

    def test_source_equal_to_target_doubles_training(self):
        # with identical sets, the two phases reduce to 2*epochs passes over
        # the same data on the same shuffle stream
        from metaweight.vectors import RngState, derive_seed

        _, _, t_fs, _ = _task()
        spec = TrainSpec(method="fine_tuning", epochs=3, alpha=0.05, seed=9, batch_size=16)
        via_fine_tuning = train_fine_tuning(spec, _model(), t_fs.examples, t_fs.examples)
        model = _model()
        rng = RngState(derive_seed(spec.seed, "fine_tuning"))
        for _ in range(2 * spec.epochs):
            model = sgd_epoch(model, t_fs.examples, spec.alpha, spec.batch_size, rng)
        assert np.array_equal(via_fine_tuning.model.params, model.params)


class TestDataMerging:
    def test_merged_pool_size(self):
        _, src, t_fs, _ = _task()
        merged = merge_datasets(src.examples, t_fs.examples)
        assert len(merged) == len(src.examples) + len(t_fs.examples)

    def test_tiny_target_behaves_like_source_training(self):
        _, src, t_fs, rest = _task(seed=17)
        tiny = t_fs.examples[:2]
        spec = TrainSpec(method="data_merging", epochs=6, alpha=0.04, seed=2, batch_size=16)
        merged_run = train_data_merging(spec, _model(), src.examples, tiny)
        source_only = train_backbone_only(
            TrainSpec(method="backbone_only", epochs=6, alpha=0.04, seed=2, batch_size=16),
            _model(),
            src.examples,
        )
        acc_merged = accuracy(predict(merged_run.model, rest.examples))
        acc_source = accuracy(predict(source_only.model, rest.examples))
        assert abs(acc_merged - acc_source) <= 0.05

    def test_deterministic(self):
        _, src, t_fs, _ = _task()
        spec = TrainSpec(method="data_merging", epochs=2, alpha=0.05, seed=3, batch_size=16)
        a = train_data_merging(spec, _model(), src.examples, t_fs.examples)
        b = train_data_merging(spec, _model(), src.examples, t_fs.examples)
        assert np.array_equal(a.model.params, b.model.params)


class TestTrainMwr:
    @staticmethod
    def _mwr_spec(alpha=0.05, epochs=6, seed=5, batch=16, policy="zero"):
        reg = RegulatorConfig(learning_rate=alpha, init_policy=policy, source_batch_size=batch)
        return TrainSpec(method="mwr", epochs=epochs, alpha=alpha, seed=seed, batch_size=batch, regulator=reg)

    def test_matched_distribution_positive_weights_and_monotone_loss(self):
        spec_cfg = ShiftSpec(n_source=2000, n_target=300, source_prefix="w", target_prefix="w")
        src, tgt_pool = gen_synthetic_shift(spec_cfg, RngState(11))
        t_fs, _ = sample_few_shot(tgt_pool, FewShotSpec(k=50, seed=1))
        report = train_mwr(
            self._mwr_spec(alpha=0.05, epochs=10), _model(seed=9, dim=32, hidden=32), src.examples, t_fs.examples
        )
        weights = np.array([row.weight for row in report.weight_trace])
        assert (weights > 0).mean() > 0.5
        trace = report.target_loss_trace
        assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))

    def test_fully_flipped_source_freezes_model(self):
        spec_cfg = ShiftSpec(
            n_source=400,
            n_target=160,
            source_vocab=60,
            target_vocab=60,
            source_prefix="w",
            target_prefix="w",
            flip_fraction=1.0,
        )
        src, tgt_pool = gen_synthetic_shift(spec_cfg, RngState(12))
        t_fs, rest = sample_few_shot(tgt_pool, FewShotSpec(k=25, seed=2))
        model = _model(seed=10, dim=32, hidden=32)
        report = train_mwr(self._mwr_spec(alpha=0.04, epochs=6), model, src.examples, t_fs.examples)
        weights = np.array([row.weight for row in report.weight_trace])
        unflipped = [Example(ex.text_a, ex.text_b, 1 - ex.label) for ex in src.examples]
        matched = train_mwr(self._mwr_spec(alpha=0.04, epochs=6), model, unflipped, t_fs.examples)
        matched_weights = np.array([row.weight for row in matched.weight_trace])
        assert weights.mean() <= 0.05 * matched_weights.mean()
        acc_before = accuracy(predict(model, rest.examples))
        acc_after = accuracy(predict(report.model, rest.examples))
        assert acc_after >= acc_before - 0.05

    def test_weight_trace_shape_and_ids(self):
        _, src, t_fs, _ = _task()
        spec = self._mwr_spec(epochs=2, batch=32)
        report = train_mwr(spec, _model(), src.examples, t_fs.examples)
        steps_per_epoch = (len(src.examples) + 31) // 32
        assert len(report.weight_trace) == 2 * len(src.examples)
        assert max(row.step for row in report.weight_trace) == 2 * steps_per_epoch - 1
        ids = {row.example_id for row in report.weight_trace}
        assert ids == set(range(len(src.examples)))

    def test_deterministic(self):
        _, src, t_fs, _ = _task()
        spec = self._mwr_spec(epochs=2)
        a = train_mwr(spec, _model(), src.examples, t_fs.examples)
        b = train_mwr(spec, _model(), src.examples, t_fs.examples)
        assert np.array_equal(a.model.params, b.model.params)
        assert a.weight_trace == b.weight_trace


class TestFeaturizedRunsMatchExampleLoops:
    """Training on row slices of featurized sets equals the per-step loops
    over example batches in tests/helpers.py, bit for bit."""

    @pytest.mark.parametrize("kind", ["logistic", "mlp", "bilinear"])
    def test_train_mwr(self, kind):
        _, src, t_fs, _ = _task(flip=0.3, n_source=120, n_target=60)
        model = _model(kind=kind)
        # a target batch smaller than the target set makes every step draw one
        reg = RegulatorConfig(learning_rate=0.05, init_policy="random", source_batch_size=8, target_batch_size=12)
        spec = TrainSpec(method="mwr", epochs=2, alpha=0.05, seed=3, batch_size=8, regulator=reg)
        report = train_mwr(spec, model, src.examples, t_fs.examples)
        oracle, rows = mwr_loop(spec, model, src.examples, t_fs.examples)
        assert np.array_equal(report.model.params, oracle.params)
        assert [(r.step, r.example_id, r.metagrad, r.weight) for r in report.weight_trace] == rows

    @pytest.mark.parametrize("kind", ["logistic", "mlp", "bilinear"])
    def test_train_data_merging(self, kind):
        _, src, t_fs, _ = _task(n_source=120, n_target=60)
        model = _model(kind=kind)
        spec = TrainSpec(method="data_merging", epochs=2, alpha=0.05, seed=3, batch_size=8)
        report = train_data_merging(spec, model, src.examples, t_fs.examples)
        assert np.array_equal(report.model.params, data_merging_loop(spec, model, src.examples, t_fs.examples).params)


class TestHarness:
    def test_embedding_frozen_through_training(self):
        _, src, t_fs, _ = _task()
        model = _model()
        snapshot = model.arch.embedding.values.copy()
        for method in ("backbone_only", "fine_tuning", "data_merging", "mwr"):
            spec = TrainSpec(method=method, epochs=2, alpha=0.05, seed=1, batch_size=16)
            run_training(spec, model, src.examples, t_fs.examples)
        assert np.array_equal(model.arch.embedding.values, snapshot)

    def test_initial_params_recorded(self):
        _, src, t_fs, _ = _task()
        model = _model()
        spec = TrainSpec(method="data_merging", epochs=1, alpha=0.05, seed=1)
        report = run_training(spec, model, src.examples, t_fs.examples)
        assert np.array_equal(report.initial_params, model.params)

    def test_report_round_trip(self, tmp_path):
        _, src, t_fs, _ = _task()
        spec = TrainSpec(method="backbone_only", epochs=2, alpha=0.05, seed=1)
        report = run_training(spec, _model(), src.examples, t_fs.examples)
        path = tmp_path / "report.json"
        save_report(report, path)
        back = load_report(path)
        assert back.method == report.method
        assert np.array_equal(back.model.params, report.model.params)
        assert back.target_loss_trace == report.target_loss_trace

    def test_weight_trace_csv(self, tmp_path):
        _, src, t_fs, _ = _task()
        spec = TrainSpec(method="mwr", epochs=1, alpha=0.05, seed=1, batch_size=32)
        report = run_training(spec, _model(), src.examples, t_fs.examples)
        path = tmp_path / "trace.csv"
        write_weight_trace(report.weight_trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,example_id,raw_metagrad,regulated_weight"
        assert len(lines) == 1 + len(report.weight_trace)
        step, ex_id, metagrad, weight = lines[1].split(",")
        first = report.weight_trace[0]
        assert (int(step), int(ex_id)) == (first.step, first.example_id)
        assert float(metagrad) == first.metagrad and float(weight) == first.weight
