import numpy as np
import pytest

from helpers import data_merging_loop, max_relative_error, mwr_loop, oracle_write_weight_trace
from metaweight.backbones import BackboneArch, Example, ModelState, build_embedding, featurize
from metaweight.data import FewShotSpec, ShiftSpec, gen_synthetic_shift, sample_few_shot
from metaweight.errors import ConfigError, DomainError
from metaweight.regulator import RegulatorConfig, target_loss, weighted_training_step
from metaweight.stats import accuracy, predict
from metaweight.training import (
    MAX_EPOCHS,
    METHODS,
    TrainSpec,
    WeightTrace,
    WeightTraceRow,
    load_report,
    run_training,
    save_report,
    sgd_epoch,
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
        out = sgd_epoch(model, featurize(model.arch, t_fs.examples), 0.0, 8, RngState(0))
        assert np.array_equal(out.params, model.params)

    def test_single_example_single_batch_equals_unit_weighted_step(self):
        _, src, t_fs, _ = _task()
        model = _model()
        rows = featurize(model.arch, t_fs.examples[:1])
        alpha = 0.2
        via_epoch = sgd_epoch(model, rows, alpha, 1, RngState(5))
        via_step = weighted_training_step(model, rows, np.ones(1), alpha)
        assert max_relative_error(via_epoch.params, via_step.params, floor=1e-14) <= 1e-12

    def test_learns_separable_toy_set(self):
        # two fixed examples whose only difference is the marker pairing
        data = [
            Example(("qm00", "qm00"), ("rm00", "rm00"), 1),
            Example(("qm00", "qm00"), ("rm01", "rm01"), 0),
        ]
        model = _model(seed=3)
        rows = featurize(model.arch, data)
        for _ in range(2):
            model = sgd_epoch(model, rows, 0.5, 2, RngState(9))
        record = predict(model, data)
        assert accuracy(record) == 1.0

    def test_empty_data_rejected(self):
        model = _model()
        with pytest.raises(DomainError):
            sgd_epoch(model, featurize(model.arch, []), 0.1, 4, RngState(0))


class TestTrainSpec:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            TrainSpec(method="backbone_only", epochs=0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            TrainSpec(method="distill")

    @pytest.mark.parametrize("method", ["backbone_only", "mwr"])
    def test_epochs_cap(self, method):
        assert TrainSpec(method=method, epochs=MAX_EPOCHS).epochs == MAX_EPOCHS
        for epochs in (MAX_EPOCHS + 1, 10**20):
            with pytest.raises(ConfigError, match=f"cap of {MAX_EPOCHS}, got {epochs}"):
                TrainSpec(method=method, epochs=epochs)

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

    def test_mwr_regulator_resolved_from_spec(self):
        spec = TrainSpec("mwr", alpha=0.07, batch_size=12, regulator=RegulatorConfig(init_policy="one"))
        assert spec.regulator.learning_rate == 0.07
        assert spec.regulator.source_batch_size == 12
        assert spec.regulator.init_policy == "one"
        given = RegulatorConfig(learning_rate=0.07, source_batch_size=12, init_policy="one")
        assert TrainSpec("mwr", alpha=0.07, batch_size=12, regulator=given).regulator == spec.regulator

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
        report = run_training(spec, _model(), (), t_fs.examples)
        assert accuracy(predict(report.model, rest.examples)) > 0.5

    def test_deterministic(self):
        _, _, t_fs, _ = _task()
        spec = TrainSpec(method="backbone_only", epochs=3, alpha=0.05, seed=8)
        a = run_training(spec, _model(), (), t_fs.examples)
        b = run_training(spec, _model(), (), t_fs.examples)
        assert np.array_equal(a.model.params, b.model.params)
        assert a.target_loss_trace == b.target_loss_trace

    def test_trace_length_is_epochs(self):
        _, _, t_fs, _ = _task()
        spec = TrainSpec(method="backbone_only", epochs=5, alpha=0.05, seed=1)
        report = run_training(spec, _model(), (), t_fs.examples)
        assert len(report.target_loss_trace) == 5

    def test_empty_target_rejected(self):
        spec = TrainSpec(method="backbone_only", epochs=1)
        with pytest.raises(DomainError):
            run_training(spec, _model(), (), [])


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
            ft = run_training(
                TrainSpec(method="fine_tuning", epochs=8, alpha=0.04, seed=seed, batch_size=8),
                model,
                src.examples,
                t_fs.examples,
            )
            bo = run_training(
                TrainSpec(method="backbone_only", epochs=8, alpha=0.04, seed=seed, batch_size=8),
                model,
                (),
                t_fs.examples,
            )
            wins += accuracy(predict(ft.model, rest.examples)) >= accuracy(predict(bo.model, rest.examples))
        assert wins >= 4

    def test_deterministic(self):
        _, src, t_fs, _ = _task()
        spec = TrainSpec(method="fine_tuning", epochs=2, alpha=0.05, seed=6, batch_size=16)
        a = run_training(spec, _model(), src.examples, t_fs.examples)
        b = run_training(spec, _model(), src.examples, t_fs.examples)
        assert np.array_equal(a.model.params, b.model.params)

    def test_source_equal_to_target_doubles_training(self):
        # with identical sets, the two phases reduce to 2*epochs passes over
        # the same data on the same shuffle stream
        from metaweight.vectors import RngState, derive_seed

        _, _, t_fs, _ = _task()
        spec = TrainSpec(method="fine_tuning", epochs=3, alpha=0.05, seed=9, batch_size=16)
        via_fine_tuning = run_training(spec, _model(), t_fs.examples, t_fs.examples)
        model = _model()
        rng = RngState(derive_seed(spec.seed, "fine_tuning"))
        rows = featurize(model.arch, t_fs.examples)
        for _ in range(2 * spec.epochs):
            model = sgd_epoch(model, rows, spec.alpha, spec.batch_size, rng)
        assert np.array_equal(via_fine_tuning.model.params, model.params)


class TestDataMerging:
    def test_tiny_target_behaves_like_source_training(self):
        _, src, t_fs, rest = _task(seed=17)
        tiny = t_fs.examples[:2]
        spec = TrainSpec(method="data_merging", epochs=6, alpha=0.04, seed=2, batch_size=16)
        merged_run = run_training(spec, _model(), src.examples, tiny)
        source_only = run_training(
            TrainSpec(method="backbone_only", epochs=6, alpha=0.04, seed=2, batch_size=16),
            _model(),
            (),
            src.examples,
        )
        acc_merged = accuracy(predict(merged_run.model, rest.examples))
        acc_source = accuracy(predict(source_only.model, rest.examples))
        assert abs(acc_merged - acc_source) <= 0.05

    def test_deterministic(self):
        _, src, t_fs, _ = _task()
        spec = TrainSpec(method="data_merging", epochs=2, alpha=0.05, seed=3, batch_size=16)
        a = run_training(spec, _model(), src.examples, t_fs.examples)
        b = run_training(spec, _model(), src.examples, t_fs.examples)
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
        report = run_training(
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
        report = run_training(self._mwr_spec(alpha=0.04, epochs=6), model, src.examples, t_fs.examples)
        weights = np.array([row.weight for row in report.weight_trace])
        unflipped = [Example(ex.text_a, ex.text_b, 1 - ex.label) for ex in src.examples]
        matched = run_training(self._mwr_spec(alpha=0.04, epochs=6), model, unflipped, t_fs.examples)
        matched_weights = np.array([row.weight for row in matched.weight_trace])
        assert weights.mean() <= 0.05 * matched_weights.mean()
        acc_before = accuracy(predict(model, rest.examples))
        acc_after = accuracy(predict(report.model, rest.examples))
        assert acc_after >= acc_before - 0.05

    def test_weight_trace_shape_and_ids(self):
        _, src, t_fs, _ = _task()
        spec = self._mwr_spec(epochs=2, batch=32)
        report = run_training(spec, _model(), src.examples, t_fs.examples)
        steps_per_epoch = (len(src.examples) + 31) // 32
        assert len(report.weight_trace) == 2 * len(src.examples)
        assert max(row.step for row in report.weight_trace) == 2 * steps_per_epoch - 1
        ids = {row.example_id for row in report.weight_trace}
        assert ids == set(range(len(src.examples)))

    def test_deterministic(self):
        _, src, t_fs, _ = _task()
        spec = self._mwr_spec(epochs=2)
        a = run_training(spec, _model(), src.examples, t_fs.examples)
        b = run_training(spec, _model(), src.examples, t_fs.examples)
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
        report = run_training(spec, model, src.examples, t_fs.examples)
        oracle, rows = mwr_loop(spec, model, src.examples, t_fs.examples)
        assert np.array_equal(report.model.params, oracle.params)
        assert [(r.step, r.example_id, r.metagrad, r.weight) for r in report.weight_trace] == rows

    @pytest.mark.parametrize("kind", ["logistic", "mlp", "bilinear"])
    def test_train_data_merging(self, kind):
        _, src, t_fs, _ = _task(n_source=120, n_target=60)
        model = _model(kind=kind)
        spec = TrainSpec(method="data_merging", epochs=2, alpha=0.05, seed=3, batch_size=8)
        report = run_training(spec, model, src.examples, t_fs.examples)
        assert np.array_equal(report.model.params, data_merging_loop(spec, model, src.examples, t_fs.examples).params)


class TestColumnarTrace:
    """The WeightTrace of a run against the tuple of row objects it replaces."""

    def test_weight_trace_is_the_row_tuple(self, tmp_path):
        _, src, t_fs, _ = _task(flip=0.3, n_source=120, n_target=60)
        model = _model(kind="bilinear")
        reg = RegulatorConfig(learning_rate=0.05, init_policy="random", source_batch_size=7, target_batch_size=12)
        spec = TrainSpec(method="mwr", epochs=2, alpha=0.05, seed=4, batch_size=7, regulator=reg)
        trace = run_training(spec, model, src.examples, t_fs.examples).weight_trace
        rows = tuple(WeightTraceRow(*row) for row in mwr_loop(spec, model, src.examples, t_fs.examples)[1])
        assert isinstance(trace, WeightTrace)
        assert len(trace) == len(rows) == 2 * len(src.examples)
        assert all(trace[i] == rows[i] for i in range(len(rows)))
        assert trace[-1] == rows[-1] and trace[3:9] == rows[3:9]
        assert list(trace) == list(rows)
        assert trace == rows and rows == trace
        assert trace == WeightTrace(*(column.copy() for column in trace.columns))
        changed = WeightTrace(*(column.copy() for column in trace.columns))
        changed.weight[5] += 1.0
        assert trace != changed and changed != rows
        write_weight_trace(trace, tmp_path / "columns.csv")
        oracle_write_weight_trace(rows, tmp_path / "rows.csv")
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_other_methods_have_an_empty_trace(self):
        _, src, t_fs, _ = _task()
        spec = TrainSpec(method="data_merging", epochs=1, alpha=0.05, seed=1)
        trace = run_training(spec, _model(), src.examples, t_fs.examples).weight_trace
        assert len(trace) == 0 and list(trace) == [] and trace == ()


class TestRunTrainingGuard:
    """run_training checks both sets once, for every method, with the
    messages each method gave when it checked them itself."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("empty", ["source", "target"])
    def test_empty_set_messages(self, method, empty):
        _, src, t_fs, _ = _task(n_source=40, n_target=40)
        spec = TrainSpec(method=method, epochs=1, alpha=0.05, seed=1, batch_size=8)
        source = () if empty == "source" else src.examples
        target = () if empty == "target" else t_fs.examples
        if method == "backbone_only" and empty == "source":
            # backbone_only never reads the source set
            report = run_training(spec, _model(), source, target)
            full = run_training(spec, _model(), src.examples, target)
            assert np.array_equal(report.model.params, full.model.params)
            return
        if method == "backbone_only":
            message = "target few-shot set must be non-empty"
        else:
            message = "both training sets must be non-empty"
        with pytest.raises(DomainError, match=f"^{message}$"):
            run_training(spec, _model(), source, target)


class TestTargetLossOnRows:
    @pytest.mark.parametrize("method", ["backbone_only", "fine_tuning", "data_merging", "mwr"])
    def test_last_epoch_loss_is_the_examples_loss(self, method):
        # each loop scores its target rows; the examples path must agree bit for bit
        _, src, t_fs, _ = _task(n_source=80, n_target=40)
        spec = TrainSpec(method=method, epochs=2, alpha=0.05, seed=2, batch_size=8)
        report = run_training(spec, _model(kind="logistic"), src.examples, t_fs.examples)
        assert report.target_loss_trace[-1] == target_loss(report.model.arch, report.model.params, t_fs.examples)


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
