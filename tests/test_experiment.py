import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaweight.cli import main
from metaweight.data import ShiftSpec, load_tsv
from metaweight.errors import ConfigError, DataError
from metaweight.experiment import (
    MAX_PERMUTATIONS,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    emit_results,
    load_results,
    run_experiment,
    table_from_dict,
    table_to_dict,
)


def _tiny_config(**overrides) -> dict:
    cfg = {
        "data": {
            "synthetic": {
                "n_source": 240,
                "n_target": 120,
                "source_vocab": 30,
                "target_vocab": 30,
            }
        },
        "backbone": {"kind": "logistic", "embedding_dim": 8, "buckets": 256},
        "methods": ["backbone_only", "data_merging"],
        "shots": [5],
        "seeds": [1, 2],
        "alpha": 0.05,
        "epochs": 2,
        "batch_size": 16,
        "n_permutations": 200,
        "output_dir": "unused",
    }
    cfg.update(overrides)
    return cfg


class TestConfigParsing:
    def test_round_trip(self):
        cfg = config_from_dict(_tiny_config())
        again = config_from_dict(config_to_dict(cfg))
        assert config_to_dict(cfg) == config_to_dict(again)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict(_tiny_config(extra_key=1))

    def test_unknown_nested_key(self):
        bad = _tiny_config()
        bad["backbone"] = {"kind": "mlp", "width": 3}
        with pytest.raises(ConfigError, match="backbone"):
            config_from_dict(bad)
        bad = _tiny_config()
        bad["data"] = {"synthetic": {"n_source": 100, "bogus": True}}
        with pytest.raises(ConfigError, match="data.synthetic"):
            config_from_dict(bad)

    def test_exactly_one_data_source(self):
        bad = _tiny_config()
        bad["data"] = {
            "synthetic": {"n_source": 100, "n_target": 50},
            "files": {"source": "a.tsv", "target": "b.tsv"},
        }
        with pytest.raises(ConfigError):
            config_from_dict(bad)
        with pytest.raises(ConfigError):
            config_from_dict(_tiny_config(data={}))

    def test_reference_must_be_known(self):
        with pytest.raises(ConfigError):
            config_from_dict(_tiny_config(reference_method="mwr"))

    def test_methods_validated(self):
        with pytest.raises(ConfigError):
            config_from_dict(_tiny_config(methods=[]))
        with pytest.raises(ConfigError):
            config_from_dict(_tiny_config(methods=["prompting"]))
        with pytest.raises(ConfigError):
            config_from_dict(_tiny_config(methods=["mwr", "mwr"]))

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"seeds": 3}, "seeds"),
            ({"seeds": [1, "2"]}, "seeds"),
            ({"shots": [5.0]}, "shots"),
            ({"alpha": "0.05"}, "alpha"),
            ({"epochs": 2.5}, "epochs"),
            ({"batch_size": True}, "batch_size"),
            ({"n_permutations": None}, "n_permutations"),
            ({"regulator": {"target_batch_size": "8"}}, "target_batch_size"),
            ({"regulator": {"clamp_nonnegative": "no"}}, "clamp_nonnegative"),
            ({"data": {"synthetic": 5}}, "data.synthetic"),
            ({"data": {"synthetic": {"n_source": 1200.0, "n_target": 600}}}, "n_source"),
            ({"data": {"files": 5}}, "data.files"),
            ({"data": {"files": {"source": "a.tsv", "target": "b.tsv", "keep_labels": ["x"]}}}, "keep_labels"),
            ({"data": {"files": {"source": "a.tsv", "target": "b.tsv", "balance": "no"}}}, "balance"),
            ({"backbone": 5}, "backbone"),
            ({"backbone": {"kind": "mlp", "embedding_dim": 4.0}}, "embedding_dim"),
            ({"methods": 5}, "methods"),
            ({"alpha": float("nan")}, "alpha"),
            ({"alpha": float("inf")}, "alpha"),
            ({"alpha": float("-inf")}, "alpha"),
        ],
    )
    def test_wrong_types_are_config_errors(self, override, key):
        with pytest.raises(ConfigError, match=key):
            config_from_dict(_tiny_config(**override))

    def test_n_permutations_cap(self):
        cfg = config_from_dict(_tiny_config(n_permutations=MAX_PERMUTATIONS))
        assert cfg.n_permutations == MAX_PERMUTATIONS
        with pytest.raises(ConfigError, match=f"cap of {MAX_PERMUTATIONS}, got {MAX_PERMUTATIONS + 1}"):
            config_from_dict(_tiny_config(n_permutations=MAX_PERMUTATIONS + 1))


def _key_paths(tree: dict, prefix: tuple = ()) -> list[tuple]:
    """The path of every key at every depth of a nested config."""
    paths = []
    for key, value in tree.items():
        paths.append(prefix + (key,))
        if isinstance(value, dict):
            paths.extend(_key_paths(value, prefix + (key,)))
    return paths


_FILES_DATA = {"files": {"source": "a.tsv", "target": "b.tsv", "keep_labels": [0, 1], "balance": True}}
_FUZZ_BASES = [
    _tiny_config(regulator={"init_policy": "zero", "clamp_nonnegative": True, "target_batch_size": 8}),
    _tiny_config(data=_FILES_DATA, reference_method="backbone_only"),
]
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**18), 10**18)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(base=st.sampled_from(_FUZZ_BASES), data=st.data(), value=_json_values)
    def test_one_field_replaced_parses_or_is_config_error(self, base, data, value):
        """Any one field of a valid config replaced by any JSON value either
        parses or raises ConfigError, never another exception."""
        path = data.draw(st.sampled_from(_key_paths(base)))
        raw = json.loads(json.dumps(base))
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        try:
            config_from_dict(raw)
        except ConfigError:
            pass


class TestRunExperiment:
    def test_single_method_row_per_cell(self):
        cfg = config_from_dict(_tiny_config(methods=["backbone_only"], seeds=[1, 2, 3]))
        table = run_experiment(cfg)
        assert len(table.rows) == 3
        assert all(r.method == "backbone_only" for r in table.rows)
        assert all(r.p_value is None and r.reference is None for r in table.rows)
        assert not table.errors

    def test_deterministic(self):
        cfg = config_from_dict(_tiny_config())
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert table_to_dict(a) == table_to_dict(b)

    def test_aggregates_are_seed_means(self):
        cfg = config_from_dict(_tiny_config())
        table = run_experiment(cfg)
        for agg in table.aggregates:
            cells = [r.accuracy for r in table.rows if r.method == agg.method and r.shot == agg.shot]
            assert abs(agg.mean_accuracy - sum(cells) / len(cells)) <= 1e-12

    def test_reference_and_p_values(self):
        cfg = config_from_dict(_tiny_config(methods=["backbone_only", "data_merging", "mwr"]))
        table = run_experiment(cfg)
        for row in table.rows:
            assert row.reference in ("backbone_only", "data_merging")
            if row.method == row.reference:
                assert row.p_value is None
            else:
                assert 0.0 < row.p_value <= 1.0

    def test_failed_cell_recorded_and_run_continues(self):
        # second shot value exceeds the target pool, so those cells fail
        cfg = config_from_dict(_tiny_config(methods=["backbone_only"], shots=[5, 500], seeds=[1]))
        table = run_experiment(cfg)
        assert len(table.rows) == 1
        assert len(table.errors) == 1
        assert table.errors[0].shot == 500

    def test_shared_init_across_methods(self):
        cfg = config_from_dict(_tiny_config(methods=["backbone_only", "data_merging", "mwr"]))
        table = run_experiment(cfg)
        for manifest in table.manifests:
            digests = set(manifest["method_init_digests"].values())
            assert digests == {manifest["init_digest"]}

    def test_file_data_with_preprocessing(self, tmp_path):
        from metaweight.data import ShiftSpec, gen_synthetic_shift, write_tsv
        from metaweight.vectors import RngState

        spec = ShiftSpec(n_source=240, n_target=200, source_vocab=30, target_vocab=30)
        source, target = gen_synthetic_shift(spec, RngState(9))
        write_tsv(source, tmp_path / "source.tsv")
        write_tsv(target, tmp_path / "target.tsv")
        write_tsv(target, tmp_path / "target_test.tsv")
        cfg = config_from_dict(
            _tiny_config(
                data={
                    "files": {
                        "source": str(tmp_path / "source.tsv"),
                        "target": str(tmp_path / "target.tsv"),
                        "target_test": str(tmp_path / "target_test.tsv"),
                        "keep_labels": [0, 1],
                        "balance": True,
                        "balance_seed": 4,
                    }
                },
                methods=["backbone_only"],
                seeds=[1],
            )
        )
        table = run_experiment(cfg)
        assert len(table.rows) == 1 and not table.errors
        assert 0.0 <= table.rows[0].accuracy <= 1.0

    def test_file_data_missing_source_is_a_hard_error(self, tmp_path):
        cfg = config_from_dict(
            _tiny_config(
                data={"files": {"source": str(tmp_path / "nope.tsv"), "target": str(tmp_path / "alsono.tsv")}},
                methods=["backbone_only"],
            )
        )
        with pytest.raises(OSError):
            run_experiment(cfg)


class TestEmitResults:
    def test_csv_round_trip(self, tmp_path):
        cfg = config_from_dict(_tiny_config())
        table = run_experiment(cfg)
        paths = emit_results(table, tmp_path)
        with open(paths["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(table.rows)
        for got, want in zip(rows, table.rows):
            assert got["method"] == want.method
            assert int(got["shot"]) == want.shot
            assert int(got["seed"]) == want.seed
            assert float(got["accuracy"]) == want.accuracy
            if want.p_value is None:
                assert got["p_value"] == ""
            else:
                assert float(got["p_value"]) == want.p_value
            assert got["status"] == "ok"

    def test_json_round_trip_and_config_echo(self, tmp_path):
        cfg = config_from_dict(_tiny_config())
        table = run_experiment(cfg)
        paths = emit_results(table, tmp_path)
        back = load_results(paths["json"])
        assert table_to_dict(back) == table_to_dict(table)
        assert back.config == config_to_dict(cfg)

    def test_empty_table_header_only(self, tmp_path):
        from metaweight.experiment import ResultsTable

        table = ResultsTable(rows=(), aggregates=(), errors=(), config={}, manifests=())
        paths = emit_results(table, tmp_path)
        lines = Path(paths["csv"]).read_text().splitlines()
        assert lines == ["method,shot,seed,accuracy,p_value,reference,status"]

    def test_error_rows_in_csv(self, tmp_path):
        cfg = config_from_dict(_tiny_config(methods=["backbone_only"], shots=[5, 500], seeds=[1]))
        table = run_experiment(cfg)
        paths = emit_results(table, tmp_path)
        lines = Path(paths["csv"]).read_text().splitlines()
        assert any("error:" in line for line in lines)

    def test_summary_mentions_methods(self, tmp_path):
        cfg = config_from_dict(_tiny_config())
        table = run_experiment(cfg)
        paths = emit_results(table, tmp_path)
        summary = Path(paths["summary"]).read_text()
        assert "backbone_only" in summary and "5-shot" in summary


class TestCli:
    def test_gen_prep_train_flow(self, tmp_path, capsys):
        gen_dir = tmp_path / "gen"
        assert main([
            "gen", "--out-dir", str(gen_dir), "--seed", "3",
            "--n-source", "240", "--n-target", "120",
            "--source-vocab", "30", "--target-vocab", "30",
        ]) == 0
        assert (gen_dir / "source.tsv").exists() and (gen_dir / "target.tsv").exists()

        prep_out = tmp_path / "prepped.tsv"
        fs_out = tmp_path / "fs.tsv"
        rest_out = tmp_path / "rest.tsv"
        manifest_out = tmp_path / "manifest.json"
        assert main([
            "prep", "--input", str(gen_dir / "target.tsv"), "--out", str(prep_out),
            "--balance", "--seed", "5", "--few-shot", "5",
            "--fs-out", str(fs_out), "--rest-out", str(rest_out),
            "--manifest-out", str(manifest_out),
        ]) == 0
        manifest = json.loads(manifest_out.read_text())
        assert manifest["k"] == 5 and len(manifest["indices"]) == 10

        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.csv"
        assert main([
            "train", "--method", "mwr", "--source", str(gen_dir / "source.tsv"),
            "--target-fs", str(fs_out), "--eval", str(rest_out),
            "--backbone", "logistic", "--embedding-dim", "8", "--buckets", "256",
            "--alpha", "0.05", "--epochs", "2", "--batch-size", "16", "--seed", "1",
            "--out", str(report_path), "--weight-trace", str(trace_path),
        ]) == 0
        assert report_path.exists()
        trace_lines = trace_path.read_text().splitlines()
        assert trace_lines[0] == "step,example_id,raw_metagrad,regulated_weight"
        assert len(trace_lines) > 1
        out = capsys.readouterr().out
        assert "accuracy" in out

    def test_gen_defaults_are_shift_spec_defaults(self, tmp_path):
        assert main(["gen", "--out-dir", str(tmp_path / "a"), "--n-source", "40", "--n-target", "20"]) == 0
        manifest = json.loads((tmp_path / "a" / "gen_manifest.json").read_text())
        assert manifest["spec"] == dataclasses.asdict(ShiftSpec(n_source=40, n_target=20))
        args = ["gen", "--out-dir", str(tmp_path / "b"), "--marker-pairs", "5", "--marker-repeats", "1"]
        assert main(args) == 0
        spec = json.loads((tmp_path / "b" / "gen_manifest.json").read_text())["spec"]
        assert (spec["marker_pairs"], spec["marker_repeats"]) == (5, 1)
        source = load_tsv(tmp_path / "b" / "source.tsv")
        assert {ex.text_a[0] for ex in source.examples} == {f"qm{i:02d}" for i in range(5)}

    def test_experiment_and_report(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_tiny_config(output_dir=str(tmp_path / "results"))))
        assert main(["experiment", "--config", str(cfg_path)]) == 0
        results_json = tmp_path / "results" / "results.json"
        assert results_json.exists()
        report_dir = tmp_path / "re-emitted"
        assert main(["report", "--results", str(results_json), "--out-dir", str(report_dir)]) == 0
        assert (report_dir / "results.csv").read_bytes() == (tmp_path / "results" / "results.csv").read_bytes()

    def test_usage_error_exit_code(self, capsys):
        assert main(["train", "--method", "notamethod", "--target-fs", "x.tsv"]) == 1
        assert main(["bogus-subcommand"]) == 1

    @pytest.mark.parametrize(
        "override", [{"seeds": 3}, {"alpha": "0.05"}, {"backbone": 5}, {"alpha": float("nan")}]
    )
    def test_wrong_config_type_exit_code(self, tmp_path, capsys, override):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(_tiny_config(**override)))  # NaN is written as the literal NaN
        assert main(["experiment", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    def test_oversized_embedding_table_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps(_tiny_config(backbone={"embedding_dim": 4, "buckets": 10**15})))
        assert main(["experiment", "--config", str(cfg_path)]) == 1
        assert "buckets * embedding_dim = 4000000000000000" in capsys.readouterr().err
        data = tmp_path / "t.tsv"
        data.write_text("a b\tc d\t0\ne f\tg h\t1\n", encoding="utf-8")
        args = ["train", "--method", "backbone_only", "--target-fs", str(data), "--buckets", str(10**15)]
        assert main(args) == 1
        assert "exceeds the cap" in capsys.readouterr().err

    def test_report_without_tables_exit_code(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        results.write_text(json.dumps({"config": {}}))
        assert main(["report", "--results", str(results), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "'rows'" in err
        with pytest.raises(DataError, match="aggregates"):
            table_from_dict({"config": {}, "rows": [], "errors": []})

    def test_unknown_config_key_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(_tiny_config(surprise=1)))
        assert main(["experiment", "--config", str(cfg_path)]) == 1

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["prep", "--input", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "o.tsv")]) == 2

    def test_non_integer_keep_labels_exit_code(self, tmp_path, capsys):
        data = tmp_path / "t.tsv"
        data.write_text("a b\tc d\t0\ne f\tg h\t1\n", encoding="utf-8")
        args = ["prep", "--input", str(data), "--out", str(tmp_path / "o.tsv"), "--keep-labels", "x"]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "o.tsv").exists()

    def test_numerical_failure_exit_code(self, tmp_path):
        gen_dir = tmp_path / "gen"
        main(["gen", "--out-dir", str(gen_dir), "--n-source", "60", "--n-target", "30",
              "--source-vocab", "10", "--target-vocab", "10"])
        code = main([
            "train", "--method", "backbone_only", "--target-fs", str(gen_dir / "target.tsv"),
            "--backbone", "logistic", "--embedding-dim", "1", "--buckets", "64",
            "--alpha", "1.7e308", "--epochs", "1", "--batch-size", "8", "--seed", "1",
        ])
        assert code == 3
