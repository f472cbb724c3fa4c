"""Exit-code fuzz of the command line: every subcommand, over drawn flag
values and input files, returns one of the documented exit codes 0-3 and
never raises. Drawn values stay tiny, so no draw starts a long run.

Paths in the drawn arguments are relative: each run starts in a directory
that holds an input file of every kind. A drawn experiment config is a
mapping of fields, regulator and backbone sections among them, written to
drawn.json before the run."""

import contextlib
import io
import json
import os

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from metaweight.cli import main
from metaweight.experiment import MAX_PERMUTATIONS
from metaweight.training import MAX_EPOCHS

_TSV = "".join(f"w{i} x{i % 3} y\tz{i} x{i % 3}\t{i % 2}\n" for i in range(12))
_CONFIG = {
    "data": {"synthetic": {"n_source": 16, "n_target": 16, "source_vocab": 6, "target_vocab": 6}},
    "backbone": {"kind": "logistic", "embedding_dim": 2, "buckets": 16},
    "methods": ["backbone_only", "mwr"],
    "shots": [2],
    "seeds": [1],
    "epochs": 1,
    "batch_size": 4,
    "n_permutations": 20,
}
_BAD_FILES = ["missing", "dir", "empty", "not_utf8", "bad.tsv", "bad.json"]


def _flag(valid, invalid) -> st.SearchStrategy:
    """A tiny valid value nine times in ten, else an invalid one."""
    return st.sampled_from([valid] * 9 + [invalid]).flatmap(st.sampled_from)


# Invalid values are zero, negative, above a cap, or of the wrong type.
_counts = _flag(["1", "2"], ["0", "-1", "x", "1.5"])
_seeds = _flag(["0", "3"], ["-1", str(2**64), "x"])
_epochs = _flag(["1", "2"], ["0", "-1", str(MAX_EPOCHS + 1), str(10**20), "x"])
_rates = _flag(["0.05", "0.5"], ["0", "-1", "nan", "inf", "x"])
_dims = _flag(["1", "2", "4"], ["0", "-1", str(10**15), "x"])
_fractions = _flag(["0.0", "0.5"], ["-0.5", "2", "nan", "x"])


def _input(valid: str) -> st.SearchStrategy:
    return _flag([valid], _BAD_FILES)


def _output(name: str) -> st.SearchStrategy:
    """A file or directory to write: new, nested, or blocked by what is there."""
    return _flag([f"out/{name}", f"out/sub/{name}"], ["dir", "blocker/x"])


@st.composite
def _options(draw, flags: dict) -> dict:
    """Each optional flag with a drawn value (None for a switch), or left out."""
    return {flag: None if values is None else draw(values) for flag, values in flags.items() if draw(st.booleans())}


def _command(*fixed: st.SearchStrategy, options: dict | None = None) -> st.SearchStrategy:
    """The fixed arguments in order, then the drawn optional flags."""

    def argv(parts):
        *head, opts = parts
        return head + [arg for flag, value in opts.items() for arg in (flag, value) if arg is not None]

    return st.tuples(*fixed, _options(options or {})).map(argv)


_prep = _command(
    st.just("prep"), st.just("--input"), _input("data.tsv"), st.just("--out"), _output("prepped.tsv"),
    options={
        "--keep-labels": _flag(["0,1", "1"], ["-1", "x", "0,,1"]),
        "--balance": None,
        "--seed": _seeds,
        "--max-len": _counts,
        "--few-shot": _counts,
        "--fs-out": _output("fs.tsv"),
        "--rest-out": _output("rest.tsv"),
        "--manifest-out": _output("manifest.json"),
    },
)
_gen = _command(
    st.just("gen"), st.just("--out-dir"), _output("gen"),
    options={
        "--seed": _seeds,
        "--n-source": _flag(["2", "8"], ["0", "-1", "x"]),
        "--n-target": _flag(["2", "8"], ["0", "-1", "x"]),
        "--source-vocab": _counts,
        "--min-fillers": _counts,
        "--max-fillers": _counts,
        "--marker-pairs": _counts,
        "--marker-repeats": _counts,
        "--flip-fraction": _fractions,
    },
)
_train = _command(
    st.just("train"),
    st.just("--method"), _flag(["backbone_only", "fine_tuning", "data_merging", "mwr"], ["x"]),
    st.just("--target-fs"), _input("data.tsv"),
    st.just("--source"), _input("data.tsv"),
    options={
        "--eval": _input("data.tsv"),
        "--backbone": _flag(["logistic", "mlp", "bilinear"], ["x"]),
        "--embedding-dim": _dims,
        "--buckets": _dims,
        "--hidden-dim": _dims,
        "--alpha": _rates,
        "--epochs": _epochs,
        "--batch-size": _counts,
        "--seed": _seeds,
        "--max-len": _counts,
        "--init-policy": _flag(["zero", "one", "random"], ["x"]),
        "--no-clamp": None,
        "--target-batch-size": _counts,
        "--out": _output("report.json"),
        "--weight-trace": _output("trace.csv"),
    },
)
_config_fields = _options({
    "epochs": _flag([1, 2], [0, -1, MAX_EPOCHS + 1, 10**20, 1.5, "1"]),
    "n_permutations": _flag([5], [0, -1, MAX_PERMUTATIONS + 1, 10**20, "5"]),
    "batch_size": _flag([4], [0, -1, None]),
    "alpha": _flag([0.05], [0, -1, float("nan"), "x"]),
    "shots": _flag([[2]], [[0], [-1], [10**6], "2"]),
    "methods": _flag([["mwr"], ["backbone_only", "mwr"]], [[], ["x"]]),
    "regulator": _options({
        "init_policy": _flag(["zero", "one", "random"], ["x", 1]),
        "clamp_nonnegative": _flag([True, False], ["no"]),
        "target_batch_size": _flag([None, 2], [0, -1, "2"]),
    }),
    "backbone": _options({
        "kind": _flag(["logistic", "mlp", "bilinear"], ["x"]),
        "embedding_dim": _flag([1, 2], [0, 10**15]),
        "buckets": _flag([16], [0, 10**15]),
        "hidden_dim": _flag([1, 2], [0, 10**8, 10**15]),
    }),
})
_experiment = _command(
    st.just("experiment"),
    st.just("--config"), _flag(["drawn"], _BAD_FILES).flatmap(lambda f: _config_fields if f == "drawn" else st.just(f)),
    st.just("--out-dir"), _output("results"),
)
_report = _command(
    st.just("report"), st.just("--results"), _flag(["made/results.json"], _BAD_FILES + ["config.json"]),
    st.just("--out-dir"), _output("results"),
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory with an input file of every kind and places to write to."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    (root / "dir").mkdir()
    (root / "empty").write_bytes(b"")
    (root / "not_utf8").write_bytes(b"a b\tc \xff d\t0\n")
    (root / "bad.tsv").write_text("a b\tc d\nx\ty\tnot-a-label\n", encoding="utf-8")
    (root / "bad.json").write_text("{not json", encoding="utf-8")
    (root / "data.tsv").write_text(_TSV, encoding="utf-8")
    (root / "config.json").write_text(json.dumps(_CONFIG), encoding="utf-8")
    (root / "blocker").write_bytes(b"")  # a file where a directory is expected
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["experiment", "--config", str(root / "config.json"), "--out-dir", str(root / "made")]) == 0
    return root


class TestExitCodes:
    @settings(max_examples=400, deadline=None)
    @given(argv=st.one_of(_prep, _gen, _train, _experiment, _report))
    @example(argv=["prep", "--input", "not_utf8", "--out", "out/prepped.tsv"])
    @example(argv=["train", "--method", "backbone_only", "--target-fs", "not_utf8", "--source", "data.tsv"])
    @example(argv=["experiment", "--config", "not_utf8", "--out-dir", "out/results"])
    @example(argv=["report", "--results", "not_utf8", "--out-dir", "out/results"])
    @example(argv=["train", "--method", "mwr", "--target-fs", "data.tsv", "--source", "data.tsv", "--epochs", str(10**20)])
    @example(argv=["experiment", "--config", {"epochs": 10**20, "methods": ["mwr"]}, "--out-dir", "out/results"])
    @example(argv=["train", "--method", "backbone_only", "--backbone", "mlp", "--target-fs", "data.tsv", "--source", "data.tsv", "--hidden-dim", str(10**15)])
    @example(argv=["experiment", "--config", {"regulator": {"init_policy": "half"}}, "--out-dir", "out/results"])
    @example(argv=["experiment", "--config", {"backbone": {"kind": "mlp", "hidden_dim": 10**8}}, "--out-dir", "out/results"])
    def test_every_run_ends_in_a_documented_exit_code(self, files, argv):
        """Every run exits 0-3, and a drawn experiment config that exits 0
        wrote no ConfigError row: config errors end the run before any cell."""
        drawn = argv[0] == "experiment" and isinstance(argv[2], dict)
        if drawn:
            (files / "drawn.json").write_text(json.dumps(dict(_CONFIG, **argv[2])), encoding="utf-8")
            argv = [*argv[:2], "drawn.json", *argv[3:]]
        cwd = os.getcwd()
        os.chdir(files)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            os.chdir(cwd)
        event(f"{argv[0]} exits {code}")
        assert code in (0, 1, 2, 3), argv
        if drawn and code == 0:
            assert "error: ConfigError" not in (files / argv[-1] / "results.csv").read_text(encoding="utf-8"), argv
