"""Time the frozen benchmark cell, phase by phase, and its mwr training before and after a change; write JSON.

    python scripts/bench.py --out BENCH_<n>.json [--before-src OTHER_CHECKOUT/src]

The cell is seed 1 of configs/flip_benchmark.json: 32k source examples,
50-shot target, mlp with d=32 and H=32, 20 epochs, batch 16, all four
methods. It runs through `run_experiment`, the path `metaweight experiment`
takes, with timers around the calls the cell makes into the package:

- `generation`: gen_synthetic_shift; `split`: the few-shot split;
- per method, `train` (its run_training), `featurize` (the featurize calls
  inside it; the first method that featurizes the source set pays for it,
  later ones hit the feature memo) and `predict`;
- `permutation`: all permutation tests of the cell, and their count.

The headline number, the cell's `mwr` run_training, is also timed alone in a
fresh process, PAIRS times, with the feature memo warmed first as it is in
the full cell, where mwr runs last; each run records digests of the final
parameters, the loss trace and the weight trace. Synthetic generation of the
cell's data is timed in the same process, REPEATS times, with a digest of
the datasets and the final stream position, and so is a cold featurize of
the cell's source, few-shot and test sets, each through a new embedding
table, with a sha256 of the scaled rows, and so are the cell's three
permutation tests, REPEATS times, on seeded prediction records of its test
size at its accuracies (reference mwr 0.996 against 0.99, 0.988 and 0.5),
with their p-values and final stream positions. Every fresh-process timing
records process CPU time next to wall time. With --before-src the same
process is run for another checkout's src/ (for instance the parent
commit's), alternating with this one, so the file holds before and after
numbers from one machine, and whether the medians meet MWR_TARGET_S. Machine
facts come from perfbench's facts block, computed when the script runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "flip_benchmark.json"
SEED = 1
REPEATS = 3
PAIRS = 2
MWR_TARGET_S = 15.0
# the frozen cell's test size and its accuracies per method (BENCH_14.json)
TEST_SIZE = 500
ACCURACIES = {"backbone_only": 0.99, "fine_tuning": 0.988, "data_merging": 0.5, "mwr": 0.996}


def import_metaweight(src: Path):
    """Import metaweight from `src`, and fail if another copy wins."""
    sys.path.insert(0, str(src))
    import metaweight
    import metaweight.experiment
    import metaweight.training

    if Path(metaweight.__file__).resolve().parent != (src / "metaweight").resolve():
        raise SystemExit(f"metaweight was imported from {metaweight.__file__}, not from {src}")
    return metaweight


def start_clocks() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def elapsed(start: tuple[float, float]) -> tuple[float, float]:
    """Wall and process CPU seconds since `start_clocks()`."""
    wall, cpu = start_clocks()
    return wall - start[0], cpu - start[1]


def cell_config(mw, **overrides):
    raw = json.loads(CONFIG.read_text(encoding="utf-8"))
    return mw.experiment.config_from_dict(dict(raw, seeds=[SEED], **overrides))


def time_generation(mw) -> dict:
    """Generation of the cell's data, REPEATS times, with what it produced."""
    from metaweight.vectors import RngState, derive_seed

    cfg = cell_config(mw)
    clocks = []
    for _ in range(REPEATS):
        rng = RngState(derive_seed(SEED, "data", cfg.shots[0]))
        start = start_clocks()
        source, target = mw.data.gen_synthetic_shift(cfg.data_synthetic, rng)
        clocks.append(elapsed(start))
    digest = hashlib.sha256(repr((source.examples, target.examples)).encode()).hexdigest()
    return {**_clock_record(clocks), "position": rng.position, "digest": digest}


def _clock_record(clocks) -> dict:
    seconds, cpu_seconds = (list(column) for column in zip(*clocks))
    return {
        "seconds": seconds,
        "cpu_seconds": cpu_seconds,
        "median_s": statistics.median(seconds),
        "median_cpu_s": statistics.median(cpu_seconds),
    }


def time_permutation(mw) -> dict:
    """The cell's three permutation tests against mwr, REPEATS times, on
    prediction records drawn by numpy's own generator, so both sides test
    the same records."""
    from metaweight.vectors import RngState, derive_seed

    cfg = cell_config(mw)
    gen = np.random.default_rng(SEED)
    true = gen.integers(0, 2, TEST_SIZE)
    records = {}
    for method, acc in ACCURACIES.items():
        right = np.zeros(TEST_SIZE, dtype=bool)
        right[gen.permutation(TEST_SIZE)[: round(acc * TEST_SIZE)]] = True
        records[method] = mw.stats.PredictionRecord(np.where(right, true, 1 - true), true)
    clocks, tests = [], {}
    for _ in range(REPEATS):
        rngs = {m: RngState(derive_seed(SEED, "perm", cfg.shots[0], m)) for m in ACCURACIES if m != "mwr"}
        start = start_clocks()
        p_values = {m: mw.stats.permutation_test(records[m], records["mwr"], cfg.n_permutations, rng) for m, rng in rngs.items()}
        clocks.append(elapsed(start))
        tests = {m: {"p_value": p_values[m], "position": rng.position} for m, rng in rngs.items()}
    return {**_clock_record(clocks), "n_permutations": cfg.n_permutations, "tests": tests}


def time_featurize(mw) -> dict:
    """Cold featurization of the cell's source, few-shot and test sets, each
    through a new embedding table, so no token bucket or feature row is cached."""
    from metaweight.vectors import RngState, derive_seed

    cfg = cell_config(mw)
    shot = cfg.shots[0]
    source, pool = mw.data.gen_synthetic_shift(cfg.data_synthetic, RngState(derive_seed(SEED, "data", shot)))
    t_fs, test = mw.data.sample_few_shot(pool, mw.data.FewShotSpec(k=shot, seed=derive_seed(SEED, "split", shot)))
    timed = {}
    for name, ds in (("source", source), ("few_shot", t_fs), ("test", test)):
        emb = mw.backbones.build_embedding(
            derive_seed(SEED, "embedding", shot), cfg.backbone.buckets, cfg.backbone.embedding_dim
        )
        arch = mw.backbones.BackboneArch(cfg.backbone.kind, emb, source.class_count, cfg.backbone.hidden_dim)
        start = start_clocks()
        batch = mw.backbones.featurize(arch, ds.examples)
        seconds, cpu_s = elapsed(start)
        timed[name] = {
            "examples": len(ds),
            "seconds": seconds,
            "cpu_s": cpu_s,
            "us_per_example": seconds / len(ds) * 1e6,
            "scaled_sha256": _digest(batch.scaled),
        }
    return timed


def _digest(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def time_headline_mwr(mw) -> dict:
    """The cell's mwr run_training, timed after warming the feature memo."""
    exp = mw.experiment
    original = exp.run_training
    runs = []

    def timed(spec, model, s_train, t_fs):
        mw.backbones.featurize(model.arch, s_train)
        mw.backbones.featurize(model.arch, t_fs)
        start = start_clocks()
        report = original(spec, model, s_train, t_fs)
        runs.append((*elapsed(start), report))
        return report

    cfg = cell_config(mw, methods=["mwr"])
    exp.run_training = timed
    try:
        exp.run_experiment(cfg)
    finally:
        exp.run_training = original
    (seconds, cpu_s, report), = runs
    trace = report.weight_trace
    if hasattr(trace, "columns"):
        columns = trace.columns
    else:  # older checkouts keep the trace as a tuple of rows
        columns = [np.array(column) for column in zip(*((r.step, r.example_id, r.metagrad, r.weight) for r in trace))]
    return {
        "train_s": seconds,
        "train_cpu_s": cpu_s,
        "params_digest": _digest(report.model.params),
        "loss_trace_digest": _digest(np.array(report.target_loss_trace)),
        "weight_trace_digest": _digest(*columns),
    }


class Phases:
    """Wall time per phase, summed over the calls of a wrapped function."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.method = None
        self._undo = []

    def wrap(self, module, name: str, phase) -> None:
        original = getattr(module, name)

        def timed(*args, **kwargs):
            key = phase(args) if callable(phase) else phase
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds[key] = self.seconds.get(key, 0.0) + time.perf_counter() - start
                self.counts[key] = self.counts.get(key, 0) + 1

        setattr(module, name, timed)
        self._undo.append((module, name, original))

    def training(self, args) -> str:
        self.method = args[0].method
        return f"{self.method}.train"

    def unwrap(self) -> None:
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)


def time_cell(mw) -> dict:
    cfg = cell_config(mw)
    exp = mw.experiment
    phases = Phases()
    phases.wrap(exp, "gen_synthetic_shift", "generation")
    phases.wrap(exp, "sample_few_shot", "split")
    phases.wrap(exp, "run_training", phases.training)
    phases.wrap(mw.training, "featurize", lambda args: f"{phases.method}.featurize")
    phases.wrap(exp, "predict", lambda args: f"{phases.method}.predict")
    phases.wrap(exp, "permutation_test", "permutation")
    start = time.perf_counter()
    try:
        table = exp.run_experiment(cfg)
    finally:
        phases.unwrap()
    wall = time.perf_counter() - start
    if table.errors:
        raise SystemExit(f"the cell failed: {table.errors}")
    methods = {
        m: {part + "_s": phases.seconds.get(f"{m}.{part}", 0.0) for part in ("train", "featurize", "predict")}
        for m in cfg.methods
    }
    for row in table.rows:
        methods[row.method]["accuracy"] = row.accuracy
    return {
        "wall_s": wall,
        "generation_s": phases.seconds["generation"],
        "split_s": phases.seconds["split"],
        "methods": methods,
        "permutation_s": phases.seconds.get("permutation", 0.0),
        "permutation_tests": phases.counts.get("permutation", 0),
    }


def time_in_process(src: Path) -> dict:
    """Generation, cold featurization, the headline mwr and the permutation
    tests of the metaweight in `src`, in a fresh process."""
    cmd = [sys.executable, __file__, "--time-src", str(src)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="where to write the JSON record")
    parser.add_argument("--before-src", help="another checkout's src/, timed the same way for comparison")
    parser.add_argument(
        "--time-src",
        metavar="SRC",
        help="time generation, featurization, mwr and the permutation tests with the metaweight in SRC, print, stop",
    )
    args = parser.parse_args(argv)
    if args.time_src:
        mw = import_metaweight(Path(args.time_src).resolve())
        timed = {"generation": time_generation(mw), "featurize": time_featurize(mw), "mwr": time_headline_mwr(mw)}
        print(json.dumps({**timed, "permutation": time_permutation(mw)}))
        return 0
    if not args.out:
        parser.error("--out is required unless --time-src is given")
    mw = import_metaweight(ROOT / "src")
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import run_facts

    record = {"cell": {"config": str(CONFIG.relative_to(ROOT)), "seed": SEED}, "facts": run_facts(mw)}
    sides = {"after": ROOT / "src"}
    if args.before_src:
        sides = {"before": Path(args.before_src).resolve(), **sides}
    timed = {side: [] for side in sides}
    for _ in range(PAIRS):
        for side, src in sides.items():
            timed[side].append(time_in_process(src))
    record["generation"] = {side: runs[0]["generation"] for side, runs in timed.items()}
    featurization = {side: [run["featurize"] for run in runs] for side, runs in timed.items()}
    medians = {
        f"{side}_median_us_per_example": {
            name: statistics.median(run[name]["us_per_example"] for run in featurization[side])
            for name in featurization[side][0]
        }
        for side in sides
    }
    record["featurize"] = {**featurization, **medians}
    headline = {side: [run["mwr"] for run in runs] for side, runs in timed.items()}
    for side in sides:
        headline[f"{side}_median_s"] = statistics.median(run["train_s"] for run in headline[side])
        headline[f"{side}_median_cpu_s"] = statistics.median(run["train_cpu_s"] for run in headline[side])
    headline["target_s"] = MWR_TARGET_S
    headline["target_met"] = headline["after_median_s"] <= MWR_TARGET_S
    record["headline_mwr"] = headline
    permutation = {side: [run["permutation"] for run in runs] for side, runs in timed.items()}
    for side in sides:
        runs = permutation[side]
        permutation[f"{side}_median_s"] = statistics.median(t for run in runs for t in run["seconds"])
        permutation[f"{side}_median_cpu_s"] = statistics.median(t for run in runs for t in run["cpu_seconds"])
    outcomes = {json.dumps(run["permutation"]["tests"], sort_keys=True) for runs in timed.values() for run in runs}
    permutation["outcomes_identical"] = len(outcomes) == 1
    record["permutation"] = permutation
    record["cell_phases"] = time_cell(mw)
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record["generation"], indent=2))
    print(json.dumps(medians, indent=2))
    print(json.dumps(record["headline_mwr"], indent=2))
    print(json.dumps({k: v for k, v in permutation.items() if k not in sides}, indent=2))
    print(json.dumps(record["cell_phases"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
