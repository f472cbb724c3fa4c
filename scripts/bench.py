"""Time the frozen benchmark cell once, phase by phase, and write the numbers as JSON.

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

Synthetic generation of the cell's data is also timed alone, REPEATS times,
together with a digest of the datasets and the final stream position. With
--before-src it is timed the same way for another checkout's src/ (for
instance the parent commit's), in a separate process, so the file holds
before and after generation numbers from one machine. Machine facts come
from perfbench's facts block, computed when the script runs.
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

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "flip_benchmark.json"
SEED = 1
REPEATS = 3


def import_metaweight(src: Path):
    """Import metaweight from `src`, and fail if another copy wins."""
    sys.path.insert(0, str(src))
    import metaweight
    import metaweight.experiment
    import metaweight.training

    if Path(metaweight.__file__).resolve().parent != (src / "metaweight").resolve():
        raise SystemExit(f"metaweight was imported from {metaweight.__file__}, not from {src}")
    return metaweight


def cell_config(mw):
    raw = json.loads(CONFIG.read_text(encoding="utf-8"))
    return mw.experiment.config_from_dict(dict(raw, seeds=[SEED]))


def time_generation(mw) -> dict:
    """Generation of the cell's data, REPEATS times, with what it produced."""
    from metaweight.vectors import RngState, derive_seed

    cfg = cell_config(mw)
    seconds = []
    for _ in range(REPEATS):
        rng = RngState(derive_seed(SEED, "data", cfg.shots[0]))
        start = time.perf_counter()
        source, target = mw.data.gen_synthetic_shift(cfg.data_synthetic, rng)
        seconds.append(time.perf_counter() - start)
    digest = hashlib.sha256(repr((source.examples, target.examples)).encode()).hexdigest()
    return {"seconds": seconds, "median_s": statistics.median(seconds), "position": rng.position, "digest": digest}


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="where to write the JSON record")
    parser.add_argument("--before-src", help="another checkout's src/ whose generation is timed for comparison")
    parser.add_argument("--gen-only", metavar="SRC", help="time generation with the metaweight in SRC, print it, stop")
    args = parser.parse_args(argv)
    if args.gen_only:
        print(json.dumps(time_generation(import_metaweight(Path(args.gen_only).resolve()))))
        return 0
    if not args.out:
        parser.error("--out is required unless --gen-only is given")
    mw = import_metaweight(ROOT / "src")
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import run_facts

    record = {"cell": {"config": str(CONFIG.relative_to(ROOT)), "seed": SEED}, "facts": run_facts(mw)}
    generation = {"after": time_generation(mw)}
    if args.before_src:
        cmd = [sys.executable, __file__, "--gen-only", args.before_src]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        generation["before"] = json.loads(done.stdout.splitlines()[-1])
    record["generation"] = generation
    record["cell_phases"] = time_cell(mw)
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record["generation"], indent=2))
    print(json.dumps(record["cell_phases"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
