"""Benchmark for metaweight: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload flip-cell --seed 1 --seconds 44 --trace 0

Workloads (see workloads.py): `flip-cell`, `wide-target`, `eval-grid`.
The load is a closed loop: this process is the only client and runs the
workload's experiment again and again until `--seconds` have passed (at
least three times). The data seed is `--seed`; the program sees only the
inputs generated from it.

Each metric is printed as the median over the repetitions, the highest
percentile with ten samples beyond it, and the run mean. The result line
carries the median for `setup_s` and the per-layer metrics, and the run
mean for every other end-to-end metric: the mean of a time, and for a rate
the work of all repetitions over their summed time (each repetition does
the same work, so this is the harmonic mean of the repetitions' rates). On
a shared VM the speed the machine gives this process drifts by up to 2x
over tens of seconds with the load of other tenants, and a run of 44 s
often sits in one such phase. Over ten runs of each workload on a 2-vCPU VM
the run mean spread least: its quartile distance was at most 0.17 of the
median, against 0.21 for the median over repetitions, 0.25 for their lower
quartile and 0.29 for the fastest repetition.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
repetitions with traced ones that time the calls into each module, prints
the per-layer metrics of the traced ones and the tracing overhead, and
requires both kinds to produce bit-identical parameters. Human-readable
lines come first; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; `peak_rss_mb` is the peak of
the whole process.
Each run also writes its full record, including the spans of traced
repetitions, to `.perfbench_out/<workload>/` in the checkout.

An operation is one training run or one output check; a raised error or a
failed check counts as failed and never stops the run, and the printed
`failed_ops_frac` is failed over attempted operations. The exit code is 0
whenever a result is printed, and 2 when the package cannot be imported
from `src/` in the checkout, the parent of this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import check_self_time_arithmetic, tail
from workloads import WORKLOADS, run_rep

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3
END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "mwr_examples_per_s": "1/s",
    "sgd_examples_per_s": "1/s",
    "eval_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
# Which end-to-end metric each layer should move, and where:
#   data.*                  -> setup_s, most on eval-grid
#   backbones.featurize_*   -> train_s; most misses on eval-grid (hit ratio
#                              0.86), fewest on flip-cell (0.99)
#   backbones.alignment_s, regulator.final_grad_s, regulator.self_s
#                           -> mwr_examples_per_s on flip-cell
#   regulator.probe_s, regulator.select_target_s
#                           -> mwr_examples_per_s, most on wide-target
#   regulator.clamped_frac  -> none: no performance change may move it
#   training.sgd_*          -> sgd_examples_per_s on flip-cell and eval-grid
#   training.epoch_loss_s, training.self_s -> train_s
#   stats.*                 -> eval_s on eval-grid
#   experiment.*            -> wall_s on eval-grid
LAYER_UNITS = {
    "data.gen_s": "s",
    "data.split_s": "s",
    "backbones.featurize_s": "s",
    "backbones.featurize_calls": "count",
    "backbones.feature_hit_ratio": "ratio",
    "backbones.alignment_s": "s",
    "regulator.steps": "count",
    "regulator.step_p50_us": "us",
    "regulator.step_p99_us": "us",
    "regulator.probe_s": "s",
    "regulator.final_grad_s": "s",
    "regulator.select_target_s": "s",
    "regulator.self_s": "s",
    "regulator.clamped_frac": "ratio",
    "training.sgd_step_s": "s",
    "training.sgd_steps": "count",
    "training.epoch_loss_s": "s",
    "training.self_s": "s",
    "stats.predict_s": "s",
    "stats.predict_examples": "count",
    "stats.permutation_s": "s",
    "stats.permutation_draws": "count",
    "experiment.cell_s": "s",
    "experiment.emit_s": "s",
}


def import_package():
    """Import metaweight from this checkout's src/, or return None."""
    src = ROOT / "src"
    if not (src / "metaweight" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import metaweight
    import metaweight.backbones
    import metaweight.experiment
    import metaweight.regulator
    import metaweight.stats
    import metaweight.training

    if Path(metaweight.__file__).resolve().parent != (src / "metaweight").resolve():
        return None
    return metaweight


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, when it has one."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_facts(mw) -> dict:
    """Machine and design-size facts; informational, never gated."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    # git must neither look above the checkout nor write to its index
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent), GIT_OPTIONAL_LOCKS="0")
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
        git = described.stdout.strip() if described.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        git = "unknown"
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "git_describe": git,
        "loadavg_start": os.getloadavg(),
        "src_lines": src_lines,
        "api_names": len(mw.__all__),
    }


def run_mean(present: list, unit: str) -> float:
    """The mean of a time; for a rate, the harmonic mean, which is the
    repetitions' summed work over their summed time when each does the same
    work."""
    return statistics.harmonic_mean(present) if unit == "1/s" else statistics.fmean(present)


def summarize(values, unit: str):
    """The median, the run mean, the highest percentile with at least ten
    samples beyond it, and the count."""
    present = sorted(v for v in values if v is not None and not math.isnan(v))
    if not present:
        return None, None, None, 0
    return statistics.median(present), run_mean(present, unit), tail(present), len(present)


def _fmt(value) -> str:
    return "missing" if value is None else f"{value:.6g}"


def report_line(name, unit, values):
    """A printed line, the median and the run mean."""
    median, mean, hi, n = summarize(values, unit)
    hi_text = f"p{hi[0]:.1f} {_fmt(hi[1])}" if hi else "no tail (n<11)"
    line = f"  {name:30s} {_fmt(median):>12s} {unit:6s} median, {hi_text}, run mean {_fmt(mean)}, n={n}"
    return line, median, mean


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mw = import_package()
    if mw is None:
        print(f"cannot import metaweight from {ROOT / 'src'}", file=sys.stderr)
        return 2
    references = json.loads((Path(__file__).with_name("references.json")).read_text(encoding="utf-8"))
    facts = run_facts(mw)
    out_dir = ROOT / ".perfbench_out" / args.workload

    run_checks = []
    problem = check_self_time_arithmetic()
    run_checks.append(("self_time_arithmetic", problem is None, problem or ""))
    start = time.monotonic()
    reps, rep_times = [], []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        began = time.monotonic()
        rep = run_rep(mw, args.workload, args.seed, traced, out_dir, references, oracle=not reps)
        rep_times.append(time.monotonic() - began)
        if reps:
            first = reps[0]
            same = rep.digests == first.digests and rep.accuracies == first.accuracies and bool(rep.digests)
            rep.check("bit_identical_to_first_rep", same, "traced vs untraced" if traced else "repeat")
        reps.append(rep)
        gc.collect()
        traced_reps = sum(r.traced for r in reps)
        enough = len(reps) >= MIN_REPS and (not args.trace or traced_reps >= MIN_REPS - 1)
        if enough and time.monotonic() - start + max(rep_times[-2:]) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = run_checks + [c for rep in reps for c in rep.checks]
    trainings = sum(rep.trainings_expected for rep in reps)
    failed_trainings = sum(rep.trainings_failed for rep in reps)
    attempted = trainings + len(checks)
    failed = failed_trainings + sum(not ok for _, ok, _ in checks)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} reps={len(reps)}")
    print("facts " + json.dumps(facts))
    for name, ok, detail in checks:
        if not ok:
            print(f"  FAILED check {name}: {detail}")
    print(f"  {'failed_ops_frac':30s} {failed / attempted:>12.6g} {'ratio':6s} ({failed} of {attempted})")

    untraced = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    metrics = {}
    if not args.trace:
        for name, unit in END_TO_END_UNITS.items():
            if name == "peak_rss_mb":
                values = [peak_rss_mb]
            else:
                values = [r.end_to_end.get(name) for r in untraced]
            line, median, mean = report_line(name, unit, values)
            metrics[name] = median if name == "setup_s" else mean
            print(line)
        units = END_TO_END_UNITS
    else:
        for name, unit in LAYER_UNITS.items():
            line, metrics[name], _ = report_line(name, unit, [r.layers.get(name) for r in traced])
            print(line)
        print(report_line("regulator.step (all reps)", "us", [v for r in traced for v in r.step_us])[0])
        traced_wall = summarize([r.end_to_end.get("wall_s") for r in traced], "s")[0]
        untraced_wall = summarize([r.end_to_end.get("wall_s") for r in untraced], "s")[0]
        overhead = None if None in (traced_wall, untraced_wall) else traced_wall - untraced_wall
        print(f"  {'trace_overhead_s':30s} {_fmt(overhead):>12s} {'s':6s} median traced minus untraced wall_s")
        missing = sorted({m for r in traced for m in r.tracer.missing})
        print("  missing boundaries: " + (", ".join(missing) if missing else "none"))
        units = LAYER_UNITS

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "facts": facts,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "reps": [
            {
                "traced": r.traced,
                "end_to_end": r.end_to_end,
                "layers": r.layers,
                "missing": r.tracer.missing,
                "spans": r.tracer.spans if r.traced else [],
            }
            for r in reps
        ],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"run-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, separators=(",", ":"))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
