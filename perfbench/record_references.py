"""Record the reference accuracies that the benchmark checks outputs against.

    python3 perfbench/record_references.py

Runs each workload once per data seed 0..RECORDED_SEEDS-1, untraced, and
writes every method's test accuracy per cell, and flip-cell's mwr
consistent/flipped weight ratio, to references.json next to this file,
replacing it. Run it only on a commit whose results are known good; the
benchmark then accepts an accuracy within `tolerance` of the recorded one.
A seed whose repetition fails any other check is reported and not recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import ROOT, import_package
from workloads import RECORDED_SEEDS, WORKLOADS, run_rep

HERE = Path(__file__).resolve().parent
TOLERANCE = 0.01


def main() -> int:
    mw = import_package()
    if mw is None:
        print(f"cannot import metaweight from {ROOT / 'src'}", file=sys.stderr)
        return 2
    empty = {"tolerance": TOLERANCE, "workloads": {}, "flip_ratio": {}}
    recorded = {"tolerance": TOLERANCE, "workloads": {}, "flip_ratio": {}}
    status = 0
    for workload in WORKLOADS:
        by_seed = recorded["workloads"].setdefault(workload, {})
        for seed in range(RECORDED_SEEDS):
            rep = run_rep(mw, workload, seed, False, ROOT / ".perfbench_out" / workload, empty, oracle=True)
            # against empty references every accuracy and ratio check fails
            failed = [c for c in rep.checks if not c[1] and not c[0].startswith(("accuracy ", "flip_ratio"))]
            if failed or rep.trainings_failed:
                print(f"{workload} seed {seed}: not recorded, failed {failed}", file=sys.stderr)
                status = 1
                continue
            by_seed[str(seed)] = dict(sorted(rep.accuracies.items()))
            if rep.flip_ratio is not None:
                recorded["flip_ratio"][str(seed)] = rep.flip_ratio
            print(f"{workload} seed {seed}: {by_seed[str(seed)]}", flush=True)
    (HERE / "references.json").write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
