"""The benchmark in perfbench/ times named calls into the package; these
tests run one traced repetition of each workload and require every
boundary it wraps to exist and to fire, every per-layer metric to be a
positive number and every output check to pass. perfbench/ is imported,
never changed."""

import json
import sys
from pathlib import Path

import pytest

import metaweight
import metaweight.backbones
import metaweight.experiment
import metaweight.regulator
import metaweight.stats
import metaweight.training

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("workload", ["flip-cell", "wide-target", "eval-grid"])
def test_traced_repetition_is_complete(workloads, workload, tmp_path):
    references = json.loads((PERFBENCH / "references.json").read_text(encoding="utf-8"))
    rep = workloads.run_rep(metaweight, workload, 7, traced=True, out_dir=tmp_path, references=references, oracle=True)
    assert rep.tracer.missing == []
    assert rep.trainings_failed == 0
    assert [c for c in rep.checks if not c[1]] == []
    assert set(rep.layers) == set(workloads.LAYER_SOURCES)
    # every boundary fires on every workload, so no metric may be missing or zero
    assert [name for name, value in rep.layers.items() if value is None or not value > 0] == []
