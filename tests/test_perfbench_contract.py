"""The benchmark's contract with the package: every operation of every
workload passes at the tiny scale, and the names the benchmark's worker,
tracer and freezer read from outside still exist."""

import sys
from pathlib import Path

import pytest

from extamen import graph
from extamen.lamplighter import LAMP_LETTERS
from extamen.walks import DecayReport, StructuralLampWalk

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads

        yield workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_tiny_operation_passes(workloads):
    for name in workloads.WORKLOADS:
        ops = workloads.build(name, 1, "tiny", lambda F: F)
        assert ops, name
        failures = [(kind, reason) for kind, fn in ops if (reason := fn()) is not None]
        assert not failures, (name, failures)


def test_names_the_benchmark_reads():
    # worker.py reads the memo and the orientation into its provenance line
    assert isinstance(graph._ADDR_MEMO, dict)
    assert graph.get_orientation() == "lr"
    # freeze.py replays single trajectories letter by letter
    walk = StructuralLampWalk()
    for ch in LAMP_LETTERS:
        walk.step(ch)
    # tracer.py counts decay work as walk.trials * walk.steps
    assert "walk" in DecayReport.__dataclass_fields__
