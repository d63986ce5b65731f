"""The benchmark's contract with the package: every operation of every
workload passes at the tiny scale, and the names the benchmark's worker,
tracer and freezer read from outside still exist."""

import importlib
import inspect
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from extamen import graph, walks
from extamen.dyadic import ROOT, Dyadic
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


# every (module, attribute) tracer.py's instrument wraps; calling instrument
# here would rebind them for the whole test process
TRACED = [
    ("dyadic", "PLMap.compose"),
    ("graph", "act_letter"),
    ("graph", "classify"),
    ("graph", "ball"),
    ("harmonic", "is_superharmonic_on"),
    ("lamplighter", "apply_letter"),
    ("lamplighter", "orbit_enumerate"),
    ("approx", "strong_verify"),
    ("approx", "construct_En_countable"),
    ("approx", "construct_En_single"),
    ("approx", "golden_witness"),
    ("walks", "potential_decay_experiment"),
    ("walks", "lumped_return_series"),
    ("walks", "return_prob"),
    ("walks", "pn_exact"),
    ("walks", "green_partial"),
    ("walks", "green_mc"),
    ("freegroup", "witness_word"),
]


@pytest.mark.parametrize("module, attr", TRACED)
def test_names_the_tracer_wraps(module, attr):
    obj = importlib.import_module(f"extamen.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_what_the_tracer_reads_of_results_and_arguments():
    # the ball's work count is len(result.vertices), of Dyadic vertices
    B = graph.ball(ROOT, 2)
    assert len(B.vertices) == 13 and all(type(v) is Dyadic for v in B.vertices)
    # pn_exact's work is its argument 2, n; green_partial's its argument 3, N
    assert list(inspect.signature(walks.pn_exact).parameters)[2] == "n"
    assert list(inspect.signature(walks.green_partial).parameters)[3] == "N"


def test_exact_series_bind_the_arguments_the_benchmark_passes():
    # workloads.py and freeze.py call pn_exact(x, y, N) and
    # green_partial(x, y, r, N), every parameter bound by position
    for fn, args in ((walks.pn_exact, (ROOT, ROOT, 8)),
                     (walks.green_partial, (ROOT, ROOT, Fraction(1, 2), 10))):
        signature = inspect.signature(fn)
        assert list(signature.bind(*args).arguments) == list(signature.parameters)
        with pytest.raises(TypeError):
            signature.bind(*args[:-1])


EXACT_SERIES = {
    "lumped_return_series": (6,),
    "return_prob": (6,),
    "pn_exact": (ROOT, Dyadic(11, 4), 5),
    "green_partial": (Dyadic(11, 4), ROOT, Fraction(1, 2), 5),
}


def test_each_exact_series_reads_the_kernel_not_another(monkeypatch):
    # the tracer wraps these four as module attributes: one calling another
    # would count its walks.pn span twice.  return_prob reads the first-return
    # series alone, so it skips _counts' P series and calls _passage itself.
    calls = []

    def logged(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    for name in ("_passage", "_counts", *EXACT_SERIES):
        monkeypatch.setattr(walks, name, logged(name, getattr(walks, name)))
    for name, args in EXACT_SERIES.items():
        calls.clear()
        getattr(walks, name)(*args)
        kernel = ["_passage"] if name == "return_prob" else ["_counts", "_passage"]
        assert calls == [name, *kernel], name
