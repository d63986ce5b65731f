"""Seeded inputs and exactly checked operations for the benchmark workloads.

``build(workload, seed, scale)`` is the set-up phase: it makes every input
from the seed (and from the frozen pools in ``expected.json``) and returns
the list of operations.  An operation is a ``(kind, fn)`` pair; ``fn()``
makes one call into extamen's public API, compares the result with its exact
expectation and returns ``None`` when it matches or a one-line reason when
it does not.  Calls go through module attributes (``approx.strong_verify``,
not a bound name), so the tracer can wrap them after set-up.

Why each workload exists:

- ``orbit``: strong verification over whole word orbits, the headline
  computation; orbit enumeration, set-function evaluation and the vertex
  action do the work, the walk code is idle.
- ``decay``: 10^4-step structural lamp trajectories; no Dyadic and almost no
  Fraction, so it is the control for graph/lamplighter/minfn changes.
- ``chain``: exact lumped-chain series, full-distribution n-step
  probabilities (fresh Dyadic keys every step) and numpy Monte Carlo.
- ``vertex``: cold classification of a radius-12 ball, superharmonic
  sweeps, PL-map composition and the free-group witnesses; the only
  workload where ``classify`` fills the memo instead of reading it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from extamen import approx, dyadic, freegroup, graph, harmonic, lamplighter, minfn, walks

EXPECTED_PATH = Path(__file__).with_name("expected.json")

WORKLOADS = ("orbit", "decay", "chain", "vertex")

# Input sizes per scale.  "full" is what the benchmark measures; "tiny" only
# exercises every path quickly for the self-test.
SCALES = {
    "full": {
        "orbit": {"explicit": (2, 3, 4, 5, 6, 7, 8), "countable": (4,), "single": (5, 6, 7),
                  "random": 36, "random_n": 4, "near_radius": 8},
        "decay": {"trajectories": 36, "steps": 10_000},
        # 24 pn_exact(8) and 8 pn_exact(10) ops: op_p50_s and op_tail_s then
        # fall inside those two classes, not on one operation of its own kind
        "chain": {"returns": (30, 40), "lumped": (60,), "pn": {8: 24, 10: 8},
                  "green": {10: 2}, "mc": (2, 1000, 10_000)},
        "vertex": {"radius": 12, "phis": 8, "triples": 60, "zconfigs": 30,
                   "folner": (10, 100, 1000)},
    },
    "tiny": {
        "orbit": {"explicit": (2, 3, 4, 5), "countable": (3,), "single": (4,),
                  "random": 6, "random_n": 4, "near_radius": 6},
        "decay": {"trajectories": 6, "steps": 1000},
        "chain": {"returns": (20,), "lumped": (24,), "pn": {6: 6}, "green": {6: 2},
                  "mc": (2, 100, 500)},
        "vertex": {"radius": 6, "phis": 1, "triples": 12, "zconfigs": 8, "folner": (10, 100)},
    },
}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def series_digest(values) -> str:
    """sha256 of the exact values written as ``str`` and joined by commas."""
    return hashlib.sha256(",".join(str(v) for v in values).encode()).hexdigest()


def _check(cond: bool, reason: str):
    return None if cond else reason


# ---------------------------------------------------------------------------
# orbit


def _orbit(rng: random.Random, size: dict, expected: dict, wrap_setfn):
    sizes = expected["orbit_sizes"]
    ops = []
    for n in size["explicit"]:
        E = approx.explicit_En_hairs(n)
        F = minfn.resolve_setfn(f"sum:phi_family:eps=1/{2 ** n}")

        def explicit(E=E, F=F, n=n):
            rep = approx.strong_verify(wrap_setfn(F), E, n, harmonic.pow2(-n))
            return _check(rep.worst_deviation == 0 and rep.checked == sizes[str(n)],
                          f"explicit:{n} deviation {rep.worst_deviation}, {rep.checked} configs")

        ops.append(("explicit", explicit))

    def constructed(result):
        rep = approx.strong_verify(wrap_setfn(result.setfn), result.E, result.n, result.beta)
        return _check(rep.passed,
                      f"{result.setfn.name} n={result.n} deviation {rep.worst_deviation}")

    for n in size["countable"]:
        ops.append(("countable", lambda n=n: constructed(approx.construct_En_countable(n))))
    phi_u = harmonic.canonical_phi_u()
    for n in size["single"]:
        ops.append(("single", lambda n=n: constructed(approx.construct_En_single(phi_u, n))))

    n = size["random_n"]
    F = minfn.resolve_setfn(f"sum:phi_family:eps=1/{2 ** n}")
    near = graph.ball(dyadic.ROOT, size["near_radius"]).vertices
    for _ in range(size["random"]):
        # n - 2 lamps, the most golden_witness allows: the largest orbits and
        # the most even cost from one seed to the next, so that op_p50_s and
        # op_tail_s fall inside this one class of operations
        E = lamplighter.config(rng.sample(near, n - 2))

        def refute(E=E):
            Fw = wrap_setfn(F)
            wit = approx.golden_witness(E, n, F=Fw)
            rep = approx.strong_verify(Fw, E, n, harmonic.pow2(-n))
            ok = wit.deviation >= harmonic.pow2(-n) and rep.worst_deviation >= wit.deviation
            return _check(ok, f"{lamplighter.serialize_config(E)}: witness {wit.deviation}, "
                          f"orbit {rep.worst_deviation}")

        ops.append(("random", refute))
    return ops


# ---------------------------------------------------------------------------
# decay


def _decay(rng: random.Random, size: dict, expected: dict, wrap_setfn):
    steps, count = size["steps"], size["trajectories"]
    frozen = expected["decay"][str(steps)]
    # Trajectory cost and memory are heavy-tailed in the seed.  The pool is
    # ordered by the tree nodes each trajectory interns; its largest one is
    # always run first, so peak_rss_mb is the pool's worst case on every seed
    # (later, smaller trees reuse its memory), and one seed from each of
    # count - 1 equal strata of the rest gives every benchmark seed the same
    # spread of costs.
    pool = sorted(frozen, key=lambda s: (frozen[s][2], int(s)))
    rest, strata = pool[:-1], count - 1
    chosen = [rng.choice(rest[i * len(rest) // strata:(i + 1) * len(rest) // strata])
              for i in range(strata)]
    rng.shuffle(chosen)
    chosen.insert(0, pool[-1])
    ops = []
    for s in chosen:
        want = frozen[s][:2]

        def trajectory(s=int(s), want=want):
            rep = walks.potential_decay_experiment(
                walks.WalkConfig(trials=1, steps=steps, seed=s, checkpoints=(100, steps))
            )
            got = [str(rep.medians[100]), str(rep.medians[steps])]
            return _check(rep.supermartingale_violations == 0 and got == want,
                          f"seed {s}: {rep.supermartingale_violations} violations, medians {got}")

        ops.append(("trajectory", trajectory))
    return ops


# ---------------------------------------------------------------------------
# chain


def _chain(rng: random.Random, size: dict, expected: dict, wrap_setfn):
    ops = []
    for N in size["returns"]:
        total, digest = expected["return"][str(N)]

        def returns(N=N, total=total, digest=digest):
            rep = walks.return_prob(N)
            return _check(str(rep.total) == total and series_digest(rep.partials) == digest,
                          f"return_prob({N}) total {rep.total}")

        ops.append(("return", returns))
    for N in size["lumped"]:
        digest = expected["lumped"][str(N)]

        def lumped(N=N, digest=digest):
            return _check(series_digest(walks.lumped_return_series(N)) == digest,
                          f"lumped_return_series({N}) digest differs")

        ops.append(("lumped", lumped))
    for N, count in size["pn"].items():
        for x, y, want in rng.sample(expected["pn"][str(N)], count):
            vx, vy = dyadic.parse_dyadic(x), dyadic.parse_dyadic(y)

            def pn(vx=vx, vy=vy, N=N, want=want):
                got = walks.pn_exact(vx, vy, N)
                return _check(str(got) == want, f"pn_exact({vx}, {vy}, {N}) = {got}")

            ops.append(("pn", pn))
    for N, count in size["green"].items():
        for x, y, r, want in rng.sample(expected["green"][str(N)], count):
            vx, vy, fr = dyadic.parse_dyadic(x), dyadic.parse_dyadic(y), Fraction(r)

            def green(vx=vx, vy=vy, fr=fr, N=N, want=want):
                got = walks.green_partial(vx, vy, fr, N)
                return _check(str(got) == want, f"green_partial({vx}, {vy}, {fr}, {N}) = {got}")

            ops.append(("green", green))
    batches, trials, steps = size["mc"]
    frozen = expected["mc"][f"{trials}x{steps}"]
    for s in rng.sample(sorted(frozen, key=int), batches):
        want = frozen[s]

        def mc(s=int(s), want=want):
            rep = walks.green_mc(trials, steps, seed=s)
            return _check(rep.estimate == want, f"green_mc seed {s}: {rep.estimate} != {want}")

        ops.append(("mc", mc))
    return ops


# ---------------------------------------------------------------------------
# vertex


def _reduced_word(rng: random.Random, length: int) -> str:
    """A random freely reduced word, so every PL map of one length is about as complex."""
    word = rng.choice("aAbB")
    while len(word) < length:
        ch = rng.choice("aAbB")
        if ch != dyadic.invert_letter(word[-1]):
            word += ch
    return word


def _vertex(rng: random.Random, size: dict, expected: dict, wrap_setfn):
    R = size["radius"]
    state = {}
    ops = []

    def explore():
        state["ball"] = graph.ball(dyadic.ROOT, R)
        got = len(state["ball"].vertices)
        return _check(got == 2 ** (R + 2) - 3, f"ball radius {R} has {got} vertices")

    def classify_all():
        skeleton = hairs = 0
        for v in state["ball"].vertices:
            if isinstance(graph.classify(v), graph.Skeleton):
                skeleton += 1
            else:
                hairs += 1
        return _check((skeleton, hairs) == (2 ** (R + 1) - 1, 2 ** (R + 1) - 2),
                      f"{skeleton} skeleton and {hairs} hair vertices")

    ops += [("ball", explore), ("classify", classify_all)]
    phis = [harmonic.canonical_phi_u()] + [harmonic.phi_family(i) for i in range(size["phis"])]
    for phi in phis:

        def sweep(phi=phi):
            rep = harmonic.is_superharmonic_on(phi, state["ball"])
            exact = phi.name != "phi_u" or all(
                m == (1 if v == dyadic.ROOT else 0) for v, _, _, m in rep.entries
            )
            return _check(rep.ok and exact and len(rep.entries) == 2 ** (R + 1) - 3,
                          f"{phi.name}: {len(rep.violations)} violations")

        ops.append(("sweep", sweep))
    for _ in range(size["triples"]):
        w1, w2 = _reduced_word(rng, 6), _reduced_word(rng, 6)
        e = rng.randint(1, 12)
        x = dyadic.Dyadic(rng.randint(1, 2 ** e - 1), e)

        def cocycle(w1=w1, w2=w2, x=x):
            ok = dyadic.cocycle_identity_check(dyadic.word_to_pl(w1), dyadic.word_to_pl(w2), x)
            return _check(ok, f"cocycle identity fails for {w1}, {w2}, {x}")

        ops.append(("cocycle", cocycle))
    for E in freegroup.random_z_configs(size["zconfigs"], radius=8, seed=rng.randrange(2 ** 32)):

        def witness(E=E):
            word, ratio = freegroup.witness_word(E)
            return _check(ratio == Fraction(1, 3) and len(word) <= 2,
                          f"witness {word!r} ratio {ratio}")

        ops.append(("witness", witness))
    for L in size["folner"]:

        def folner(L=L):
            got = freegroup.z_boundary_ratio(freegroup.tail_segment(L))
            return _check(got == Fraction(1, 2 * L), f"tail segment {L} ratio {got}")

        ops.append(("folner", folner))
    return ops


_OPS_BY_WORKLOAD = {"orbit": _orbit, "decay": _decay, "chain": _chain, "vertex": _vertex}


def build(workload: str, seed: int, scale: str, wrap_setfn):
    """The workload's operations, made from the seed; this is the set-up phase.

    ``wrap_setfn`` is applied to every set function an operation evaluates.
    """
    make = _OPS_BY_WORKLOAD[workload]
    return make(random.Random(seed), SCALES[scale][workload], load_expected(), wrap_setfn)


def traced_setfn(tracer):
    """A wrap_setfn that counts and times top-level set-function evaluations."""
    return lambda F: replace(F, fn=tracer.wrap("minfn.setfn_eval", F.fn, leaf=False))
