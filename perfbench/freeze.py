"""Regenerate ``expected.json``: the exact values the benchmark checks against.

    PYTHONPATH=src python3 perfbench/freeze.py

Run once, at the commit that defines the expectations; a change that claims
a gain must pass against the committed file, not refreeze it.  Seeded
inputs are drawn from the pools frozen here (trajectory and Monte Carlo
seeds, vertex pairs), so every benchmark seed has its expectations.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from extamen import approx, dyadic, graph, lamplighter, minfn, walks  # noqa: E402

DECAY_POOL = {10_000: 256, 1000: 32}  # trajectory length -> pool size
MC_POOL = {(1000, 10_000): 24, (100, 500): 8}  # (trials, steps) -> pool size
PN_POOL = {8: 64, 10: 24, 6: 12}  # horizon -> vertex pairs
GREEN_POOL = {10: 12, 6: 4}


def _pairs(rng: random.Random, count: int) -> list:
    """Distinct (x, y) pairs near the root, x a skeleton vertex off the root.

    From a skeleton start the distribution spreads through the tree, so every
    pair costs about the same; from a hair start it crawls along the hair
    and costs several times less.
    """
    verts = graph.ball(dyadic.ROOT, 4).vertices
    starts = [v for v in verts[1:] if v not in graph.neighbors(v).values()]
    pairs = set()
    while len(pairs) < count:
        x, y = rng.choice(starts), rng.choice(verts)
        pairs.add((str(x), str(y)))
    return sorted(pairs)


def _tree_nodes(seed: int, steps: int) -> int:
    """Skeleton nodes one decay trajectory interns: its cost and memory.

    Replays the single-trial walk of potential_decay_experiment.
    """
    rng = random.Random(seed * 1_000_003)
    walk = walks.StructuralLampWalk()
    for _ in range(steps):
        walk.step(lamplighter.LAMP_LETTERS[rng.randrange(5)])
    return len(walk.parent)


def freeze() -> dict:
    rng = random.Random(2019)
    out = {"orbit_sizes": {}, "decay": {}, "mc": {}, "pn": {}, "green": {}, "lumped": {},
           "return": {}, "cli": {}}
    for n in range(2, 9):
        F = minfn.resolve_setfn(f"sum:phi_family:eps=1/{2 ** n}")
        rep = approx.strong_verify(F, approx.explicit_En_hairs(n), n, Fraction(1, 2 ** n))
        assert rep.worst_deviation == 0
        out["orbit_sizes"][str(n)] = rep.checked
    for steps, pool in DECAY_POOL.items():
        table = out["decay"][str(steps)] = {}
        for s in range(pool):
            rep = walks.potential_decay_experiment(
                walks.WalkConfig(trials=1, steps=steps, seed=s, checkpoints=(100, steps))
            )
            assert rep.ok
            table[str(s)] = [str(rep.medians[100]), str(rep.medians[steps]),
                             _tree_nodes(s, steps)]
    for (trials, steps), pool in MC_POOL.items():
        out["mc"][f"{trials}x{steps}"] = {
            str(s): walks.green_mc(trials, steps, seed=s).estimate for s in range(pool)
        }
    for N, count in PN_POOL.items():
        out["pn"][str(N)] = [
            [x, y, str(walks.pn_exact(dyadic.parse_dyadic(x), dyadic.parse_dyadic(y), N))]
            for x, y in _pairs(rng, count)
        ]
    for N, count in GREEN_POOL.items():
        half = Fraction(1, 2)
        out["green"][str(N)] = [
            [x, y, str(half),
             str(walks.green_partial(dyadic.parse_dyadic(x), dyadic.parse_dyadic(y), half, N))]
            for x, y in _pairs(rng, count)
        ]
    for N in (24, 60):
        out["lumped"][str(N)] = workloads.series_digest(walks.lumped_return_series(N))
    for N in (20, 30, 40):
        rep = walks.return_prob(N)
        out["return"][str(N)] = [str(rep.total), workloads.series_digest(rep.partials)]
    started = run.time.monotonic()
    for scale, commands in run.CLI.items():
        for workload in commands:
            res = run.run_cli(workload, scale, started)
            assert res["exit"] == 0, (workload, scale)
            out["cli"][f"{workload}/{scale}"] = res["digest"]
    return out


if __name__ == "__main__":
    path = workloads.EXPECTED_PATH
    path.write_text(json.dumps(freeze(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({hashlib.sha256(path.read_bytes()).hexdigest()[:12]})")
