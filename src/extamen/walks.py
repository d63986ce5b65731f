"""Random-walk statistics on the labeled graph and on lamp configurations.

Exact n-step probabilities P^t(x, y) and first-return masses, at the root
and at any other pair of vertices, are the coefficients of first-passage
generating functions of the tree with hairs, one factor for each step of the
geodesic from x to y on graph.code addresses, read off by integer
recurrences in O(N^2) operations per factor on N terms.  Monte Carlo runs
vectorize a depth/offset lumping of the four-letter walk: all skeleton
vertices of one depth act alike, as do all hair vertices of one (depth,
offset).  Long lamp trajectories use a structural state that keeps the
skeleton lamps in a persistent trie over their turns, read from the last
turn back, and parks hair-bound lamps in per-side stacks, so every step
costs O(1) time and memory grows with the lamps and their depths, not with
the nodes the walk has visited.  One fused loop, StructuralLampWalk.run,
checks the supermartingale margin of each state and applies the next letter;
the letters come in bulk, the top bytes of getrandbits words read exactly as
Random.choice would draw them.  Exact lamp-walk quantities count paths on
addresses by graph.evolve: markov_iterate's averages, the proxy's half-walks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from operator import mul
from typing import Iterable, Iterator, Sequence

from .dyadic import Dyadic, ROOT
from .errors import CapExceeded, PreconditionFailed, StructuralAssertFailed
from .graph import ball, code, evolve, vertex
from .harmonic import canonical_phi_u, is_superharmonic_on, markov_apply_X, pow2
from .lamplighter import LAMP_LETTERS, Config, config, lamp_action, markov_iterate
from .minfn import resolve_setfn

__all__ = [
    "lumped_return_series",
    "pn_exact",
    "power_partial_sums",
    "green_partial",
    "MCReport",
    "green_mc",
    "ReturnReport",
    "return_prob",
    "spectral_radius_proxy",
    "DeltaReport",
    "delta_check_phi_u",
    "SupermartingaleReport",
    "supermartingale_check",
    "StructuralLampWalk",
    "WalkConfig",
    "DecayReport",
    "potential_decay_experiment",
]

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# the lumped chain
#
# A state is (u, m): depth u on the skeleton when m == 0, else offset m out
# on a hair based at depth u.  Each of the four letters moves every state of
# a lumped class alike, so the lumped walk is a uniform walk in its own right.
# green_mc simulates it; the exact root series below count its paths.

LUMPED_LETTERS = (0, 1, 2, 3)


def _lumped_act(r: int, state: tuple[int, int]) -> tuple[int, int]:
    u, m = state
    if m == 0:
        # two children, the parent (a second hair at the root), the hair
        if r < 2:
            return (u + 1, 0)
        if r == 2 and u > 0:
            return (u - 1, 0)
        return (u, 1)
    # one step toward the base, one away, two loops
    if r == 0:
        return (u, m - 1)
    if r == 1:
        return (u, m + 1)
    return state


# ---------------------------------------------------------------------------
# exact series
#
# First passage on the tree with hairs (Woess, Random Walks on Infinite
# Graphs and Groups, 2000, Ch. 1), in words: z marks a letter, so 4^t times
# a t-step probability is the integer coefficient of z^t.  A first passage
# to a neighbour is z/(1 - zX), X counting the excursions that avoid it:
#   H, hair offset m + 1 in to m:        X = 2 + H (1 + H is Catalan's series);
#   S, skeleton depth u + 1 up to u:     X = 2S + H;
#   D_u, depth u - 1 down to one child:  X = S + H + D_(u-1), D_0 = H;
#   K_j, hair offset j - 1 out to j:     X = 2 + K_(j-1), 2S + D_d off depth d.
# Every vertex of a geodesic is a cut point, so F(x, y) is the product of
# these along it: H in along x's hair, S up to the lowest common ancestor,
# D_u down, K_j out along y's hair.  The first return to y is U_y = z(H + X),
# X that of the next step out along y's hair, and 4^t P^t(x, y) is the
# coefficient of z^t in F(x, y) / (1 - U_y) (Flajolet and Sedgewick,
# Analytic Combinatorics, 2009).  The root is the case F = 1.


def _plus(*series: list[int]) -> list[int]:
    """The termwise sum of power series of one length."""
    return [sum(terms) for terms in zip(*series)]


def _over(f: list[int], x: list[int], loops: int = 0) -> list[int]:
    """The coefficients r of f / (1 - zX) to the length of f, where
    X = x + loops * r: r_n = f_n + the sum of X_i r_(n-1-i) over i < n."""
    x, r = x[:], f[:]
    for n in range(len(r)):
        r[n] += sum(map(mul, x[:n], r[n - 1 :: -1]))
        x[n] += loops * r[n]
    return r


# about N^3.3: N = 800 took 0.46 s and N = 2048 13 s on a 2-core machine;
# closed-form recurrences on exact Green values could raise the bound
SERIES_MAX_N = 2048


def _passage(x: Dyadic, y: Dyadic, N: int) -> tuple[list[int], list[int]]:
    """The word counts of F(x, y) / z^d to z^(N - d), d the distance from x
    to y (empty when d > N), and of U_y / z to z^N; ValueError when x or y
    is not a vertex, CapExceeded when N exceeds SERIES_MAX_N."""
    if N > SERIES_MAX_N:
        raise CapExceeded(f"series length {N} exceeds the cap {SERIES_MAX_N}")
    (nx, mx), (ny, my) = code(x), code(y)
    if N < 0:
        raise ValueError("n must be >= 0")
    dx, dy, a, b = nx.bit_length() - 1, ny.bit_length() - 1, abs(mx), abs(my)
    diff = nx ^ ny  # the paths from the root share their low bits
    top = min(dx, dy, (diff & -diff).bit_length() - 1) if diff else dx
    shared = min(a, b) if nx == ny and mx * my >= 0 else 0  # offsets on a common hair
    z, two = [0, 1, *[0] * N][: N + 1], [2] + [0] * N
    H = [0] + [math.comb(2 * n, n) // (n + 1) for n in range(1, N + 1)]
    S = _over(z, H, 2)
    # To z^N, D_u is D_half for every u >= half and K_j is H for every
    # j > half: a walk that tells them apart goes to the root, or to the
    # base, and back.  So the work does not grow with depth or offset.
    half = max(1, N // 2)
    D = [H]  # D[u]
    while len(D) <= min(dy, half):
        D.append(_over(z, _plus(S, H, D[-1])))
    out = [_plus(S, S, D[-1])]  # out[j]: the X of K_(j+1) on y's hair
    while len(out) <= min(b, half + 1):
        out.append(_plus(two, _over(z, out[-1])))
    ret = _plus(H, out[-1])  # U_y / z
    path = chain(repeat(_plus(two, H), a - shared), repeat(_plus(S, S, H), dx - top),
                 (_plus(S, H, D[min(u, half) - 1]) for u in range(top + 1, dy + 1)),
                 (out[min(j - 1, half + 1)] for j in range(shared + 1, b + 1)))
    p = [1] + [0] * N
    # each factor z/(1 - zX) shifts F by one, so after k of them p holds the
    # terms of F / z^k up to z^(N - k), and N + 1 of them leave none
    for X in islice(path, N + 1):
        p = _over(p[:-1], X)
    return p, ret


def _counts(x: Dyadic, y: Dyadic, N: int) -> tuple[list[int], list[int]]:
    """4^t P^t(x, y) and 4^t f_t(y), f_t the first-return mass at y, for
    t = 0..N, from the series of _passage."""
    p, ret = _passage(x, y, N)
    return [0] * (N + 1 - len(p)) + _over(p, ret), [0] + ret[:-1]


def _scaled(counts: Sequence[int]) -> list[Fraction]:
    """The probabilities counts[t] / 4^t."""
    return [Fraction(c, 1 << 2 * t) for t, c in enumerate(counts)]


def lumped_return_series(N: int) -> list[Fraction]:
    """P^n(root, root) for n = 0..N, the root series of _counts."""
    return _scaled(_counts(ROOT, ROOT, N)[0])


def pn_exact(x: Dyadic, y: Dyadic, n: int) -> Fraction:
    """Exact n-step probability from x to y, 4^-n times the coefficient of
    z^n in F(x, y) / (1 - U_y); ValueError when x or y is not a vertex."""
    return Fraction(_counts(x, y, n)[0][n], 1 << 2 * n)


def power_partial_sums(series: Sequence[Fraction], r: Fraction) -> list[Fraction]:
    """Running sums of series[n] r^n over n = 0, 1, ..."""
    return list(accumulate(term * r**n for n, term in enumerate(series)))


def green_partial(x: Dyadic, y: Dyadic, r: Fraction, N: int):
    """Partial Green sum: p_n(x,y) r^n over n = 0..N, the series of pn_exact;
    ValueError when x or y is not a vertex."""
    return power_partial_sums(_scaled(_counts(x, y, N)[0]), r)[-1]


@dataclass
class MCReport:
    estimate: float
    stderr: float
    trials: int
    steps: int
    seed: int

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "trials": self.trials,
            "steps": self.steps,
            "seed": self.seed,
        }


# green_mc packs a lumped state (u, m) into one int64, m << 32 | u, and a
# move into (dm << 32) + du.  u and m never exceed the step count, so the
# packing is exact up to _MC_MAX_STEPS (m << 32 stays below 2^63, u below
# 2^32).
#
# Each numpy pass advances every trial _MC_K steps at once.  A letter moves a
# state by an amount that depends only on whether u == 0 and whether m == 0,
# and k <= _MC_K steps from u > _MC_K (or m > _MC_K) cannot reach u == 0 (or
# m == 0).  So the move over k letters and the root visits after each of them
# depend only on the class c = min(u, _MC_K + 1) (_MC_K + 2) + min(m, _MC_K + 1)
# and on the letters, read as a base-4 word w with the first letter highest:
# they sit at [c, w] of the k-th tables of _mc_tables.
#
# The letters are the top two bits of each 32-bit half of the raw Philox
# words, the low half first: one contiguous right shift by 30 of the words
# read as little-endian uint32 halves writes them into a uint8 block.
_MC_MAX_STEPS = 2**31 - 1
_MC_K = 5
# letters a block, in whole passes, and raw words a read: a block holds
# about 32 KB of letter bytes, or one pass of five rows if that is more
# (0.5 MB at 10^5 trials); larger reads raised peak memory for little speed
_MC_BLOCK = 1 << 15
_MC_CHUNK = 1 << 12


@lru_cache(maxsize=1)
def _mc_tables():
    """moves[k] and visits[k] for k = 0.._MC_K: arrays of shape (classes, 4^k)
    built from _lumped_act, each k-step entry one letter from the class's
    least state followed by the (k - 1)-step entry of the state it reaches."""
    import numpy as np

    side = _MC_K + 2
    moves = [np.zeros((side * side, 1), dtype=np.int64)]
    visits = [np.zeros((side * side, 1), dtype=np.uint8)]
    for k in range(1, _MC_K + 1):
        width = 4 ** (k - 1)
        mv = np.empty((side * side, 4 * width), dtype=np.int64)
        vs = np.empty((side * side, 4 * width), dtype=np.uint8)
        for c in range(side * side):
            u, m = divmod(c, side)
            for r in LUMPED_LETTERS:
                u2, m2 = _lumped_act(r, (u, m))
                c2 = min(u2, _MC_K + 1) * side + min(m2, _MC_K + 1)
                cols = slice(r * width, (r + 1) * width)
                np.add(moves[-1][c2], ((m2 - m) << 32) + u2 - u, out=mv[c, cols])
                np.add(visits[-1][c2], (u2, m2) == (0, 0), out=vs[c, cols])
        moves.append(mv)
        visits.append(vs)
    for table in moves + visits:
        table.setflags(write=False)
    return tuple(moves), tuple(visits)


def _mc_letters(bits, trials: int, steps: int, rows: int):
    """The letters of `steps` steps of `trials` trials, `rows` steps a block,
    as uint8 arrays of shape (rows, trials), valid until the next block: the
    letters np.random.Generator(bits).integers(0, 4) draws.  Each is the top
    two bits of one 32-bit half of a raw 64-bit word, the low half first, so
    one contiguous shift of the words read as little-endian uint32 halves
    gives them in order; a block that ends on a low half carries the high
    half over."""
    import numpy as np

    buf = np.empty(rows * trials + 1, dtype=np.uint8)
    odd = 0  # 1 when buf[0] holds the last block's spare letter
    for done in range(0, steps, rows):
        need = min(rows, steps - done) * trials
        words = (need - odd + 1) // 2
        for a in range(0, words, _MC_CHUNK):
            w = bits.random_raw(min(_MC_CHUNK, words - a))
            # no copy on a little-endian host; the low half comes first on any
            halves = w.astype("<u8", copy=False).view("<u4")
            out = buf[odd + 2 * a:odd + 2 * a + len(halves)]
            np.right_shift(halves, 30, out=out, casting="unsafe")
        yield buf[:need].reshape(-1, trials)
        odd = (need - odd) % 2
        buf[0] = buf[need]


def green_mc(trials: int, steps: int, seed: int = 0, cap: int = 10**10) -> MCReport:
    """Monte Carlo estimate of the expected number of root visits.

    Simulates the lumped chain, drawing letters as in _lumped_act, with a
    counter-based generator, so results replay exactly for a given seed:
    every letter is the one a draw of `trials` integers in [0, 4) per step
    would give.  Trials advance _MC_K steps a numpy pass through the exact
    tables of _mc_tables.
    """
    if trials < 2 or steps <= 0:
        raise ValueError("green_mc needs at least 2 trials and 1 step")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if trials * steps > cap:
        raise CapExceeded(f"trials*steps = {trials * steps} exceeds cap {cap}")
    if steps > _MC_MAX_STEPS:
        raise CapExceeded(f"steps = {steps} exceeds {_MC_MAX_STEPS}, the packed state's limit")
    import numpy as np

    moves, seen = _mc_tables()
    # min(x, _MC_K + 1) by a clipped index into a range, scaled as in [c, w]
    capped = np.arange(_MC_K + 2, dtype=np.int64)
    sat_u = [capped * (_MC_K + 2) << 2 * k for k in range(_MC_K + 1)]
    sat_m = [capped << 2 * k for k in range(_MC_K + 1)]
    s = np.zeros(trials, dtype=np.int64)
    visits = np.ones(trials, dtype=np.int64)
    idx, field, move = np.empty_like(s), np.empty_like(s), np.empty_like(s)
    hits = np.empty(trials, dtype=np.uint8)
    passes = max(1, _MC_BLOCK // (_MC_K * trials))
    words = np.empty((passes, trials), dtype=np.uint16)
    for block in _mc_letters(np.random.Philox(seed), trials, steps, passes * _MC_K):
        full = len(block) // _MC_K
        runs = [block[:full * _MC_K].reshape(full, _MC_K, trials)] if full else []
        if len(block) % _MC_K:
            runs.append(block[full * _MC_K:].reshape(1, -1, trials))
        for run in runs:
            k, w = run.shape[1], words[:len(run)]
            np.copyto(w, run[:, 0])
            for j in range(1, k):
                w <<= 2
                w |= run[:, j]
            for row in w:
                # every index is in range by construction or by clipping
                np.bitwise_and(s, 2**32 - 1, out=field)
                sat_u[k].take(field, out=idx, mode="clip")
                np.right_shift(s, 32, out=field)
                sat_m[k].take(field, out=move, mode="clip")
                idx += move
                idx += row
                moves[k].take(idx, out=move, mode="clip")
                s += move
                seen[k].take(idx, out=hits, mode="clip")
                visits += hits
    est = float(visits.mean())
    err = float(visits.std(ddof=1)) / math.sqrt(trials)
    return MCReport(estimate=est, stderr=err, trials=trials, steps=steps, seed=seed)


@dataclass
class ReturnReport:
    N: int
    first_return: list[Fraction]
    partials: list[Fraction]

    @property
    def total(self) -> Fraction:
        return self.partials[-1]

    def to_json(self) -> dict:
        return {"N": self.N, "total": str(self.total)}


def return_prob(N: int) -> ReturnReport:
    """First-return mass at the root through time N, the coefficients of
    U_root from _passage, without the P series of _counts."""
    f = _scaled([0] + _passage(ROOT, ROOT, N)[1][:-1])
    return ReturnReport(N=N, first_return=f, partials=list(accumulate(f)))


def spectral_radius_proxy(n: int, mode: str = "X", cap: int = 10**6) -> float:
    """Lower proxy for the walk's spectral radius from even return terms.
    The lamp walk is symmetric, so P^2j(empty, empty) is the sum over C of
    P^j(empty, C)^2: it walks n // 2 steps, cap bounding their support."""
    if n < 2:
        raise ValueError("need n >= 2")
    if mode == "X":
        even = lumped_return_series(n)[2::2]
    elif mode == "lamp":
        counts, even, move = {(): 1}, [], lamp_action()
        for j in range(1, n // 2 + 1):
            counts = evolve(counts, LAMP_LETTERS, move, cap)
            even.append(Fraction(sum(c * c for c in counts.values()), 25**j))
    else:
        raise ValueError("mode must be 'X' or 'lamp'")
    return max(float(p) ** (1.0 / (2 * j)) for j, p in enumerate(even, 1))


# ---------------------------------------------------------------------------
# exact one-step checks


@dataclass
class DeltaReport:
    radius: int
    checked: int
    mismatches: list

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "radius": self.radius,
            "checked": self.checked,
            "mismatches": [
                (str(v), str(m), str(e)) for v, m, e in self.mismatches
            ],
            "ok": self.ok,
        }


def delta_check_phi_u(R: int, cap: int = 10**6) -> DeltaReport:
    """phi_u minus its one-step average: 1 at the root, 0 at every other vertex."""
    rep = is_superharmonic_on(canonical_phi_u(), ball(ROOT, R, cap=cap))
    mismatches = []
    for v, _, _, margin in rep.entries:
        expected = Fraction(1) if v == ROOT else _ZERO
        if margin != expected:
            mismatches.append((v, margin, expected))
    return DeltaReport(radius=R, checked=len(rep.entries), mismatches=mismatches)


@dataclass
class SupermartingaleReport:
    mode: str
    checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "checked": self.checked,
            "violations": [(str(s), str(m)) for s, m in self.violations],
            "ok": self.ok,
        }


def supermartingale_check(fn, states: Iterable, mode: str = "lamp") -> SupermartingaleReport:
    """Exact one-step mean decrease of fn.fn at each state: an address (mode
    X, fn a VertexFn) or an address configuration (mode lamp, fn a SetFn)."""
    if mode not in ("X", "lamp"):
        raise ValueError("mode must be 'X' or 'lamp'")
    if getattr(fn, "superharmonic", None) is False:
        raise PreconditionFailed(f"{fn.name} is declared non-superharmonic")
    violations = []
    checked = 0
    for st in states:
        checked += 1
        if mode == "X":
            margin = fn.fn(st) - markov_apply_X(fn, st)
        else:
            margin = fn.fn(st) - markov_iterate(fn, st, 1)
        if margin < 0:
            violations.append((st, margin))
    return SupermartingaleReport(mode=mode, checked=checked, violations=violations)


# ---------------------------------------------------------------------------
# structural lamp trajectories


# letters as indices into LAMP_LETTERS: a letter i < 4 acts on side i >> 1
# (0 for a/A, 1 for b/B), down toward the leaves when i is even
if LAMP_LETTERS != ("a", "A", "b", "B", "s"):
    raise StructuralAssertFailed(f"the structural walk reads letters aAbBs, not {LAMP_LETTERS}")
_LETTER_INDEX = {ch: i for i, ch in enumerate(LAMP_LETTERS)}


# A lamp trie node is a tuple (c0, c1, mark, H, n), and None is the empty
# trie.  The path from a trie's root reads a lamp's turns from the last back
# to the first: c0 and c1 hold the lamps whose next-older turn is a or b,
# mark is 1 when the node's own lamp is lit, H is the depth of the deepest
# lamp below the node counted from it and n >= 1 is the number of lamps.
# Nodes are never changed, so subtries are shared, not copied.


def _trie(c0, c1, mark: int):
    """The node over two subtries and a mark; None when it holds no lamp."""
    h, n = mark - 1, mark
    if c0 is not None:
        if c0[3] >= h:
            h = c0[3] + 1
        n += c0[4]
    if c1 is not None:
        if c1[3] >= h:
            h = c1[3] + 1
        n += c1[4]
    return (c0, c1, mark, h, n) if n else None


def _lamp_codes(node) -> list[int]:
    """graph.code nodes of the lamps in a trie, walked without recursion:
    tries reach depths in the hundreds.  Each step from the trie's root puts
    the next-older turn under the code's sentinel bit, 1 for a, 0 for b."""
    codes = []
    stack = [(node, 1)] if node is not None else []
    while stack:
        (c0, c1, mark, _, _), nid = stack.pop()
        if mark:
            codes.append(nid)
        if c0 is not None:
            stack.append((c0, nid << 1 | 1))
        if c1 is not None:
            stack.append((c1, nid << 1))
    return codes


# the bottom of each side's stack of parked tries: no key, no lamps
_NO_PARK = (None, None, -1, 0)


class StructuralLampWalk:
    """Lamp configuration under the five-letter walk, in structural form.

    The skeleton lamps are held in a persistent trie over their turns, read
    from the last turn back, so every letter costs O(1):
    - a or b on side s makes the old trie child s of a new root;
    - A or B on side s makes child s the root, which moves every lamp whose
      last turn is s up to its parent; the rest (child 1 - s and the lamp at
      the tree's root, node 1 of graph.code) step onto their hairs together;
    - s flips the root's mark.

    The lamps that step onto hairs on one letter are parked as one trie,
    keyed by the value their side's letter counter will hold when they are
    back at their bases, so hair-bound lamps cost nothing per step.  A
    sleeping lamp's offset is the counter minus its key: A or B parks at
    the counter and raises it, a or b lowers it and wakes what is parked at
    the new value.  So keys stay below the counter, and each side's parked
    tries form a stack in key order whose top is the only one that can wake.
    Each stack entry carries the largest base depth and the lamp count of
    the tries up to it.  A woken trie holds only node 1 and lamps whose last
    turn is 1 - s, while after the push every resident ends in s, so waking
    merges two disjoint tries in one node.  Counters and stacks are indexed
    by side.

    run applies a word of letters in one call and counts the states on it
    that fail the one-step margin of the depth potential; step is run on
    one letter.
    """

    __slots__ = ("root", "cnt", "parked")

    def __init__(self) -> None:
        self.root = None
        self.cnt = [0, 0]
        # entries (key, trie, max base depth, lamps) of the tries up to each
        self.parked: tuple[list[tuple], ...] = ([_NO_PARK], [_NO_PARK])

    def lamp_count(self) -> int:
        root = self.root
        n = root[4] if root is not None else 0
        return n + self.parked[0][-1][3] + self.parked[1][-1][3]

    def run(self, letters: Iterable[int]) -> int:
        """Apply letters given as indices into LAMP_LETTERS, checking before
        each one the margin of supermartingale_margin_ok on the state it
        acts on; returns the number of states that fail it.

        With base the largest parked base depth (0 when none), kA =
        max(mka, base) and kB = max(mkb, base), the margin reads in two
        cases, since kab - k0 is 1 when msk >= base and 0 otherwise:
        - msk >= base: the state fails when 2^(msk + 1 - kA) +
          2^(msk + 1 - kB) > 6;
        - msk < base: it fails when 2^(base - kA) + 2^(base - kB) > 2.
        So the empty skeleton always passes.  A child height above the scale
        is a negative shift and raises ValueError, as in the four-term form
        of supermartingale_margin_ok, which stays as the per-state oracle.

        This is the only copy of the trie transition; its heights repeat
        _k_parts.
        """
        root, cnt = self.root, self.cnt
        p0, p1 = self.parked
        bad = 0
        # the largest parked base depth, 0 when none: only a push or a wake
        # changes it
        base = max(p0[-1][2], p1[-1][2], 0)
        for i in letters:
            if root is not None:
                c0, c1, mark, msk, n = root
                mka = mkb = mark - 1
                if c0 is not None:
                    h = c0[3]
                    if h > mka:
                        mka = h
                    if h >= mkb:
                        mkb = h + 1
                if c1 is not None:
                    h = c1[3]
                    if h >= mka:
                        mka = h + 1
                    if h > mkb:
                        mkb = h
                if mka < base:
                    mka = base
                if mkb < base:
                    mkb = base
                if msk >= base:
                    if (1 << (msk + 1 - mka)) + (1 << (msk + 1 - mkb)) > 6:
                        bad += 1
                elif (1 << (base - mka)) + (1 << (base - mkb)) > 2:
                    bad += 1

            if i == 4:
                # s: a lit root adds no height, and when it goes out the
                # other lamps, if any, keep the height
                if root is None:
                    root = (None, None, 1, 0, 1)
                elif not mark:
                    root = (c0, c1, 1, msk, n + 1)
                else:
                    root = (c0, c1, 0, msk, n - 1) if n > 1 else None
            elif i == 0:
                # a: the trie becomes child 0, or wakes side 0's top
                key = cnt[0] - 1
                cnt[0] = key
                if p0[-1][0] == key:
                    woke = p0.pop()[1]
                    h0, h1 = p0[-1][2], p1[-1][2]
                    base = h0 if h0 > h1 else h1
                    if base < 0:
                        base = 0
                    root = _trie(root, woke[1], woke[2])
                elif root is not None:
                    root = (root, None, 0, msk + 1, n)
            elif i == 2:
                # b: the same on side 1
                key = cnt[1] - 1
                cnt[1] = key
                if p1[-1][0] == key:
                    woke = p1.pop()[1]
                    h0, h1 = p0[-1][2], p1[-1][2]
                    base = h0 if h0 > h1 else h1
                    if base < 0:
                        base = 0
                    root = _trie(woke[0], root, woke[2])
                elif root is not None:
                    root = (None, root, 0, msk + 1, n)
            elif i == 1:
                # A: child 0 becomes the root; child 1 and a lit root park
                # on side 0 as one node over child 1
                key = cnt[0]
                cnt[0] = key + 1
                if root is not None:
                    root = c0
                    if c1 is not None:
                        trie = (None, c1, mark, c1[3] + 1, mark + c1[4])
                    elif mark:
                        trie = (None, None, 1, 0, 1)
                    else:
                        continue
                    _, _, h, lamps = p0[-1]
                    if trie[3] > h:
                        h = trie[3]
                        if h > base:
                            base = h
                    p0.append((key, trie, h, lamps + trie[4]))
            else:
                # B: the same on side 1, parking child 0
                key = cnt[1]
                cnt[1] = key + 1
                if root is not None:
                    root = c1
                    if c0 is not None:
                        trie = (c0, None, mark, c0[3] + 1, mark + c0[4])
                    elif mark:
                        trie = (None, None, 1, 0, 1)
                    else:
                        continue
                    _, _, h, lamps = p1[-1]
                    if trie[3] > h:
                        h = trie[3]
                        if h > base:
                            base = h
                    p1.append((key, trie, h, lamps + trie[4]))
        self.root = root
        return bad

    def step(self, ch: str) -> None:
        i = _LETTER_INDEX.get(ch)
        if i is None:
            raise ValueError(f"unknown letter {ch!r}")
        self.run((i,))

    def _k_parts(self):
        """Max skeleton depth, max depth after A and after B of the skeleton
        lamps (-1 when none), and max base depth of the parked lamps (-1 when
        none)."""
        h0, h1 = self.parked[0][-1][2], self.parked[1][-1][2]
        mh = h0 if h0 > h1 else h1
        root = self.root
        if root is None:
            return -1, -1, -1, mh
        c0, c1, mark, msk, _ = root
        mka = mkb = mark - 1
        if c0 is not None:
            h = c0[3]
            if h > mka:
                mka = h
            if h >= mkb:
                mkb = h + 1
        if c1 is not None:
            h = c1[3]
            if h >= mka:
                mka = h + 1
            if h > mkb:
                mkb = h
        return msk, mka, mkb, mh

    def k_now(self) -> int:
        """Largest lamp depth (hair lamps count their base), 0 when empty."""
        msk, _, _, mh = self._k_parts()
        return max(msk, mh, 0)

    def f_now(self) -> Fraction:
        return pow2(2 - self.k_now())

    def supermartingale_margin_ok(self) -> bool:
        """Exact one-step mean decrease of the depth potential, in integers.

        With k0, kab, kA, kB the largest depth now and after a or b, A, B,
        the mean of 2^-k over the five letters is at most 2^-k0.  A or B
        never deepens a lamp, so kA, kB <= k0 <= kab, and kab sets the scale.
        """
        msk, mka, mkb, mh = self._k_parts()
        base = mh if mh > 0 else 0
        k0 = msk if msk > base else base
        kab = msk + 1 if msk >= base else base
        kA = mka if mka > base else base
        kB = mkb if mkb > base else base
        rhs = 2 + (1 << (kab - kA)) + (1 << (kab - kB)) + (1 << (kab - k0))
        return 5 << (kab - k0) >= rhs

    def to_config(self) -> Config:
        """Reconstruct the explicit configuration (slow; for cross-checks)."""
        pts = [vertex(nid) for nid in _lamp_codes(self.root)]
        for sign, counter, stack in zip((1, -1), self.cnt, self.parked):
            for key, trie, _, _ in stack[1:]:
                off = counter - key
                if off < 1:
                    raise StructuralAssertFailed(f"parked lamp with nonpositive offset {off}")
                pts.extend(vertex(nid, sign * off) for nid in _lamp_codes(trie))
        return config(pts)


class _ExplicitLampWalk:
    """An address configuration under the five-letter walk from the empty
    one, scored by any SetFn, with the run/check/potential shape of
    StructuralLampWalk: exact but far slower.  A fresh lamp_action per
    letter keeps no tables."""

    __slots__ = ("F", "C")

    def __init__(self, F) -> None:
        self.F = F
        self.C = ()

    def lamp_count(self) -> int:
        return len(self.C)

    def f_now(self):
        return self.F.fn(self.C)

    def supermartingale_margin_ok(self) -> bool:
        return markov_iterate(self.F, self.C, 1) <= self.F.fn(self.C)

    def run(self, letters: Iterable[int]) -> int:
        bad = 0
        for i in letters:
            bad += not self.supermartingale_margin_ok()
            self.C = lamp_action()(LAMP_LETTERS[i], self.C)
        return bad


@dataclass(frozen=True)
class WalkConfig:
    trials: int = 500
    steps: int = 10_000
    seed: int = 0
    checkpoints: tuple[int, ...] = (100, 10_000)
    fn_name: str = "minfun:phi_u"

    def __post_init__(self):
        if self.trials <= 0 or self.steps <= 0:
            raise ValueError("trials and steps must be positive")
        # random.Random seeds on abs(seed), so a negative seed would replay
        # another seed's trajectories
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.checkpoints or min(self.checkpoints) < 1 or max(self.checkpoints) > self.steps:
            raise ValueError(f"checkpoints must be nonempty and within the horizon 1..{self.steps}")


@dataclass
class DecayReport:
    walk: WalkConfig
    medians: dict
    supermartingale_violations: int
    states_checked: int
    never_removed_fraction: float

    @property
    def ok(self) -> bool:
        return self.supermartingale_violations == 0

    def to_json(self) -> dict:
        return {
            "trials": self.walk.trials,
            "steps": self.walk.steps,
            "seed": self.walk.seed,
            "fn": self.walk.fn_name,
            "medians": {str(k): str(v) for k, v in sorted(self.medians.items())},
            "supermartingale_violations": self.supermartingale_violations,
            "states_checked": self.states_checked,
            "never_removed_fraction": self.never_removed_fraction,
        }


# 32-bit words drawn at a time, so a chunk of letters stays under 4 KB
# whatever the horizon
_DRAW_WORDS = 1 << 12
# the top byte b of a word reads the letter b >> 5; _randbelow(5) rejects 5-7
_TOP3 = bytes(b >> 5 for b in range(256))
_REJECTED = bytes(range(5 << 5, 256))


def _letters(rng: random.Random, n: int) -> Iterator[bytes]:
    """The next n letters rng.choice(LAMP_LETTERS) would draw, as indices
    into LAMP_LETTERS, in bytes chunks of at most _DRAW_WORDS letters.

    choice takes _randbelow(5): the top 3 bits of one 32-bit Mersenne Twister
    word, drawn again while they read 5-7.  getrandbits(32 k) holds the next
    k words, first word lowest, so the top bytes of its little-endian form are
    the words' top bytes in order.  This rests on CPython's _randbelow and
    getrandbits word order, so the test against choice is the guard.  Words
    past the n-th letter are drawn and dropped: rng is spent after the call.
    """
    while n > 0:
        k = min(_DRAW_WORDS, 2 * n)
        tops = rng.getrandbits(32 * k).to_bytes(4 * k, "little")[3::4]
        chunk = tops.translate(_TOP3, _REJECTED)
        yield chunk[:n]
        n -= len(chunk)


def potential_decay_experiment(walk: WalkConfig = WalkConfig()) -> DecayReport:
    """Seeded lamp trajectories with exact per-state supermartingale checks.

    Every trajectory starts from the empty configuration.  The bundled
    depth potential runs on the structural state; any other registered set
    function falls back to explicit configurations.  Every state of every
    trajectory, the last included, is checked.  Each trial draws the letters
    of random.Random(seed * 1_000_003 + trial).choice(LAMP_LETTERS) in bulk
    and runs them in pieces cut at the checkpoints.
    """
    marks = sorted(set(walk.checkpoints))
    values: dict[int, list] = {t: [] for t in marks}
    violations = 0
    nonempty = 0
    fast = walk.fn_name == WalkConfig.fn_name
    F = None if fast else resolve_setfn(walk.fn_name)
    for trial in range(walk.trials):
        rng = random.Random(walk.seed * 1_000_003 + trial)
        state = StructuralLampWalk() if fast else _ExplicitLampWalk(F)
        run = state.run
        ahead = iter(marks)
        mark = next(ahead)
        t = 0  # letters applied
        for chunk in _letters(rng, walk.steps):
            lo = 0
            # the next checkpoint falls in what is left of the chunk
            while mark - t <= len(chunk) - lo:
                hi = lo + mark - t
                violations += run(chunk[lo:hi])
                values[mark].append(state.f_now())
                t, lo = mark, hi
                mark = next(ahead, walk.steps + 1)  # past the horizon: no more
            violations += run(chunk[lo:])
            t += len(chunk) - lo
        violations += not state.supermartingale_margin_ok()
        nonempty += state.lamp_count() > 0
    medians = {t: sorted(vals)[len(vals) // 2] for t, vals in values.items()}
    return DecayReport(
        walk=walk,
        medians=medians,
        supermartingale_violations=violations,
        states_checked=walk.trials * (walk.steps + 1),
        never_removed_fraction=nonempty / walk.trials,
    )
