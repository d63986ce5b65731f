"""Approximately invariant lamp configurations.

Verification is exact: the whole length-<=n word orbit is enumerated and the
relative change of the target function is compared with the tolerance beta.
Both verifiers convert the configuration to graph.code addresses once, move
it by one lamp_action over graph.struct_act and read the target on addresses,
in integers by SetFn.scaled, else by SetFn.fn; reports keep the Dyadic set.
The constructors park lamps far out on hairs below skeleton vertices whose
function values sit strictly under everything reachable from the root, which
pins the minimum and makes the target exactly invariant on the orbit.  In the
other direction, golden_witness produces a short word that refutes
invariance of the family sum for any configuration with few lamps.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Callable, Optional, Sequence

from .dyadic import Dyadic, ROOT
from .errors import (
    CapExceeded,
    PreconditionFailed,
    SearchExhausted,
    StructuralAssertFailed,
    ZeroBase,
)
from .graph import (
    ROOT_CODE,
    act_word,
    ball,
    hair_point,
    node_info,
    struct_act,
    vertex,
)
from .harmonic import SCAN_WIDTH_CAP, VertexFn, level_min, phi_family, pow2
from .lamplighter import (
    LAMP_LETTERS,
    Config,
    SetFn,
    config,
    lamp_action,
    orbit_enumerate,
    serialize_config,
    to_codes,
)
from .minfn import (
    SymmetricConcaveFn,
    countable_sum,
    generalized_minfun,
    markov_image,
    minfun,
    phi_family_tail_bound,
    resolve_phi,
    weighted_sum,
)

__all__ = [
    "BETA_SCHEDULES",
    "VerifyReport",
    "strong_verify",
    "weak_verify",
    "ConstructionResult",
    "construct_En_single",
    "construct_En_sum",
    "construct_En_markov",
    "construct_En_countable",
    "CONSTRUCTIONS",
    "construct",
    "explicit_En_hairs",
    "WitnessResult",
    "golden_witness",
    "SearchResult",
    "generalized_En_search",
]


# tolerance schedules: name -> the tolerance beta(n) at level n
BETA_SCHEDULES: dict[str, Callable[[int], Fraction]] = {
    "inv_n": lambda n: Fraction(1, n),
    "inv_2n": lambda n: pow2(-n),
}


@dataclass
class VerifyReport:
    fn_name: str
    E: Config
    n: int
    beta: Fraction
    mode: str
    checked: int
    base_value: Fraction
    worst_word: str
    worst_deviation: Fraction

    @property
    def passed(self) -> bool:
        return self.worst_deviation <= self.beta

    def to_json(self) -> dict:
        return {
            "fn": self.fn_name,
            "set": serialize_config(self.E),
            "n": self.n,
            "beta": str(self.beta),
            "mode": self.mode,
            "checked": self.checked,
            "base_value": str(self.base_value),
            "worst_word": self.worst_word,
            "worst_deviation": str(self.worst_deviation),
            "passed": self.passed,
        }


def _deviation_scan(F, E: Config, n: int, beta: Fraction, mode: str, pairs) -> VerifyReport:
    """Largest relative deviation |F(C) - F(E)| / F(E) over the (C, word)
    pairs that pairs(to_codes(E)) yields, C in addresses, called once F(E)
    is known to be nonzero; the first word to reach the largest deviation
    is reported.

    Values are numerators over one 2**K: F.scaled's, K raised (and the kept
    numerators shifted) when a deeper one comes, or F.fn's with K = 0.  The
    largest |v - base| is at the largest or the smallest value, so the scan
    keeps the first pair to set each extreme and divides by F(E) once, where
    2**K cancels; nothing moved gives Fraction(0) and the empty word."""
    read = F.scaled or (lambda C: (F.fn(C), 0))
    start = to_codes(E)
    base, K = read(start)
    if base == 0:
        raise ZeroBase(f"{F.name} vanishes on the tested configuration")
    hi = lo = base
    hi_at = lo_at = 0
    hi_word = lo_word = ""
    checked = 0
    for checked, (C, word) in enumerate(pairs(start), 1):
        v, e = read(C)
        if e > K:
            base, hi, lo, K = base << e - K, hi << e - K, lo << e - K, e
        elif e < K:
            v <<= K - e
        # equal values deviate by 0 and set no extreme; != is the cheap test
        if v != base:
            if v > hi:
                hi, hi_at, hi_word = v, checked, word
            elif v < lo:
                lo, lo_at, lo_word = v, checked, word
    worst = Fraction(0)
    worst_word = ""
    # the running maximum of the deviation over the two extremes in scan
    # order, so a tie goes to the earlier word
    for _, dev, word in sorted([(hi_at, hi - base, hi_word), (lo_at, base - lo, lo_word)]):
        dev = Fraction(dev, base) if F.scaled else dev / base
        if dev > worst:
            worst, worst_word = dev, word
    return VerifyReport(
        fn_name=F.name,
        E=E,
        n=n,
        beta=beta,
        mode=mode,
        checked=checked,
        base_value=Fraction(base, 1 << K) if F.scaled else base,
        worst_word=worst_word,
        worst_deviation=worst,
    )


def strong_verify(F, E: Config, n: int, beta: Fraction, cap: int = 10**6) -> VerifyReport:
    """Exact relative deviation of F over the whole length-<=n orbit of E."""
    return _deviation_scan(
        F, E, n, beta, "strong",
        lambda C: orbit_enumerate(C, n, cap=cap).items(),
    )


def weak_verify(
    F, E: Config, n: int, beta: Fraction, samples: int = 500, seed: int = 0
) -> VerifyReport:
    """Same deviation statistic over random words instead of the full orbit."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")

    def pairs(C):
        rng = random.Random(seed)
        move = lamp_action()
        for _ in range(samples):
            word = "".join(rng.choice(LAMP_LETTERS) for _ in range(rng.randint(1, n)))
            yield act_word(word, C, move), word

    return _deviation_scan(F, E, n, beta, "weak", pairs)


# ---------------------------------------------------------------------------
# constructors


@dataclass
class ConstructionResult:
    E: Config
    setfn: SetFn
    n: int
    beta: Fraction
    notes: tuple[tuple[str, str], ...] = ()

    def to_json(self) -> dict:
        return {
            "set": serialize_config(self.E),
            "fn": self.setfn.name,
            "n": self.n,
            "beta": str(self.beta),
            "notes": dict(self.notes),
        }


def find_vertex_below(phi, threshold: Fraction) -> Dyadic:
    """A skeleton vertex with phi strictly below threshold.

    Uses the function's own descent hint when present (re-checking the value,
    since hints are advisory); otherwise scans levels of addresses by phi.fn,
    as level_min does, which is only viable while the threshold is moderate.
    """
    if threshold <= 0:
        raise PreconditionFailed("threshold must be positive")
    if phi.find_below is not None:
        q = phi.find_below(threshold)
        if not phi(q) < threshold:
            raise StructuralAssertFailed(
                f"{phi.name}: descent hint gave {q} with value {phi(q)} >= {threshold}"
            )
        return q
    level = [ROOT_CODE]
    for depth in count(1):
        level = [struct_act(ch, c) for c in level for ch in "ab"]
        best = min(level, key=phi.fn)
        if phi.fn(best) < threshold:
            return vertex(*best)
        if len(level) * 2 > SCAN_WIDTH_CAP:
            raise SearchExhausted(
                f"{phi.name}: no value below {threshold} within scannable depth",
                frontier={"depth": depth, "width": len(level), "best": str(phi.fn(best))},
            )


def _require_level(n: int) -> None:
    # offset n**2 minus at most n steps must stay strictly on the hair
    if n < 2:
        raise PreconditionFailed("constructions need n >= 2")


def construct_En_single(
    phi, n: int, beta: Callable[[int], Fraction] = BETA_SCHEDULES["inv_n"]
) -> ConstructionResult:
    """One lamp far out on a hair under a vertex where phi is already tiny."""
    _require_level(n)
    r_n, _ = level_min(phi, n)
    if r_n <= 0:
        raise PreconditionFailed(f"{phi.name} must stay positive down to level {n}")
    threshold = r_n / (4 * n * n)
    q = find_vertex_below(phi, threshold)
    E = config([hair_point(q, n * n)])
    return ConstructionResult(
        E=E,
        setfn=minfun(phi),
        n=n,
        beta=beta(n),
        notes=(
            ("level_min", str(r_n)),
            ("threshold", str(threshold)),
            ("base_vertex", str(q)),
            ("hair_offset", str(n * n)),
        ),
    )


def construct_En_sum(
    phis: Sequence[VertexFn],
    n: int,
    beta: Callable[[int], Fraction] = BETA_SCHEDULES["inv_n"],
) -> ConstructionResult:
    """One lamp per unit-weight summand, each pinning its own minimum below the common floor."""
    _require_level(n)
    if not phis:
        raise PreconditionFailed("need at least one summand")
    region = ball(ROOT, n)
    eps = min(min(map(phi.fn, region.addresses)) for phi in phis)
    threshold = eps / (4 * n * n)
    points = [hair_point(find_vertex_below(phi, threshold), n * n) for phi in phis]
    E = config(points)
    F = weighted_sum([minfun(phi) for phi in phis], [Fraction(1)] * len(phis))
    return ConstructionResult(
        E=E,
        setfn=F,
        n=n,
        beta=beta(n),
        notes=(
            ("ball_floor", str(eps)),
            ("threshold", str(threshold)),
            ("hair_offset", str(n * n)),
        ),
    )


def construct_En_markov(
    phis: Sequence[VertexFn],
    powers: Sequence[int],
    n: int,
    beta: Callable[[int], Fraction] = BETA_SCHEDULES["inv_n"],
) -> ConstructionResult:
    """Walk images only widen the word window, so delegate to the sum recipe
    at level n plus the largest power."""
    if len(phis) != len(powers):
        raise PreconditionFailed("need one walk power per summand")
    if any(k < 0 for k in powers):
        raise PreconditionFailed("walk powers must be >= 0")
    m = n + max(powers)
    inner = construct_En_sum(phis, m, beta=beta)
    images = [markov_image(minfun(phi), k) for phi, k in zip(phis, powers)]
    F = weighted_sum(images, [Fraction(1)] * len(phis))
    return ConstructionResult(
        E=inner.E,
        setfn=F,
        n=n,
        beta=beta(n),
        notes=inner.notes + (("delegated_level", str(m)),),
    )


def construct_En_countable(
    n: int, beta: Callable[[int], Fraction] = BETA_SCHEDULES["inv_n"]
) -> ConstructionResult:
    """Enough lamps that every summand of the family sum is pinned; the
    target is that sum truncated with certified error 2^-20.

    The index cutoff N is driven by the smallest family value achieved, so
    beyond it the summands cannot see the root's n-ball at all and stay
    constant without their own lamp.
    """
    _require_level(n)
    region = ball(ROOT, n)

    def floor_of(phi) -> Fraction:
        return min(map(phi.fn, region.addresses))

    fam0 = phi_family(0)
    z0 = find_vertex_below(fam0, floor_of(fam0) / (16 * n * n))
    delta = fam0(z0)
    N = phi_family_tail_bound(delta / (3 * n))
    points = [hair_point(z0, 4 * n * n)]
    for i in range(1, N + 1):
        fam = phi_family(i)
        z = find_vertex_below(fam, floor_of(fam) / (16 * n * n))
        points.append(hair_point(z, 4 * n * n))
    E = config(points)
    F = countable_sum(pow2(-20))
    return ConstructionResult(
        E=E,
        setfn=F,
        n=n,
        beta=beta(n),
        notes=(
            ("delta", str(delta)),
            ("index_cutoff", str(N)),
            ("lamps", str(len(E))),
            ("hair_offset", str(4 * n * n)),
        ),
    )


# construction kind -> the vertex functions it builds on unless others are named
CONSTRUCTIONS = {
    "single": "phi_u",
    "sum": "phi:0,phi:1,phi:2",
    "markov": "phi:0,phi:1",
    "countable": None,
}


def construct(
    kind: str, n: int, fn: Optional[str] = None, powers: Optional[str] = None,
    beta: Callable[[int], Fraction] = BETA_SCHEDULES["inv_n"],
) -> ConstructionResult:
    """Construction kind at level n on the vertex functions named in fn
    (comma-separated; CONSTRUCTIONS[kind] by default) and, for markov, the
    walk powers in powers (default 1,1); countable uses all of phi_family.
    ValueError for fn given to countable or powers to any kind but markov."""
    default = CONSTRUCTIONS[kind]  # a KeyError for an unknown kind
    if fn is not None and default is None:
        raise ValueError(f"construction kind {kind!r} takes no fn")
    if powers is not None and kind != "markov":
        raise ValueError(f"construction kind {kind!r} takes no powers")
    names = fn or default
    if kind == "single":
        return construct_En_single(resolve_phi(names), n, beta=beta)
    if kind == "countable":
        return construct_En_countable(n, beta=beta)
    phis = [resolve_phi(name) for name in names.split(",")]
    if kind == "sum":
        return construct_En_sum(phis, n, beta=beta)
    walk_powers = [int(p) for p in (powers or "1,1").split(",")]
    return construct_En_markov(phis, walk_powers, n, beta=beta)


# ---------------------------------------------------------------------------
# the explicit hair family and its refutation counterpart

# lamp j takes a word of 2n + j letters, so the family costs O(n^2): n = 256
# took 0.41 s on a 2-core machine; every use has n <= 8
EXPLICIT_MAX_N = 256
# golden_witness reports fractions over about 2^n, and str refuses integers
# of over 4300 digits, as 2^n has from n = 14,286 on
GOLDEN_MAX_N = 8192


def explicit_En_hairs(n: int) -> Config:
    """The n-lamp configuration A^n b^n a^j . root for j = 0..n-1.

    Each lamp is validated structurally: offset n on a hair that loops on b,
    attached at depth j+n inside subtree j.  Any mismatch raises
    StructuralAssertFailed rather than returning a dubious configuration;
    n above EXPLICIT_MAX_N raises CapExceeded before any lamp is built.
    """
    if n < 1:
        raise PreconditionFailed("need n >= 1")
    if n > sys.maxsize:  # not a size at all: "A" * n would raise this too
        raise OverflowError(f"explicit:{n} cannot fit into an index-sized integer")
    if n > EXPLICIT_MAX_N:
        raise CapExceeded(f"explicit:{n} exceeds the lamp cap {EXPLICIT_MAX_N}")
    points = []
    for j in range(n):
        c = act_word("A" * n + "b" * n + "a" * j, ROOT_CODE, struct_act)
        if struct_act("b", c) != c:
            raise StructuralAssertFailed(f"lamp {j}: expected a hair looping on b")
        node, m = c
        if abs(m) != n:
            raise StructuralAssertFailed(
                f"lamp {j}: expected hair offset {n}, got address {(node, m)}"
            )
        lead, deeper, depth = node_info(node)
        if not (lead == j and depth == j + n and deeper):
            raise StructuralAssertFailed(
                f"lamp {j}: base node {node} is not subtree {j} at depth {j + n}"
            )
        points.append(vertex(*c))
    E = config(points)
    if len(E) != n:
        raise StructuralAssertFailed("explicit lamps must be pairwise distinct")
    return E


@dataclass
class WitnessResult:
    word: str
    index: int
    case: str
    base_value: Fraction
    deviation: Fraction

    def to_json(self) -> dict:
        return {
            "word": self.word,
            "index": self.index,
            "case": self.case,
            "base_value": str(self.base_value),
            "deviation": str(self.deviation),
        }


def golden_witness(E: Config, n: int, F: Optional[SetFn] = None) -> WitnessResult:
    """A word of length <= n that moves the family sum by at least 2^-n.

    Works for any configuration with at most n-2 lamps: some subtree with
    index below n-1 holds no lamp, and steering a lamp (or a freshly
    switched root lamp) down its golden path drops that summand by half.
    Switch and forward letters never increase any summand, so the drop
    survives in the sum.  n above GOLDEN_MAX_N raises CapExceeded.
    """
    if n < 2:
        raise PreconditionFailed("need n >= 2")
    if n > GOLDEN_MAX_N:
        raise CapExceeded(f"golden witness level {n} exceeds the cap {GOLDEN_MAX_N}")
    if len(E) > n - 2:
        raise PreconditionFailed(f"guaranteed only for at most {n - 2} lamps")
    if F is None:
        F = countable_sum(pow2(-n))
    C = to_codes(E)
    occupied = {lead for lead, deeper, _ in (node_info(node) for node, _ in C) if deeper}
    i = next(idx for idx in range(n - 1) if idx not in occupied)
    lamp_depths = [k for k in range(i + 1) if ((2 << k) - 1, 0) in C]
    if lamp_depths:
        k = max(lamp_depths)
        word = "b" + "a" * (i - k)
        case = "spine-lamp"
    else:
        word = "b" + "a" * i + "s"
        case = "vacant-path"
    base = F.fn(C)
    deviation = (base - F.fn(act_word(word, C, lamp_action()))) / base
    if deviation < pow2(-n):
        raise StructuralAssertFailed(
            f"witness {word!r} moved the sum by {deviation}, below {pow2(-n)}"
        )
    return WitnessResult(
        word=word, index=i, case=case, base_value=base, deviation=deviation
    )


# ---------------------------------------------------------------------------
# search for generalized targets


@dataclass
class SearchResult:
    found: Optional[Config]
    tried: int
    report: Optional[VerifyReport]

    def to_json(self) -> dict:
        return {
            "found": None if self.found is None else serialize_config(self.found),
            "tried": self.tried,
            "report": None if self.report is None else self.report.to_json(),
        }


def generalized_En_search(
    r: SymmetricConcaveFn,
    phi,
    n: int,
    beta: Callable[[int], Fraction] = BETA_SCHEDULES["inv_n"],
    budget: int = 8,
    cap: int = 10**6,
) -> SearchResult:
    """Verified search for a configuration the generalized function accepts.

    Candidates fill the function's arity with lamps on hairs under distinct,
    progressively deeper low-value vertices; each candidate is checked with
    strong_verify and the first pass wins.  Exhausting the budget returns a
    result with found=None and the last report.
    """
    _require_level(n)
    F = generalized_minfun(r, phi)
    region = ball(ROOT, n)
    floor = min(map(phi.fn, region.addresses))
    tried = 0
    last: Optional[VerifyReport] = None
    for t in range(budget):
        tried += 1
        bases: list[Dyadic] = []
        s = 0
        while len(bases) < r.arity:
            threshold = floor / (4 * n * n) / pow2(t + s)
            q = find_vertex_below(phi, threshold)
            if q not in bases:
                bases.append(q)
            s += 1
            if s > r.arity + 16:
                raise SearchExhausted(
                    "could not collect distinct base vertices",
                    frontier={"candidate": t, "collected": len(bases)},
                )
        E = config(hair_point(q, n * n) for q in bases)
        report = strong_verify(F, E, n, beta(n), cap=cap)
        if report.passed:
            return SearchResult(found=E, tried=tried, report=report)
        last = report
    return SearchResult(found=None, tried=tried, report=last)
