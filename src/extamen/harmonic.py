"""Functions on the orbit graph and their superharmonicity bookkeeping.

A function phi is superharmonic for the simple 4-generator walk when
phi(v) >= P phi(v) at every vertex, where P averages phi over the four
labeled neighbor images (loops count with multiplicity).  The two bundled
families evaluate to exact Fractions; every margin is compared with 0
exactly, in the values' own arithmetic.

A sweep over a ball (is_superharmonic_on) reads a VertexFn by fn on the
ball's addresses, once per ball vertex, and takes the neighbours from the
ball's neighbor_index, which the breadth-first search recorded.  One loop
serves every value type: P phi is the quarter-sum markov_apply_X takes at
one address, over the struct_act images, in the values' own arithmetic,
worked out once per distinct combination of the five value objects.

A VertexFn reads a vertex one way: fn on its graph.code address, which the
sweeps and the set functions of ``minfn`` call.  Calling the VertexFn on a
Dyadic vertex reads fn at the vertex's code.  The bundled families read the
address's node in one expression each: the skeleton depth is its bit length
less one, and a node lies in subtree n when its trailing ones number n and
its depth exceeds n (graph.node_info's test, which the tests keep as the
oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .dyadic import Dyadic
from .errors import CapExceeded, PreconditionFailed
from .graph import (
    EDGE_LABELS,
    ROOT_CODE,
    Ball,
    code,
    hair_point,
    struct_act,
    vertex,
    vertex_at,
)

__all__ = [
    "VertexFn",
    "markov_apply_X",
    "SuperharmonicReport",
    "is_superharmonic_on",
    "canonical_phi_u",
    "phi_family",
    "hair_property_suite",
    "HairPropertyReport",
    "level_min",
    "harmonic_witness_search",
]

@lru_cache(maxsize=1024)
def pow2(k: int) -> Fraction:
    """Fraction 2**k, cached (the bundled families only ever produce these)."""
    return Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k)


@dataclass(frozen=True)
class VertexFn:
    """Evaluatable function on vertices plus its claimed properties.

    find_below, when present, returns some skeleton vertex with value below a
    given positive threshold; the constructors use it instead of scanning
    tree levels (which is hopeless once the needed depth passes ~20) and
    always re-check the returned value.  fn takes the graph.code address
    (node, m) of a vertex; calling the VertexFn on a Dyadic reads fn there.
    fn may carry an attribute exponent, an integer reader with
    fn(c) == 2**-fn.exponent(c), which minfun reads; a replacing fn carries
    its own or none.
    """

    name: str
    fn: Callable[[tuple[int, int]], Fraction]
    superharmonic: Optional[bool] = None
    max_at_p: Optional[bool] = None
    find_below: Optional[Callable[[Fraction], Dyadic]] = None

    def __call__(self, v: Dyadic):
        return self.fn(code(v))


def markov_apply_X(phi: VertexFn, c: tuple[int, int]):
    """One step of the walk operator at the address c: the quarter-sum of
    phi.fn over the a, b, A, B images of c under struct_act."""
    a, b, A, B = (phi.fn(struct_act(ch, c)) for ch in EDGE_LABELS)
    return (a + b + A + B) / 4


@dataclass
class SuperharmonicReport:
    center: Dyadic
    radius: int
    entries: list = field(default_factory=list)  # (vertex, phi, P phi, margin)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def margin_at(self, v: Dyadic):
        for u, _, _, m in self.entries:
            if u == v:
                return m
        raise KeyError(v)

    def to_json(self) -> dict:
        return {
            "center": str(self.center),
            "radius": self.radius,
            "interior_vertices": len(self.entries),
            "violations": [[str(v), str(m)] for v, m in self.violations],
            "ok": self.ok,
        }


def is_superharmonic_on(phi: VertexFn, region: Ball) -> SuperharmonicReport:
    """Margins phi - P phi on the interior of the region; negatives are violations.

    phi.fn is read on the ball's addresses, once per ball vertex, and the
    neighbours come from the ball's neighbor_index.  P phi is the quarter-sum
    markov_apply_X takes, in the values' own arithmetic; it, the margin
    and the violation flag are worked out once per distinct 5-tuple of
    value objects (the vertex's and its a, b, A, B images'), which the
    bundled families share between vertices.
    """
    rep = SuperharmonicReport(region.center, region.radius)
    vals = list(map(phi.fn, region.addresses))
    # vals keeps every value object alive, so its id is unique meanwhile
    ids = list(map(id, vals))
    entries, violations = rep.entries, rep.violations
    made = {}  # 5-tuple of ids -> (P phi, margin, violated)
    it = iter(region.neighbor_index)
    for v, val, i, ia, ib, iA, iB in zip(region.vertices, vals, ids, it, it, it, it):
        key = (i, ids[ia], ids[ib], ids[iA], ids[iB])
        got = made.get(key)
        if got is None:
            pval = (vals[ia] + vals[ib] + vals[iA] + vals[iB]) / 4
            margin = val - pval
            got = made[key] = (pval, margin, margin < 0)
        pval, margin, violated = got
        entries.append((v, val, pval, margin))
        if violated:
            violations.append((v, margin))
    return rep


def canonical_phi_u() -> VertexFn:
    """2**(2 - u) where u is the skeleton depth of the vertex's tree point.

    Constant on hairs, maximum 4 at the root, and its walk margin vanishes
    everywhere except the root where it equals 1.
    """

    def exponent(c: tuple[int, int]) -> int:
        return c[0].bit_length() - 3  # depth - 2

    def fn(c: tuple[int, int]) -> Fraction:
        return pow2(3 - c[0].bit_length())

    fn.exponent = exponent

    def find_below(threshold: Fraction) -> Dyadic:
        d = 0
        while pow2(2 - d) >= threshold:
            d += 1
        return vertex_at("L" * d)

    return VertexFn(
        name="phi_u",
        fn=fn,
        superharmonic=True,
        max_at_p=True,
        find_below=find_below,
    )


def phi_family(n: int) -> VertexFn:
    """Member n of the subtree-localized family.

    Value 2**-n off subtree n; inside it, 2**-d at skeleton depth d (hairs
    inherit their base's value).  Each member is superharmonic with maximum
    2**-n attained everywhere outside the subtree, in particular at the root.
    """
    if n < 0:
        raise ValueError("family index must be >= 0")
    off = pow2(-n)

    def fn(c: tuple[int, int]) -> Fraction:
        # the node's trailing ones are node_info's lead but on the root and
        # the all-ones nodes, which fail n < depth under either reading
        node = c[0]
        if (node ^ (node + 1)).bit_length() - 1 == n < node.bit_length() - 1:
            return pow2(1 - node.bit_length())
        return off

    def find_below(threshold: Fraction) -> Dyadic:
        k = 0
        while pow2(-(n + 1 + k)) >= threshold:
            k += 1
        return vertex_at("L" * n + "R" + "L" * k)

    return VertexFn(
        name=f"phi:{n}",
        fn=fn,
        superharmonic=True,
        max_at_p=True,
        find_below=find_below,
    )


@dataclass
class HairPropertyReport:
    base: Dyadic
    values: list
    failures: list  # (property name, offset m, detail)

    @property
    def ok(self) -> bool:
        return not self.failures


def hair_property_suite(phi: VertexFn, base: Dyadic, M: int) -> HairPropertyReport:
    """Check the three hair facts for offsets up to M, reading phi.fn.

    For a positive function that is superharmonic along the probed hair:
    increments are non-increasing, values never decrease outward, and the
    value m steps out is at most (3m+1) times the base value.  The
    superharmonicity precondition is checked exactly at the base and at the
    probed hair points themselves (a radius-M ball around a deep base is
    exponentially large and the facts only use margins along the hair).
    """
    node, end = code(hair_point(base, M + 1))
    step = 1 if end > 0 else -1
    pts = [(node, step * m) for m in range(M + 2)]
    values = list(map(phi.fn, pts))
    for c, val in zip(pts[: M + 1], values):
        if val <= 0:
            raise PreconditionFailed(f"phi({vertex(*c)}) = {val} is not positive")
        if val < markov_apply_X(phi, c):
            raise PreconditionFailed(f"phi is not superharmonic at {vertex(*c)}")
    rep = HairPropertyReport(base, values[: M + 1], [])
    for m in range(M):
        inc0 = values[m + 1] - values[m]
        inc1 = values[m + 2] - values[m + 1]
        if inc1 > inc0:
            rep.failures.append(("concave_increments", m, (inc0, inc1)))
            break
    for m in range(M):
        if values[m + 1] < values[m]:
            rep.failures.append(("non_decreasing", m, (values[m], values[m + 1])))
            break
    for m in range(M + 1):
        if values[m] > (3 * m + 1) * values[0]:
            rep.failures.append(("linear_bound", m, values[m]))
            break
    return rep


# the widest skeleton level a scan builds, here and in approx.find_vertex_below
SCAN_WIDTH_CAP = 1 << 16


def level_min(phi: VertexFn, n: int):
    """(min of phi over skeleton depths 0..n, a witness at depth n).

    For a superharmonic positive function with its maximum at the root the
    minimum is attained on the deepest level; if no depth-n vertex attains
    it the precondition was broken and we refuse.  phi.fn is read on
    addresses, and the witness is the first minimum in the order struct_act
    builds a level in, each vertex's a-image before its b-image.  Depth n
    holds 2**n vertices; CapExceeded when that is wider than SCAN_WIDTH_CAP.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= SCAN_WIDTH_CAP.bit_length():
        raise CapExceeded(f"skeleton level {n} is wider than the scan cap {SCAN_WIDTH_CAP}")
    level = [ROOT_CODE]
    best = phi.fn(ROOT_CODE)
    for depth in range(n + 1):
        vals = list(map(phi.fn, level))
        best = min(best, *vals)
        if depth < n:
            level = [struct_act(ch, c) for c in level for ch in "ab"]
    witness = next((vertex(*c) for c, val in zip(level, vals) if val == best), None)
    if witness is None:
        raise PreconditionFailed(
            f"minimum over depths 0..{n} not attained at depth {n}; "
            "phi is not a superharmonic max-at-root function"
        )
    return best, witness


def harmonic_witness_search(h, n: int, d: int, region: Ball, sup):
    """First vertex in the region with h above sup - 1/(n * d**n), else None."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    threshold = sup - Fraction(1, n * d**n)
    for v in region.vertices:
        if h(v) > threshold:
            return v
    return None
