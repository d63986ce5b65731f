"""Superharmonic functions on configurations built from vertex functions.

The basic construction takes the minimum of a vertex function over the
configuration (empty set valued at the root).  On top of that: positive
weighted sums, certified truncations of countable sums, walk images, and the
generalized form that feeds the sorted value vector into a symmetric concave
non-decreasing function after padding with 1.  Every SetFn built here reads
address configurations, and the vertex functions through VertexFn.fn, which
reads addresses too; min-functions over an fn with an exponent reader and
the phi_family closed form read in integers.
"""

from __future__ import annotations

import random
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .dyadic import Dyadic, ROOT
from .errors import PreconditionFailed, PropertySelfTestFailed, StructuralAssertFailed
from .graph import ROOT_CODE, ball, code
from .harmonic import VertexFn, canonical_phi_u, markov_apply_X, phi_family
from .lamplighter import SetFn, lamp_action, markov_iterate

__all__ = [
    "minfun",
    "T_operator",
    "non_superharmonic_transfer",
    "weighted_sum",
    "countable_sum",
    "phi_family_tail_bound",
    "markov_image",
    "SymmetricConcaveFn",
    "r_family_kmean",
    "generalized_minfun",
    "parse_rational",
    "resolve_phi",
    "resolve_setfn",
]


def _check_max_at_root(phi) -> bool:
    """Whether phi takes its root value as its maximum on the radius-3 ball."""
    top = phi.fn(ROOT_CODE)
    return all(phi.fn(c) <= top for c in ball(ROOT, 3).addresses)


def minfun(phi) -> SetFn:
    """Minimum of phi over the configuration; the empty set takes phi(root).
    When phi.fn carries an exponent reader k it is scaled: 2**-(largest k)."""
    if phi.max_at_p is not True and not _check_max_at_root(phi):
        warnings.warn(f"{phi.name}: maximum at the root not confirmed on a probe ball")
    root_val, k = phi.fn(ROOT_CODE), getattr(phi.fn, "exponent", None)

    def scaled(C: tuple) -> tuple[int, int]:
        e = max(map(k, C)) if C else k(ROOT_CODE)
        return (1, e) if e >= 0 else (1 << -e, 0)

    return SetFn(
        name=f"minfun:{phi.name}",
        fn=None if k else (lambda C: min(map(phi.fn, C)) if C else root_val),
        superharmonic=phi.superharmonic,
        scaled=scaled if k else None,
    )


def T_operator(F: SetFn, C: tuple, alpha: Fraction):
    """alpha times the 4-letter average plus (1 - alpha) times the switch
    image of F.fn at the address configuration C."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    move = lamp_action()
    t1 = (F.fn(move("a", C)) + F.fn(move("b", C)) + F.fn(move("A", C)) + F.fn(move("B", C))) / 4
    return alpha * t1 + (1 - alpha) * F.fn(move("s", C))


@dataclass
class TransferReport:
    q: Dyadic
    vertex_gap: Fraction  # P phi(q) - phi(q), positive by precondition
    set_margin: Fraction  # P F({q}) - F({q}) for the min-function F

    @property
    def ok(self) -> bool:
        return self.set_margin > 0


def non_superharmonic_transfer(phi, q: Dyadic) -> TransferReport:
    """Show the min-function inherits a walk violation from phi at q.

    Requires phi(q) < P phi(q) and phi bounded by its root value near q; the
    resulting margin on the singleton equals 4/5 of the vertex gap, which is
    recomputed and checked.
    """
    if q == ROOT:
        raise PreconditionFailed("the root cannot be a violation point here")
    c = code(q)
    gap = markov_apply_X(phi, c) - phi.fn(c)
    if gap <= 0:
        raise PreconditionFailed(f"phi is superharmonic at {q} (gap {gap})")
    if phi.fn(c) > phi.fn(ROOT_CODE):
        raise PreconditionFailed("phi must stay below its root value")

    F, C = minfun(phi), (c,)
    margin = markov_iterate(F, C, 1) - F.fn(C)
    if margin != Fraction(4, 5) * gap:
        raise StructuralAssertFailed(f"transfer margin {margin} is not 4/5 of the gap {gap}")
    return TransferReport(q=q, vertex_gap=gap, set_margin=margin)


def weighted_sum(Fs: Sequence[SetFn], lambdas: Sequence[Fraction]) -> SetFn:
    """Pointwise positive combination; preserves superharmonicity."""
    if len(Fs) != len(lambdas):
        raise ValueError("need one weight per function")
    if any(lam <= 0 for lam in lambdas):
        raise ValueError("weights must be positive")
    fns = [(lam, F.fn) for lam, F in zip(lambdas, Fs)]
    return SetFn(
        name="+".join(f"{lam}*{F.name}" for lam, F in zip(lambdas, Fs)),
        fn=lambda C: sum(lam * fn(C) for lam, fn in fns),
        superharmonic=all(F.superharmonic for F in Fs) or None,
    )


def phi_family_tail_bound(eps: Fraction) -> int:
    """Smallest N with the family's root values beyond N summing below eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    # 2^-N < p/q exactly when p << N > q; at the bit-length gap p << N has at
    # least q's bit length, so one more doubling passes q
    p, q = eps.numerator, eps.denominator
    N = max(0, q.bit_length() - p.bit_length())
    return N + (p << N <= q)


def countable_sum(eps: Fraction) -> SetFn:
    """Sum of minfun(phi_family(i)) over i = 0..N, N = phi_family_tail_bound(eps).

    The tail of root values beyond N sums below eps, and each term is
    bounded by its root value, so the truncation error is certified below
    eps.

    The sum is read in closed form, as a scaled reader in integers and
    O(|E| + N) time.  Member i is 2^-depth inside subtree i (where depth >=
    i + 1) and 2^-i everywhere else, root included, so a lamp whose node has
    node_info (lead, deeper, depth) can lower only term lead, and only when
    deeper (equivalently depth > lead) and lead <= N; lead and depth are read
    off each lamp's node by integer operations.  With e_i the larger of i and
    the deepest such depth, F(E) = sum over i = 0..N of 2^-e_i, one integer
    over 2^max(e_i); the empty set gives 2 - 2^-N.
    """
    return SetFn(
        name=f"sum:phi_family:eps={eps}",
        superharmonic=True,
        scaled=_phi_family_sum(phi_family_tail_bound(eps)),
    )


# the most node tuples one _phi_family_sum reader remembers; a full memo is
# cleared
_PHI_SUM_MEMO_CAP = 4096


def _phi_family_sum(N: int) -> Callable[[tuple], tuple[int, int]]:
    """Scaled reader of the sum of minfun(phi_family(i)) for i = 0..N on an
    address configuration, reading each lamp's node with integer operations.

    depth is the node's bit length less one and lead its number of trailing
    ones: node_info's lead, except on the root and the all-ones nodes, where
    it is one more.  Those lamps lie in no subtree, and depth > lead fails
    for them under either reading.

    The reader reads nodes only, never a hair offset, so its value is a
    function of the tuple of the lamps' nodes, and it is memoized under that
    exact key: configurations of one orbit that differ only in hair offsets,
    which the action moves without changing their nodes, are read once.  The
    memo holds at most _PHI_SUM_MEMO_CAP keys and is cleared when full."""
    memo: dict[tuple, tuple[int, int]] = {}

    def scaled(C: tuple) -> tuple[int, int]:
        key = tuple([node for node, _ in C])
        value = memo.get(key)
        if value is not None:
            return value
        deepest: dict[int, int] = {}
        for node in key:
            depth = node.bit_length() - 1
            lead = (node ^ (node + 1)).bit_length() - 1
            # depth > lead exactly when the path continues past its leading
            # L-turns, i.e. when the lamp lies in subtree lead
            if lead <= N and depth > deepest.get(lead, lead):
                deepest[lead] = depth
        top = max([N, *deepest.values()])
        # sum_{i=0..N} 2^-i over the common denominator 2^top, then each
        # lowered term i trades its 2^-i for 2^-e_i
        total = (2 << top) - (1 << (top - N))
        for i, e in deepest.items():
            total += (1 << (top - e)) - (1 << (top - i))
        if len(memo) >= _PHI_SUM_MEMO_CAP:
            memo.clear()
        value = memo[key] = total, top
        return value

    return scaled


def markov_image(F: SetFn, n: int) -> SetFn:
    """The n-step walk image of F as a SetFn (exact dynamic programming)."""
    return SetFn(
        name=f"P^{n}[{F.name}]",
        fn=lambda C: markov_iterate(F, C, n),
        superharmonic=F.superharmonic,
    )


# ---------------------------------------------------------------------------
# generalized min-functions


@dataclass(frozen=True)
class SymmetricConcaveFn:
    """Symmetric, concave, coordinatewise non-decreasing function on (0,1]^arity.

    Declared properties cannot be certified for arbitrary callables, so
    ensure_tested() probes them at 1000 seeded random exact-rational points
    and raises PropertySelfTestFailed on any counterexample.
    """

    name: str
    arity: int
    fn: Callable[[tuple], Fraction]

    def __call__(self, xs: tuple):
        if len(xs) != self.arity:
            raise ValueError(f"{self.name} expects {self.arity} coordinates")
        return self.fn(xs)

    def ensure_tested(self) -> None:
        if getattr(self, "_tested", False):
            return
        rng = random.Random(0)
        m = self.arity

        def rand_point():
            return tuple(Fraction(rng.randint(1, 64), 64) for _ in range(m))

        for _ in range(1000):
            u = rand_point()
            val = self.fn(u)
            if val < 0:
                raise PropertySelfTestFailed(f"{self.name}: negative value at {u}")
            perm = list(range(m))
            rng.shuffle(perm)
            if self.fn(tuple(u[i] for i in perm)) != val:
                raise PropertySelfTestFailed(f"{self.name}: not symmetric at {u}")
            v = rand_point()
            mid = tuple((ui + vi) / 2 for ui, vi in zip(u, v))
            if self.fn(mid) < (val + self.fn(v)) / 2:
                raise PropertySelfTestFailed(
                    f"{self.name}: concavity fails between {u} and {v}"
                )
            j = rng.randrange(m)
            bump = Fraction(rng.randint(1, 16), 64)
            w = list(u)
            w[j] = min(Fraction(1), w[j] + bump)
            if self.fn(tuple(w)) < val:
                raise PropertySelfTestFailed(
                    f"{self.name}: decreasing in coordinate {j} at {u}"
                )
        object.__setattr__(self, "_tested", True)


# resolving a kmean name probes its properties in time linear in m
_KMEAN_MAX_ARITY = 64


def r_family_kmean(k: int, m: int) -> SymmetricConcaveFn:
    """Mean of the k smallest of m coordinates, for m up to 64.

    Concave because it is the minimum over k-subsets of the subset means;
    k = 1 recovers the plain minimum and k = m the full mean.
    """
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    if m > _KMEAN_MAX_ARITY:
        raise ValueError(f"kmean arity m = {m} exceeds the bound {_KMEAN_MAX_ARITY}")

    def fn(xs: tuple) -> Fraction:
        return sum(sorted(xs)[:k]) / k

    return SymmetricConcaveFn(name=f"kmean:{k}:{m}", arity=m, fn=fn)


def generalized_minfun(r: SymmetricConcaveFn, phi) -> SetFn:
    """Feed the sorted, root-normalized values of phi on E into r.

    Values are sorted ascending, truncated to the arity's worth of smallest
    entries, and padded with 1 (the normalized root value); the empty set
    maps to r(1, ..., 1).
    """
    r.ensure_tested()
    factor = phi.fn(ROOT_CODE)
    if factor <= 0:
        raise PreconditionFailed("phi must be positive at the root")
    m = r.arity
    one = Fraction(1)

    def fn(C: tuple):
        vals = sorted(phi.fn(c) / factor for c in C)[:m]
        vals.extend([one] * (m - len(vals)))
        return r(tuple(vals))

    return SetFn(
        name=f"gmin:{r.name}:{phi.name}",
        fn=fn,
        superharmonic=phi.superharmonic,
    )


# ---------------------------------------------------------------------------
# registry


# Fraction builds 10**|exponent| in full: 1e-10000000 takes about 13 s
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]*)\s*\Z")


def parse_rational(s: str) -> Fraction:
    """3/4 or 1e-6 as a Fraction; inf and nan raise as Fraction(float(s)) does,
    and so does a decimal exponent past 10**6 in magnitude, before Fraction
    sees it."""
    exp = _EXPONENT.search(s)
    digits = exp[1].replace("_", "").lstrip("0") if exp else ""
    # the length test first: int() refuses strings of over 4300 digits
    if len(digits) > 7 or int(digits or 0) > 10**6:
        raise ValueError(f"decimal exponent of {s.strip()} exceeds 10^6 in magnitude")
    try:
        return Fraction(s)
    except ValueError:
        return Fraction(float(s))


# the name grammar; integers in canonical decimal, so names match exactly
_PHI_NAME = re.compile(r"phi_u|phi:(0|[1-9][0-9]*)")
_SETFN_NAME = re.compile(
    r"minfun:(.*)|gmin:kmean:([1-9][0-9]*):([1-9][0-9]*):(.*)|sum:phi_family:eps=(.*)"
)


# phi:<i> takes values down to 2**-i; far past this index its exact values
# outgrow what str can print and pow2 can hold
_PHI_MAX_INDEX = 1024


def resolve_phi(name: str) -> VertexFn:
    """The vertex function named exactly phi_u or phi:<i>, i at most 1024."""
    match = _PHI_NAME.fullmatch(name)
    if match is None:
        raise KeyError(f"unknown vertex function {name!r}")
    if match[1] is None:
        return canonical_phi_u()
    # the length test first: int() refuses strings of over 4300 digits
    if len(match[1]) > len(str(_PHI_MAX_INDEX)) or int(match[1]) > _PHI_MAX_INDEX:
        raise ValueError(f"phi index {match[1]} exceeds the bound {_PHI_MAX_INDEX}")
    return phi_family(int(match[1]))


def resolve_setfn(name: str) -> SetFn:
    """Look up a SetFn by its registry name: minfun:<phi>,
    gmin:kmean:<k>:<m>:<phi> or sum:phi_family:eps=<rational or decimal>,
    <phi> a resolve_phi name and eps above 2^-1024, so that the sum reads no
    member past phi:1024.  Names match exactly, so F.name is the name
    given, but for eps, which is read as a number and named in lowest terms.
    """
    match = _SETFN_NAME.fullmatch(name)
    if match is None:
        raise KeyError(f"unknown set function {name!r}")
    phi, k, m, r_phi, eps = match.groups()
    if phi is not None:
        return minfun(resolve_phi(phi))
    if r_phi is not None:
        return generalized_minfun(r_family_kmean(int(k), int(m)), resolve_phi(r_phi))
    eps = parse_rational(eps)
    if phi_family_tail_bound(eps) > _PHI_MAX_INDEX:
        raise ValueError(f"eps <= 2^-{_PHI_MAX_INDEX} needs phi indices above {_PHI_MAX_INDEX}")
    return countable_sum(eps)
