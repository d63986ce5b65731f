"""Exact dyadic rationals in [0,1] and piecewise-linear self-maps.

The maps form the group generated by two bundled homeomorphisms g0, g1 of
[0,1]: dyadic breakpoints, slopes that are powers of two, fixing 0 and 1.
The working generating pair is a = g1 (g0 inverse) and b = g1, with words
acting right to left (the rightmost letter is applied first).

All arithmetic is exact; nothing here touches floats.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "Dyadic",
    "ZERO",
    "ONE",
    "ROOT",
    "parse_dyadic",
    "PLMap",
    "g0_map",
    "g1_map",
    "gen_a",
    "gen_b",
    "LETTERS",
    "letter_map",
    "invert_letter",
    "reduce_fword",
    "invert_fword",
    "word_to_pl",
    "cocycle_eval",
    "cocycle_identity_check",
]


@dataclass(frozen=True, eq=True)
class Dyadic:
    """num / 2**exp, canonical: num odd unless exp == 0 (covers 0 and 1)."""

    num: int
    exp: int

    def __post_init__(self):
        num, exp = self.num, self.exp
        if exp < 0:
            num <<= -exp
            exp = 0
        while exp > 0 and num % 2 == 0:
            num //= 2
            exp -= 1
        if not 0 <= num <= (1 << exp):
            raise ValueError(f"dyadic {num}/2^{exp} outside [0,1]")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    @classmethod
    def from_fraction(cls, q: Fraction) -> "Dyadic":
        den = q.denominator
        exp = den.bit_length() - 1
        if den != (1 << exp):
            raise ValueError(f"{q} is not dyadic")
        return cls(q.numerator, exp)

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"

    # total order by value; cross-multiplication keeps it integer-only
    def __lt__(self, other: "Dyadic") -> bool:
        return self.num << other.exp < other.num << self.exp

    def __le__(self, other: "Dyadic") -> bool:
        return self.num << other.exp <= other.num << self.exp

    def __gt__(self, other: "Dyadic") -> bool:
        return other < self

    def __ge__(self, other: "Dyadic") -> bool:
        return other <= self


ZERO = Dyadic(0, 0)
ONE = Dyadic(1, 0)
ROOT = Dyadic(5, 3)  # the distinguished root vertex 5/8


def parse_dyadic(s: str) -> Dyadic:
    """Parse 'num/2^exp', a plain fraction 'k/m' with m a power of two, or '0'/'1'/'p'."""
    s = s.strip()
    if s == "p":
        return ROOT
    if "/2^" in s:
        num_s, exp_s = s.split("/2^")
        return Dyadic(int(num_s), int(exp_s))
    if "/" in s:
        return Dyadic.from_fraction(Fraction(s))
    return Dyadic.from_fraction(Fraction(int(s)))


@dataclass(frozen=True, eq=True)
class PLMap:
    """Increasing piecewise-linear bijection of [0,1].

    Piece i runs over [breakpoints[i], breakpoints[i+1]] with slope
    2**slopes[i]; offsets are implied by continuity from f(0) = 0.
    Canonical form has no two adjacent pieces with the same slope, which
    makes dataclass equality the right group-element equality.
    """

    breakpoints: tuple[Dyadic, ...]
    slopes: tuple[int, ...]
    # the values of the breakpoints and of their images, computed once per map
    _values: tuple[Fraction, ...] = field(init=False, repr=False, compare=False, default=())
    _images: tuple[Fraction, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        bps, slopes = self.breakpoints, self.slopes
        if len(bps) < 2 or bps[0] != ZERO or bps[-1] != ONE:
            raise ValueError("breakpoints must run from 0 to 1")
        if len(slopes) != len(bps) - 1:
            raise ValueError("need one slope per piece")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValueError("breakpoints must be strictly ascending")
        if any(slopes[i] == slopes[i + 1] for i in range(len(slopes) - 1)):
            raise ValueError("not canonical: adjacent pieces share a slope")
        values = tuple(b.value for b in bps)
        images = [Fraction(0)]
        for i, e in enumerate(slopes):
            step = (values[i + 1] - values[i]) * Fraction(2) ** e
            images.append(images[-1] + step)
        if images[-1] != 1:
            raise ValueError("map does not fix 1")
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_images", tuple(images))

    @classmethod
    def make(cls, breakpoints, slopes) -> "PLMap":
        """Build a PLMap, fusing adjacent pieces with equal slopes."""
        bps = list(breakpoints)
        sl = list(slopes)
        out_b = [bps[0]]
        out_s = []
        for i, e in enumerate(sl):
            if out_s and out_s[-1] == e:
                out_b[-1] = bps[i + 1]
            else:
                out_s.append(e)
                out_b.append(bps[i + 1])
        return cls(tuple(out_b), tuple(out_s))

    @classmethod
    def identity(cls) -> "PLMap":
        return cls((ZERO, ONE), (0,))

    def is_identity(self) -> bool:
        return self.slopes == (0,)

    def _piece_at(self, x: Fraction) -> int:
        """Index of the piece whose interior or left endpoint region contains x."""
        i = bisect_right(self._values, x) - 1
        return min(i, len(self.slopes) - 1)

    def apply_fraction(self, x: Fraction) -> Fraction:
        if not 0 <= x <= 1:
            raise ValueError(f"{x} outside [0,1]")
        i = self._piece_at(x)
        return self._images[i] + (x - self._values[i]) * Fraction(2) ** self.slopes[i]

    def apply(self, x: Dyadic) -> Dyadic:
        return Dyadic.from_fraction(self.apply_fraction(x.value))

    def slope_exp_at(self, x: Fraction) -> int:
        """Slope exponent on the piece containing x (right-continuous at breakpoints)."""
        return self.slopes[self._piece_at(x)]

    def compose(self, other: "PLMap") -> "PLMap":
        """self after other (apply ``other`` first)."""
        other_inv = other.invert()
        cut_vals = set(other._values)
        cut_vals.update(other_inv.apply_fraction(x) for x in self._values)
        cuts = sorted(cut_vals)
        slopes = []
        for lo, hi in zip(cuts, cuts[1:]):
            mid = (lo + hi) / 2
            slopes.append(other.slope_exp_at(mid) + self.slope_exp_at(other.apply_fraction(mid)))
        return PLMap.make(tuple(Dyadic.from_fraction(c) for c in cuts), tuple(slopes))

    def invert(self) -> "PLMap":
        bps = tuple(Dyadic.from_fraction(y) for y in self._images)
        return PLMap(bps, tuple(-e for e in self.slopes))


@lru_cache(maxsize=None)
def g0_map() -> PLMap:
    # x/2 on [0,1/2]; x - 1/4 on (1/2,3/4]; 2x - 1 on (3/4,1]
    return PLMap((ZERO, Dyadic(1, 1), Dyadic(3, 2), ONE), (-1, 0, 1))


@lru_cache(maxsize=None)
def g1_map() -> PLMap:
    # x on [0,1/2]; x/2 + 1/4 on (1/2,3/4]; x - 1/8 on (3/4,7/8]; 2x - 1 on (7/8,1]
    return PLMap((ZERO, Dyadic(1, 1), Dyadic(3, 2), Dyadic(7, 3), ONE), (0, -1, 0, 1))


@lru_cache(maxsize=None)
def gen_a() -> PLMap:
    return g1_map().compose(g0_map().invert())


@lru_cache(maxsize=None)
def gen_b() -> PLMap:
    return g1_map()


# word letters: 'a', 'b' the generators, 'A', 'B' their inverses
LETTERS = "aAbB"

_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


@lru_cache(maxsize=None)
def letter_map(ch: str) -> PLMap:
    if ch == "a":
        return gen_a()
    if ch == "A":
        return gen_a().invert()
    if ch == "b":
        return gen_b()
    if ch == "B":
        return gen_b().invert()
    raise ValueError(f"unknown letter {ch!r}")


def invert_letter(ch: str) -> str:
    return _INVERSE[ch]


def reduce_fword(w: str) -> str:
    """Freely reduce a word over aAbB."""
    out: list[str] = []
    for ch in w:
        if ch not in _INVERSE:
            raise ValueError(f"unknown letter {ch!r}")
        if out and out[-1] == _INVERSE[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def invert_fword(w: str) -> str:
    return "".join(_INVERSE[ch] for ch in reversed(w))


def word_to_pl(w: str) -> PLMap:
    """Composite map of a word, rightmost letter applied first."""
    acc = PLMap.identity()
    for ch in w:
        acc = acc.compose(letter_map(ch))
    return acc


def cocycle_eval(g: PLMap, x: Dyadic) -> int:
    """Exponent e with (right slope of g at x) / (left slope) = 2**e.

    Zero whenever x is not a breakpoint of g.  x must be interior to (0,1).
    """
    if not ZERO < x < ONE:
        raise ValueError("cocycle is defined on interior points only")
    for i in range(1, len(g.breakpoints) - 1):
        if g.breakpoints[i] == x:
            return g.slopes[i] - g.slopes[i - 1]
    return 0


def cocycle_identity_check(g: PLMap, h: PLMap, x: Dyadic) -> bool:
    """Does the slope-ratio cocycle satisfy c(gh, x) = c(g, h(x)) + c(h, x)?"""
    lhs = cocycle_eval(g.compose(h), x)
    rhs = cocycle_eval(g, h.apply(x)) + cocycle_eval(h, x)
    return lhs == rhs
