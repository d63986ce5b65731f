"""Exact dyadic rationals in [0,1] and piecewise-linear self-maps.

The maps form the group generated by two bundled homeomorphisms g0, g1 of
[0,1]: dyadic breakpoints, slopes that are powers of two, fixing 0 and 1.
The working generating pair is a = g1 (g0 inverse) and b = g1, with words
acting right to left (the rightmost letter is applied first).

All arithmetic is exact; nothing here touches floats.  A PLMap keeps its
pieces in integer coordinates over one power-of-two denominator, so
composing, inverting and applying it to a Dyadic are integer shifts and
sums; composition is one linear merge of the two maps' pieces.  Fraction
appears only at apply_fraction, which takes any rational in [0,1].
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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


class Dyadic:
    """num / 2**exp, canonical: num odd unless exp == 0 (covers 0 and 1).

    A slotted value type, immutable by contract: nothing assigns num or exp
    after __init__ (a __setattr__ guard would slow down every vertex).
    Equal only to a Dyadic, and hashed as the (num, exp) tuple.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int):
        if not (exp > 0 and num & 1 and 0 < num < 1 << exp):
            if exp < 0:
                num <<= -exp
                exp = 0
            # strip the trailing zeros of num in one shift, all of exp for 0
            tz = min((num & -num).bit_length() - 1, exp) if num else exp
            num >>= tz
            exp -= tz
            if not 0 <= num <= (1 << exp):
                raise ValueError(f"dyadic {num}/2^{exp} outside [0,1]")
        self.num = num
        self.exp = exp

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __hash__(self) -> int:
        return hash((self.num, self.exp))

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


class PLMap:
    """Increasing piecewise-linear bijection of [0,1].

    Piece i runs over [breakpoints[i], breakpoints[i+1]] with slope
    2**slopes[i]; offsets are implied by continuity from f(0) = 0.
    Canonical form has no two adjacent pieces with the same slope, so two
    maps are the same group element exactly when their breakpoints and
    slopes are equal, which is what ==, hash and repr read.

    The pieces are also kept in integer coordinates over one power-of-two
    denominator 2**_exp: breakpoint i is _x[i] / 2**_exp and its image
    _y[i] / 2**_exp.  They are derived from the compared fields, so they
    stay out of equality, hash and repr.  A slotted value type, immutable
    by contract: nothing assigns a field after __init__.
    """

    __slots__ = ("breakpoints", "slopes", "_exp", "_x", "_y")

    def __init__(self, breakpoints: tuple[Dyadic, ...], slopes: tuple[int, ...]):
        bps = breakpoints
        if len(bps) < 2 or bps[0] != ZERO or bps[-1] != ONE:
            raise ValueError("breakpoints must run from 0 to 1")
        if len(slopes) != len(bps) - 1:
            raise ValueError("need one slope per piece")
        # room below the finest breakpoint for the steepest shrinking slope,
        # so that every image is an integer too
        E = max(b.exp for b in bps) - min(0, *slopes)
        xs = tuple(b.num << (E - b.exp) for b in bps)
        if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
            raise ValueError("breakpoints must be strictly ascending")
        if any(slopes[i] == slopes[i + 1] for i in range(len(slopes) - 1)):
            raise ValueError("not canonical: adjacent pieces share a slope")
        ys = [0]
        for i, e in enumerate(slopes):
            step = xs[i + 1] - xs[i]
            ys.append(ys[-1] + (step << e if e >= 0 else step >> -e))
        if ys[-1] != 1 << E:
            raise ValueError("map does not fix 1")
        self.breakpoints = breakpoints
        self.slopes = slopes
        self._exp = E
        self._x = xs
        self._y = tuple(ys)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.slopes == other.slopes

    def __hash__(self) -> int:
        return hash((self.breakpoints, self.slopes))

    def __repr__(self) -> str:
        return f"PLMap(breakpoints={self.breakpoints!r}, slopes={self.slopes!r})"

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

    def _piece_at(self, t: int) -> int:
        """Index of the piece containing any point of [t, t + 1) / 2**_exp."""
        i = bisect_right(self._x, t) - 1
        return min(i, len(self.slopes) - 1)

    def apply_fraction(self, x: Fraction) -> Fraction:
        if not 0 <= x <= 1:
            raise ValueError(f"{x} outside [0,1]")
        E, p, r = self._exp, x.numerator, x.denominator
        i = self._piece_at((p << E) // r)
        e = self.slopes[i]
        # x * 2**E - _x[i], times r: the distance into the piece
        d = (p << E) - self._x[i] * r
        if e >= 0:
            return Fraction(self._y[i] * r + (d << e), r << E)
        return Fraction((self._y[i] * r << -e) + d, r << (E - e))

    def apply(self, x: Dyadic) -> Dyadic:
        E, n, k = self._exp, x.num, x.exp
        i = self._piece_at(n << (E - k) if k <= E else n >> (k - E))
        e = self.slopes[i]
        # a denominator fine enough for x and for halving by the slope
        G = max(E, k) - min(e, 0)
        d = (n << (G - k)) - (self._x[i] << (G - E))
        return Dyadic((self._y[i] << (G - E)) + (d << e if e >= 0 else d >> -e), G)

    def compose(self, other: "PLMap") -> "PLMap":
        """self after other (apply ``other`` first).

        One merge over the pieces of both maps.  The cuts are other's
        breakpoints and the other-preimages of self's breakpoints, met in
        increasing order of their images under other; each cut piece's
        slope is the sum of the two pieces' slopes.
        """
        E = max(self._exp, other._exp)
        # other's domain needs P more bits to divide by its steepest slope
        P = max(0, *other.slopes)
        gx = [x << (E - self._exp) for x in self._x]
        hy = [y << (E - other._exp) for y in other._y]
        hx = [x << (E + P - other._exp) for x in other._x]
        hs, gs = other.slopes, self.slopes
        cuts, slopes = [], []
        i = j = 0  # the current piece of other and of self
        while i < len(hs):
            a, b = hy[i + 1], gx[j + 1]
            if a <= b:
                cuts.append(hx[i + 1])
            else:
                cuts.append(hx[i] + ((b - hy[i]) << (P - hs[i])))
            slopes.append(hs[i] + gs[j])
            i += a <= b
            j += b <= a
        return PLMap.make([ZERO] + [Dyadic(c, E + P) for c in cuts], slopes)

    def invert(self) -> "PLMap":
        """The inverse map: its breakpoints are the images, its X and Y this map's Y and X."""
        E = self._exp
        return PLMap(tuple(Dyadic(y, E) for y in self._y), tuple(-e for e in self.slopes))


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
    E = g._exp
    if x.exp > E:  # finer than every breakpoint
        return 0
    t = x.num << (E - x.exp)
    i = bisect_left(g._x, t)
    return g.slopes[i] - g.slopes[i - 1] if g._x[i] == t else 0


def cocycle_identity_check(g: PLMap, h: PLMap, x: Dyadic) -> bool:
    """Does the slope-ratio cocycle satisfy c(gh, x) = c(g, h(x)) + c(h, x)?"""
    lhs = cocycle_eval(g.compose(h), x)
    rhs = cocycle_eval(g, h.apply(x)) + cocycle_eval(h, x)
    return lhs == rhs
