"""Plain references shared by the test modules.

transition_series pushes the full distribution of a uniform walk from one
state and reads one target's mass at every step: a one-sided walk, slow but
plain, against which the package's series and proxies are checked.
dyadic_by_fraction and classify_by_turns are the slow, obvious forms of
Dyadic's normalisation and of graph.classify.
"""

from fractions import Fraction
from typing import Optional

from extamen.graph import Hair, Skeleton, _digits, evolve


def transition_series(
    start, target, n: int, letters, act, cap: Optional[int] = None
) -> list[Fraction]:
    """[P^t(start, target) for t = 0..n] for the uniform walk, exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    k = len(letters)
    counts = {start: 1}
    series = [Fraction(counts.get(target, 0))]
    for t in range(1, n + 1):
        counts = evolve(counts, letters, act, cap)
        series.append(Fraction(counts.get(target, 0), k**t))
    assert sum(counts.values()) == k**n, "path counts must sum to k**n"
    return series


def dyadic_by_fraction(num: int, exp: int) -> tuple[int, int]:
    """(num, exp) of Dyadic(num, exp), read off the Fraction num / 2**exp:
    its numerator and the exponent of its denominator, or the ValueError
    Dyadic raises for a value outside [0, 1]."""
    q = Fraction(num, 1 << exp) if exp >= 0 else Fraction(num << -exp)
    k = q.denominator.bit_length() - 1
    if not 0 <= q <= 1:
        raise ValueError(f"dyadic {q.numerator}/2^{k} outside [0,1]")
    return q.numerator, k


def classify_by_turns(v):
    """graph.classify with the path built one turn per bit of the base code."""
    q, depth, m = _digits(v)
    path = tuple("L" if q >> i & 1 else "R" for i in range(depth))
    return Hair(path, abs(m)) if m else Skeleton(path)
