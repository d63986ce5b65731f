"""Exact reference walks shared by the test modules.

transition_series pushes the full distribution of a uniform walk from one
state and reads one target's mass at every step: a one-sided walk, slow but
plain, against which the package's series and proxies are checked.
"""

from fractions import Fraction
from typing import Optional

from extamen.graph import evolve


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
