"""A labeled graph with Folner sets but no approximately invariant lamps.

The graph is the right Cayley tree of the rank-2 free group with the branch
through the first letter 'a' cut off and replaced by a one-way tail that
loops on b and B.  Tail segments have vanishing boundary ratio, yet for the
min-function of the geometric vertex weight every lamp configuration admits
a refuting word of at most two letters: the mass always drops by a factor of
exactly three.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction
from typing import Iterable

from .errors import PreconditionFailed
from .graph import act_word, bfs, leaving_share
from .lamplighter import config, lamp_action

__all__ = [
    "ZVertex",
    "Z_E",
    "Z_LETTERS",
    "z_apply",
    "z_neighbors",
    "z_apply_word_set",
    "phi_Z",
    "minfun_Z",
    "witness_word",
    "tail_segment",
    "z_boundary_ratio",
    "z_ball",
    "ZBall",
    "random_z_configs",
]

Z_LETTERS = ("a", "A", "b", "B")
_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}


class ZVertex:
    """Either a reduced word not starting with 'a', or a tail point k >= 1.

    A slotted value type, immutable by contract: nothing assigns a field
    after __init__.  Equal only to a ZVertex, and hashed as the (kind,
    word, k) tuple.
    """

    __slots__ = ("kind", "word", "k")

    def __init__(self, kind: str, word: str = "", k: int = 0):
        if kind == "word":
            if word.startswith("a"):
                raise ValueError("words starting with 'a' live on the tail")
            for i in range(len(word) - 1):
                if _INV[word[i]] == word[i + 1]:
                    raise ValueError(f"word {word!r} is not reduced")
        elif kind == "tail":
            if k < 1:
                raise ValueError("tail index starts at 1")
        else:
            raise ValueError(f"unknown vertex kind {kind!r}")
        self.kind = kind
        self.word = word
        self.k = k

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.word == other.word and self.k == other.k

    def __hash__(self) -> int:
        return hash((self.kind, self.word, self.k))

    def __repr__(self) -> str:
        return f"ZVertex(kind={self.kind!r}, word={self.word!r}, k={self.k!r})"

    def __str__(self) -> str:
        if self.kind == "tail":
            return f"tail({self.k})"
        return self.word or "e"

    def sort_key(self) -> tuple:
        """Configurations of the graph are sorted by this key."""
        return (self.kind, self.k, self.word)


Z_E = ZVertex("word", "")


def z_apply(v: ZVertex, g: str) -> ZVertex:
    """Right multiplication by one letter."""
    if g not in Z_LETTERS:
        raise ValueError(f"unknown letter {g!r}")
    if v.kind == "tail":
        if g == "a":
            return ZVertex("tail", k=v.k + 1)
        if g == "A":
            return Z_E if v.k == 1 else ZVertex("tail", k=v.k - 1)
        return v
    w = v.word
    if not w and g == "a":
        return ZVertex("tail", k=1)
    if w and w[-1] == _INV[g]:
        return ZVertex("word", w[:-1])
    return ZVertex("word", w + g)


def z_neighbors(v: ZVertex) -> dict[str, ZVertex]:
    return {g: z_apply(v, g) for g in Z_LETTERS}


def _act(ch: str, v: ZVertex) -> ZVertex:
    # z_apply in the (letter, vertex) order of the shared labeled-action helpers
    return z_apply(v, ch)


def z_apply_word_set(E: tuple[ZVertex, ...], word: str) -> tuple[ZVertex, ...]:
    """A word over aAbBs on a configuration, rightmost letter first; 's' toggles the lamp at e."""
    return act_word(word, E, lamp_action(_act, Z_E, ZVertex.sort_key))


def phi_Z(v: ZVertex) -> Fraction:
    """1 on the tail, 3^-|w| on words; superharmonic with a margin only at e."""
    if v.kind == "tail":
        return Fraction(1)
    return Fraction(1, 3 ** len(v.word))


def minfun_Z(E: tuple[ZVertex, ...]) -> Fraction:
    if not E:
        return Fraction(1)
    return min(phi_Z(v) for v in E)


def witness_word(E: tuple[ZVertex, ...]) -> tuple[str, Fraction]:
    """A word of at most two letters dropping the minimum by a factor of 3.

    With only tail lamps (or none), switch a lamp on at e and push it to a
    length-one word.  Otherwise extend a deepest word lamp by any letter
    that does not cancel; every other lamp's value shrinks by at most the
    same factor, so the ratio is exactly one third.
    """
    words = [v for v in E if v.kind == "word"]
    if not words:
        word = "bs"
    else:
        x = max(words, key=lambda v: len(v.word))
        if not x.word:
            word = "b"
        else:
            word = next(g for g in "bBaA" if g != _INV[x.word[-1]])
    base = minfun_Z(E)
    after = minfun_Z(z_apply_word_set(E, word))
    ratio = after / base
    assert ratio == Fraction(1, 3), f"witness {word!r} gave ratio {ratio}"
    return word, ratio


def tail_segment(L: int, start: int = 1) -> tuple[ZVertex, ...]:
    if L < 1 or start < 1:
        raise PreconditionFailed("segment needs L >= 1 and start >= 1")
    return tuple(ZVertex("tail", k=k) for k in range(start, start + L))


def z_boundary_ratio(segment: Iterable[ZVertex]) -> Fraction:
    """Leaving edge-ends over all edge-ends of the segment."""
    seg = set(segment)
    if not seg:
        raise PreconditionFailed("segment must be nonempty")
    return leaving_share(seg, Z_LETTERS, _act)


def z_ball(radius: int) -> list[ZVertex]:
    """Vertices within the given distance of e, in breadth-first order."""
    return bfs(Z_E, radius, Z_LETTERS, _act)[0]


class ZBall(Sequence):
    """z_ball(radius) as a sequence that builds each vertex from its index.

    Level r >= 1 of the breadth-first order is tail(r), then the 3^r reduced
    words of length r not starting with 'a', in lexicographic order over
    a < A < b < B.  So the vertex at an index is read off its base-3 digits,
    and a sample of a few vertices needs no walk over the whole ball.
    """

    def __init__(self, radius: int):
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.radius = radius

    def __len__(self) -> int:
        # 1 for e, then 1 + 3^r for each level r = 1..radius
        return 1 + self.radius + (3 ** (self.radius + 1) - 3) // 2

    def __getitem__(self, i: int) -> ZVertex:
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("ZBall index out of range")
        if i == 0:
            return Z_E
        r, p = 1, i - 1  # p: offset into level r, which holds tail(r) and 3^r words
        while p > 3**r:
            p -= 3**r + 1
            r += 1
        if p == 0:
            return ZVertex("tail", k=r)
        word = ""
        for place in range(r - 1, -1, -1):
            barred = _INV[word[-1]] if word else "a"
            word += [g for g in Z_LETTERS if g != barred][(p - 1) // 3**place % 3]
        return ZVertex("word", word)


def random_z_configs(
    count: int, radius: int = 10, max_size: int = 6, seed: int = 0
) -> list[tuple[ZVertex, ...]]:
    """Seeded sample of small configurations inside a ball around e.

    Samples ZBall(radius), which draws exactly what sampling z_ball(radius) does.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    verts = ZBall(radius)
    if not 0 <= max_size <= len(verts):
        raise ValueError(f"max_size {max_size} is not in 0..{len(verts)}, the ball's size")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.randint(0, max_size)
        out.append(config(rng.sample(verts, size), key=ZVertex.sort_key))
    return out
