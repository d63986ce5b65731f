"""Dynamics on finite vertex subsets: the 5-letter alphabet and its walk.

A configuration is a finite set of vertices.  The four generator letters act
pointwise; the switch letter 's' toggles membership of the root.  Words act
right to left, matching the convention for the underlying vertex action.
The walk operator averages uniformly over the five letters.  The action on
configurations takes the vertex action as arguments, so the free-group graph
of ``freegroup`` uses it too; given graph.struct_act, orbits run on
configurations of addresses, sorted tuples of graph.code pairs (to_codes).
Set functions read addresses only: SetFn.fn takes the to_codes form, and
the exact walk average markov_iterate runs on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, Optional

from .dyadic import Dyadic, ROOT, parse_dyadic
from .errors import CapExceeded
from .graph import ROOT_CODE, act_letter, code, evolve, struct_act

__all__ = [
    "Config",
    "config",
    "EMPTY",
    "parse_config",
    "to_codes",
    "SetFn",
    "LAMP_LETTERS",
    "act_on_config",
    "apply_letter",
    "apply_word",
    "markov_apply_set",
    "markov_iterate",
    "orbit_enumerate",
    "switch_invariant_check",
]

LAMP_LETTERS = ("a", "A", "b", "B", "s")

Config = tuple[Dyadic, ...]  # canonically sorted, no duplicates


def config(elements: Iterable, key=None) -> Config:
    """Sorted tuple (by key) of the distinct elements."""
    return tuple(sorted(set(elements), key=key))


EMPTY: Config = ()


def serialize_config(E: Config) -> str:
    return ",".join(str(x) for x in E)


def parse_config(s: str) -> Config:
    """Comma-separated dyadics as a configuration; 0 and 1 are not vertices."""
    s = s.strip()
    if not s:
        return EMPTY
    E = config(parse_dyadic(part) for part in s.split(","))
    for x in E:
        if x.exp == 0:
            raise ValueError(f"{x} is not a vertex")
    return E


def to_codes(E: Config) -> tuple:
    """The configuration as a sorted tuple of graph.code addresses."""
    return config(map(code, E))


@dataclass(frozen=True)
class SetFn:
    """Evaluatable nonnegative function on configurations, with claimed traits.

    fn reads a configuration's addresses, the sorted tuple to_codes gives;
    calling the SetFn on a configuration of vertices evaluates fn there.
    """

    name: str
    fn: Callable[[tuple], Fraction]
    switch_invariant: Optional[bool] = None
    superharmonic: Optional[bool] = None
    meta: tuple = ()

    def __call__(self, E: Config):
        return self.fn(to_codes(E))


def act_on_config(E: tuple, word: str, act, root, key=None) -> tuple:
    """Image of the configuration E under a word, rightmost letter first.

    's' toggles the lamp at root; any other letter moves every lamp by
    act(letter, vertex).  Images stay sorted by key.
    """
    for ch in reversed(word):
        if ch == "s":
            E = tuple(x for x in E if x != root) if root in E else config(E + (root,), key)
        else:
            # the action is injective, so the image needs sorting but no dedup
            E = tuple(sorted((act(ch, x) for x in E), key=key))
    return E


def apply_letter(E: Config, ch: str) -> Config:
    return act_on_config(E, ch, act_letter, ROOT)


def apply_word(E: Config, word: str) -> Config:
    """Apply a word over aAbBs, rightmost letter first, one apply_letter per letter."""
    return reduce(apply_letter, reversed(word), E)


def markov_apply_set(F, E: Config):
    """Uniform 5-letter average of F over the one-step images of E."""
    return sum(F(apply_letter(E, ch)) for ch in LAMP_LETTERS) / 5


def markov_iterate(F: SetFn, C: tuple, n: int, cap: int = 8):
    """Exact n-step walk average of F started at the address configuration C
    (to_codes of a configuration of vertices).

    Dynamic programming over distinct reachable address configurations; each
    one carries its integer count of the 5**n words reaching it, and the
    counts always sum to 5**n, which is asserted.  Equal by construction to
    the naive 5**n enumeration.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > cap:
        raise CapExceeded(f"markov_iterate n={n} exceeds cap {cap}")
    counts = {C: 1}
    for _ in range(n):
        counts = evolve(
            counts, LAMP_LETTERS, lambda ch, D: act_on_config(D, ch, struct_act, ROOT_CODE)
        )
    assert sum(counts.values()) == 5**n, "path counts must sum to 5**n"
    return sum(Fraction(c, 5**n) * F.fn(D) for D, c in counts.items())


def orbit_enumerate(E: tuple, n: int, cap: int = 10**6, act=None, root=None) -> dict:
    """Configurations reachable by words of length <= n, each with one witness word.

    Breadth-first with deduplication; the witness is the first word found,
    so witnesses are shortest and deterministic given the letter order.
    act and root are as in act_on_config, by default the Dyadic action.
    Every configuration is built from the same few lamps, so each moving
    letter keeps a table, for this call only, from a lamp to its image:
    act runs once per (letter, lamp), and images are sorted table lookups.
    's' goes through act_on_config.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if act is None:
        act, root = act_letter, ROOT
    moves = [(ch, None if ch == "s" else {}) for ch in LAMP_LETTERS]
    seen = {E: ""}
    frontier = [E]
    for _ in range(n):
        nxt = []
        for C in frontier:
            w = seen[C]
            for ch, table in moves:
                if table is None:
                    img = act_on_config(C, ch, act, root)
                else:
                    # the action is injective, so the image needs sorting but no dedup
                    moved = []
                    for x in C:
                        y = table.get(x)
                        if y is None:
                            y = table[x] = act(ch, x)
                        moved.append(y)
                    img = tuple(sorted(moved))
                if img not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"orbit of {len(E)} lamps exceeds cap {cap}")
                    # the new word acts after w, so it goes on the left
                    seen[img] = ch + w
                    nxt.append(img)
        frontier = nxt
    return seen


def switch_invariant_check(F, samples: Iterable[Config]):
    """Per-sample check of F(E) == F(E with the root toggled)."""
    results = []
    for E in samples:
        results.append((E, F(E) == F(apply_letter(E, "s"))))
    ok = all(flag for _, flag in results)
    return ok, results
