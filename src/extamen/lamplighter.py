"""Dynamics on finite vertex subsets: the 5-letter alphabet and its walk.

A configuration is a finite set of vertices.  The four generator letters act
pointwise; the switch letter 's' toggles membership of the root.  Words act
right to left, matching the convention for the underlying vertex action.
lamp_action, the one move of a configuration by a letter, takes the vertex
action as an argument, so the free-group graph of ``freegroup`` uses it too;
by default graph.struct_act, so that orbits run on configurations of
addresses, sorted tuples of graph.code pairs (to_codes).  Set functions read
addresses only: SetFn.fn and SetFn.scaled take the to_codes form, and
markov_iterate, the one exact average of the uniform five-letter walk, runs
on it by graph.evolve.  Only apply_letter moves Dyadic vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Optional

from .dyadic import Dyadic, ROOT, parse_dyadic
from .errors import CapExceeded, StructuralAssertFailed
from .graph import ROOT_CODE, act_letter, code, evolve, struct_act

__all__ = [
    "Config",
    "config",
    "EMPTY",
    "parse_config",
    "to_codes",
    "SetFn",
    "LAMP_LETTERS",
    "lamp_action",
    "apply_letter",
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
    scaled, an optional exact reader of a dyadic function, gives the value
    num / 2**e as integers (num, e), e >= 0.  fn is derived from scaled when
    not given; given both, the verifiers read scaled.
    """

    name: str
    fn: Optional[Callable[[tuple], Fraction]] = None
    superharmonic: Optional[bool] = None
    scaled: Optional[Callable[[tuple], tuple[int, int]]] = None

    def __post_init__(self):
        if self.fn is None:
            if self.scaled is None:
                raise TypeError(f"SetFn {self.name!r} needs fn or scaled")
            object.__setattr__(self, "fn", partial(_from_scaled, self.scaled))

    def __call__(self, E: Config):
        return self.fn(to_codes(E))


def _from_scaled(scaled, C: tuple) -> Fraction:
    num, e = scaled(C)
    return Fraction(num, 1 << e)


class _Images(dict):
    """One moving letter's table from a lamp to its image; act fills a missing lamp."""

    def __init__(self, act, ch: str, pairs):
        super().__init__(pairs)
        self.act, self.ch = act, ch

    def __missing__(self, x):
        y = self[x] = self.act(self.ch, x)
        return y


def lamp_action(act=struct_act, root=ROOT_CODE, key=None) -> Callable[[str, tuple], tuple]:
    """move(letter, C): the configuration C moved by one letter, sorted by key.

    's' toggles the lamp at root; aAbB move every lamp by act(letter, lamp)
    through a table that the letter's first use fills in one pass, with no
    lookups, and that lives as long as move; any other letter raises
    ValueError.  move has the (letter, state) shape of a vertex action, so
    graph.evolve and graph.act_word take it.
    """
    images = {}
    order = sorted if key is None else partial(sorted, key=key)

    def move(ch: str, C: tuple) -> tuple:
        table = images.get(ch)
        if table is not None:
            # the action is injective, so the image needs sorting but no dedup
            return tuple(order(map(table, C)))
        if ch == "s":
            return tuple([x for x in C if x != root]) if root in C else tuple(order(C + (root,)))
        if ch not in ("a", "A", "b", "B"):
            raise ValueError(f"unknown letter {ch!r}")
        moved = [act(ch, x) for x in C]
        images[ch] = _Images(act, ch, zip(C, moved)).__getitem__
        return tuple(order(moved))

    return move


def apply_letter(E: Config, ch: str) -> Config:
    return lamp_action(act_letter, ROOT)(ch, E)


# the most walk steps markov_iterate averages over
MARKOV_CAP = 8


def markov_iterate(F: SetFn, C: tuple, n: int):
    """Exact n-step walk average of F started at the address configuration C
    (to_codes of a configuration of vertices), n at most MARKOV_CAP.

    Dynamic programming over distinct reachable address configurations; each
    one carries its integer count of the 5**n words reaching it, and the
    counts always sum to 5**n, which is checked.  Equal by construction to
    the naive 5**n enumeration.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MARKOV_CAP:
        raise CapExceeded(f"markov_iterate n={n} exceeds cap {MARKOV_CAP}")
    counts = {C: 1}
    move = lamp_action()
    for _ in range(n):
        counts = evolve(counts, LAMP_LETTERS, move)
    if sum(counts.values()) != 5**n:
        raise StructuralAssertFailed(f"path counts sum to {sum(counts.values())}, not 5**{n}")
    return sum(Fraction(c, 5**n) * F.fn(D) for D, c in counts.items())


def orbit_enumerate(E: tuple, n: int, cap: int = 10**6, move=None) -> dict:
    """Configurations reachable by words of length <= n, each with one witness word.

    Breadth-first with deduplication; the witness is the first word found,
    so witnesses are shortest and deterministic given the letter order.
    move is a lamp_action, by default lamp_action() on addresses.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    move = move or lamp_action()
    seen = {E: ""}
    frontier = [E]
    for _ in range(n):
        nxt = []
        for C in frontier:
            w = seen[C]
            for ch in LAMP_LETTERS:
                img = move(ch, C)
                if img not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"orbit of {len(E)} lamps exceeds cap {cap}")
                    # the new word acts after w, so it goes on the left
                    seen[img] = ch + w
                    nxt.append(img)
        frontier = nxt
    return seen


def switch_invariant_check(F, samples: Iterable[tuple]):
    """Per-sample check of F(C) == F(C with the root toggled) on address
    configurations C, F any callable on them (SetFn.fn for a SetFn)."""
    move = lamp_action()
    results = [(C, F(C) == F(move("s", C))) for C in samples]
    return all(flag for _, flag in results), results
