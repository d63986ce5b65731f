"""Plain references shared by the test modules.

transition_series pushes the full distribution of a uniform walk from one
state and reads one target's mass at every step: a one-sided walk, slow but
plain, against which the package's series and proxies are checked.
dyadic_by_fraction and classify_by_turns are the slow, obvious forms of
Dyadic's normalisation and of graph.classify.

The rest move Dyadic vertices by graph.act_letter, the definition of the
action, where the package moves graph.code addresses by graph.struct_act:
the lamp action on configurations of vertices (dyadic_move, apply_word),
the subtree digest read off classify (struct_info, subtree_T), the walk
operator at a vertex (neighbor_mean), the level scans of harmonic.level_min
and approx.find_vertex_below (with scan_fns, the functions they are checked
on), the explicit hair family and the golden witness.

phi_family_oracle writes the countable phi_family sum out term by term.
orbit_reference is the breadth-first orbit that tries all five letters at
every configuration.  mirror is the graph's mirror on addresses, which fixes
the root and swaps the sides; mirror_letters swaps a with b and A with B in a
word, its letters under the mirror.
reduce_fword, invert_fword and z_neighbors are plain word and free-group
helpers that only the tests read.
"""

from fractions import Fraction
from typing import Optional

from extamen.dyadic import ROOT
from extamen.freegroup import Z_LETTERS, z_apply
from extamen.graph import (
    EDGE_LABELS,
    ROOT_CODE,
    Hair,
    Skeleton,
    _digits,
    act_letter,
    act_word,
    classify,
    evolve,
    golden_path,
)
from extamen.harmonic import VertexFn, canonical_phi_u, phi_family, pow2
from extamen.errors import CapExceeded
from extamen.lamplighter import LAMP_LETTERS, config, lamp_action
from extamen.minfn import countable_sum


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


def dyadic_move():
    """The lamp action on configurations of Dyadic vertices."""
    return lamp_action(act_letter, ROOT)


def apply_word(E: tuple, word: str) -> tuple:
    """E moved by a word over aAbBs, rightmost letter first."""
    return act_word(word, E, dyadic_move())


def struct_info(v) -> tuple[int, bool, int]:
    """(leading L-turns, whether the path continues past them, base depth)
    of the skeleton path classify(v) gives v or its hair's base."""
    addr = classify(v)
    path = addr.path if isinstance(addr, Skeleton) else addr.base
    lead = len(path) - len("".join(path).lstrip("L"))
    return lead, len(path) > lead, len(path)


def subtree_T(i: int, v) -> bool:
    """Is v (skeleton or hair) inside the subtree hanging right of spine depth i?"""
    lead, deeper, _ = struct_info(v)
    return lead == i and deeper


def neighbor_mean(phi, v):
    """The quarter-sum of phi over the a, b, A, B images of the vertex v."""
    a, b, A, B = (phi(act_letter(ch, v)) for ch in EDGE_LABELS)
    return (a + b + A + B) / 4


def scan_fns() -> list:
    """phi_u, phi:0..3 and a plain function of the address: 2^-(depth+1)
    times 1, 5/4 or 3/2 by the node mod 3, so each level lies below the last
    and its first minimum depends on the order of the scan."""
    mixed = VertexFn("mixed", lambda c: Fraction(4 + c[0] % 3, 4 << c[0].bit_length()))
    return [canonical_phi_u(), *map(phi_family, range(4)), mixed]


def _levels():
    """Skeleton levels of Dyadic vertices from the root, each vertex's
    a-image before its b-image."""
    level = [ROOT]
    while True:
        yield level
        level = [act_letter(ch, v) for v in level for ch in ("a", "b")]


def level_min(phi, n: int):
    """(min of phi over skeleton depths 0..n, the first depth-n vertex that
    attains it, or None)."""
    for depth, level in zip(range(n + 1), _levels()):
        vals = [phi(v) for v in level]
        best = min(vals) if depth == 0 else min(best, *vals)
    return best, next((v for v, val in zip(level, vals) if val == best), None)


def scan_below(phi, threshold, max_depth: int):
    """The first minimum of phi on the first skeleton level below the root
    where phi goes below threshold, or None within max_depth."""
    for depth, level in zip(range(max_depth + 1), _levels()):
        best = min(level, key=phi)
        if depth and phi(best) < threshold:
            return best
    return None


def explicit_hairs(n: int) -> tuple:
    """The configuration A^n b^n a^j . root for j = 0..n-1."""
    return config(act_word("A" * n + "b" * n + "a" * j, ROOT, act_letter) for j in range(n))


def golden_witness(E: tuple, n: int) -> tuple:
    """(word, index, case, deviation) of the golden witness, found on the
    vertices of E and the golden path."""
    F = countable_sum(pow2(-n))
    i = next(idx for idx in range(n - 1) if not any(subtree_T(idx, x) for x in E))
    lamp_depths = [k for k, v in enumerate(golden_path(i)[:-1]) if v in E]
    if lamp_depths:
        word, case = "b" + "a" * (i - max(lamp_depths)), "spine-lamp"
    else:
        word, case = "b" + "a" * i + "s", "vacant-path"
    base = F(E)
    return word, i, case, (base - F(apply_word(E, word))) / base


def phi_family_oracle(N: int, C: tuple):
    """The countable sum of phi_family(0..N) at the address configuration C,
    written out term by term in Fractions: each term the minimum of a
    member's fn, its root value on the empty set."""
    members = map(phi_family, range(N + 1))
    return sum(min(map(phi.fn, C)) if C else phi.fn(ROOT_CODE) for phi in members)


def orbit_reference(E: tuple, n: int, cap: int = 10**6, move=None) -> dict:
    """lamplighter.orbit_enumerate trying every letter at every configuration,
    the inverse of the letter that reached it included."""
    move = move or lamp_action()
    seen = {E: ""}
    frontier = [E]
    for _ in range(n):
        nxt = []
        for C in frontier:
            for ch in LAMP_LETTERS:
                img = move(ch, C)
                if img not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"orbit exceeds cap {cap}")
                    seen[img] = ch + seen[C]
                    nxt.append(img)
        frontier = nxt
    return seen


def mirror(c: tuple) -> tuple:
    """The mirror of the graph.code address c = (node, m): every bit of the
    node below its top flipped, so that each a-turn becomes a b-turn, and the
    hair offset negated."""
    node, m = c
    return node ^ ((1 << (node.bit_length() - 1)) - 1), -m


# a <-> b and A <-> B, s fixed: as letter indices into LAMP_LETTERS (aAbBs)
# and as letters; bytes.translate and str.translate both read the table
_MIRROR = bytes.maketrans(bytes([0, 1, 2, 3]) + b"aAbB", bytes([2, 3, 0, 1]) + b"bBaA")


def mirror_letters(word):
    """A word, of letter indices (bytes) or of letters (str), with each side's
    letters given to the other."""
    return word.translate(_MIRROR)


_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


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


def z_neighbors(v) -> dict:
    """The four images of a free-group vertex, by letter."""
    return {g: z_apply(v, g) for g in Z_LETTERS}
