"""The orbit graph of the dyadic action: neighbors, balls, skeleton/hair structure.

Vertices are dyadics in (0,1).  The graph is 4-regular with labeled edges
a, A, b, B (A and B are the inverse generators).  Structurally it is a binary
tree (the skeleton) rooted at 5/8 with an infinite ray (hair) attached to
every vertex, two rays at the root (Savchuk, arXiv:0803.0043).  code(v) =
(node, m) reads a vertex's structural address off its binary digits in closed
form from that picture, and vertex(node, m) inverts it; classify and
struct_info read the same digits.  The test suite checks them against the
local rules of the action (children, parent, hair steps and loops) on a ball
and on random dyadics.  The skeleton orientation is fixed: the a-image of a
skeleton vertex is its L child and the b-image its R child.

struct_act is the action on addresses and node_info the struct_info of an
address.  Balls, orbits, verification and exact n-step probabilities run on
addresses, the one runtime vertex; a Ball turns its addresses into Dyadic
vertices once, for output.  act_letter stays the Dyadic action and
struct_act's oracle.

The search, leaving-edge shares and the walk step at the end take the action
as arguments, so the free-group graph of ``freegroup`` uses them too; bfs, the
one breadth-first search, records the position of every image as it goes.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from typing import Iterable, Optional

from .dyadic import Dyadic
from .errors import CapExceeded, StructuralAssertFailed

__all__ = [
    "act_letter",
    "act_word",
    "neighbors",
    "Skeleton",
    "Hair",
    "Ball",
    "ball",
    "classify",
    "code",
    "vertex",
    "ROOT_CODE",
    "struct_act",
    "struct_info",
    "node_info",
    "hair_point",
    "subtree_T",
    "golden_path",
    "folner_hair_segment",
    "boundary_ratio",
    "bfs",
    "leaving_share",
    "evolve",
    "get_orientation",
    "vertex_at",
    "root_hair_letter",
]

EDGE_LABELS = ("a", "b", "A", "B")


def act_letter(ch: str, d: Dyadic) -> Dyadic:
    """Image of d under one generator letter, by the closed-form branches.

    Integer arithmetic only; agrees with applying the PLMap of the letter
    (the test suite keeps both routes honest against each other).
    """
    n, e = d.num, d.exp
    scale = 1 << e
    if ch == "a":
        # 2x on [0,1/4]; x/2 + 3/8 on (1/4,3/4]; x on (3/4,1]
        if n << 2 <= scale:
            return Dyadic(n << 1, e)
        if n << 2 <= 3 * scale:
            return Dyadic((n << 2) + 3 * scale, e + 3)
        return d
    if ch == "A":
        # x/2 on [0,1/2]; 2x - 3/4 on (1/2,3/4]; x on (3/4,1]
        if n << 1 <= scale:
            return Dyadic(n, e + 1)
        if n << 2 <= 3 * scale:
            return Dyadic((n << 3) - 3 * scale, e + 2)
        return d
    if ch == "b":
        # x on [0,1/2]; x/2 + 1/4 on (1/2,3/4]; x - 1/8 on (3/4,7/8]; 2x - 1 on (7/8,1]
        if n << 1 <= scale:
            return d
        if n << 2 <= 3 * scale:
            return Dyadic((n << 1) + scale, e + 2)
        if n << 3 <= 7 * scale:
            return Dyadic((n << 3) - scale, e + 3)
        return Dyadic((n << 1) - scale, e)
    if ch == "B":
        # x on [0,1/2]; 2x - 1/2 on (1/2,5/8]; x + 1/8 on (5/8,3/4]; (x+1)/2 on (3/4,1]
        if n << 1 <= scale:
            return d
        if n << 3 <= 5 * scale:
            return Dyadic((n << 2) - scale, e + 1)
        if n << 2 <= 3 * scale:
            return Dyadic((n << 3) + scale, e + 3)
        return Dyadic(n + scale, e + 1)
    raise ValueError(f"unknown letter {ch!r}")


def act_word(w: str, d, act=act_letter):
    """Fold act(letter, state) over a word, rightmost letter first (act_letter by default)."""
    for ch in reversed(w):
        d = act(ch, d)
    return d


def neighbors(v: Dyadic) -> dict[str, Dyadic]:
    """The four labeled images of v (loops included, as labels)."""
    return {ch: act_letter(ch, v) for ch in EDGE_LABELS}


# ---------------------------------------------------------------------------
# structural addresses


class Skeleton:
    """Tree address of a skeleton vertex: path of 'L'/'R' turns from the root.

    Skeleton, Hair and Ball are slotted value types, immutable by contract:
    nothing assigns a field after __init__.  Each is equal only to its own
    class, hashed as the tuple of its compared fields and shown with keyword
    fields.
    """

    __slots__ = ("path",)

    def __init__(self, path: tuple[str, ...]):
        self.path = path

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.path == other.path

    def __hash__(self) -> int:
        return hash((self.path,))

    def __repr__(self) -> str:
        return f"Skeleton(path={self.path!r})"


class Hair:
    """Address on the ray attached to the skeleton vertex with the given path."""

    __slots__ = ("base", "offset")

    def __init__(self, base: tuple[str, ...], offset: int):
        self.base = base
        self.offset = offset

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.base == other.base and self.offset == other.offset

    def __hash__(self) -> int:
        return hash((self.base, self.offset))

    def __repr__(self) -> str:
        return f"Hair(base={self.base!r}, offset={self.offset!r})"


# Always empty: addresses are computed, not cached.  perfbench reads its size.
_ADDR_MEMO: dict = {}


def get_orientation() -> str:
    """'lr', the fixed skeleton orientation (a-image the L child, b-image the
    R child), the one the bundled function families fit.  Manifests record it."""
    return "lr"


def vertex_at(path: Iterable[str]) -> Dyadic:
    """Skeleton vertex reached from the root by the given L/R turns."""
    letters = "".join("1" if turn == "L" else "0" for turn in path)
    return vertex(int("1" + letters[::-1], 2))


def _digits(v: Dyadic) -> tuple[int, int, int]:
    """(q, depth, m): v's skeleton base and v's signed offset on its hair.

    Bit i of q is the (i+1)-th letter on the path from the root to the base,
    1 for 'a'; depth d is the base's depth; m is 0 on the skeleton.  In
    t = 4v - 2, 'a' is t -> (1+t)/2 and 'b' is t -> t/2, so a skeleton vertex
    is v = (2^(d+2) + 2q + 1) / 2^(d+3), strictly between 1/2 and 3/4.  The
    hair off a base whose last letter is 'b' is walked by A and lies in
    (0, 1/2]: v = (2^d + 2q + 1) / 2^(d+1+m) with m > 0.  The hair off a last
    'a' is walked by B and lies in [3/4, 1): 1 - v = (3*2^d - 2q - 1) /
    2^(d+2-m) with m < 0.  At the root both formulas reduce, to 1/2^m and
    1 - 1/2^(1-m).
    """
    n, e = v.num, v.exp
    if e == 0:
        raise ValueError(f"{v} is not a vertex")
    if n << 1 <= 1 << e:
        if n == 1:
            return 0, 0, e
        j = (n - 1).bit_length() + 1  # d + 2
        return (n - (1 << (j - 2))) >> 1, j - 2, e - j + 1
    if n << 2 < 3 << e:
        return (n - (1 << (e - 1))) >> 1, e - 3, 0
    z = (1 << e) - n
    if z == 1:
        return 0, 0, 1 - e
    j = (z - 1).bit_length() + 2  # d + 3
    return ((3 << (j - 3)) - z) >> 1, j - 3, j - 1 - e


def code(v: Dyadic) -> tuple[int, int]:
    """The injective structural address (node, m) of the vertex v.

    node = 2^depth + q codes v's skeleton base (q as in _digits); m is 0 on
    the skeleton, v's offset on a hair walked by A and minus its offset on a
    hair walked by B.
    """
    q, depth, m = _digits(v)
    return 1 << depth | q, m


def vertex(node: int, m: int = 0) -> Dyadic:
    """The vertex with structural address (node, m), the inverse of code.

    ValueError for a node below 1 or a hair the base lacks: off the root, a
    last letter 'a' leaves only the hair walked by B (m < 0), a last 'b' only
    the hair walked by A.
    """
    if node < 1:
        raise ValueError(f"node code must be >= 1, got {node}")
    d = node.bit_length() - 1
    q = node ^ (1 << d)
    if m == 0:
        return Dyadic((4 << d) + 2 * q + 1, d + 3)
    if d and q >> (d - 1) == (m > 0):
        raise ValueError(f"skeleton node {node} has no hair walked by {'A' if m > 0 else 'B'}")
    if m > 0:
        return Dyadic((1 << d) + 2 * q + 1, d + 1 + m)
    k = d + 2 - m
    return Dyadic((1 << k) - (3 << d) + 2 * q + 1, k)


ROOT_CODE = (1, 0)  # code(ROOT)

# what a letter adds to m on a hair walked by B (m < 0) and by A (m > 0)
_HAIR_STEP = ({"a": 0, "A": 0, "b": 1, "B": -1}, {"a": -1, "A": 1, "b": 0, "B": 0})


def struct_act(ch: str, c: tuple[int, int]) -> tuple[int, int]:
    """Image of the address c = (node, m) under one generator letter.

    The address form of act_letter.  On the skeleton a and b append their
    letter, A steps back over a last 'a' and B over a last 'b'; otherwise
    the inverse letter steps onto the base's hair.  On a hair the hair's own
    letter steps out, its forward letter steps back toward the base, and the
    other pair loops.
    """
    node, m = c
    if m == 0:
        d = node.bit_length() - 1
        if ch == "a":
            return node + (2 << d), 0
        if ch == "b":
            return node + (1 << d), 0
        # the top two bits of the node: 3 after a last 'a', 2 after a last 'b'
        if ch == "A":
            return (node - (1 << d), 0) if d and node >> (d - 1) == 3 else (node, 1)
        if ch == "B":
            return (node - (1 << (d - 1)), 0) if d and node >> (d - 1) == 2 else (node, -1)
    else:
        step = _HAIR_STEP[m > 0].get(ch)
        if step == 0:
            return c
        if step:
            return node, m + step
    raise ValueError(f"unknown letter {ch!r}")


_TURNS = str.maketrans("10", "LR")


def classify(v: Dyadic) -> Skeleton | Hair:
    """Structural address of v: Skeleton(path) or Hair(base path, offset).

    Read off v's binary digits by _digits, an 'a' turn as L and a 'b' turn
    as R.  The two root hairs share the address Hair((), m), so classify is
    not injective there; code is the injective address.  0 and 1 are not
    vertices and raise ValueError.
    """
    q, depth, m = _digits(v)
    # the node's digits below its leading 1, last first: bit i is turn i
    path = tuple(bin(q | 1 << depth)[:2:-1].translate(_TURNS))
    return Hair(path, abs(m)) if m else Skeleton(path)


def struct_info(v: Dyadic) -> tuple[int, bool, int]:
    """(leading L-turns, whether the path continues past them, base depth).

    The digest of classify(v) used by the bundled vertex functions: a vertex
    belongs to subtree i exactly when leading == i and the path continues
    (its first non-L turn is an R by construction).  The leading L-turns
    are the trailing ones of the base code.
    """
    q, depth, _ = _digits(v)
    lead = _lead(q)
    return lead, depth > lead, depth


def node_info(node: int) -> tuple[int, bool, int]:
    """struct_info of any vertex whose address has this node."""
    depth = node.bit_length() - 1
    lead = _lead(node ^ (1 << depth))
    return lead, depth > lead, depth


def _lead(q: int) -> int:
    """The number of trailing ones of q."""
    return (q ^ (q + 1)).bit_length() - 1


def subtree_T(i: int, v: Dyadic) -> bool:
    """Is v (skeleton or hair) inside the subtree hanging right of spine depth i?"""
    lead, deeper, _ = struct_info(v)
    return lead == i and deeper


def root_hair_letter(root_hair: str | None = None) -> str:
    """Which inverse letter walks the designated root hair (default 'B').

    The root carries two hairs; the bundled constructions that walk hairs by
    repeated A-steps use the other one, so 'B' is the neutral default.  The
    choice is recorded in every CLI manifest.
    """
    if root_hair is None:
        return "B"
    if root_hair not in ("A", "B"):
        raise ValueError("root hair must be 'A' or 'B'")
    return root_hair


def hair_point(base: Dyadic, m: int, root_hair: str | None = None) -> Dyadic:
    """The vertex m steps out on the hair attached at the skeleton vertex base."""
    if m < 0:
        raise ValueError("hair offset must be >= 0")
    q, depth, offset = _digits(base)
    if offset:
        raise StructuralAssertFailed(f"{base} is not a skeleton vertex")
    if m == 0:
        return base
    if depth:
        # the inverse of the last letter steps back up: after an 'a', B walks the hair
        by_b = q >> (depth - 1)
    else:
        by_b = root_hair_letter(root_hair) == "B"
    return vertex(1 << depth | q, -m if by_b else m)


def golden_path(i: int) -> list[Dyadic]:
    """[root, a.root, ..., a^i.root, b a^i.root]: nodes 2^(k+1) - 1, then 3*2^i - 1."""
    if i < 0:
        raise ValueError("index must be >= 0")
    return [vertex((2 << k) - 1) for k in range(i + 1)] + [vertex((3 << i) - 1)]


# ---------------------------------------------------------------------------
# balls


class Ball:
    """A ball as ball() builds it: the code addresses of its vertices in
    breadth-first order (so the interior, distance below the radius, is a
    prefix), the Dyadic vertices in that order, and the neighbor_index bfs
    records: the positions of the a, b, A, B images of each interior vertex.

    Equality and hash read the center, radius and addresses only; vertices
    and neighbor_index follow from them."""

    __slots__ = ("center", "radius", "addresses", "vertices", "neighbor_index")

    def __init__(
        self,
        center: Dyadic,
        radius: int,
        addresses: tuple[tuple[int, int], ...],
        vertices: tuple[Dyadic, ...],
        neighbor_index: array,
    ):
        self.center = center
        self.radius = radius
        self.addresses = addresses
        self.vertices = vertices
        self.neighbor_index = neighbor_index

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.center, self.radius, self.addresses) == (
            other.center, other.radius, other.addresses
        )

    def __hash__(self) -> int:
        return hash((self.center, self.radius, self.addresses))

    def __repr__(self) -> str:
        return (
            f"Ball(center={self.center!r}, radius={self.radius!r}, "
            f"addresses={self.addresses!r}, vertices={self.vertices!r}, "
            f"neighbor_index={self.neighbor_index!r})"
        )

    def interior(self) -> list[Dyadic]:
        return list(self.vertices[: len(self.neighbor_index) // 4])

    def to_json(self) -> dict:
        inside = set(self.addresses)
        return {
            "center": str(self.center),
            "radius": self.radius,
            "vertices": [str(v) for v in self.vertices],
            # labeled edges among the vertices, loops included
            "edges": [
                [str(u), ch, str(vertex(*w))]
                for c, u in zip(self.addresses, self.vertices)
                for ch in EDGE_LABELS
                if (w := struct_act(ch, c)) in inside
            ],
        }


def ball(center: Dyadic, radius: int, cap: int = 10**6) -> Ball:
    """All vertices within graph distance radius, in breadth-first order,
    searched on addresses; ValueError when center is not a vertex."""
    addresses, index = bfs(code(center), radius, EDGE_LABELS, struct_act, cap)
    return Ball(center, radius, tuple(addresses), tuple(vertex(*c) for c in addresses), index)


# ---------------------------------------------------------------------------
# hair segments as small-boundary sets


def folner_hair_segment(L: int, root_hair: str | None = None) -> tuple[Dyadic, ...]:
    """L consecutive points on the designated root hair, offsets 1..L."""
    if L < 1:
        raise ValueError("segment length must be >= 1")
    sign = 1 if root_hair_letter(root_hair) == "A" else -1
    return tuple(vertex(1, sign * m) for m in range(1, L + 1))


def boundary_ratio(segment: Iterable[Dyadic]) -> Fraction:
    """(labeled edge-ends leaving the set) / (4 |set|)."""
    pts = set(segment)
    if not pts:
        raise ValueError("empty set has no boundary ratio")
    return leaving_share(pts, EDGE_LABELS, act_letter)


# ---------------------------------------------------------------------------
# labeled actions
#
# These take the action as arguments: its letters and act(letter, vertex).
# The dyadic graph passes EDGE_LABELS with struct_act on addresses or
# act_letter on Dyadics, the free-group graph its own pair; any hashable
# vertex type works.


def bfs(center, radius: int, letters, act, cap: int = 10**6) -> tuple[list, array]:
    """(vertices, index): every vertex within radius of center, breadth-first
    in the given letter order, so those below the radius come first, and for
    each of those the positions of its images, len(letters) flat entries."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    pos = {center: 0}
    vertices = [center]
    index = array("i")
    done = 0
    for _ in range(radius):
        level = vertices[done:]
        done = len(vertices)
        for u in level:
            for ch in letters:
                w = act(ch, u)
                i = pos.get(w)
                if i is None:
                    if len(pos) >= cap:
                        raise CapExceeded(f"ball of radius {radius} exceeds cap {cap}")
                    i = pos[w] = len(vertices)
                    vertices.append(w)
                index.append(i)
    return vertices, index


def leaving_share(pts: set, letters, act) -> Fraction:
    """Edge-ends leaving the nonempty set pts over all of its edge-ends."""
    out = sum(act(ch, u) not in pts for u in pts for ch in letters)
    return Fraction(out, len(letters) * len(pts))


def evolve(counts: dict, letters, act, cap: Optional[int] = None) -> dict:
    """One step of the uniform walk on integer path counts: each state's
    count is added to each of its images act(letter, state).

    After t steps from {start: 1}, counts[y] / len(letters)**t is the exact
    t-step probability of y.  With a cap, a support larger than cap raises
    CapExceeded.
    """
    out: dict = {}
    for x, c in counts.items():
        for ch in letters:
            y = act(ch, x)
            out[y] = out.get(y, 0) + c
    if cap is not None and len(out) > cap:
        raise CapExceeded(f"walk support {len(out)} exceeds cap {cap}")
    return out
