from array import array
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from extamen.dyadic import Dyadic, ROOT, letter_map, word_to_pl
from extamen.errors import CapExceeded
from extamen.graph import (
    EDGE_LABELS,
    ROOT_CODE,
    Ball,
    Hair,
    Skeleton,
    act_letter,
    act_word,
    ball,
    bfs,
    boundary_ratio,
    classify,
    code,
    folner_hair_segment,
    golden_path,
    hair_point,
    neighbors,
    node_info,
    struct_act,
    struct_info,
    subtree_T,
    vertex,
    vertex_at,
)
from extamen.harmonic import VertexFn, canonical_phi_u, phi_family
from extamen.minfn import minfun
from oracles import classify_by_turns


def dy(num, exp):
    return Dyadic(num, exp)


@st.composite
def interior_dyadics(draw, max_exp=12):
    e = draw(st.integers(1, max_exp))
    n = draw(st.integers(1, 2**e - 1))
    return Dyadic(n, e)


def test_neighbors_of_root():
    assert neighbors(ROOT) == {
        "a": dy(11, 4),
        "b": dy(9, 4),
        "A": dy(1, 1),
        "B": dy(3, 2),
    }


def test_neighbors_of_children():
    assert neighbors(dy(11, 4)) == {
        "a": dy(23, 5),
        "b": dy(19, 5),
        "A": ROOT,
        "B": dy(13, 4),
    }
    assert neighbors(dy(9, 4)) == {
        "a": dy(21, 5),
        "b": dy(17, 5),
        "A": dy(3, 3),
        "B": ROOT,
    }


@given(st.sampled_from(EDGE_LABELS), interior_dyadics())
@settings(max_examples=300, deadline=None)
def test_act_letter_matches_pl_route(ch, x):
    assert act_letter(ch, x) == letter_map(ch).apply(x), f"{ch} at {x}"


@given(st.text(alphabet="aAbB", max_size=7), interior_dyadics())
@settings(max_examples=100, deadline=None)
def test_act_word_matches_pl_route(w, x):
    assert act_word(w, x) == word_to_pl(w).apply(x)


@given(interior_dyadics())
@settings(max_examples=200)
def test_letters_are_involutive_pairs(x):
    assert act_letter("A", act_letter("a", x)) == x
    assert act_letter("B", act_letter("b", x)) == x


def test_golden_path_oracle():
    assert golden_path(2) == [ROOT, dy(11, 4), dy(23, 5), dy(39, 6)]


def _levels(center, radius):
    """Graph distance from center of every vertex within radius, level by
    level with act_letter: the search bfs runs, written out apart from it."""
    dist = {center: 0}
    level = {center}
    for step in range(1, radius + 1):
        level = {act_letter(ch, u) for u in level for ch in EDGE_LABELS} - dist.keys()
        dist.update(dict.fromkeys(level, step))
    return dist


def _check_search_order(B):
    """B's vertices are the ball, breadth-first, with the interior as the prefix."""
    dist = _levels(B.center, B.radius)
    assert set(B.vertices) == dist.keys() and len(B.vertices) == len(dist)
    order = [dist[v] for v in B.vertices]
    assert order == sorted(order), (B.center, B.radius)
    assert B.interior() == [v for v in B.vertices if dist[v] < B.radius]


def test_ball_radius_one():
    B = ball(ROOT, 1)
    assert set(B.vertices) == {ROOT, dy(11, 4), dy(9, 4), dy(1, 1), dy(3, 2)}
    assert B.addresses[0] == ROOT_CODE and B.vertices[0] == ROOT
    assert B.interior() == [ROOT]
    _check_search_order(B)


def test_ball_is_deterministic_and_caps():
    assert ball(ROOT, 3).vertices == ball(ROOT, 3).vertices
    with pytest.raises(CapExceeded):
        ball(ROOT, 6, cap=10)
    # the cap counts vertices: the radius-1 ball holds five
    assert len(ball(ROOT, 1, cap=5).vertices) == 5
    with pytest.raises(CapExceeded, match="ball of radius 1 exceeds cap 4"):
        ball(ROOT, 1, cap=4)


def test_ball_sizes():
    # 4-regular with two loops on hair points keeps growth well under 4^r
    assert len(ball(ROOT, 1).vertices) == 5
    assert len(ball(ROOT, 8).vertices) == 1021


def test_classify_oracles():
    assert classify(ROOT) == Skeleton(())
    assert classify(dy(11, 4)) == Skeleton(("L",))
    assert classify(dy(9, 4)) == Skeleton(("R",))
    assert classify(dy(1, 1)) == Hair((), 1)
    assert classify(dy(3, 2)) == Hair((), 1)
    assert classify(dy(13, 4)) == Hair(("L",), 1)
    assert classify(dy(3, 3)) == Hair(("R",), 1)


def test_classify_consistent_with_vertex_at():
    for path in [(), ("L",), ("R",), ("L", "R"), ("R", "L"), ("L", "L", "R")]:
        v = vertex_at(path)
        assert classify(v) == Skeleton(path), f"path {path} gave {classify(v)}"


def test_classify_deep_hair_needs_probe_doubling():
    for m in (20, 5000):
        for letter in ("A", "B"):
            v = act_word(letter * m, ROOT)
            assert classify(v) == Hair((), m), f"{letter}^{m}"
            assert code(v) == (1, m if letter == "A" else -m)
            assert struct_info(v) == (0, False, 0)
            assert v == hair_point(ROOT, m, root_hair=letter)


def test_classify_rejects_non_vertices():
    for v in (dy(0, 0), dy(1, 0)):
        with pytest.raises(ValueError, match="not a vertex"):
            classify(v)
        with pytest.raises(ValueError, match="not a vertex"):
            struct_info(v)


def assert_local_rules(v):
    """classify(v) against the images of v under act_letter alone.

    A skeleton address steps to its children on a/b, to its parent and the
    first point of its own hair on A/B (both root hairs at the root); a hair
    address loops on two letters and steps to offset m - 1 (its base from
    m = 1) and m + 1 on the others.  With classify(ROOT) == Skeleton(())
    these rules fix every address by induction from the root.
    """
    addr = classify(v)
    image = {ch: classify(act_letter(ch, v)) for ch in EDGE_LABELS}
    turn = {"a": "L", "b": "R"}
    if isinstance(addr, Skeleton):
        p = addr.path
        assert image["a"] == Skeleton(p + (turn["a"],)), v
        assert image["b"] == Skeleton(p + (turn["b"],)), v
        if not p:
            assert image["A"] == image["B"] == Hair((), 1), v
            return
        up, out = ("A", "B") if p[-1] == turn["a"] else ("B", "A")
        assert image[up] == Skeleton(p[:-1]), v
        assert image[out] == Hair(p, 1), v
        return
    loops = [ch for ch in EDGE_LABELS if act_letter(ch, v) == v]
    assert len(loops) == 2, f"{v} ({addr}) loops on {loops}"
    inward = Hair(addr.base, addr.offset - 1) if addr.offset > 1 else Skeleton(addr.base)
    steps = {image[ch] for ch in EDGE_LABELS if ch not in loops}
    assert steps == {inward, Hair(addr.base, addr.offset + 1)}, v


def test_classify_follows_local_rules_on_ball():
    assert classify(ROOT) == Skeleton(())
    for v in ball(ROOT, 12).vertices:
        assert_local_rules(v)


@st.composite
def deep_dyadics(draw, max_exp=400):
    # uniform numerators land mostly on the skeleton or near it; numerators
    # near 0 and near 2^e reach deep into the two kinds of hair
    e = draw(st.integers(1, max_exp))
    top = 2**e - 1
    n = draw(st.one_of(
        st.integers(1, top),
        st.integers(1, min(top, 2**20)),
        st.integers(max(1, top - 2**20), top),
    ))
    return Dyadic(n, e)


@given(deep_dyadics())
@settings(max_examples=400, deadline=None)
def test_classify_follows_local_rules_on_random_dyadics(v):
    assert_local_rules(v)


def assert_classify_matches_turn_by_turn(v):
    got, want = classify(v), classify_by_turns(v)
    assert type(got) is type(want) and got == want, v


def test_classify_matches_turn_by_turn_oracle_on_ball():
    for v in ball(ROOT, 14).vertices:
        assert_classify_matches_turn_by_turn(v)


@given(deep_dyadics())
@settings(max_examples=400, deadline=None)
def test_classify_matches_turn_by_turn_oracle_on_random_dyadics(v):
    assert_classify_matches_turn_by_turn(v)


# Letter-walking oracles for the closed forms: each vertex is reached by one
# act_letter step per letter.


def walk_vertex_at(path):
    letter = {"L": "a", "R": "b"}
    cur = ROOT
    for turn in path:
        cur = act_letter(letter[turn], cur)
    return cur


def walk_hair(base, away, M):
    """[base, then M points out on its hair], by M steps of the letter away."""
    pts = [base]
    for _ in range(M):
        pts.append(act_letter(away, pts[-1]))
    return pts


def walk_golden_path(i):
    pts = [ROOT]
    for _ in range(i):
        pts.append(act_letter("a", pts[-1]))
    return pts + [act_letter("b", pts[-1])]


def test_closed_forms_match_letter_walks():
    """Skeleton depths up to 10; hair offsets up to 64 to depth 6, up to 4 below."""
    turn = {"a": "L", "b": "R"}
    for d in range(11):
        for letters in product("ab", repeat=d):
            base = act_word("".join(reversed(letters)), ROOT)
            node = 1 << d | sum(1 << i for i, ch in enumerate(letters) if ch == "a")
            path = tuple(turn[ch] for ch in letters)
            assert vertex_at(path) == walk_vertex_at(path) == base == vertex(node), path
            assert code(base) == (node, 0)
            # the inverse of the last letter steps back up; the other walks the hair
            aways = ("A", "B") if not d else ("B",) if letters[-1] == "a" else ("A",)
            for away in aways:
                sign = 1 if away == "A" else -1
                for m, v in enumerate(walk_hair(base, away, 64 if d <= 6 else 4)):
                    assert hair_point(base, m, root_hair=away) == v, (path, m)
                    assert vertex(node, sign * m) == v and code(v) == (node, sign * m)
    for i in range(11):
        assert golden_path(i) == walk_golden_path(i)
    for away in ("A", "B"):
        assert folner_hair_segment(64, root_hair=away) == tuple(walk_hair(ROOT, away, 64)[1:])


def test_code_is_injective_and_inverted_by_vertex_on_ball():
    verts = ball(ROOT, 12).vertices
    codes = [code(v) for v in verts]
    assert len(set(codes)) == len(verts) == 16_381
    for v, (node, m) in zip(verts, codes):
        assert vertex(node, m) == v
        # classify forgets only the sign of m
        addr = classify(v)
        assert addr == (Hair(addr.base, abs(m)) if m else Skeleton(addr.path))
        assert (m > 0) == (v <= dy(1, 1)) and (m < 0) == (v >= dy(3, 2))


def test_struct_act_and_node_info_match_the_dyadic_action_on_ball():
    assert code(ROOT) == ROOT_CODE
    for v in ball(ROOT, 12).vertices:
        c = code(v)
        assert node_info(c[0]) == struct_info(v), v
        for ch in EDGE_LABELS:
            assert struct_act(ch, c) == code(act_letter(ch, v)), (v, ch)


@given(deep_dyadics(), st.sampled_from(EDGE_LABELS))
@settings(max_examples=400, deadline=None)
def test_struct_act_matches_act_letter_on_random_dyadics(v, ch):
    assert struct_act(ch, code(v)) == code(act_letter(ch, v))


# the bundled vertex functions read addresses; their Dyadic definitions on
# struct_info are the oracles
def _phi_u_oracle(v):
    return Fraction(2) ** (2 - struct_info(v)[2])


def _phi_family_oracle(n):
    def value(v):
        lead, deeper, depth = struct_info(v)
        return Fraction(2) ** -(depth if lead == n and deeper else n)

    return value


FAMILIES = [(canonical_phi_u(), _phi_u_oracle)] + [
    (phi_family(n), _phi_family_oracle(n)) for n in range(9)
]


def test_families_on_addresses_match_struct_info_on_ball():
    B = ball(ROOT, 12)
    for phi, oracle in FAMILIES:
        assert list(map(phi.fn, B.addresses)) == list(map(oracle, B.vertices)), phi.name


@given(deep_dyadics())
@settings(max_examples=400, deadline=None)
def test_families_on_addresses_match_struct_info_on_random_dyadics(v):
    c = code(v)
    for phi, oracle in FAMILIES:
        assert phi.fn(c) == phi(v) == oracle(v), phi.name


def test_replacing_fn_reads_the_new_fn():
    one = VertexFn("one", lambda c: Fraction(1))
    two = replace(one, fn=lambda c: Fraction(c[1] + 2))
    assert two(ROOT) == two.fn(ROOT_CODE) == 2
    assert two(hair_point(ROOT, 1)) == 1
    assert one(ROOT) == 1
    # the replaced fn drops phi_u's exponent reader, and minfun reads the new fn
    flat = replace(canonical_phi_u(), fn=lambda c: Fraction(1))
    F = minfun(flat)
    assert F.scaled is None and F((ROOT,)) == F(()) == 1


def test_struct_act_rejects_unknown_letters():
    for c in (ROOT_CODE, (1, 3), (1, -3)):
        with pytest.raises(ValueError, match="unknown letter"):
            struct_act("s", c)


@given(st.one_of(interior_dyadics(max_exp=60), deep_dyadics(max_exp=60)))
@settings(max_examples=400, deadline=None)
def test_code_round_trip_on_random_dyadics(v):
    assert vertex(*code(v)) == v


@given(st.integers(1, 2**40), st.integers(-70, 70))
@settings(max_examples=400, deadline=None)
def test_vertex_round_trip_on_random_codes(node, m):
    d = node.bit_length() - 1
    last_a = d and node >> (d - 1) & 1
    if m and d and (m > 0) == bool(last_a):
        with pytest.raises(ValueError, match="has no hair walked by"):
            vertex(node, m)
    else:
        assert code(vertex(node, m)) == (node, m)


def test_vertex_rejects_hairs_the_base_lacks():
    assert vertex(1, 1) == dy(1, 1) and vertex(1, -1) == dy(3, 2)
    with pytest.raises(ValueError, match="no hair walked by A"):
        vertex(0b11, 1)  # last letter a: only the B-hair
    with pytest.raises(ValueError, match="no hair walked by B"):
        vertex(0b10, -1)  # last letter b: only the A-hair
    assert vertex(0b11, -1) == hair_point(dy(11, 4), 1)
    assert vertex(0b10, 1) == hair_point(dy(9, 4), 1)
    for node in (0, -1):
        with pytest.raises(ValueError, match="node code must be >= 1"):
            vertex(node)


def test_hair_points_on_both_root_rays():
    assert hair_point(ROOT, 3) == dy(15, 4)
    assert hair_point(ROOT, 3, root_hair="A") == dy(1, 3)
    assert hair_point(ROOT, 0) == ROOT
    with pytest.raises(ValueError):
        hair_point(ROOT, 2, root_hair="x")


def test_hair_point_off_skeleton_child():
    assert hair_point(dy(11, 4), 1) == dy(13, 4)
    assert hair_point(dy(9, 4), 1) == dy(3, 3)


def test_hair_kinds_loop_on_the_right_letters():
    # ray through b-images of the root: a and A are loops there
    u = hair_point(ROOT, 2)
    assert act_letter("a", u) == u and act_letter("A", u) == u
    assert act_letter("b", u) == hair_point(ROOT, 1)
    # ray through A-images: b and B are loops
    w = hair_point(ROOT, 2, root_hair="A")
    assert act_letter("b", w) == w and act_letter("B", w) == w
    assert act_letter("a", w) == hair_point(ROOT, 1, root_hair="A")


def test_loop_counts():
    def loops(v):
        return sum(1 for ch in EDGE_LABELS if act_letter(ch, v) == v)

    for v in ball(ROOT, 4).vertices:
        addr = classify(v)
        want = 2 if isinstance(addr, Hair) else 0
        assert loops(v) == want, f"{v} ({addr}) has {loops(v)} loops"


def test_one_hair_per_vertex_two_at_root():
    B = ball(ROOT, 6)
    for v in B.interior():
        if not isinstance(classify(v), Skeleton):
            continue
        starts = sum(
            1 for ch in ("A", "B") if isinstance(classify(act_letter(ch, v)), Hair)
        )
        want = 2 if v == ROOT else 1
        assert starts == want, f"{v} starts {starts} hairs"


def test_struct_info_digests():
    assert struct_info(ROOT) == (0, False, 0)
    assert struct_info(dy(11, 4)) == (1, False, 1)
    assert struct_info(dy(23, 5)) == (2, False, 2)
    assert struct_info(dy(39, 6)) == (2, True, 3)
    assert struct_info(dy(9, 4)) == (0, True, 1)
    # hairs inherit the digest of their base
    assert struct_info(dy(13, 4)) == struct_info(dy(11, 4))


def test_subtree_membership():
    assert subtree_T(0, dy(9, 4))
    assert subtree_T(1, act_word("ba", ROOT))
    assert not subtree_T(0, dy(11, 4))
    assert not subtree_T(1, dy(11, 4))
    assert subtree_T(1, hair_point(act_word("ba", ROOT), 4))


def test_folner_segment_ratio_exact():
    for L in (1, 5, 25):
        seg = folner_hair_segment(L)
        assert len(seg) == L
        assert boundary_ratio(seg) == Fraction(1, 2 * L), f"L={L}"
    with pytest.raises(ValueError):
        boundary_ratio(())


def test_skeleton_sets_have_fat_boundary():
    verts = [v for v in ball(ROOT, 4).vertices if isinstance(classify(v), Skeleton)]
    assert boundary_ratio(verts) >= Fraction(1, 4)


def test_ball_json_shape():
    d = ball(ROOT, 1).to_json()
    assert d["center"] == "5/2^3"
    assert d["radius"] == 1
    assert len(d["vertices"]) == 5
    assert ["5/2^3", "a", "11/2^4"] in d["edges"]


@pytest.mark.parametrize("r", range(5))
def test_ball_json_edges_match_brute_force(r):
    B = ball(ROOT, r)
    brute = [
        [str(u), ch, str(w)]
        for u in B.vertices
        for ch in EDGE_LABELS
        for w in B.vertices
        if act_letter(ch, u) == w
    ]
    assert B.to_json()["edges"] == brute


def test_ball_neighbor_index():
    for center in (ROOT, hair_point(vertex_at("R"), 3)):
        for r in range(8):
            B = ball(center, r)
            interior = B.interior()
            assert len(B.neighbor_index) == 4 * len(interior)
            assert list(B.vertices[: len(interior)]) == interior
            _check_search_order(B)


def test_ball_address_table():
    # the search on addresses against the Dyadic search by act_letter, and
    # the index it records against one worked out from the distances
    deep = vertex_at("LR" * 40)  # its node needs 81 bits
    for center, radii in ((ROOT, range(9)), (hair_point(vertex_at("R"), 3), range(9)), (deep, (0, 2))):
        for r in radii:
            B = ball(center, r)
            vertices, index = bfs(center, r, EDGE_LABELS, act_letter)
            assert B.vertices == tuple(vertices), (center, r)
            assert B.addresses == tuple(map(code, vertices)), (center, r)
            assert list(B.neighbor_index) == list(index), (center, r)
            dist = _levels(center, r)
            pos = {v: i for i, v in enumerate(vertices)}
            want = [pos[act_letter(ch, v)] for v in vertices if dist[v] < r for ch in EDGE_LABELS]
            assert list(B.neighbor_index) == want, (center, r)
            _check_search_order(B)


@pytest.mark.parametrize("point", [Dyadic(0, 0), Dyadic(1, 0)])
def test_ball_refuses_a_non_vertex(point):
    for r in (0, 2):
        with pytest.raises(ValueError, match="is not a vertex"):
            ball(point, r)


def test_addresses_and_balls_compare_hash_and_show_their_fields():
    s, h = Skeleton(path=()), Hair(base=(), offset=1)
    assert classify(vertex(1)) == s and classify(vertex(1, 1)) == h
    assert repr(s) == "Skeleton(path=())" and repr(h) == "Hair(base=(), offset=1)"
    assert hash(s) == hash(((),)) and hash(h) == hash(((), 1))
    assert s != h and s.__eq__(()) is NotImplemented and h.__eq__(((), 1)) is NotImplemented
    b = ball(ROOT, 1)
    assert repr(b) == (
        "Ball(center=Dyadic(5, 3), radius=1, addresses=((1, 0), (3, 0), (2, 0), (1, 1), (1, -1)), "
        "vertices=(Dyadic(5, 3), Dyadic(11, 4), Dyadic(9, 4), Dyadic(1, 1), Dyadic(3, 2)), "
        "neighbor_index=array('i', [1, 2, 3, 4]))"
    )
    # equality and hash read center, radius and addresses, not what follows from them
    twin = Ball(b.center, b.radius, b.addresses, vertices=(), neighbor_index=array("i"))
    assert twin == b and hash(twin) == hash(b) == hash((b.center, b.radius, b.addresses))
    assert b != ball(ROOT, 2) and b.__eq__(b.addresses) is NotImplemented
    assert not any(hasattr(x, "__dict__") for x in (s, h, b))
