import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from extamen.errors import PreconditionFailed
from extamen.graph import bfs
from extamen.freegroup import (
    Z_E,
    Z_LETTERS,
    ZBall,
    ZVertex,
    minfun_Z,
    phi_Z,
    random_z_configs,
    tail_segment,
    witness_word,
    z_apply,
    z_apply_word_set,
    z_ball,
    z_boundary_ratio,
    z_neighbors,
)
from extamen.lamplighter import config


def w(word):
    return ZVertex("word", word)


def tail(k):
    return ZVertex("tail", k=k)


@st.composite
def reduced_words(draw, max_len=6):
    out = draw(st.sampled_from("bBA"))
    inv = {"a": "A", "A": "a", "b": "B", "B": "b"}
    for _ in range(draw(st.integers(0, max_len - 1))):
        out += draw(st.sampled_from([g for g in "aAbB" if g != inv[out[-1]]]))
    return out


def test_vertex_validation():
    with pytest.raises(ValueError):
        ZVertex("word", "ab")
    with pytest.raises(ValueError):
        ZVertex("word", "bB")
    with pytest.raises(ValueError):
        ZVertex("tail", k=0)
    with pytest.raises(ValueError):
        ZVertex("ray")
    with pytest.raises(ValueError, match="not reduced"):
        ZVertex("word", "bAbaAb")
    with pytest.raises(ValueError, match="tail index starts at 1"):
        ZVertex("tail", "", -3)
    assert str(Z_E) == "e" and str(tail(3)) == "tail(3)" and str(w("ba")) == "ba"


def test_vertices_compare_hash_and_show_their_fields():
    v = ZVertex(kind="word", word="bA")
    assert v == w("bA") and hash(v) == hash(("word", "bA", 0))
    assert repr(v) == "ZVertex(kind='word', word='bA', k=0)"
    assert repr(tail(2)) == "ZVertex(kind='tail', word='', k=2)"
    assert v != ("word", "bA", 0) and v.__eq__("bA") is NotImplemented
    assert tail(2).sort_key() == ("tail", 2, "") and not hasattr(v, "__dict__")


def test_apply_transitions():
    assert z_apply(Z_E, "a") == tail(1)
    assert z_apply(tail(1), "A") == Z_E
    assert z_apply(tail(2), "a") == tail(3)
    assert z_apply(tail(2), "b") == tail(2)
    assert z_apply(tail(2), "B") == tail(2)
    assert z_apply(w("b"), "B") == Z_E
    assert z_apply(w("b"), "a") == w("ba")
    with pytest.raises(ValueError):
        z_apply(Z_E, "s")


@given(reduced_words())
@settings(max_examples=150)
def test_words_build_by_right_multiplication(word):
    assert reduce(z_apply, word, Z_E) == w(word)


@given(reduced_words(), st.sampled_from("aAbB"))
@settings(max_examples=150)
def test_letters_invert(word, g):
    v = w(word)
    inv = {"a": "A", "A": "a", "b": "B", "B": "b"}[g]
    moved = z_apply(v, g)
    if moved != v:  # tail loops under b/B have no inverse step back
        assert z_apply(moved, inv) == v


def test_phi_values():
    assert phi_Z(Z_E) == 1
    assert phi_Z(tail(7)) == 1
    assert phi_Z(w("b")) == Fraction(1, 3)
    assert phi_Z(w("bA")) == Fraction(1, 9)
    assert minfun_Z(()) == 1
    assert minfun_Z(config([tail(1), w("bb")], key=ZVertex.sort_key)) == Fraction(1, 9)


def test_phi_harmonic_off_origin():
    # P phi = phi on long words and deep tail points; margin 1/2 at e
    for v in (w("bb"), w("Ba"), tail(5)):
        avg = sum(phi_Z(u) for u in z_neighbors(v).values()) / 4
        assert avg == phi_Z(v), f"{v}"
    avg_e = sum(phi_Z(u) for u in z_neighbors(Z_E).values()) / 4
    assert phi_Z(Z_E) - avg_e == Fraction(1, 2)


def test_witness_cases():
    assert witness_word(()) == ("bs", Fraction(1, 3))
    assert witness_word(config([tail(2), tail(5)], key=ZVertex.sort_key)) == ("bs", Fraction(1, 3))
    assert witness_word((Z_E,)) == ("b", Fraction(1, 3))
    assert witness_word((w("b"),)) == ("b", Fraction(1, 3))
    assert witness_word((w("B"),)) == ("B", Fraction(1, 3))
    assert witness_word((w("bA"),)) == ("b", Fraction(1, 3))
    mixed = config([tail(1), w("b"), Z_E], key=ZVertex.sort_key)
    assert witness_word(mixed) == ("b", Fraction(1, 3))


def test_witness_never_cancels():
    # the chosen letter must extend the deepest word, not shorten it
    for word in ("b", "B", "ba", "bA", "bb", "AB", "bab"):
        ww, ratio = witness_word((w(word),))
        assert ratio == Fraction(1, 3)
        assert len(ww) == 1
        assert z_apply(w(word), ww) == w(word + ww)


def test_witness_on_random_configs():
    for E in random_z_configs(200, radius=8, max_size=6, seed=5):
        word, ratio = witness_word(E)
        assert ratio == Fraction(1, 3), f"{[str(v) for v in E]}"
        assert len(word) <= 2


def test_word_set_action_order():
    assert z_apply_word_set((Z_E,), "ab") == (w("ba"),)
    assert z_apply_word_set((), "s") == (Z_E,)
    assert z_apply_word_set((Z_E,), "s") == ()


def test_minfun_switch_invariant():
    for E in random_z_configs(50, radius=6, max_size=4, seed=9):
        assert minfun_Z(E) == minfun_Z(z_apply_word_set(E, "s"))


def test_tail_folner_ratio():
    for L in (1, 10, 100):
        assert z_boundary_ratio(tail_segment(L)) == Fraction(1, 2 * L)
    assert z_boundary_ratio(tail_segment(7, start=4)) == Fraction(1, 14)
    with pytest.raises(PreconditionFailed):
        z_boundary_ratio(())
    with pytest.raises(PreconditionFailed):
        tail_segment(0)


def test_word_sets_have_fat_boundary():
    # unlike tail segments, word balls keep a boundary share of at least 1/4
    words = [v for v in z_ball(4) if v.kind == "word"]
    assert z_boundary_ratio(words) >= Fraction(1, 4)


def test_ball_sizes():
    assert len(z_ball(0)) == 1
    assert len(z_ball(1)) == 5
    assert len(z_ball(2)) == 15
    with pytest.raises(ValueError):
        z_ball(-1)


def test_bfs_index_gives_z_apply_images():
    # the vertices below radius r are z_ball(r - 1), a prefix of z_ball(r)
    for r in range(5):
        vertices, index = bfs(Z_E, r, Z_LETTERS, lambda g, v: z_apply(v, g))
        assert vertices == z_ball(r)
        inner = z_ball(r - 1) if r else []
        assert len(index) == len(Z_LETTERS) * len(inner)
        images = [vertices[i] for i in index]
        assert images == [z_apply(v, g) for v in inner for g in Z_LETTERS], r


def test_zball_sequence_equals_bfs_ball():
    for r in range(9):
        assert list(ZBall(r)) == z_ball(r), r
    assert len(ZBall(10)) == len(z_ball(10)) == 88583
    for r, k in ((1, 5), (2, 6), (6, 6)):
        for seed in range(5):
            assert random.Random(seed).sample(ZBall(r), k) == random.Random(seed).sample(z_ball(r), k)
    zb = ZBall(3)
    assert zb[-1] == z_ball(3)[-1] and zb.index(w("Ab")) == z_ball(3).index(w("Ab"))
    with pytest.raises(IndexError):
        zb[len(zb)]
    with pytest.raises(ValueError):
        ZBall(-1)


def test_random_configs_are_seeded():
    assert random_z_configs(5, seed=4) == random_z_configs(5, seed=4)
    assert all(len(E) <= 6 for E in random_z_configs(30, seed=4))
    with pytest.raises(ValueError, match="seed must be >= 0, got -4"):
        random_z_configs(5, seed=-4)


def test_random_configs_reject_sizes_beyond_the_ball():
    # ZBall(0) holds e alone, ZBall(1) five vertices
    for radius, size, max_size in ((0, 1, 6), (1, 5, 6), (1, 5, -1)):
        with pytest.raises(ValueError, match=rf"max_size {max_size} is not in 0\.\.{size},"):
            random_z_configs(3, radius=radius, max_size=max_size)
    assert set(random_z_configs(20, radius=0, max_size=1, seed=2)) == {(), (Z_E,)}
    assert all(len(E) <= 5 for E in random_z_configs(20, radius=1, max_size=5))
