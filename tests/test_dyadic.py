import ast
import time
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from extamen.dyadic import (
    Dyadic,
    ONE,
    PLMap,
    ROOT,
    ZERO,
    cocycle_eval,
    cocycle_identity_check,
    g0_map,
    g1_map,
    gen_a,
    gen_b,
    invert_fword,
    letter_map,
    parse_dyadic,
    reduce_fword,
    word_to_pl,
)
from oracles import dyadic_by_fraction


def dy(num, exp):
    return Dyadic(num, exp)


@st.composite
def dyadics(draw, min_exp=0, max_exp=14):
    e = draw(st.integers(min_exp, max_exp))
    n = draw(st.integers(0, 2**e))
    return Dyadic(n, e)


@st.composite
def interior_dyadics(draw, max_exp=12):
    e = draw(st.integers(1, max_exp))
    n = draw(st.integers(1, 2**e - 1))
    return Dyadic(n, e)


fwords = st.text(alphabet="aAbB", max_size=8)


def test_canonical_form():
    assert dy(2, 3) == dy(1, 2)
    assert dy(8, 3) == ONE
    assert dy(0, 5) == ZERO
    assert str(ROOT) == "5/2^3"


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        Dyadic(-1, 2)
    with pytest.raises(ValueError):
        Dyadic(9, 3)


def _normalised(make, num, exp):
    """make(num, exp) as a (num, exp) pair, or the message of its ValueError."""
    try:
        got = make(num, exp)
    except ValueError as err:
        return str(err)
    return got if isinstance(got, tuple) else (got.num, got.exp)


def test_construction_matches_fraction_oracle_on_a_grid():
    # negative exponents, zero, negative and even numerators, values above 1
    for exp in range(-5, 10):
        for num in range(-70, 1100):
            got = _normalised(Dyadic, num, exp)
            assert got == _normalised(dyadic_by_fraction, num, exp), (num, exp)


@st.composite
def dyadic_inputs(draw):
    exp = draw(st.integers(-8, 120))
    top = 1 << max(exp, 0)
    num = draw(st.one_of(st.integers(-top - 2, 2 * top + 2), st.integers(-3, 3)))
    # a shifted numerator has trailing zeros to strip, or lands above 1
    return num << draw(st.sampled_from((0, 1, 7, 64, 130))), exp


@given(dyadic_inputs())
@settings(max_examples=500, deadline=None)
def test_construction_matches_fraction_oracle(args):
    assert _normalised(Dyadic, *args) == _normalised(dyadic_by_fraction, *args)


def test_long_numerator_normalises_in_one_shift():
    start = time.perf_counter()
    got = Dyadic(1 << 100_000, 100_001)
    assert time.perf_counter() - start < 0.5
    assert (got.num, got.exp) == (1, 1)


def test_parse_dyadic():
    assert parse_dyadic("p") == ROOT
    assert parse_dyadic("5/2^3") == ROOT
    assert parse_dyadic("1") == ONE
    assert parse_dyadic("3/4") == dy(3, 2)


@given(dyadics())
def test_value_roundtrip(x):
    assert Dyadic.from_fraction(x.value) == x


@given(dyadics(), dyadics())
def test_order_matches_fractions(x, y):
    assert (x < y) == (x.value < y.value), f"{x} vs {y}"


def test_g0_closed_form():
    g0 = g0_map()
    # x/2, then x - 1/4, then 2x - 1
    assert g0.apply_fraction(Fraction(1, 2)) == Fraction(1, 4)
    assert g0.apply_fraction(Fraction(5, 8)) == Fraction(3, 8)
    assert g0.apply_fraction(Fraction(3, 4)) == Fraction(1, 2)
    assert g0.apply_fraction(Fraction(7, 8)) == Fraction(3, 4)


def test_g1_closed_form():
    g1 = g1_map()
    assert g1.apply_fraction(Fraction(1, 2)) == Fraction(1, 2)
    assert g1.apply_fraction(Fraction(5, 8)) == Fraction(9, 16)
    assert g1.apply_fraction(Fraction(3, 4)) == Fraction(5, 8)
    assert g1.apply_fraction(Fraction(7, 8)) == Fraction(3, 4)
    assert g1.apply_fraction(Fraction(15, 16)) == Fraction(7, 8)


def test_g0_inverse_pieces():
    inv = g0_map().invert()
    assert [str(v) for v in inv.breakpoints] == ["0/2^0", "1/2^2", "1/2^1", "1/2^0"]
    assert inv.slopes == (1, 0, -1)
    # 2y, y + 1/4, (y + 1)/2
    assert inv.apply_fraction(Fraction(1, 8)) == Fraction(1, 4)
    assert inv.apply_fraction(Fraction(3, 8)) == Fraction(5, 8)
    assert inv.apply_fraction(Fraction(3, 4)) == Fraction(7, 8)


def test_generator_pieces():
    a, b = gen_a(), gen_b()
    assert [str(v) for v in a.breakpoints] == ["0/2^0", "1/2^2", "3/2^2", "1/2^0"]
    assert a.slopes == (1, -1, 0)
    assert b is g1_map()
    ai = a.invert()
    assert [str(v) for v in ai.breakpoints] == ["0/2^0", "1/2^1", "3/2^2", "1/2^0"]
    assert ai.slopes == (-1, 1, 0)
    bi = b.invert()
    assert [str(v) for v in bi.breakpoints] == ["0/2^0", "1/2^1", "5/2^3", "3/2^2", "1/2^0"]
    assert bi.slopes == (0, 1, 0, -1)


def test_generator_ordering():
    # a is g1 after the inverse of g0, in that order
    lhs = gen_a().apply(ROOT)
    rhs = g1_map().apply(g0_map().invert().apply(ROOT))
    assert lhs == rhs == dy(11, 4)


@given(dyadics())
def test_letters_invert(x):
    for ch in "ab":
        fwd = letter_map(ch).apply(x)
        assert letter_map(ch.upper()).apply(fwd) == x


@given(fwords, fwords)
@settings(max_examples=60, deadline=None)
def test_word_composition(w1, w2):
    combined = word_to_pl(w1 + w2)
    assert combined == word_to_pl(w1).compose(word_to_pl(w2))


@given(fwords)
@settings(max_examples=60, deadline=None)
def test_word_inverse_cancels(w):
    assert word_to_pl(w).compose(word_to_pl(invert_fword(w))).is_identity()


def test_reduce_fword():
    assert reduce_fword("aA") == ""
    assert reduce_fword("abBA") == ""
    assert reduce_fword("aabB") == "aa"
    assert reduce_fword("baAB") == ""


@given(st.lists(st.sampled_from("aAbB"), max_size=10).map("".join), interior_dyadics())
@settings(max_examples=150, deadline=None)
def test_pl_apply_stays_interior(w, x):
    y = word_to_pl(w).apply(x)
    assert ZERO < y < ONE, f"{w} moved {x} to the boundary"


@given(fwords)
@settings(max_examples=100, deadline=None)
def test_pl_breakpoint_values_are_kept_outside_equality(w):
    g = word_to_pl(w)
    # the integer coordinates name the same breakpoints and images
    assert [Fraction(x, 1 << g._exp) for x in g._x] == [b.value for b in g.breakpoints]
    assert [Fraction(y, 1 << g._exp) for y in g._y] == _ref_points(g)[1]
    # a fresh map with the same pieces is equal and hashes alike
    twin = PLMap(g.breakpoints, g.slopes)
    assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
    assert word_to_pl(w + invert_fword(w)) == PLMap.identity()


def test_value_types_compare_hash_and_show_their_fields():
    x = Dyadic(num=5, exp=3)
    assert x == ROOT and hash(x) == hash((5, 3)) and repr(x) == "Dyadic(5, 3)"
    assert x != (5, 3) and x.__eq__((5, 3)) is NotImplemented
    assert x.__eq__(Fraction(5, 8)) is NotImplemented and not hasattr(x, "__dict__")
    g = gen_a()
    assert PLMap(breakpoints=g.breakpoints, slopes=g.slopes) == g
    assert hash(g) == hash((g.breakpoints, g.slopes))
    assert repr(g) == (
        "PLMap(breakpoints=(Dyadic(0, 0), Dyadic(1, 2), Dyadic(3, 2), Dyadic(1, 0)), "
        "slopes=(1, -1, 0))"
    )
    assert g != (g.breakpoints, g.slopes) and g.__eq__(g.breakpoints) is NotImplemented
    assert not hasattr(g, "__dict__")


def test_value_type_fields_are_assigned_only_by_their_constructors():
    # the slotted value types are dict and set keys and have no __setattr__
    # guard, so no code may assign or delete one of their fields after
    # __init__: outside an __init__ storing on its own self, no attribute of
    # those names is stored, deleted or set by name anywhere in the package
    import extamen
    from extamen.freegroup import ZVertex
    from extamen.graph import Ball, Hair, Skeleton

    fields = {f for cls in (Dyadic, PLMap, Skeleton, Hair, Ball, ZVertex) for f in cls.__slots__}
    setters = {"setattr", "delattr", "__setattr__", "__delattr__"}
    found = []

    def scan(node, path, in_init):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                scan(child, path, getattr(child, "name", "") == "__init__")
                continue
            if isinstance(child, ast.ClassDef):
                scan(child, path, False)
                continue
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.ctx, (ast.Store, ast.Del))
                and child.attr in fields
                and not (in_init and isinstance(child.value, ast.Name) and child.value.id == "self")
            ):
                found.append(f"{path.name}:{child.lineno} .{child.attr}")
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
                named = [a.value for a in child.args if isinstance(a, ast.Constant)]
                if name in setters and set(named) & fields:
                    found.append(f"{path.name}:{child.lineno} {name}")
            scan(child, path, in_init)

    package = Path(extamen.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert len(sources) > 5
    for path in sources:
        scan(ast.parse(path.read_text()), path, False)
    assert not found, found


def test_cocycle_known_values():
    assert cocycle_eval(g0_map(), dy(1, 1)) == 1
    assert cocycle_eval(g0_map(), dy(3, 2)) == 1
    assert cocycle_eval(g0_map(), dy(5, 3)) == 0
    assert cocycle_eval(PLMap.identity(), dy(1, 1)) == 0
    assert cocycle_eval(gen_a(), dy(1, 2)) == -2


@given(fwords, fwords, interior_dyadics())
@settings(max_examples=200, deadline=None)
def test_cocycle_identity(w1, w2, x):
    assert cocycle_identity_check(word_to_pl(w1), word_to_pl(w2), x)


@given(fwords, interior_dyadics())
@settings(max_examples=100, deadline=None)
def test_cocycle_of_inverse(w, x):
    g = word_to_pl(w)
    assert cocycle_eval(g.invert(), g.apply(x)) == -cocycle_eval(g, x)


def test_reduced_relation_word_acts_trivially():
    # freely reduced, yet a relation: the slope cocycle cannot see it
    g = word_to_pl("ABabAbaBaBAb")
    assert g.is_identity()
    assert reduce_fword("ABabAbaBaBAb") == "ABabAbaBaBAb"


@given(st.lists(st.sampled_from("aAbB"), min_size=1, max_size=10).map("".join))
@settings(max_examples=300, deadline=None)
def test_nonidentity_words_leave_cocycle_tracks(w):
    g = word_to_pl(w)
    if g.is_identity():
        return
    jumps = [cocycle_eval(g, bp) for bp in g.breakpoints[1:-1]]
    assert jumps, f"nonidentity {w!r} has no interior breakpoint"
    assert all(j != 0 for j in jumps), f"flat breakpoint survived on {w!r}: {jumps}"


# ---------------------------------------------------------------------------
# the Fraction form of the PL maps: the oracle of the integer merge


def _ref_points(g):
    """Breakpoint values and their images, as Fractions."""
    values = [b.value for b in g.breakpoints]
    images = [Fraction(0)]
    for i, e in enumerate(g.slopes):
        images.append(images[-1] + (values[i + 1] - values[i]) * Fraction(2) ** e)
    return values, images


def _ref_slope_at(g, x):
    i = bisect_right(_ref_points(g)[0], x) - 1
    return g.slopes[min(i, len(g.slopes) - 1)]


def _ref_apply_fraction(g, x):
    values, images = _ref_points(g)
    i = min(bisect_right(values, x) - 1, len(g.slopes) - 1)
    return images[i] + (x - values[i]) * Fraction(2) ** g.slopes[i]


def _ref_invert(g):
    images = _ref_points(g)[1]
    return PLMap(tuple(Dyadic.from_fraction(y) for y in images), tuple(-e for e in g.slopes))


def _ref_compose(g, h):
    """g after h: cut at h's breakpoints and the h-preimages of g's, slopes read at midpoints."""
    h_inv = _ref_invert(h)
    cuts = set(_ref_points(h)[0])
    cuts.update(_ref_apply_fraction(h_inv, x) for x in _ref_points(g)[0])
    cuts = sorted(cuts)
    slopes = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        slopes.append(_ref_slope_at(h, mid) + _ref_slope_at(g, _ref_apply_fraction(h, mid)))
    return PLMap.make(tuple(Dyadic.from_fraction(c) for c in cuts), tuple(slopes))


def _ref_letters():
    a = _ref_compose(g1_map(), _ref_invert(g0_map()))
    b = g1_map()
    return {"a": a, "A": _ref_invert(a), "b": b, "B": _ref_invert(b)}


REF_LETTERS = _ref_letters()


def _ref_word(w):
    acc = PLMap.identity()
    for ch in w:
        acc = _ref_compose(acc, REF_LETTERS[ch])
    return acc


def _ref_cocycle(g, x):
    for i in range(1, len(g.breakpoints) - 1):
        if g.breakpoints[i] == x:
            return g.slopes[i] - g.slopes[i - 1]
    return 0


words10 = st.text(alphabet="aAbB", max_size=10)


def test_letter_maps_match_reference():
    for ch, ref in REF_LETTERS.items():
        assert letter_map(ch) == ref, ch


@given(words10, words10)
@settings(max_examples=150, deadline=None)
def test_compose_and_invert_match_reference(w1, w2):
    g, h = _ref_word(w1), _ref_word(w2)
    assert word_to_pl(w1) == g
    assert g.compose(h) == _ref_compose(g, h)
    assert h.compose(g) == _ref_compose(h, g)
    assert g.invert() == _ref_invert(g)


@given(words10, st.lists(dyadics(), max_size=6))
@settings(max_examples=150, deadline=None)
def test_apply_matches_reference(w, xs):
    g = _ref_word(w)
    for x in xs + [ZERO, ONE, *g.breakpoints]:
        want = _ref_apply_fraction(g, x.value)
        assert g.apply(x) == Dyadic.from_fraction(want), (w, x)
        assert g.apply_fraction(x.value) == want, (w, x)
    for q in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(5, 7)):
        got = g.apply_fraction(q)
        assert type(got) is Fraction and got == _ref_apply_fraction(g, q), (w, q)


@given(words10, words10, st.lists(interior_dyadics(), max_size=4))
@settings(max_examples=150, deadline=None)
def test_cocycle_eval_matches_reference(w1, w2, xs):
    g, h = word_to_pl(w1), word_to_pl(w2)
    # every breakpoint of g, h and gh, and the h-images of g's
    points = set(xs) | set(g.breakpoints) | set(h.breakpoints) | set(g.compose(h).breakpoints)
    points |= {h.apply(x) for x in g.breakpoints}
    for x in points - {ZERO, ONE}:
        assert cocycle_eval(g, x) == _ref_cocycle(g, x), (w1, x)
        assert cocycle_eval(h, x) == _ref_cocycle(h, x), (w2, x)


def test_plmap_rejects_malformed_pieces():
    half = dy(1, 1)
    cases = [
        ((half, ONE), (0,), "breakpoints must run from 0 to 1"),
        ((ZERO, half), (0,), "breakpoints must run from 0 to 1"),
        ((ZERO,), (), "breakpoints must run from 0 to 1"),
        ((ZERO, half, ONE), (0,), "need one slope per piece"),
        ((ZERO, half, half, ONE), (1, 0, -1), "breakpoints must be strictly ascending"),
        ((ZERO, dy(3, 2), half, ONE), (1, 0, -1), "breakpoints must be strictly ascending"),
        ((ZERO, half, ONE), (0, 0), "not canonical: adjacent pieces share a slope"),
        ((ZERO, half, ONE), (1, -2), "map does not fix 1"),
        ((ZERO, dy(1, 2), ONE), (-1, 1), "map does not fix 1"),
    ]
    for bps, slopes, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            PLMap(bps, slopes)
    with pytest.raises(ValueError, match="outside"):
        g0_map().apply_fraction(Fraction(3, 2))
