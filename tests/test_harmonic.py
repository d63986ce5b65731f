import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from extamen import harmonic
from extamen.dyadic import Dyadic, ROOT
from extamen.errors import CapExceeded, PreconditionFailed
from extamen.graph import (
    ROOT_CODE,
    Hair,
    ball,
    classify,
    code,
    golden_path,
    hair_point,
    node_info,
    vertex,
    vertex_at,
)
from extamen.harmonic import (
    SuperharmonicReport,
    VertexFn,
    canonical_phi_u,
    harmonic_witness_search,
    hair_property_suite,
    is_superharmonic_on,
    level_min,
    markov_apply_X,
    phi_family,
    pow2,
)
from extamen.minfn import _PHI_MAX_INDEX
import oracles
from oracles import neighbor_mean, struct_info


def dy(num, exp):
    return Dyadic(num, exp)


def test_pow2():
    assert pow2(3) == 8
    assert pow2(0) == 1
    assert pow2(-4) == Fraction(1, 16)
    assert type(pow2(-4)) is Fraction and type(pow2(3)) is Fraction
    assert pow2.cache_info().maxsize == 1024


def test_phi_u_values():
    phi = canonical_phi_u()
    assert phi(ROOT) == 4
    assert phi(dy(11, 4)) == 2
    assert phi(dy(9, 4)) == 2
    assert phi(dy(1, 1)) == 4
    assert phi(dy(3, 2)) == 4
    assert phi(dy(23, 5)) == 1
    assert phi(dy(13, 4)) == 2


def test_phi_u_margin_only_at_root():
    phi = canonical_phi_u()
    assert markov_apply_X(phi, ROOT_CODE) == neighbor_mean(phi, ROOT) == 3
    rep = is_superharmonic_on(phi, ball(ROOT, 4))
    assert rep.ok
    for v, _, _, margin in rep.entries:
        want = 1 if v == ROOT else 0
        assert margin == want, f"margin {margin} at {v}"


def test_phi_family_values():
    f0, f1 = phi_family(0), phi_family(1)
    assert f0(ROOT) == 1
    assert f0(dy(9, 4)) == Fraction(1, 2)
    assert f0(dy(3, 3)) == Fraction(1, 2)
    assert f0(dy(11, 4)) == 1
    assert f1(ROOT) == Fraction(1, 2)
    with pytest.raises(ValueError):
        phi_family(-1)


# The families read a node inline; node_info and struct_info are the oracles.
# Every node below 2^14 and the all-ones nodes (where the inline trailing-ones
# count is node_info's lead plus one) up to past the index cap, each at
# offsets 0 and +-3, with its node_info.
@lru_cache(maxsize=None)
def _read_cases():
    nodes = [*range(1, 1 << 14), *((2 << d) - 1 for d in range(14, _PHI_MAX_INDEX + 2))]
    return [((node, m), node_info(node)) for node in nodes for m in (0, 3, -3)]


_PHI_INDICES = [*range(17), 40, _PHI_MAX_INDEX]


def _phi_family_misreads(fn, n):
    """The addresses where fn is not phi_family(n) as node_info defines it."""
    off = pow2(-n)
    bad = []
    for c, (lead, deeper, depth) in _read_cases():
        want = pow2(-depth) if lead == n and deeper else off
        got = fn(c)
        if got != want or type(got) is not Fraction:
            bad.append(c)
    return bad


def test_read_cases_agree_with_struct_info_where_the_hair_exists():
    for (node, m), info in _read_cases():
        try:
            v = vertex(node, m)
        except ValueError:
            assert m, node
        else:
            assert struct_info(v) == info, (node, m)


def test_phi_family_inline_read_matches_node_info():
    for n in _PHI_INDICES:
        assert _phi_family_misreads(phi_family(n).fn, n) == [], n


def test_phi_family_read_check_catches_a_dropped_depth_guard():
    def unguarded(n):
        def fn(c):
            node = c[0]
            if (node ^ (node + 1)).bit_length() - 1 == n:
                return pow2(1 - node.bit_length())
            return pow2(-n)

        return fn

    # without n < depth, an all-ones node of depth n - 1 reads as in subtree n
    for n in _PHI_INDICES[1:]:
        assert ((2 << (n - 1)) - 1, 0) in _phi_family_misreads(unguarded(n), n), n


def test_phi_u_inline_read_matches_node_info():
    fn = canonical_phi_u().fn
    for c, (_, _, depth) in _read_cases():
        got = fn(c)
        assert got == pow2(2 - depth) and type(got) is Fraction, c
        assert fn.exponent(c) == depth - 2, c


def test_phi_family_golden_pattern():
    # the path a^i then one b-step drops the value by exactly one power of two
    for i in range(5):
        fi = phi_family(i)
        vals = [fi(v) for v in golden_path(i)]
        assert vals == [pow2(-i)] * (i + 1) + [pow2(-(i + 1))], f"i={i}: {vals}"


def test_phi_family_superharmonic():
    B = ball(ROOT, 5)
    for i in range(4):
        rep = is_superharmonic_on(phi_family(i), B)
        assert rep.ok, f"phi:{i} violations {rep.violations}"


def test_phi_constant_on_hairs():
    phi = canonical_phi_u()
    f1 = phi_family(1)
    for path in [(), ("L",), ("R", "L"), ("L", "R", "R")]:
        v = vertex_at(path)
        for m in (1, 2, 5):
            h = hair_point(v, m)
            assert phi(h) == phi(v)
            assert f1(h) == f1(v)


def test_hair_suite_constant_function():
    rep = hair_property_suite(canonical_phi_u(), ROOT, 10)
    assert rep.ok
    assert rep.values == [Fraction(4)] * 11


def _ray_fn(increment):
    """Base value 1, linear growth along the root B-ray, 1/4 elsewhere."""

    def fn(v):
        if v == ROOT:
            return Fraction(1)
        addr = classify(v)
        if isinstance(addr, Hair) and addr.base == () and v.value >= Fraction(3, 4):
            return Fraction(1 + increment * addr.offset)
        return Fraction(1, 4)

    return VertexFn(f"ray:{increment}", lambda c: fn(vertex(*c)))


def test_hair_suite_linear_growth_passes():
    rep = hair_property_suite(_ray_fn(2), ROOT, 8)
    assert rep.ok, rep.failures
    assert rep.values == [Fraction(1 + 2 * m) for m in range(9)]


def test_hair_suite_rejects_non_superharmonic_base():
    # slope 4 forces P phi > phi at the base
    with pytest.raises(PreconditionFailed):
        hair_property_suite(_ray_fn(4), ROOT, 8)


def test_hair_suite_rejects_nonpositive():
    with pytest.raises(PreconditionFailed):
        hair_property_suite(VertexFn("zero", lambda c: Fraction(0)), ROOT, 3)


def test_level_min_phi_u():
    for n in range(6):
        best, witness = level_min(canonical_phi_u(), n)
        assert best == pow2(2 - n)
        addr = classify(witness)
        assert len(addr.path) == n, f"witness {witness} not at depth {n}"


def test_level_min_family():
    best, witness = level_min(phi_family(0), 4)
    assert best == pow2(-4)
    assert struct_info(witness) == (0, True, 4)


def test_level_min_rejects_interior_minimum():
    def dip(v):
        _, _, depth = struct_info(v)
        return Fraction(2) if depth == 1 else Fraction(3)

    with pytest.raises(PreconditionFailed):
        level_min(VertexFn("dip", lambda c: dip(vertex(*c))), 2)


def test_level_min_matches_the_dyadic_scan():
    for phi in oracles.scan_fns():
        for n in range(9):
            assert level_min(phi, n) == oracles.level_min(phi, n), (phi.name, n)


def test_markov_apply_matches_the_dyadic_neighbour_mean():
    for phi in oracles.scan_fns():
        for v in ball(ROOT, 5).vertices:
            assert markov_apply_X(phi, code(v)) == neighbor_mean(phi, v), (phi.name, v)


def test_level_min_refuses_a_level_past_the_scan_width(monkeypatch):
    # level n holds 2^n skeleton vertices; 2^17 is past SCAN_WIDTH_CAP = 2^16,
    # refused before any vertex of it is made
    def refuse_to_scan(*args):
        raise AssertionError("the scan started")

    assert harmonic.SCAN_WIDTH_CAP == 1 << 16
    monkeypatch.setattr(harmonic, "struct_act", refuse_to_scan)
    with pytest.raises(CapExceeded, match="skeleton level 17 is wider than the scan cap 65536"):
        level_min(canonical_phi_u(), 17)
    monkeypatch.undo()
    # the bound is the constant's: at cap 2^4, level 4 is scanned and level 5 refused
    monkeypatch.setattr(harmonic, "SCAN_WIDTH_CAP", 1 << 4)
    assert level_min(canonical_phi_u(), 4)[0] == pow2(-2)
    with pytest.raises(CapExceeded, match="skeleton level 5 is wider than the scan cap 16"):
        level_min(canonical_phi_u(), 5)


def test_level_min_monotone_in_depth():
    vals = [level_min(canonical_phi_u(), n)[0] for n in range(7)]
    assert all(x >= y for x, y in zip(vals, vals[1:])), vals


def test_find_below_hints():
    phi = canonical_phi_u()
    for k in (3, 9, 17):
        q = phi.find_below(pow2(-k))
        assert phi(q) < pow2(-k)
    f2 = phi_family(2)
    q = f2.find_below(pow2(-11))
    assert f2(q) < pow2(-11)


def test_harmonic_witness_search():
    B = ball(ROOT, 2)
    phi = canonical_phi_u()
    assert harmonic_witness_search(phi, 2, 3, B, Fraction(4)) == ROOT
    assert harmonic_witness_search(phi, 2, 3, B, Fraction(5)) is None
    with pytest.raises(ValueError):
        harmonic_witness_search(phi, 0, 3, B, Fraction(4))


def test_vertexfn_metadata():
    phi = canonical_phi_u()
    assert phi.name == "phi_u"
    assert phi.superharmonic and phi.max_at_p
    assert phi(ROOT) == phi.fn(code(ROOT)) == 4


@given(st.integers(0, 3), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_family_bounded_by_index_value(i, m):
    fi = phi_family(i)
    v = hair_point(vertex_at(("L",) * m), 1)
    assert 0 < fi(v) <= pow2(-i), f"phi:{i}({v}) = {fi(v)}"


def test_superharmonic_report_roundtrip():
    rep = is_superharmonic_on(canonical_phi_u(), ball(ROOT, 2))
    assert rep.margin_at(ROOT) == 1
    d = rep.to_json()
    assert d["ok"] is True and d["violations"] == []
    assert d["interior_vertices"] == len(ball(ROOT, 2).interior())
    with pytest.raises(KeyError):
        rep.margin_at(dy(1, 5))


def _sweep_reference(phi, region):
    """The per-vertex sweep: phi and its neighbour mean at each interior vertex."""
    rep = SuperharmonicReport(region.center, region.radius)
    for v in region.interior():
        val = phi(v)
        pval = neighbor_mean(phi, v)
        margin = val - pval
        rep.entries.append((v, val, pval, margin))
        if margin < 0:
            rep.violations.append((v, margin))
    return rep


def _identical(got, want):
    """Equal entries and violations, element by element, with equal types."""
    assert len(got.entries) == len(want.entries)
    assert len(got.violations) == len(want.violations)
    for g, w in zip(got.entries + got.violations, want.entries + want.violations):
        assert [type(x) for x in g] == [type(x) for x in w], (g, w)
        assert g == w


def _sweep_cases():
    """Exact families, then exact functions with violations, floats and ints,
    each a VertexFn on addresses."""
    depth = lambda c: struct_info(vertex(*c))[2]
    cases = [canonical_phi_u()] + [phi_family(i) for i in range(6)]
    cases += [VertexFn("value", lambda c: Fraction(vertex(*c).num, 1 << vertex(*c).exp))]
    cases += [VertexFn("sqrt", lambda c: math.sqrt(vertex(*c).num) / vertex(*c).exp)]
    cases += [VertexFn("depth", depth), VertexFn("3depth-10", lambda c: 3 * depth(c) - 10)]
    # two that read m, so a value kept per node would be wrong
    cases += [VertexFn("by_m", lambda c: Fraction(c[1] + 3, 2 + node_info(c[0])[2]))]
    cases += [VertexFn("by_offset", lambda c: Fraction(1, 1 + abs(c[1])))]
    return cases


def test_sweep_matches_reference():
    for center in (ROOT, hair_point(vertex_at("L"), 2)):
        for r in range(9):
            shared = ball(center, r)
            for phi in _sweep_cases():
                want = _sweep_reference(phi, shared)
                _identical(is_superharmonic_on(phi, shared), want)
                _identical(is_superharmonic_on(phi, ball(center, r)), want)


def test_sweep_shares_work_only_between_equal_value_tuples():
    # two shared value objects.  step: on a hair walked by B, offsets 1 and
    # 2 agree on their own, a, b and A values and differ in their B image's.
    # bump: node 4 differs from the root in its own value only
    one, two = Fraction(1), Fraction(2)
    step = VertexFn("step", lambda c: two if c[1] <= -3 else one)
    bump = VertexFn("bump", lambda c: two if c == (4, 0) else one)
    for phi in (step, bump):
        for r in range(6):
            B = ball(ROOT, r)
            _identical(is_superharmonic_on(phi, B), _sweep_reference(phi, B))
        assert not is_superharmonic_on(phi, ball(ROOT, 3)).ok


def test_sweep_cases_cover_violations_and_value_types():
    B = ball(ROOT, 4)
    reps = [is_superharmonic_on(phi, B) for phi in _sweep_cases()]
    value_types = {type(e[1]) for rep in reps for e in rep.entries}
    margin_types = {type(e[3]) for rep in reps for e in rep.entries}
    assert value_types == {Fraction, float, int}
    assert margin_types == {Fraction, float}
    assert all(rep.ok for rep in reps[:7])
    assert all(not rep.ok for rep in reps[7:])
