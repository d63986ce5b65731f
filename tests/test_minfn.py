import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from extamen.dyadic import Dyadic, ROOT
from extamen.errors import PreconditionFailed, PropertySelfTestFailed, StructuralAssertFailed
from extamen.approx import construct_En_countable, explicit_En_hairs
from extamen.graph import (
    ROOT_CODE,
    act_letter,
    act_word,
    ball,
    code,
    hair_point,
    node_info,
    vertex,
    vertex_at,
)
from extamen.harmonic import VertexFn, canonical_phi_u, phi_family, pow2
from extamen.lamplighter import EMPTY, config, markov_iterate, orbit_enumerate, to_codes
from extamen.minfn import (
    SymmetricConcaveFn,
    T_operator,
    countable_sum,
    generalized_minfun,
    markov_image,
    minfun,
    non_superharmonic_transfer,
    parse_rational,
    phi_family_tail_bound,
    r_family_kmean,
    resolve_phi,
    resolve_setfn,
    weighted_sum,
)
from oracles import dyadic_move, phi_family_oracle, struct_info


def dy(num, exp):
    return Dyadic(num, exp)


BALL6 = ball(ROOT, 6).vertices


def rand_configs(count, seed, max_size=5):
    rng = random.Random(seed)
    return [config(rng.sample(BALL6, rng.randrange(max_size + 1))) for _ in range(count)]


def test_minfun_values():
    F = minfun(canonical_phi_u())
    assert F(EMPTY) == 4
    assert F((ROOT,)) == 4
    assert F(config([ROOT, dy(23, 5)])) == 1
    assert F(config([dy(11, 4), dy(9, 4)])) == 2
    assert F.superharmonic


def test_minfun_warns_without_root_max():
    grows = VertexFn(name="grows", fn=lambda c: Fraction(1 + struct_info(vertex(*c))[2]))
    with pytest.warns(UserWarning):
        minfun(grows)


def _T_on_vertices(F, E, alpha):
    """T_operator on a configuration of Dyadic vertices, moved by act_letter."""
    move = dyadic_move()
    t1 = (F(move("a", E)) + F(move("b", E)) + F(move("A", E)) + F(move("B", E))) / 4
    return alpha * t1 + (1 - alpha) * F(move("s", E))


def test_T_operator_interpolates():
    F = minfun(canonical_phi_u())
    E = config([dy(11, 4)])
    C = to_codes(E)
    # alpha = 4/5 is the plain 5-letter walk
    assert T_operator(F, C, Fraction(4, 5)) == markov_iterate(F, C, 1)
    for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        assert T_operator(F, C, alpha) <= F(E), f"alpha={alpha}"
    with pytest.raises(ValueError):
        T_operator(F, C, Fraction(1))


def test_T_never_exceeds_superharmonic_F():
    fns = [minfun(canonical_phi_u()), minfun(phi_family(0)), minfun(phi_family(2))]
    alphas = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    for E in rand_configs(60, seed=5):
        for F in fns:
            for alpha in alphas:
                got = T_operator(F, to_codes(E), alpha)
                assert got == _T_on_vertices(F, E, alpha), f"{F.name} at {E}"
                assert got <= F(E), f"{F.name} at {E}"


def test_transfer_of_violation():
    phi_u = canonical_phi_u()
    q = act_word("aa", ROOT, act_letter)

    def dipped_fn(v):
        return Fraction(1, 64) if v == q else phi_u(v)

    dipped = VertexFn(name="dipped", fn=lambda c: dipped_fn(vertex(*c)), max_at_p=True)
    rep = non_superharmonic_transfer(dipped, q)
    assert rep.vertex_gap == 1 - Fraction(1, 64)
    assert rep.set_margin == Fraction(4, 5) * rep.vertex_gap
    assert rep.ok


def test_transfer_checks_its_margin(monkeypatch):
    # a walk average off by any amount fails the 4/5 check, also under python -O
    phi_u = canonical_phi_u()
    q = act_word("aa", ROOT, act_letter)
    dipped = VertexFn("dipped", fn=lambda c: Fraction(1, 64) if c == code(q) else phi_u.fn(c),
                      max_at_p=True)
    monkeypatch.setattr("extamen.minfn.markov_iterate", lambda F, C, n: F.fn(C))
    with pytest.raises(StructuralAssertFailed, match="transfer margin 0 is not 4/5"):
        non_superharmonic_transfer(dipped, q)


def test_transfer_rejects_superharmonic_point():
    with pytest.raises(PreconditionFailed):
        non_superharmonic_transfer(canonical_phi_u(), dy(11, 4))
    with pytest.raises(PreconditionFailed):
        non_superharmonic_transfer(canonical_phi_u(), ROOT)


def test_weighted_sum():
    F = minfun(canonical_phi_u())
    G = minfun(phi_family(0))
    H = weighted_sum([F, G], [Fraction(1, 2), Fraction(3)])
    E = config([dy(9, 4)])
    assert H(E) == Fraction(1, 2) * F(E) + 3 * G(E)
    assert H.superharmonic
    with pytest.raises(ValueError):
        weighted_sum([F], [Fraction(0)])
    with pytest.raises(ValueError):
        weighted_sum([F, G], [Fraction(1)])


def assert_scaled(F, C, want):
    """F's scaled reader gives want at the configuration C as an integer pair
    (num, e), e >= 0, and F.fn, derived from it, gives the same Fraction."""
    codes = to_codes(C)
    num, e = F.scaled(codes)
    assert type(num) is int and type(e) is int and e >= 0, (C, num, e)
    assert Fraction(num, 1 << e) == want, (C, num, e, want)
    got = F.fn(codes)
    assert got == want and type(got) is type(want) is Fraction, (C, got, want)


def test_phi_u_exponent_reader_matches_fn():
    # every node of depth below 14, on the skeleton and 3 out on either hair
    # (the reader reads the node alone), against the node_info depth form
    fn = canonical_phi_u().fn
    k = fn.exponent
    for node in range(1, 1 << 14):
        _, _, depth = node_info(node)
        for m in (0, 3, -3):
            c = (node, m)
            got = k(c)
            assert type(got) is int and pow2(-got) == pow2(2 - depth) == fn(c), c
    assert k(ROOT_CODE) == -2 and fn(ROOT_CODE) == 4


def test_minfun_reader_matches_the_fraction_minimum():
    phi = canonical_phi_u()
    F = minfun(phi)
    for C in [EMPTY, (ROOT,), config([ROOT, dy(23, 5)]), *rand_configs(80, seed=21)]:
        codes = to_codes(C)
        assert_scaled(F, C, min(map(phi.fn, codes)) if codes else phi.fn(ROOT_CODE))
    # vertex functions whose fn carries no reader give minfuns without one
    plain = VertexFn("plain", fn=lambda c: phi.fn(c), max_at_p=True)
    for psi in (plain, phi_family(0), phi_family(3)):
        assert minfun(psi).scaled is None
    # a scaled term leaves a weighted sum on its Fraction fn
    assert weighted_sum([F, F], [1, 1]).scaled is None


def test_parse_rational_bounds_the_decimal_exponent():
    # leading zeros and underscores do not count towards the magnitude
    assert parse_rational("1E+0_000_003") == 1000
    assert parse_rational("25e-0000000000002") == Fraction(1, 4)
    for s in ("1e-1000001", "1e1000001", "1e99999999999999999999", "2.5E-1_000_001 "):
        with pytest.raises(ValueError, match=r"exceeds 10\^6 in magnitude"):
            parse_rational(s)


def test_tail_bound():
    assert phi_family_tail_bound(Fraction(1, 2**20)) == 21
    assert phi_family_tail_bound(Fraction(1)) == 1
    with pytest.raises(ValueError):
        phi_family_tail_bound(Fraction(0))


def _tail_bound_by_halving(eps):
    # the smallest N with 2^-N < eps, one halving at a time
    N = 0
    while pow2(-N) >= eps:
        N += 1
    return N


def test_tail_bound_closed_form_matches_halving():
    rng = random.Random(23)
    cases = [Fraction(1, 2**k) for k in range(70)] + [Fraction(3, 2**k) for k in range(70)]
    cases += [Fraction(2**k + d, 2**j) for k in range(40) for j in range(45) for d in (-1, 1)
              if 2**k + d > 0]
    cases += [Fraction(rng.randrange(1, 10**rng.randrange(1, 30)),
                       rng.randrange(1, 10**rng.randrange(1, 30))) for _ in range(2000)]
    cases += [Fraction(7, 10**k) for k in range(60)] + [Fraction(10**k, 3) for k in range(5)]
    for eps in cases:
        assert phi_family_tail_bound(eps) == _tail_bound_by_halving(eps), eps
    # 1e-30000 needs about 10^5 halvings; the closed form takes bit lengths
    assert phi_family_tail_bound(Fraction(1, 10**30000)) == 99658


def test_resolve_setfn_bounds_the_tail_index():
    # eps = 2^-1023 reads members up to phi:1024, 2^-1024 would read phi:1025
    F = resolve_setfn(f"sum:phi_family:eps=1/{2**1023}")
    assert F(EMPTY) == 2 - pow2(-1024)
    for eps in (f"1/{2**1024}", "1e-400", "1e-30000"):
        with pytest.raises(ValueError, match="needs phi indices above 1024"):
            resolve_setfn(f"sum:phi_family:eps={eps}")


def test_countable_sum_truncation():
    eps = Fraction(1, 2**20)
    F = countable_sum(eps)
    assert F.name == "sum:phi_family:eps=1/1048576"
    # empty set: sum of the root values 2**-i, i = 0..21
    assert F(EMPTY) == 2 - pow2(-21)


def assert_matches_oracle(F, configs):
    # the sum truncates at the tail bound of the eps it is named by
    N = phi_family_tail_bound(Fraction(F.name.removeprefix("sum:phi_family:eps=")))
    for C in configs:
        assert_scaled(F, C, phi_family_oracle(N, to_codes(C)))


def test_phi_family_sum_matches_oracle_on_explicit_orbits():
    for n in range(1, 8):
        F = countable_sum(pow2(-n))
        assert_matches_oracle(F, orbit_enumerate(explicit_En_hairs(n), n, move=dyadic_move()))


def test_phi_family_sum_matches_oracle_on_countable_orbit():
    result = construct_En_countable(4)
    assert_matches_oracle(result.setfn, orbit_enumerate(result.E, 4, move=dyadic_move()))


def test_phi_family_sum_reads_nodes_as_node_info_does():
    # a single skeleton lamp lowers term lead from 2^-lead to 2^-depth exactly
    # when node_info's lead <= N and depth > lead; the root (node 1) and the
    # all-ones nodes have depth == lead and lower nothing
    for k in (0, 3, 13):
        F, N = countable_sum(pow2(-k)).fn, phi_family_tail_bound(pow2(-k))
        empty = F(())
        for node in range(1, 1 << 14):
            lead, _, depth = node_info(node)
            picked = lead <= N and depth > lead
            want = empty - pow2(-lead) + pow2(-depth) if picked else empty
            assert F(((node, 0),)) == want, (N, node)
    # the root and the all-ones nodes, which the inline read gives lead + 1
    for depth in range(14):
        assert node_info((2 << depth) - 1) == (depth, False, depth)


@st.composite
def lamp_configs(draw):
    """Lamps on the spine, inside subtrees (several per subtree, some with
    index above the truncation), on hairs, and the empty set."""
    lamps = []
    for _ in range(draw(st.integers(0, 6))):
        lead = draw(st.integers(0, 9))
        tail = draw(st.lists(st.sampled_from("LR"), max_size=4))
        path = "L" * lead + ("R" + "".join(tail) if draw(st.booleans()) else "")
        lamps.append(hair_point(vertex_at(path), draw(st.integers(0, 3))))
    return config(lamps)


@given(st.integers(0, 7), lamp_configs())
@settings(max_examples=300, deadline=None)
def test_phi_family_sum_matches_oracle_on_drawn_configs(k, C):
    assert_matches_oracle(countable_sum(pow2(-k)), [C, EMPTY])


def test_markov_image():
    F = minfun(canonical_phi_u())
    P1 = markov_image(F, 1)
    E = config([dy(11, 4)])
    assert P1(E) == markov_iterate(F, to_codes(E), 1)
    assert markov_image(F, 0)(E) == F(E)


def test_kmean_family_self_tests():
    for k, m in [(1, 1), (1, 3), (2, 3), (3, 3)]:
        r = r_family_kmean(k, m)
        r.ensure_tested()
    with pytest.raises(ValueError):
        r_family_kmean(3, 2)
    assert r_family_kmean(1, 64).arity == 64
    with pytest.raises(ValueError, match="exceeds the bound 64"):
        r_family_kmean(1, 65)


def test_kmean_values():
    r = r_family_kmean(2, 3)
    assert r((Fraction(1), Fraction(1, 2), Fraction(1, 4))) == Fraction(3, 8)
    with pytest.raises(ValueError):
        r((Fraction(1),))


def test_self_test_catches_asymmetry():
    first = SymmetricConcaveFn(name="first", arity=2, fn=lambda xs: xs[0])
    with pytest.raises(PropertySelfTestFailed):
        first.ensure_tested()


def test_self_test_catches_convexity():
    top = SymmetricConcaveFn(name="max", arity=2, fn=lambda xs: max(xs))
    with pytest.raises(PropertySelfTestFailed):
        top.ensure_tested()


def test_generalized_minfun_extends_minfun():
    phi = canonical_phi_u()
    F = minfun(phi)
    for m in (1, 2, 4):
        G = generalized_minfun(r_family_kmean(1, m), phi)
        for E in rand_configs(30, seed=m):
            assert G(E) * phi(ROOT) == F(E), f"m={m} at {E}"


def test_generalized_minfun_pads_with_one():
    G = generalized_minfun(r_family_kmean(2, 2), canonical_phi_u())
    assert G(EMPTY) == 1
    assert G((dy(23, 5),)) == (Fraction(1, 4) + 1) / 2


@given(st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_kmean_between_min_and_mean(k, m):
    if k > m:
        return
    r = r_family_kmean(k, m)
    rng = random.Random(k * 10 + m)
    for _ in range(50):
        xs = tuple(Fraction(rng.randint(1, 32), 32) for _ in range(m))
        val = r(xs)
        assert min(xs) <= val <= sum(xs) / m, f"{xs} -> {val}"


def test_resolve_setfn_roundtrips():
    for name in ("phi_u", "phi:0", "phi:7"):
        assert resolve_phi(name).name == name
    for name in ("minfun:phi_u", "minfun:phi:2", "gmin:kmean:2:3:phi_u", "gmin:kmean:1:2:phi:1"):
        F = resolve_setfn(name)
        assert F.name == name
    F = resolve_setfn("sum:phi_family:eps=1/1048576")
    assert F(EMPTY) == 2 - pow2(-21)
    assert resolve_setfn("sum:phi_family:eps=1e-6")(EMPTY) > 0
    # eps is a number, named in lowest terms whatever its spelling
    for eps in ("1e-6", "0.000001", "2/2000000", "1/1000000"):
        assert resolve_setfn(f"sum:phi_family:eps={eps}").name == "sum:phi_family:eps=1/1000000"


def test_resolve_setfn_rejects_unknown():
    for bad in ("minfun:psi", "gmin:median:2:3:phi_u", "sum:phi_family", "nope",
                "minfun", "gmin", "gmin:kmean:2:3", "sum",
                # trailing text and integers not written as str writes them
                "minfun:phi_u:junk", "minfun:phi_u:", "gmin:kmean:2:3:phi_u:x", "minfun:phi:1:2",
                "minfun:phi:01", "gmin:kmean:02:3:phi_u", "minfun:phi: 1", "minfun:phi_u\n"):
        with pytest.raises(KeyError):
            resolve_setfn(bad)
    for bad in ("phi_u:junk", "phi:1:2", "phi:01", "phi:-1", "phi:x", "phi", "phi_family"):
        with pytest.raises(KeyError):
            resolve_phi(bad)


def test_resolve_phi_bounds_the_family_index():
    # phi:<i> is exact down to 2^-1024; past that its values outgrow str and pow2
    assert resolve_phi("phi:1024").name == "phi:1024"
    assert resolve_setfn("minfun:phi:1024").name == "minfun:phi:1024"
    for index in ("1025", "20000", "99999999999", "9" * 5000):
        message = f"phi index {index} exceeds the bound 1024"
        for name in (f"phi:{index}", f"minfun:phi:{index}", f"gmin:kmean:2:3:phi:{index}"):
            resolve = resolve_phi if name.startswith("phi") else resolve_setfn
            with pytest.raises(ValueError) as exc:
                resolve(name)
            assert exc.value.args == (message,), name


# tokens of the name grammar, well- and ill-formed, each half the time.
# Integers stay small, as a kmean arity m costs ensure_tested 1000 probes of
# m coordinates, and every positive eps is at least 2^-64.
_ints = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "4"]),
    st.sampled_from(["-1", "01", "+1", " 1", "1_0", "x", "", "1/0", "inf", "\u0661"]),
)
_eps = st.one_of(
    st.sampled_from(["1/2", "1/1024", f"1/{2 ** 64}", "1e-6", "0.5", "2/4", "3"]),
    st.sampled_from(["0", "-1/2", "1/0", "inf", "-inf", "nan", "", "x", "1:2"]),
)
_words = st.sampled_from(
    ["minfun", "gmin", "kmean", "sum", "phi_family", "phi", "phi_u", "eps=1/2", "psi"]
)
_phi_names = st.one_of(st.just("phi_u"), _ints.map("phi:{}".format), _words)
_heads = st.one_of(
    _phi_names,
    _phi_names.map("minfun:{}".format),
    st.tuples(_ints, _ints, _phi_names).map(lambda t: "gmin:kmean:{}:{}:{}".format(*t)),
    _eps.map("sum:phi_family:eps={}".format),
    st.lists(st.one_of(_words, _ints), min_size=1, max_size=4).map(":".join),
)
_tails = st.one_of(st.just([]), st.lists(st.one_of(_words, _ints), min_size=1, max_size=2))
_names = st.tuples(_heads, _tails).map(lambda t: ":".join([t[0], *t[1]]))


@given(_names)
@settings(max_examples=300, deadline=None)
def test_every_name_resolves_exactly_or_is_refused(name):
    # only what the command line maps to one "unusable input" line may escape
    for resolve in (resolve_phi, resolve_setfn):
        try:
            F = resolve(name)
        except (KeyError, ValueError, ZeroDivisionError, OverflowError):
            continue
        expected = name
        if name.startswith("sum:phi_family:eps="):
            expected = f"sum:phi_family:eps={parse_rational(name[19:])}"
        assert F.name == expected
