import random
from dataclasses import replace
from functools import partial
from fractions import Fraction

import pytest

from extamen.approx import (
    BETA_SCHEDULES,
    CONSTRUCTIONS,
    EXPLICIT_MAX_N,
    GOLDEN_MAX_N,
    construct,
    construct_En_countable,
    construct_En_markov,
    construct_En_single,
    construct_En_sum,
    explicit_En_hairs,
    find_vertex_below,
    generalized_En_search,
    golden_witness,
    strong_verify,
    weak_verify,
)
from extamen.dyadic import Dyadic, ROOT
from extamen.errors import (
    CapExceeded,
    PreconditionFailed,
    SearchExhausted,
    StructuralAssertFailed,
    ZeroBase,
)
from extamen.graph import ball, classify, hair_point, vertex
from extamen.harmonic import VertexFn, canonical_phi_u, phi_family, pow2
from extamen.lamplighter import (
    EMPTY,
    LAMP_LETTERS,
    SetFn,
    config,
    orbit_enumerate,
    to_codes,
)
from extamen.minfn import (
    countable_sum,
    markov_image,
    minfun,
    phi_family_tail_bound,
    r_family_kmean,
    resolve_setfn,
    weighted_sum,
)
import oracles
from oracles import apply_word, dyadic_move, phi_family_oracle


def dy(num, exp):
    return Dyadic(num, exp)


def family_sum(n):
    return countable_sum(pow2(-n))


def test_beta_schedules():
    assert BETA_SCHEDULES["inv_n"](4) == Fraction(1, 4)
    assert BETA_SCHEDULES["inv_2n"](4) == Fraction(1, 16)
    assert set(BETA_SCHEDULES) == {"inv_n", "inv_2n"}


def test_explicit_first_levels():
    assert explicit_En_hairs(1) == (dy(3, 3),)
    assert explicit_En_hairs(3) == (dy(9, 7), dy(19, 8), dy(39, 9))
    # the fold on addresses against the fold of the Dyadic action
    for n in range(1, 33):
        assert explicit_En_hairs(n) == oracles.explicit_hairs(n), n
    with pytest.raises(PreconditionFailed):
        explicit_En_hairs(0)


def test_explicit_lamp_cap_refuses_before_building(monkeypatch):
    # the family costs O(n^2), so a size past the cap builds no lamp at all
    def no_lamp(*args):
        raise AssertionError("a lamp was built")

    monkeypatch.setattr("extamen.approx.act_word", no_lamp)
    with pytest.raises(CapExceeded, match=f"explicit:{EXPLICIT_MAX_N + 1} exceeds the lamp cap"):
        explicit_En_hairs(EXPLICIT_MAX_N + 1)


def test_explicit_lamps_sit_on_distinct_hairs():
    E = explicit_En_hairs(4)
    assert len(E) == 4
    for x in E:
        addr = classify(x)
        assert addr.offset == 4, f"{x} at offset {addr.offset}"


def test_explicit_exactly_invariant():
    for n in (2, 3, 4):
        E = explicit_En_hairs(n)
        rep = strong_verify(family_sum(n), E, n, pow2(-n))
        assert rep.passed and rep.worst_deviation == 0, f"n={n}: {rep.worst_deviation}"


def test_strong_verify_zero_base():
    zero = SetFn(name="zero", fn=lambda E: Fraction(0))
    with pytest.raises(ZeroBase):
        strong_verify(zero, EMPTY, 2, Fraction(1, 2))
    # a scaled reader's zero numerator, at any exponent
    with pytest.raises(ZeroBase):
        strong_verify(SetFn(name="zero", scaled=lambda C: (0, 5)), EMPTY, 2, Fraction(1, 2))


def test_strong_verify_worst_word_replays():
    F = minfun(canonical_phi_u())
    E = (ROOT,)
    rep = strong_verify(F, E, 3, Fraction(1, 3))
    assert not rep.passed
    dev = abs(F(apply_word(E, rep.worst_word)) - rep.base_value) / rep.base_value
    assert dev == rep.worst_deviation == Fraction(7, 8)


def test_weak_verify_is_a_lower_bound():
    F = minfun(canonical_phi_u())
    E = (ROOT,)
    strong = strong_verify(F, E, 3, Fraction(1, 3))
    weak = weak_verify(F, E, 3, Fraction(1, 3), samples=200, seed=1)
    assert weak.checked == 200
    assert 0 < weak.worst_deviation <= strong.worst_deviation
    again = weak_verify(F, E, 3, Fraction(1, 3), samples=200, seed=1)
    assert again.worst_word == weak.worst_word


def test_weak_verify_refuses_a_negative_seed():
    # random.Random(-3) draws what random.Random(3) does
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        weak_verify(minfun(canonical_phi_u()), (ROOT,), 3, Fraction(1, 3), samples=5, seed=-3)


def _verify_reference(F, E, n, beta, mode, pairs):
    """The deviation scan as strong_verify and weak_verify each wrote it."""
    base = F(E)
    worst, worst_word, checked = Fraction(0), "", 0
    for C, word in pairs:
        checked += 1
        dev = abs(F(C) - base) / base
        if dev > worst:
            worst, worst_word = dev, word
    return (F.name, E, n, beta, mode, checked, base, worst_word, worst)


def _fields(rep):
    return (rep.fn_name, rep.E, rep.n, rep.beta, rep.mode, rep.checked,
            rep.base_value, rep.worst_word, rep.worst_deviation)


def test_verifiers_match_their_reference_scans():
    F = minfun(canonical_phi_u())
    for E in (EMPTY, (ROOT,), config([dy(9, 4), hair_point(dy(11, 4), 3)])):
        for n in (1, 3):
            beta = Fraction(1, 3)
            orbit = orbit_enumerate(E, n, move=dyadic_move()).items()
            assert _fields(strong_verify(F, E, n, beta)) == _verify_reference(
                F, E, n, beta, "strong", orbit)
            rng = random.Random(4)
            words = ["".join(rng.choice(LAMP_LETTERS) for _ in range(rng.randint(1, n)))
                     for _ in range(50)]
            pairs = [(apply_word(E, word), word) for word in words]
            assert _fields(weak_verify(F, E, n, beta, samples=50, seed=4)) == _verify_reference(
                F, E, n, beta, "weak", pairs)


def _tie(sign):
    """A user SetFn: 2 plus the clamp to [-1, 1] of a sum over the lamps of
    sign on a hair walked by B, -sign on one walked by A and sign/2 at node 3.
    Its up and down deviations from the empty set tie at 1/2; its values are
    integers but at node 3, so deviations come out as floats and Fractions."""
    def fn(C):
        total = sum(sign * (-1 if m > 0 else 1) if m else
                    (sign * Fraction(1, 2) if node == 3 else 0) for node, m in C)
        return 2 + max(-1, min(1, total))
    return SetFn(f"tie:{sign}", fn=fn)


def _scaled_tie(sign):
    """_tie(sign) as a scaled reader: its values counted in halves over 2**1."""
    def scaled(C):
        halves = sum(sign * (-2 if m > 0 else 2) if m else
                     (sign if node == 3 else 0) for node, m in C)
        return 4 + max(-2, min(2, halves)), 1
    return SetFn(f"scaled_tie:{sign}", scaled=scaled)


def _deepening():
    """A scaled user SetFn: 3 plus the sum of the hair offsets m over 2**(the
    number of lamps), read over that power of two and not in lowest terms,
    so that skeleton lamps read 3 at every exponent and the orbit of the
    empty set raises the exponent with each lamp it switches on."""
    return SetFn("deepening", scaled=lambda C: ((3 << len(C)) + sum(m for _, m in C), len(C)))


def test_deviation_ties_go_to_the_earlier_word():
    # the orbit of the empty set meets A's hair at 'As' before B's at 'Bs',
    # so tie:1 reaches its lower value first and tie:-1 its upper value; the
    # scaled ties compare integers and end on the same word
    for sign in (1, -1):
        orbit = orbit_enumerate(EMPTY, 2, move=dyadic_move())
        assert all(_scaled_tie(sign)(C) == _tie(sign)(C) for C in orbit)
        for F in (_tie(sign), _scaled_tie(sign)):
            rep = strong_verify(F, EMPTY, 2, Fraction(1, 2))
            assert (rep.worst_word, rep.worst_deviation) == ("As", Fraction(1, 2))
        assert type(rep.worst_deviation) is Fraction
    rep = strong_verify(SetFn("constant", fn=lambda C: 3), EMPTY, 2, Fraction(1, 2))
    assert (rep.worst_word, rep.worst_deviation) == ("", 0)
    assert type(rep.worst_deviation) is Fraction


def _set_functions():
    """Every kind of registry set function, with the largest level it is
    verified at here."""
    phi_u = canonical_phi_u()
    # phi_u read through its Dyadic vertex
    plain_phi = VertexFn("plain_phi_u", lambda c: phi_u(vertex(*c)),
                         superharmonic=True, max_at_p=True)
    lamps = SetFn("lamps", fn=lambda C: Fraction(
        len(C) + 1, 1 + sum(node.bit_length() + abs(m) for node, m in C)))
    return [
        ("minfun:phi_u", resolve_setfn("minfun:phi_u"), 7),
        ("minfun:phi:0", resolve_setfn("minfun:phi:0"), 7),
        ("minfun:phi:2", resolve_setfn("minfun:phi:2"), 7),
        ("gmin:kmean:2:3:phi_u", resolve_setfn("gmin:kmean:2:3:phi_u"), 7),
        ("gmin:kmean:1:2:phi:1", resolve_setfn("gmin:kmean:1:2:phi:1"), 7),
        ("sum:phi_family", resolve_setfn("sum:phi_family:eps=1/128"), 7),
        # the family sum written out in Fractions, by fn alone
        ("sum:generic", SetFn("sum:oracle", fn=partial(
            phi_family_oracle, phi_family_tail_bound(Fraction(1, 16)))), 7),
        ("markov_image", weighted_sum(
            [markov_image(minfun(phi_u), 1), minfun(phi_family(1))],
            [Fraction(1), Fraction(1, 2)]), 4),
        ("minfun:plain_phi_u", minfun(plain_phi), 7),
        ("user", lamps, 7),
        # user functions whose up and down deviations tie, and one that never moves
        ("tie:1", _tie(1), 7),
        ("tie:-1", _tie(-1), 7),
        ("constant", SetFn("constant", fn=lambda C: 3), 7),
        # scaled user readers
        ("scaled_tie:1", _scaled_tie(1), 7),
        ("scaled_tie:-1", _scaled_tie(-1), 7),
        ("deepening", _deepening(), 5),
    ]


SET_FUNCTIONS = _set_functions()


@pytest.mark.parametrize("F, top", [f[1:] for f in SET_FUNCTIONS],
                         ids=[f[0] for f in SET_FUNCTIONS])
def test_verifiers_match_the_dyadic_path(F, top):
    # the orbit and the random words of the verifiers run on addresses; the
    # reference scans run them on Dyadic configurations and call F there
    cases = [(EMPTY, 5), ((ROOT,), 4), (config([dy(9, 4), hair_point(dy(11, 4), 3)]), 6),
             (explicit_En_hairs(3), 7)]
    for E, n in cases:
        n = min(n, top)
        beta = Fraction(1, n)
        orbit = orbit_enumerate(E, n, move=dyadic_move())
        rng = random.Random(n)
        words = ["".join(rng.choice(LAMP_LETTERS) for _ in range(rng.randint(1, n)))
                 for _ in range(40)]
        pairs = [(apply_word(E, word), word) for word in words]
        for rep, want in [
            (strong_verify(F, E, n, beta), _verify_reference(
                F, E, n, beta, "strong", orbit.items())),
            (weak_verify(F, E, n, beta, samples=40, seed=n), _verify_reference(
                F, E, n, beta, "weak", pairs)),
        ]:
            assert _fields(rep) == want
            assert type(rep.base_value) is type(want[6])
            assert type(rep.worst_deviation) is type(want[-1])


def test_scan_raises_its_exponent_mid_scan():
    F, n, beta = _deepening(), 4, Fraction(1, 4)
    orbit = orbit_enumerate(EMPTY, n, move=dyadic_move())
    exps = [F.scaled(to_codes(C))[1] for C in orbit]
    # the first value off the base comes at a shallower exponent than later ones
    moved = next(i for i, C in enumerate(orbit) if F(C) != F(EMPTY))
    assert 0 < max(exps[:moved + 1]) < max(exps)
    rep = strong_verify(F, EMPTY, n, beta)
    assert _fields(rep) == _verify_reference(F, EMPTY, n, beta, "strong", orbit.items())
    assert rep.worst_deviation > 0 and type(rep.base_value) is Fraction


def test_a_traced_fn_beside_scaled_verifies_as_the_reference():
    # the benchmark's tracer wraps fn by dataclasses.replace; scaled stays
    F = resolve_setfn("sum:phi_family:eps=1/32")
    calls = []

    def traced(C):
        calls.append(C)
        return F.fn(C)

    G = replace(F, fn=traced)
    assert (G.fn, G.scaled) == (traced, F.scaled)
    E, n, beta = config([dy(9, 4), hair_point(dy(11, 4), 3)]), 4, Fraction(1, 4)
    rep = strong_verify(G, E, n, beta)
    assert not calls
    orbit = orbit_enumerate(E, n, move=dyadic_move())
    want = _verify_reference(G, E, n, beta, "strong", orbit.items())
    assert calls and _fields(rep) == want and rep.worst_deviation > 0


def test_golden_witness_vacant_path():
    w = golden_witness((dy(11, 4),), 5)
    assert w.word == "bs" and w.case == "vacant-path" and w.index == 0
    assert w.deviation == Fraction(48, 127)


def test_golden_witness_spine_lamp():
    w = golden_witness((ROOT,), 5)
    assert w.word == "b" and w.case == "spine-lamp" and w.index == 0
    assert w.deviation == Fraction(32, 127)


def test_golden_witness_empty_set():
    w = golden_witness(EMPTY, 2)
    assert w.word == "bs"
    assert w.deviation >= Fraction(1, 4)


def test_golden_witness_skips_occupied_subtrees():
    # a lamp in subtree 0 pushes the witness to index 1
    E = config([dy(9, 4), hair_point(dy(11, 4), 3)])
    w = golden_witness(E, 6)
    assert w.index == 1
    assert len(w.word) <= 6


def test_golden_witness_preconditions():
    with pytest.raises(PreconditionFailed):
        golden_witness((ROOT,), 2)
    with pytest.raises(PreconditionFailed):
        golden_witness(EMPTY, 1)


def test_golden_witness_checks_its_guarantee():
    # a target the word cannot move fails the check, also under python -O
    flat = SetFn(name="flat", fn=lambda C: Fraction(1))
    with pytest.raises(StructuralAssertFailed, match="moved the sum by 0"):
        golden_witness((ROOT,), 5, F=flat)


def test_golden_witness_cap_refuses_before_building_the_sum(monkeypatch):
    # the reported fractions lie over about 2^n; at the cap they still print
    w = golden_witness((ROOT,), GOLDEN_MAX_N)
    assert w.deviation >= pow2(-GOLDEN_MAX_N) and len(str(w.deviation)) > 4000

    def no_sum(*args, **kwargs):
        raise AssertionError("the family sum was built")

    monkeypatch.setattr("extamen.approx.countable_sum", no_sum)
    for n in (GOLDEN_MAX_N + 1, 99_999_999_999):
        with pytest.raises(CapExceeded, match=f"golden witness level {n} exceeds the cap"):
            golden_witness((ROOT,), n)


def test_golden_witness_random_configs():
    verts = ball(ROOT, 6).vertices
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(4, 7)
        E = config(rng.sample(verts, rng.randrange(n - 1)))
        w = golden_witness(E, n)
        assert w.deviation >= pow2(-n), f"{E} n={n}"
        assert len(w.word) <= n
        assert (w.word, w.index, w.case, w.deviation) == oracles.golden_witness(E, n)


def test_golden_witness_matches_the_dyadic_oracle():
    # the witness on addresses against the golden path of Dyadic vertices
    verts = ball(ROOT, 5).vertices
    rng = random.Random(29)
    cases = set()
    for _ in range(200):
        n = rng.randint(4, 8)
        E = config(rng.sample(verts, rng.randrange(n - 1)))
        w = golden_witness(E, n)
        assert (w.word, w.index, w.case, w.deviation) == oracles.golden_witness(E, n), (E, n)
        cases.add((w.case, w.index > 0))
    assert len(cases) == 4


def test_construct_single_frozen_constants():
    res = construct_En_single(canonical_phi_u(), 4)
    notes = dict(res.notes)
    assert notes["level_min"] == "1/4"
    assert notes["threshold"] == "1/256"
    assert notes["base_vertex"] == "12287/2^14"
    assert notes["hair_offset"] == "16"
    assert res.beta == Fraction(1, 4)
    assert len(res.E) == 1


def test_construct_single_depth_scales():
    res = construct_En_single(canonical_phi_u(), 6)
    (lamp,) = res.E
    addr = classify(lamp)
    assert addr.offset == 36
    assert len(addr.base) == 14


def test_construct_countable_frozen_constants():
    res = construct_En_countable(4)
    notes = dict(res.notes)
    assert notes["delta"] == "1/8192"
    assert notes["index_cutoff"] == "17"
    assert notes["lamps"] == "18"
    assert notes["hair_offset"] == "64"
    assert len(res.E) == 18


def test_constructors_verify_at_n4():
    single = construct_En_single(canonical_phi_u(), 4)
    assert strong_verify(single.setfn, single.E, 4, single.beta).worst_deviation == 0

    summed = construct_En_sum([phi_family(0), phi_family(1)], 4)
    assert strong_verify(summed.setfn, summed.E, 4, summed.beta).worst_deviation == 0


def test_construct_markov_delegates():
    res = construct_En_markov([phi_family(0), phi_family(1)], [0, 1], 3)
    assert dict(res.notes)["delegated_level"] == "4"
    rep = strong_verify(res.setfn, res.E, 3, res.beta)
    assert rep.worst_deviation == 0
    with pytest.raises(PreconditionFailed):
        construct_En_markov([phi_family(0)], [0, 1], 3)


def test_construct_reads_the_kind_table():
    assert list(CONSTRUCTIONS) == ["single", "sum", "markov", "countable"]
    assert construct("single", 3).E == construct_En_single(canonical_phi_u(), 3).E
    phis = [phi_family(i) for i in range(3)]
    assert construct("sum", 3).E == construct_En_sum(phis, 3).E
    markov = construct("markov", 2)
    assert markov.setfn.name == construct_En_markov(phis[:2], [1, 1], 2).setfn.name
    assert construct("countable", 2).E == construct_En_countable(2).E
    named = construct("markov", 2, fn="phi_u,phi:1", powers="2,0", beta=BETA_SCHEDULES["inv_2n"])
    assert named.setfn.name == "1*P^2[minfun:phi_u]+1*P^0[minfun:phi:1]"
    assert named.beta == Fraction(1, 4)
    for kind, fn in (("bogus", None), ("bogus", "phi:0"), ("single", "phi:0,phi:1")):
        with pytest.raises(KeyError):
            construct(kind, 3, fn=fn)
    # an option the kind does not read is refused, not ignored
    with pytest.raises(ValueError, match="'countable' takes no fn"):
        construct("countable", 3, fn="phi:0")
    for kind in ("single", "sum", "countable"):
        with pytest.raises(ValueError, match=f"'{kind}' takes no powers"):
            construct(kind, 3, powers="1,1")


def test_construct_requires_level_two():
    with pytest.raises(PreconditionFailed):
        construct_En_single(canonical_phi_u(), 1)
    with pytest.raises(PreconditionFailed):
        construct_En_sum([], 4)


def test_find_vertex_below_uses_and_checks_hints():
    phi = canonical_phi_u()
    q = find_vertex_below(phi, pow2(-20))
    assert phi(q) < pow2(-20)

    lying = replace(phi, find_below=lambda t: ROOT)
    with pytest.raises(StructuralAssertFailed):
        find_vertex_below(lying, pow2(-20))
    with pytest.raises(PreconditionFailed):
        find_vertex_below(phi, Fraction(0))


def test_find_vertex_below_scans_without_hint():
    bare = replace(phi_family(0), find_below=None)
    q = find_vertex_below(bare, pow2(-7))
    assert bare(q) < pow2(-7)
    # the scan on addresses against the scan of Dyadic levels
    for phi in oracles.scan_fns():
        bare = replace(phi, find_below=None)
        for t in (Fraction(3, 4), Fraction(1, 5), pow2(-5), Fraction(3, 1000)):
            want = oracles.scan_below(bare, t, 12)
            assert want is not None and find_vertex_below(bare, t) == want, (phi.name, t)


def test_find_vertex_below_scan_gives_up():
    flat = VertexFn(name="flat", fn=lambda c: Fraction(1))
    with pytest.raises(SearchExhausted) as exc:
        find_vertex_below(flat, Fraction(1, 2))
    assert exc.value.frontier["width"] > 0


def test_generalized_search_finds_n4():
    res = generalized_En_search(r_family_kmean(2, 2), canonical_phi_u(), 4)
    assert res.found is not None and res.tried == 1
    assert res.report.passed and res.report.worst_deviation == 0
    assert len(res.found) == 2


def test_generalized_search_zero_budget():
    res = generalized_En_search(r_family_kmean(1, 1), canonical_phi_u(), 4, budget=0)
    assert res.found is None and res.tried == 0 and res.report is None


def test_reports_serialize():
    rep = strong_verify(minfun(canonical_phi_u()), (ROOT,), 2, Fraction(1, 2))
    d = rep.to_json()
    assert d["mode"] == "strong" and d["set"] == "5/2^3"
    res = construct_En_single(canonical_phi_u(), 4)
    assert res.to_json()["notes"]["hair_offset"] == "16"
    w = golden_witness(EMPTY, 3)
    assert w.to_json()["word"] == w.word
