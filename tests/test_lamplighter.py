import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from extamen.dyadic import Dyadic, ROOT
from extamen.errors import CapExceeded, StructuralAssertFailed
from extamen.freegroup import Z_E, ZBall, ZVertex, z_apply
from extamen.graph import (
    ROOT_CODE,
    act_letter,
    act_word,
    ball,
    code,
    evolve,
    struct_act,
    vertex,
)
from extamen.lamplighter import (
    EMPTY,
    LAMP_LETTERS,
    SetFn,
    apply_letter,
    config,
    lamp_action,
    markov_iterate,
    orbit_enumerate,
    parse_config,
    serialize_config,
    switch_invariant_check,
    to_codes,
)
from extamen.minfn import minfun
from extamen.harmonic import canonical_phi_u
from extamen.walks import spectral_radius_proxy
from oracles import apply_word, dyadic_move, transition_series


def dy(num, exp):
    return Dyadic(num, exp)


BALL6 = ball(ROOT, 6).vertices
ZBALL6 = ZBall(6)


def act_on_config(E: tuple, word: str, act, root, key=None) -> tuple:
    """The oracle of lamp_action: one plain pass over the lamps per letter,
    rightmost letter first; 's' toggles the lamp at root."""
    for ch in reversed(word):
        if ch == "s":
            E = tuple(x for x in E if x != root) if root in E else config(E + (root,), key)
        else:
            E = tuple(sorted((act(ch, x) for x in E), key=key))
    return E


def z_act(ch, v):
    return z_apply(v, ch)


def z_start(E):
    """A free-group configuration with as many lamps as the Dyadic one E."""
    return config((ZBALL6[BALL6.index(x)] for x in E), key=ZVertex.sort_key)


# (name, act, root, key, how a configuration of vertices becomes a start)
_ACTIONS = [("dyadic", act_letter, ROOT, None, lambda E: E),
            ("struct", struct_act, ROOT_CODE, None, to_codes),
            ("freegroup", z_act, Z_E, ZVertex.sort_key, z_start)]
_ACTION_PARAMS = pytest.mark.parametrize("act, root, key, start", [a[1:] for a in _ACTIONS],
                                         ids=[a[0] for a in _ACTIONS])


@st.composite
def configs(draw, max_size=5):
    pts = draw(st.lists(st.sampled_from(BALL6), max_size=max_size))
    return config(pts)


lamp_words = st.text(alphabet="aAbBs", max_size=8)


def test_config_normalizes():
    E = config([dy(3, 2), ROOT, dy(3, 2)])
    assert E == (ROOT, dy(3, 2)) and len(E) == 2


def test_serialize_roundtrip_explicit():
    E = config([ROOT, dy(11, 4)])
    assert serialize_config(E) == "5/2^3,11/2^4"
    assert parse_config("11/2^4, 5/2^3") == E
    assert parse_config("") == EMPTY


@given(configs())
@settings(max_examples=100)
def test_serialize_roundtrip(E):
    assert parse_config(serialize_config(E)) == E


def test_toggle_is_involution():
    for E in (EMPTY, (ROOT,), config([dy(1, 1), dy(3, 2)])):
        once = apply_letter(E, "s")
        assert apply_letter(once, "s") == E
        assert (ROOT in once) != (ROOT in E)


@given(configs(), st.sampled_from("aAbB"))
@settings(max_examples=100)
def test_letters_act_pointwise_and_injectively(E, ch):
    img = apply_letter(E, ch)
    assert len(img) == len(E)
    assert sorted(img) == list(img)


@given(configs(), lamp_words, lamp_words)
@settings(max_examples=80, deadline=None)
def test_apply_word_concatenates(E, w1, w2):
    assert apply_word(E, w1 + w2) == apply_word(apply_word(E, w2), w1)


def test_apply_word_rightmost_first():
    # 'sa' switches after moving; 'as' moves the switched-on lamp
    assert apply_word(EMPTY, "sa") == (ROOT,)
    assert apply_word(EMPTY, "as") == (dy(11, 4),)


def test_orbit_depth_one():
    # addresses by default, Dyadic vertices by the Dyadic move
    assert orbit_enumerate(EMPTY, 1) == {EMPTY: "", (ROOT_CODE,): "s"}
    orbit = orbit_enumerate(EMPTY, 1, move=dyadic_move())
    assert orbit == {EMPTY: "", (ROOT,): "s"}


def test_orbit_witness_words_replay():
    orbit = orbit_enumerate(config([ROOT]), 3, move=dyadic_move())
    assert all(apply_word((ROOT,), w) == C for C, w in orbit.items())
    assert all(len(w) <= 3 for w in orbit.values())
    on_codes = orbit_enumerate((ROOT_CODE,), 3)
    assert all(act_word(w, (ROOT_CODE,), lamp_action()) == C for C, w in on_codes.items())
    assert list(on_codes.values()) == list(orbit.values())


def test_orbit_cap():
    with pytest.raises(CapExceeded):
        orbit_enumerate(EMPTY, 6, cap=20)


def _orbit_reference(E, n, act, root, key=None, cap=10**6):
    """The breadth-first orbit with every image from act_on_config."""
    seen = {E: ""}
    frontier = [E]
    for _ in range(n):
        nxt = []
        for C in frontier:
            for ch in LAMP_LETTERS:
                img = act_on_config(C, ch, act, root, key)
                if img not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"orbit exceeds cap {cap}")
                    seen[img] = ch + seen[C]
                    nxt.append(img)
        frontier = nxt
    return seen


_ORBIT_STARTS = [(EMPTY, 5), ((ROOT,), 4), (config([dy(9, 4), dy(1, 1), dy(23, 5)]), 4)]


@_ACTION_PARAMS
def test_orbit_tables_match_the_act_on_config_orbit(act, root, key, start):
    for E, n in _ORBIT_STARTS:
        E = start(E)
        got = orbit_enumerate(E, n, move=lamp_action(act, root, key))
        # same configurations, witness words and insertion order
        assert list(got.items()) == list(_orbit_reference(E, n, act, root, key).items())


@_ACTION_PARAMS
def test_orbit_cap_raises_at_the_reference_size(act, root, key, start):
    E, n = start(EMPTY), 4
    full = len(_orbit_reference(E, n, act, root, key))
    # every cap below the orbit's size raises, the size itself does not
    for cap in range(1, full + 1):
        try:
            want = _orbit_reference(E, n, act, root, key, cap=cap)
        except CapExceeded:
            with pytest.raises(CapExceeded):
                orbit_enumerate(E, n, cap=cap, move=lamp_action(act, root, key))
        else:
            assert orbit_enumerate(E, n, cap=cap, move=lamp_action(act, root, key)) == want


def _counting(act):
    calls = Counter()

    def counted(ch, x):
        calls[ch, x] += 1
        return act(ch, x)

    return counted, calls


@_ACTION_PARAMS
def test_orbit_acts_once_per_letter_and_lamp(act, root, key, start):
    counting, calls = _counting(act)
    E = start(config([dy(9, 4), dy(11, 4)]))
    orbit = orbit_enumerate(E, 5, move=lamp_action(counting, root, key))
    assert orbit == _orbit_reference(E, 5, act, root, key)
    assert calls and max(calls.values()) == 1
    assert {ch for ch, _ in calls} == set("aAbB")


@_ACTION_PARAMS
def test_lamp_action_matches_the_oracle(act, root, key, start):
    rng = random.Random(17)
    move = lamp_action(act, root, key)
    for _ in range(200):
        C = start(config(rng.sample(BALL6, rng.randrange(6))))
        word = "".join(rng.choice("aAbBs") for _ in range(rng.randrange(9)))
        # one move for every sample, so tables filled by one word serve the next
        assert act_word(word, C, move) == act_on_config(C, word, act, root, key), (C, word)
        for ch in LAMP_LETTERS:
            want = act_on_config(C, ch, act, root, key)
            # a fresh move takes the first-use path, the shared one its tables
            assert lamp_action(act, root, key)(ch, C) == want, (C, ch)
            assert move(ch, C) == want, (C, ch)


@_ACTION_PARAMS
def test_lamp_action_acts_once_per_letter_and_lamp(act, root, key, start):
    counting, calls = _counting(act)
    move = lamp_action(counting, root, key)
    C = start(config([dy(9, 4), dy(11, 4), dy(1, 1)]))
    counts = {C: 1}
    for _ in range(4):
        counts = evolve(counts, LAMP_LETTERS, move)
    rng = random.Random(4)
    for _ in range(50):
        word = "".join(rng.choice("aAbBs") for _ in range(rng.randrange(12)))
        assert act_word(word, C, move) == act_on_config(C, word, act, root, key)
    assert calls and max(calls.values()) == 1
    assert sum(counts.values()) == 5**4


@pytest.mark.parametrize("C", [EMPTY, (ROOT_CODE,), ((2, 0), (3, 0))])
def test_lamp_action_refuses_an_unknown_letter(C):
    with pytest.raises(ValueError, match="unknown letter 'x'"):
        lamp_action()("x", C)
    with pytest.raises(ValueError, match="unknown letter 'c'"):
        act_word("ac", C, lamp_action())


def test_lamp_spectral_proxy_matches_the_dyadic_oracle():
    # the proxy squares half-walks; the oracle walks the whole way, one-sided
    N = 10
    series = transition_series(
        EMPTY, EMPTY, N, LAMP_LETTERS, lambda ch, E: act_on_config(E, ch, act_letter, ROOT)
    )
    for n in range(2, N + 1):
        want = max(float(series[k]) ** (1.0 / k) for k in range(2, n + 1, 2) if series[k] > 0)
        assert spectral_radius_proxy(n, "lamp") == want, n


def _naive_iterate(F, E, n):
    total = Fraction(0)
    for word in product(LAMP_LETTERS, repeat=n):
        total += F(apply_word(E, "".join(word)))
    return total / 5**n


def test_markov_iterate_matches_naive():
    F = minfun(canonical_phi_u())
    for E in (EMPTY, (ROOT,), config([dy(11, 4), dy(1, 1)])):
        for n in range(4):
            assert markov_iterate(F, to_codes(E), n) == _naive_iterate(F, E, n), f"{E} n={n}"


def _dyadic_iterate(F, E, n):
    # the same dynamic programming as markov_iterate, on Dyadic configurations
    counts = {E: 1}
    for _ in range(n):
        counts = evolve(counts, LAMP_LETTERS, lambda ch, C: apply_letter(C, ch))
    return sum(Fraction(c, 5**n) * F(C) for C, c in counts.items())


def test_markov_iterate_on_addresses_matches_the_dyadic_walk():
    F = minfun(canonical_phi_u())
    rng = random.Random(5)
    for _ in range(8):
        E = config(rng.sample(BALL6, rng.randrange(4)))
        for n in range(5):
            assert markov_iterate(F, to_codes(E), n) == _dyadic_iterate(F, E, n), (E, n)


def test_code_configurations_round_trip():
    rng = random.Random(2)
    for _ in range(50):
        E = config(rng.sample(BALL6, rng.randrange(6)))
        assert config(vertex(*c) for c in to_codes(E)) == E
        assert to_codes(E) == tuple(sorted(code(x) for x in E))


def test_markov_iterate_cap():
    F = minfun(canonical_phi_u())
    with pytest.raises(CapExceeded):
        markov_iterate(F, EMPTY, 9)
    with pytest.raises(ValueError):
        markov_iterate(F, EMPTY, -1)


def test_markov_iterate_checks_its_path_counts(monkeypatch):
    # a step that loses a word fails the 5**n check, also under python -O
    def lossy(counts, letters, move):
        out = evolve(counts, letters, move)
        out[next(iter(out))] -= 1
        return out

    monkeypatch.setattr("extamen.lamplighter.evolve", lossy)
    with pytest.raises(StructuralAssertFailed, match=r"path counts sum to 4, not 5\*\*1"):
        markov_iterate(minfun(canonical_phi_u()), EMPTY, 1)


def test_markov_apply_is_one_step_iterate():
    F = minfun(canonical_phi_u())
    rng = random.Random(3)
    for _ in range(20):
        E = config(rng.sample(BALL6, rng.randrange(4)))
        assert markov_iterate(F, to_codes(E), 1) == _naive_iterate(F, E, 1)


def test_setfn_derives_fn_from_scaled():
    F = SetFn("halves", scaled=lambda C: (len(C) + 2, 1))
    assert F(EMPTY) == 1 and F((ROOT,)) == Fraction(3, 2)
    assert type(F(EMPTY)) is Fraction
    with pytest.raises(TypeError, match="needs fn or scaled"):
        SetFn("nothing")


def test_switch_invariance_of_minfun():
    F = minfun(canonical_phi_u())
    rng = random.Random(11)
    samples = [to_codes(config(rng.sample(BALL6, rng.randrange(5)))) for _ in range(50)]
    ok, results = switch_invariant_check(F.fn, samples)
    assert ok, [str(E) for E, flag in results if not flag]


def test_switch_invariance_catches_size_counter():
    sized = lambda E: Fraction(len(E))
    ok, _ = switch_invariant_check(sized, [EMPTY, (ROOT_CODE,)])
    assert not ok
