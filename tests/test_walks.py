import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies

import extamen
from extamen.dyadic import ONE, ROOT, ZERO, Dyadic
from extamen.errors import CapExceeded, PreconditionFailed, StructuralAssertFailed
from extamen.graph import (
    EDGE_LABELS,
    ROOT_CODE,
    act_letter,
    act_word,
    ball,
    code,
    evolve,
    hair_point,
    struct_act,
    vertex,
    vertex_at,
)
from extamen.harmonic import VertexFn, canonical_phi_u, pow2
from extamen.lamplighter import (
    EMPTY,
    LAMP_LETTERS,
    Config,
    SetFn,
    apply_letter,
    config,
    to_codes,
)
from extamen.minfn import minfun
from extamen.walks import (
    LUMPED_LETTERS,
    _DRAW_WORDS,
    _MC_BLOCK,
    _MC_K,
    _MC_MAX_STEPS,
    SERIES_MAX_N,
    StructuralLampWalk,
    WalkConfig,
    _NO_PARK,
    _counts,
    _lamp_codes,
    _letters,
    _lumped_act,
    _mc_letters,
    _mc_tables,
    _scaled,
    delta_check_phi_u,
    green_mc,
    green_partial,
    lumped_return_series,
    pn_exact,
    potential_decay_experiment,
    power_partial_sums,
    return_prob,
    spectral_radius_proxy,
    supermartingale_check,
)
from oracles import apply_word, mirror_letters, neighbor_mean, transition_series


def dy(num, exp):
    return Dyadic(num, exp)


def test_return_series_oracle():
    u = lumped_return_series(5)
    assert u == [
        Fraction(1),
        Fraction(0),
        Fraction(1, 4),
        Fraction(1, 16),
        Fraction(1, 8),
        Fraction(1, 16),
    ]


def test_lumped_matches_full_walk():
    u = lumped_return_series(10)
    for n in range(11):
        assert u[n] == pn_exact(ROOT, ROOT, n), f"n={n}"


def test_pn_exact_one_step_and_negative_n():
    assert pn_exact(dy(11, 4), ROOT, 1) == Fraction(1, 4)
    with pytest.raises(ValueError):
        pn_exact(ROOT, ROOT, -1)


def test_pn_exact_counts_words():
    # P^n(x, y) is the share of the 4^n words over aAbB that carry x to y
    hair = hair_point(vertex_at("LR"), 2)
    pairs = [(ROOT, ROOT), (ROOT, hair), (hair, hair), (vertex_at("R"), vertex_at("LR"))]
    for n in range(6):
        words = ["".join(w) for w in product("aAbB", repeat=n)]
        for x, y in pairs:
            hits = sum(act_word(w, x, act_letter) == y for w in words)
            assert pn_exact(x, y, n) == Fraction(hits, 4**n), f"{x} -> {y}, n={n}"


def test_pn_exact_and_green_partial_match_the_dyadic_series():
    # the address walk against the same kernel on Dyadic vertices and act_letter
    rng = random.Random(11)
    near = ball(ROOT, 5).vertices
    for N in (7, 8):
        for _ in range(6):
            x = rng.choice(near)
            word = "".join(rng.choice("aAbB") for _ in range(rng.randint(0, 6)))
            y = act_word(word, x, act_letter)
            series = transition_series(x, y, N, EDGE_LABELS, act_letter)
            assert pn_exact(x, y, N) == series[-1], (x, y, N)
            r = Fraction(1, 3)
            assert green_partial(x, y, r, N) == power_partial_sums(series, r)[-1], (x, y, N)


def test_pn_exact_and_green_partial_refuse_non_vertices():
    # 0 and 1 are fixed by every letter but are not vertices of the graph
    for bad in (ZERO, ONE):
        for x, y in ((bad, bad), (bad, ROOT), (ROOT, bad)):
            with pytest.raises(ValueError, match="not a vertex"):
                pn_exact(x, y, 3)
            with pytest.raises(ValueError, match="not a vertex"):
                green_partial(x, y, Fraction(1, 2), 4)


def test_series_length_cap():
    # refused before any series is built, as the cost grows like N^3.3
    N = SERIES_MAX_N + 1
    for call in (lambda: lumped_return_series(N), lambda: return_prob(N),
                 lambda: pn_exact(ROOT, vertex_at("L"), N),
                 lambda: green_partial(ROOT, ROOT, Fraction(1, 2), N)):
        with pytest.raises(CapExceeded, match=f"series length {N} exceeds the cap"):
            call()


def test_transition_series_validates():
    with pytest.raises(ValueError):
        transition_series((0, 0), (0, 0), -1, LUMPED_LETTERS, _lumped_act)
    with pytest.raises(CapExceeded):
        transition_series((0, 0), (0, 0), 6, LUMPED_LETTERS, _lumped_act, cap=4)


def test_green_partial_oracles():
    assert green_partial(ROOT, ROOT, Fraction(1), 2) == Fraction(5, 4)
    assert green_partial(dy(11, 4), ROOT, Fraction(1), 2) == Fraction(1, 4)
    # lumped fast path agrees with the generic accumulation at r = 1/2
    u = lumped_return_series(6)
    manual = sum(t * Fraction(1, 2) ** k for k, t in enumerate(u))
    assert green_partial(ROOT, ROOT, Fraction(1, 2), 6) == manual


def test_green_partials_monotone_below_four():
    prev = Fraction(0)
    for N in range(13):
        g = green_partial(ROOT, ROOT, Fraction(1), N)
        assert prev <= g < 4, f"N={N}: {g}"
        prev = g


def _first_passage(start, target, N, letters, act):
    # [P(first visit to target at step t)] for t = 0..N: push path counts
    # through the walk, removing any that reach the target
    counts = {start: 1}
    f = [Fraction(0)]
    for t in range(1, N + 1):
        counts = evolve(counts, letters, act)
        f.append(Fraction(counts.pop(target, 0), len(letters) ** t))
    return f


def _taboo_first_return(N):
    return _first_passage((0, 0), (0, 0), N, LUMPED_LETTERS, _lumped_act)


def test_return_prob_matches_taboo_walk():
    for N in (0, 1, 2, 30):
        rep = return_prob(N)
        assert rep.first_return == _taboo_first_return(N), N
        assert rep.partials == list(accumulate(rep.first_return)), N
    rep = return_prob(12)
    assert rep.first_return == _taboo_first_return(12)
    assert rep.first_return[1] == 0
    assert rep.first_return[2] == Fraction(1, 4)
    assert rep.first_return[3] == Fraction(1, 16)


def test_return_partials_monotone_below_three_quarters():
    rep = return_prob(20)
    assert all(x <= y for x, y in zip(rep.partials, rep.partials[1:]))
    assert rep.partials[-1] < Fraction(3, 4)
    assert rep.total == Fraction(9798632157, 17179869184)


def _lumped_dp(N):
    # the depth/offset lumping pushed through N steps: O(N^2) states
    return transition_series((0, 0), (0, 0), N, LUMPED_LETTERS, _lumped_act)


@pytest.mark.parametrize("N", [*range(41), 120])
def test_root_recurrences_equal_the_lumped_dp(N):
    assert lumped_return_series(N) == _lumped_dp(N)


def _times(a, b):
    # the product of two power series, truncated to the length of a
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def test_first_passage_series_satisfy_the_quadratic_equations():
    # coefficient by coefficient, on series drawn from the lumped chain
    N = 24
    z = [Fraction(0), Fraction(1)] + [Fraction(0)] * (N - 1)
    # hair offset 1 to its base, skeleton depth 1 to the root
    H = _first_passage((1, 1), (1, 0), N, LUMPED_LETTERS, _lumped_act)
    S = _first_passage((1, 0), (0, 0), N, LUMPED_LETTERS, _lumped_act)
    U = return_prob(N).first_return
    G = lumped_return_series(N)
    q = Fraction(1, 4)
    assert H == [q * a + 2 * q * b + q * c for a, b, c in
                 zip(z, _times(z, H), _times(z, _times(H, H)))]
    assert S == [q * a + 2 * q * b + q * c for a, b, c in
                 zip(z, _times(z, _times(S, S)), _times(z, _times(H, S)))]
    assert U == [Fraction(1, 2) * c for c in _times(z, [a + b for a, b in zip(S, H)])]
    assert _times(G, [1 - U[0]] + [-c for c in U[1:]]) == [1] + [0] * N


def _taboo(x, y, N):
    # first passage from x to y on code addresses, one step at a time
    return _first_passage(code(x), code(y), N, EDGE_LABELS, struct_act)


def _factor(x, y, N):
    # F(x, y) = G(x, y) (1 - U_y), read back from the kernel's two series
    p, u = _counts(x, y, N)
    return [Fraction(c, 4**t) for t, c in enumerate(_times(p, [1] + [-c for c in u[1:]]))]


def _hair(base, j):
    # the vertex j steps out on the hair of base (the base itself for j = 0)
    return hair_point(base, j) if j else base


@pytest.mark.parametrize("x, y", [
    (vertex(1, 2), vertex(1, 1)),  # H
    (hair_point(vertex_at("LR"), 4), hair_point(vertex_at("LR"), 3)),  # H
    (hair_point(vertex_at("RRL"), 1), vertex_at("RRL")),  # H
    (vertex_at("L"), ROOT),  # S
    (vertex_at("RLR"), vertex_at("RL")),  # S
    (ROOT, vertex_at("R")),  # D_1
    (vertex_at("L"), vertex_at("LR")),  # D_2
    (vertex_at("LR"), vertex_at("LRR")),  # D_3
    (vertex_at("RRL"), vertex_at("RRLL")),  # D_4
    *[(_hair(base, j - 1), _hair(base, j))  # K_j at base depths 0, 1 and 3
      for base in (ROOT, vertex_at("L"), vertex_at("LRL")) for j in (1, 2, 3)],
    (vertex(1, -1), vertex(1, -2)),  # K_2 on the other root hair
    # N = 14 builds D_u and K_j up to u, j = 7 only: these read the last
    (vertex_at("LRLLRRL"), vertex_at("LRLLRRLL")),  # D_8
    (hair_point(vertex_at("R"), 8), hair_point(vertex_at("R"), 9)),  # K_9
])
def test_each_geodesic_factor_is_a_taboo_first_passage(x, y):
    assert _factor(x, y, 14) == _taboo(x, y, 14)


@pytest.mark.parametrize("y", [ROOT, vertex_at("LR"), vertex_at("LRLLRRLL"),
                               hair_point(vertex_at("R"), 2), vertex(1, -9)])
def test_first_return_is_a_taboo_first_passage(y):
    # depth 8 and offset 9 read the last D_u and K_j built at N = 14
    assert _scaled(_counts(y, y, 14)[1]) == _taboo(y, y, 14)


def _one_sided(x, y, N):
    # the full distribution from x pushed through N steps on addresses
    return transition_series(code(x), code(y), N, EDGE_LABELS, struct_act)


def _meet_pairs():
    rng = random.Random(14)
    near = ball(ROOT, 4).vertices
    root_hairs = [vertex(1, 1), vertex(1, -1)]
    ends = [hair_point(vertex_at("LR"), 3), hair_point(vertex_at("RRL"), 4), vertex(1, 5)]
    pairs = [(ROOT, ROOT), (ROOT, root_hairs[0]), (root_hairs[0], root_hairs[1]),
             (root_hairs[1], root_hairs[1]), (ends[0], ends[0]), (ends[1], ROOT),
             (root_hairs[0], ends[2]), (ends[2], ends[0])]
    for _ in range(10):
        x = rng.choice(near)
        pairs.append((x, x if rng.random() < 0.2 else rng.choice(near)))
    return pairs


@pytest.mark.parametrize("x, y", _meet_pairs())
def test_meet_in_the_middle_equals_the_one_sided_walk(x, y):
    # the geodesic factors against the full distribution pushed from x
    series = _one_sided(x, y, 9)
    for n in range(10):
        assert pn_exact(x, y, n) == series[n], n
        r = Fraction(2, 3)
        assert green_partial(x, y, r, n) == power_partial_sums(series[: n + 1], r)[-1], n


@strategies.composite
def _near_vertices(draw):
    # depth <= 6, offset <= 6 on any hair the base has: both at the root,
    # off it the one its last letter leaves
    depth = draw(strategies.integers(0, 6))
    node = 1 << depth | draw(strategies.integers(0, (1 << depth) - 1))
    m = draw(strategies.integers(0, 6))
    if depth == 0:
        m *= draw(strategies.sampled_from((1, -1)))
    elif node >> (depth - 1) & 1:
        m = -m  # last letter a: the hair walked by B
    return vertex(node, m)


@settings(max_examples=40, deadline=None)
@given(_near_vertices(), _near_vertices(), strategies.integers(0, 9))
def test_exact_series_equal_the_one_sided_walk_on_drawn_pairs(x, y, n):
    series = _one_sided(x, y, n)
    assert pn_exact(x, y, n) == series[n]
    r = Fraction(3, 5)
    assert green_partial(x, y, r, n) == power_partial_sums(series, r)[-1]


def _to_root(c):
    # the addresses from c to the root: each step the image under a letter
    # nearest the root, inward on a hair and to the parent on the skeleton
    path = [c]
    while path[-1] != ROOT_CODE:
        path.append(min((struct_act(ch, path[-1]) for ch in EDGE_LABELS),
                        key=lambda a: (abs(a[1]), a[0].bit_length())))
    return path


def _distance(x, y):
    # the tree with hairs has one geodesic: it turns where the root paths meet
    up = {a: i for i, a in enumerate(_to_root(code(y)))}
    return next(i + up[a] for i, a in enumerate(_to_root(code(x))) if a in up)


def _far_vertex(rng):
    depth = rng.randint(16, 24)
    node = 1 << depth | rng.getrandbits(depth)
    m = rng.choice((0, rng.randint(1, 40)))
    return vertex(node, -m if node >> (depth - 1) & 1 else m)


def test_exact_series_reach_deep_pairs():
    # the factorization is not symmetric in x and y, but P is
    rng = random.Random(19)
    N = 60
    pairs = []
    for _ in range(6):
        x = _far_vertex(rng)
        c = code(x)
        for ch in rng.choices(EDGE_LABELS, k=rng.randint(10, 50)):
            c = struct_act(ch, c)
        pairs += [(x, vertex(*c)), (x, _far_vertex(rng))]
    for x, y in pairs:
        p = _counts(x, y, N)[0]
        assert p == _counts(y, x, N)[0], (x, y)
        d = _distance(x, y)
        assert not any(p[:d]) and (d > N or p[d] > 0), (x, y, d)
    assert any(_distance(x, y) <= N for x, y in pairs)


def test_exact_series_cost_does_not_grow_with_depth_or_offset():
    far = [(vertex(1, 20000), vertex(1, 19999)), (vertex(1 << 5000), vertex(1 << 4999))]
    for x, y in far:
        start = time.perf_counter()
        p = pn_exact(x, y, 10)
        assert time.perf_counter() - start < 0.05
        assert p > 0


def test_exact_series_refuse_negative_n():
    for call in (
        lambda: lumped_return_series(-1),
        lambda: return_prob(-1),
        lambda: pn_exact(ROOT, ROOT, -1),
        lambda: pn_exact(ROOT, vertex(1, 1), -1),
        lambda: green_partial(ROOT, ROOT, Fraction(1, 2), -1),
        lambda: green_partial(vertex(1, 1), ROOT, Fraction(1, 2), -1),
    ):
        with pytest.raises(ValueError, match="n must be >= 0"):
            call()
    # a non-vertex endpoint is named before the horizon
    for bad in (ZERO, ONE):
        with pytest.raises(ValueError, match="not a vertex"):
            pn_exact(bad, ROOT, -1)
        with pytest.raises(ValueError, match="not a vertex"):
            green_partial(ROOT, bad, Fraction(1, 2), -1)


def test_green_mc_replays():
    a = green_mc(500, 2000, seed=7)
    b = green_mc(500, 2000, seed=7)
    assert a.estimate == b.estimate and a.stderr == b.stderr
    assert 2.5 < a.estimate < 4.5
    assert green_mc(500, 2000, seed=8).estimate != a.estimate


def _green_mc_reference(trials, steps, seed):
    """green_mc's estimator one step at a time: one draw of `trials` letters
    per step, (u, m) kept in two arrays and moved by masks.  Also returns the
    largest u and m reached."""
    rng = np.random.Generator(np.random.Philox(seed))
    u = np.zeros(trials, dtype=np.int64)
    m = np.zeros(trials, dtype=np.int64)
    visits = np.ones(trials, dtype=np.int64)
    top_u, top_m = u.copy(), m.copy()
    for _ in range(steps):
        r = rng.integers(0, 4, size=trials)
        at_root = (m == 0) & (u == 0)
        on_skel = (m == 0) & (u > 0)
        on_hair = m > 0
        child = (m == 0) & (r < 2)
        to_parent = on_skel & (r == 2)
        to_hair = (on_skel & (r == 3)) | (at_root & (r >= 2))
        h_down = on_hair & (r == 0)
        h_up = on_hair & (r == 1)
        u = u + child - to_parent
        m = np.where(to_hair, 1, m - h_down + h_up)
        visits += (u == 0) & (m == 0)
        np.maximum(top_u, u, out=top_u)
        np.maximum(top_m, m, out=top_m)
    est, err = float(visits.mean()), float(visits.std(ddof=1)) / math.sqrt(trials)
    return est, err, int(top_u.max()), int(top_m.max())


def _green_mc_plain(trials, steps, seed, chunk=4096):
    """green_mc's estimator one trial at a time in plain Python, with the
    lumped rules written out: from the skeleton (m = 0) letters 0 and 1 step
    to a child, letter 2 to the parent (onto the hair at the root) and
    letter 3 onto the hair; on a hair letter 0 steps in, 1 out and 2, 3
    loop.  Letters come `chunk` steps at a time as one (k, trials) draw,
    which reads the generator as k draws of `trials` letters do.  Returns
    what _green_mc_reference returns."""
    rng = np.random.Generator(np.random.Philox(seed))
    states = [(0, 0)] * trials
    visits = [1] * trials
    top_u = top_m = 0
    for start in range(0, steps, chunk):
        block = rng.integers(0, 4, size=(min(chunk, steps - start), trials)).T.tolist()
        for t, letters in enumerate(block):
            u, m = states[t]
            hits = 0
            for r in letters:
                if m:
                    if r == 0:
                        m -= 1
                        hits += not (m or u)
                    elif r == 1:
                        m += 1
                        top_m = max(top_m, m)
                elif r < 2:
                    u += 1
                    top_u = max(top_u, u)
                elif r == 2 and u:
                    u -= 1
                    hits += not u
                else:
                    m = 1
                    top_m = max(top_m, 1)
            states[t] = u, m
            visits[t] += hits
    visits = np.array(visits, dtype=np.int64)
    est, err = float(visits.mean()), float(visits.std(ddof=1)) / math.sqrt(trials)
    return est, err, top_u, top_m


def test_block_draws_equal_per_step_draws():
    # the plain reference's (k, trials) draws read what k per-step draws read
    for trials in (3, 4, 7):
        for seed in range(3):
            block = np.random.Generator(np.random.Philox(seed)).integers(0, 4, size=(9, trials))
            rng = np.random.Generator(np.random.Philox(seed))
            want = [rng.integers(0, 4, size=trials).tolist() for _ in range(9)]
            assert block.tolist() == want, (trials, seed)


def test_green_mc_references_agree():
    # the plain and the mask reference on one mid case, maxima included
    for trials, steps, seed in ((777, 85, 11), (5, 3000, 2)):
        want = _green_mc_reference(trials, steps, seed)
        assert _green_mc_plain(trials, steps, seed, chunk=64) == want
        assert _green_mc_plain(trials, steps, seed) == want


# 2001 and 7001 trials: an odd number of rows a block, so every block ends on
# the low half of a raw word and its high half carries into the next block
@pytest.mark.parametrize("trials", [2, 3, 777, 1000, 2001, 7001, 70000])
def test_green_mc_equals_per_step_reference(trials):
    # step counts around a pass of _MC_K steps and a block of `rows` steps
    rows = _MC_K * max(1, _MC_BLOCK // (_MC_K * trials))
    cases = {1, 2, _MC_K - 1, _MC_K, _MC_K + 1, 7, rows - 1, rows + 1, 999, 10000}
    # the mask reference is slow: 70000 trials stop at 999 steps; up to
    # three trials take the plain one
    cases = [steps for steps in sorted(cases) if trials * steps < 7 * 10**7]
    reference = _green_mc_plain if trials <= 3 else _green_mc_reference
    for seed, steps in enumerate(cases, start=trials):
        rep = green_mc(trials, steps, seed=seed)
        want = reference(trials, steps, seed)[:2]
        assert (rep.estimate, rep.stderr) == want, (trials, steps, seed)


def test_green_mc_long_run_equals_per_step_reference():
    # three trials over 10^5 steps wander far past every saturated class
    rep = green_mc(3, 10**5, seed=5)
    est, err, top_u, top_m = _green_mc_plain(3, 10**5, 5)
    assert (rep.estimate, rep.stderr) == (est, err)
    assert top_u > 10 * _MC_K and top_m > 4 * _MC_K


def _letters_of(bits, trials, steps, rows):
    blocks = _mc_letters(bits, trials, steps, rows)
    return np.concatenate([block.copy() for block in blocks])


def _generator_letters(seed, trials, steps):
    rng = np.random.Generator(np.random.Philox(seed))
    return [rng.integers(0, 4, size=trials).tolist() for _ in range(steps)]


# (10000, 5) is the CLI's one-pass block: seven raw-word reads a block
@pytest.mark.parametrize("trials, rows", [(2, 5), (3, 5), (4, 3), (7, 1), (7001, 5),
                                          (10000, 5)])
def test_green_mc_letters_equal_generator_draws(trials, rows):
    # whole blocks, some of an odd letter count, then a short block; 7001
    # and 10000 trials read a block's raw words in several reads
    steps = 3 * rows + 2
    for seed in range(3):
        got = _letters_of(np.random.Philox(seed), trials, steps, rows)
        want = _generator_letters(seed, trials, steps)
        assert got.dtype == np.uint8 and got.tolist() == want, (trials, rows, seed)


class _BigEndianPhilox:
    """Philox's raw words, handed out as big-endian uint64 arrays."""

    def __init__(self, seed):
        self.bits = np.random.Philox(seed)

    def random_raw(self, size):
        return self.bits.random_raw(size).astype(">u8")


@pytest.mark.parametrize("trials, rows", [(3, 5), (7001, 5)])
def test_green_mc_letters_do_not_depend_on_byte_order(trials, rows):
    # the halves are read low half first whatever the words' byte order
    steps = 3 * rows + 2
    for seed in range(2):
        got = _letters_of(_BigEndianPhilox(seed), trials, steps, rows)
        assert got.tolist() == _generator_letters(seed, trials, steps), (trials, rows, seed)


def test_green_mc_block_memory():
    # a pass of 10^5 trials holds 0.5 MB of uint8 letters and the call peaks
    # at 5.4 MiB; uint32 letters would take 6.8 MiB.  A first call builds the
    # tables and loads what numpy loads on first use.
    green_mc(2, 1)
    tracemalloc.start()
    try:
        green_mc(10**5, 20, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


def test_green_mc_tables_equal_k_fold_lumped_steps():
    # entry [c, w] of the k-step tables is the move and the root visits of k
    # letters w from every state of class c, here states near the boundary
    # of each saturated class and one far beyond it
    side = _MC_K + 2
    near = [*range(_MC_K + 3), 50]
    moves, visits = _mc_tables()
    for k in range(_MC_K + 1):
        assert moves[k].shape == visits[k].shape == (side * side, 4**k)
        move_k, visits_k = moves[k].tolist(), visits[k].tolist()
        for u, m in product(near, repeat=2):
            c = min(u, side - 1) * side + min(m, side - 1)
            for w, letters in enumerate(product(LUMPED_LETTERS, repeat=k)):
                state, hits = (u, m), 0
                for r in letters:
                    state = _lumped_act(r, state)
                    hits += state == (0, 0)
                du, dm = state[0] - u, state[1] - m
                assert (move_k[c][w], visits_k[c][w]) == ((dm << 32) + du, hits), (k, u, m, w)


@pytest.mark.parametrize("args, estimate, stderr", [
    ((2, 1, 0), 1.0, 0.0),
    ((3, 7, 2), 2.0, 0.5773502691896258),
    ((500, 2000, 7), 3.66, 0.13325281469916686),
    ((777, 85, 11), 2.8262548262548264, 0.07433296098138271),
    ((1000, 10000, 4), 3.986, 0.10458844459471965),
    ((2, 32769, 3), 2.5, 0.5),
    ((70000, 7, 1), 1.6368142857142858, 0.0030373315141817947),
])
def test_green_mc_frozen_values(args, estimate, stderr):
    # computed by the per-step estimator before letters were drawn in blocks
    trials, steps, seed = args
    rep = green_mc(trials, steps, seed=seed)
    assert (rep.estimate, rep.stderr) == (estimate, stderr)


def test_green_mc_validation():
    with pytest.raises(CapExceeded):
        green_mc(10**6, 10**6, cap=10**10)
    with pytest.raises(ValueError):
        green_mc(0, 100)
    with pytest.raises(ValueError, match="at least 2 trials"):
        green_mc(1, 10)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        green_mc(3, 10, seed=-1)


def _refuse_to_walk(*args):
    raise AssertionError("the walk started")


def test_green_mc_packing_is_exact_up_to_its_step_limit(monkeypatch):
    top = _MC_MAX_STEPS
    # refused before any draw: the cap admits 2 * 2^31 trial-steps
    monkeypatch.setattr(np.random, "Philox", _refuse_to_walk)
    monkeypatch.setattr(np.random, "Generator", _refuse_to_walk)
    with pytest.raises(CapExceeded, match="packed state"):
        green_mc(2, top + 1, cap=10**12)
    # within top steps, u + m <= top; each such state packs into an int64 as
    # m << 32 | u, and the packed one-step move of its class, added to it,
    # gives the packing of the state _lumped_act reaches
    moves = _mc_tables()[0][1]
    states = [(0, 0), (1, 0), (top, 0), (top - 1, 0), (0, 1), (0, top), (0, top - 1),
              (top - 1, 1), (1, top - 1), (top - 2, 1)]
    side = _MC_K + 2
    for u, m in states:
        s = np.array([(m << 32) | u], dtype=np.int64)
        assert ((s & (2**32 - 1)).item(), (s >> 32).item()) == (u, m)
        c = min(u, side - 1) * side + min(m, side - 1)
        for r in LUMPED_LETTERS:
            u2, m2 = _lumped_act(r, (u, m))
            if u2 + m2 <= top:
                assert (s + moves[c, r]).item() == (m2 << 32) | u2, (u, m, r)


@pytest.mark.parametrize("seed", range(4))
def test_green_mc_matches_exact_visit_count(seed):
    # expected root visits over steps 0..S: the sum of the exact return series
    steps = 60
    exact = sum(lumped_return_series(steps))
    rep = green_mc(20000, steps, seed=seed)
    assert rep.stderr > 0
    assert abs(rep.estimate - float(exact)) <= 4 * rep.stderr, f"seed {seed}"


def test_spectral_proxies():
    x = spectral_radius_proxy(10, mode="X")
    assert 0.5 <= x < 1
    dp = _lumped_dp(60)
    assert spectral_radius_proxy(60) == max(float(dp[k]) ** (1.0 / k) for k in range(2, 61, 2))
    lamp = spectral_radius_proxy(4, mode="lamp")
    assert 0 < lamp < 1
    # P^20(empty, empty) from the squared 10-step half-walk
    assert spectral_radius_proxy(20, mode="lamp") == 0.8677509184244984
    with pytest.raises(ValueError):
        spectral_radius_proxy(10, mode="Y")


def test_lamp_spectral_proxy_matches_naive_enumeration():
    # P^k(empty, empty) by running every one of the 5^k words
    returns = [
        Fraction(
            sum(apply_word(EMPTY, "".join(w)) == EMPTY for w in product(LAMP_LETTERS, repeat=k)),
            5**k,
        )
        for k in range(5)
    ]
    # empty: the four moves fix it; one lamp: only s switches it off
    assert returns[:3] == [1, Fraction(4, 5), Fraction(17, 25)]
    for n in (2, 3, 4):
        want = max(float(returns[k]) ** (1.0 / k) for k in range(2, n + 1, 2))
        assert spectral_radius_proxy(n, mode="lamp") == want, f"n={n}"
    with pytest.raises(CapExceeded):
        spectral_radius_proxy(4, mode="lamp", cap=3)


def test_power_partial_sums():
    assert power_partial_sums([], Fraction(1, 2)) == []
    assert power_partial_sums([1, 2, 3], Fraction(1, 2)) == [1, 2, Fraction(11, 4)]
    series = lumped_return_series(12)
    assert power_partial_sums(series, Fraction(1, 3))[-1] == green_partial(
        ROOT, ROOT, Fraction(1, 3), 12
    )


def test_delta_check_small_radius():
    rep = delta_check_phi_u(4)
    assert rep.ok
    assert rep.checked == len(ball(ROOT, 4).interior())
    assert rep.to_json()["mismatches"] == []


def test_supermartingale_check_vertex_mode():
    rep = supermartingale_check(canonical_phi_u(), ball(ROOT, 3).addresses, mode="X")
    assert rep.ok and rep.checked == len(ball(ROOT, 3).vertices)
    # a function with violations, against its margins on the Dyadic vertices
    bump = VertexFn("bump", lambda c: Fraction(3 if c == (4, 0) else 2, 1 + abs(c[1])))
    B = ball(ROOT, 3)
    want = [(c, bump(v) - neighbor_mean(bump, v)) for c, v in zip(B.addresses, B.vertices)]
    rep = supermartingale_check(bump, B.addresses, mode="X")
    assert rep.violations == [(c, m) for c, m in want if m < 0] != []


def test_supermartingale_check_lamp_mode():
    F = minfun(canonical_phi_u())
    verts = ball(ROOT, 4).vertices
    rng = random.Random(6)
    states = [to_codes(config(rng.sample(verts, rng.randrange(4)))) for _ in range(40)]
    rep = supermartingale_check(F, states)
    assert rep.ok and rep.checked == 40


def test_supermartingale_check_refuses_declared_violator():
    bad = SetFn(name="bad", fn=lambda E: Fraction(1), superharmonic=False)
    with pytest.raises(PreconditionFailed):
        supermartingale_check(bad, [EMPTY])
    with pytest.raises(ValueError):
        supermartingale_check(minfun(canonical_phi_u()), [EMPTY], mode="Y")


def test_to_config_checks_parked_offsets(monkeypatch):
    # the root lamp parked by A sits one step out; a counter moved back under
    # its key fails the check, also under python -O
    st = StructuralLampWalk()
    for ch in "sA":
        st.step(ch)
    assert st.to_config() == (vertex(1, 1),)
    monkeypatch.setattr(st, "cnt", [0, 0])
    with pytest.raises(StructuralAssertFailed, match="nonpositive offset 0"):
        st.to_config()


def test_walks_refuses_another_letter_order():
    # the structural walk reads letter indices in the order aAbBs
    script = (
        "import extamen.lamplighter as lamplighter\n"
        "lamplighter.LAMP_LETTERS = ('a', 'b', 'A', 'B', 's')\n"
        "try:\n"
        "    import extamen.walks\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    src = str(Path(extamen.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (out.returncode, out.stdout) == (0, "StructuralAssertFailed\n"), out.stderr


def test_structural_walk_tiny_script():
    st = StructuralLampWalk()
    assert st.f_now() == 4 and st.lamp_count() == 0
    st.step("s")
    assert st.to_config() == (ROOT,)
    st.step("A")  # root lamp parks on the A-side hair
    assert st.lamp_count() == 1
    assert st.to_config() == (vertex(1, 1),)
    assert st.f_now() == 4
    st.step("a")  # wakes it back to the root
    assert st.to_config() == (ROOT,)
    st.step("b")
    assert st.to_config() == (dy(9, 4),)
    assert st.f_now() == 2
    with pytest.raises(ValueError):
        st.step("x")


def test_structural_walk_root_lamp_under_B_parks_on_B_hair():
    # the root's code 1 has low bit 1, yet it has no parent to step up to
    st = StructuralLampWalk()
    st.step("s")
    assert st._k_parts() == (0, 0, 0, -1)
    st.step("B")
    assert st.lamp_count() == 1
    assert st.to_config() == (hair_point(ROOT, 1),)
    assert st.k_now() == 0
    st.step("b")
    assert st.to_config() == (ROOT,)


def test_structural_walk_matches_explicit():
    F = minfun(canonical_phi_u())
    for trial in range(8):
        rng = random.Random(9000 + trial)
        st = StructuralLampWalk()
        E = EMPTY
        for t in range(1, 251):
            ch = LAMP_LETTERS[rng.randrange(5)]
            st.step(ch)
            E = apply_letter(E, ch)
            assert st.f_now() == F(E), f"trial {trial} step {t} letter {ch}"
            assert st.lamp_count() == len(E)
            assert st.supermartingale_margin_ok()
            if t % 25 == 0:
                assert st.to_config() == E, f"trial {trial} step {t}"
        assert st.to_config() == E


def sentinel_vertex(nid: int) -> Dyadic:
    """The skeleton vertex of a sentinel code, by letters: its bits after the
    sentinel, read from the top, are the letters a (0) and b (1) that lead
    to it from the root."""
    cur = ROOT
    for bit in bin(nid)[3:]:
        cur = act_letter("a" if bit == "0" else "b", cur)
    return cur


def graph_node(nid: int) -> int:
    """The graph.code node of a sentinel code: letters first-lowest, a = 1."""
    letters = bin(nid)[3:]
    return int("1" + "".join("1" if bit == "0" else "0" for bit in reversed(letters)), 2)


def test_sentinel_oracle_matches_graph_codes():
    """Skeleton depths up to 10; hair offsets up to 64 to depth 6."""
    for nid in range(1, 1 << 11):
        base, node = sentinel_vertex(nid), graph_node(nid)
        assert vertex(node) == base, nid
        # a parked lamp's side: A for the root and a last b (low bit 1), else B
        for letter, sign in (("A", 1), ("B", -1)):
            if nid > 1 and nid & 1 != (letter == "A"):
                continue
            cur = base
            for m in range(1, 65 if nid < 1 << 7 else 5):
                cur = act_letter(letter, cur)
                assert vertex(node, sign * m) == cur, (nid, letter, m)


# a letter's side: 0 for a/A, 1 for b/B
_DOWN = {"a": 0, "b": 1}
_UP = {"A": 0, "B": 1}


class SentinelLampWalk:
    """Reference structural walk: the set of coded skeleton lamps, each moved
    one by one on every letter, and hair-bound lamps parked one by one in
    wake buckets keyed by their side's counter, with a count per base depth."""

    __slots__ = ("sk", "bkt", "cnt", "sleep_cnt", "sleep_total", "_mhair")

    def __init__(self) -> None:
        self.sk: set[int] = set()
        self.bkt: tuple[dict[int, set[int]], ...] = ({}, {})
        self.cnt = [0, 0]
        self.sleep_cnt: dict[int, int] = {}
        self.sleep_total = 0
        self._mhair = 0

    def _sleep_add(self, d: int) -> None:
        self.sleep_cnt[d] = self.sleep_cnt.get(d, 0) + 1
        self.sleep_total += 1
        if d > self._mhair:
            self._mhair = d

    def _sleep_remove(self, d: int) -> None:
        left = self.sleep_cnt[d] - 1
        if left:
            self.sleep_cnt[d] = left
        else:
            del self.sleep_cnt[d]
            if d == self._mhair:
                while self._mhair > 0 and self._mhair not in self.sleep_cnt:
                    self._mhair -= 1
        self.sleep_total -= 1

    def lamp_count(self) -> int:
        return len(self.sk) + self.sleep_total

    def step(self, ch: str) -> None:
        if ch == "s":
            if 1 in self.sk:
                self.sk.discard(1)
            else:
                self.sk.add(1)
            return
        s = _DOWN.get(ch)
        if s is not None:
            new_sk = {nid << 1 | s for nid in self.sk}
            self.cnt[s] -= 1
            woke = self.bkt[s].pop(self.cnt[s], None)
            if woke:
                for nid in woke:
                    assert nid not in new_sk, "waking lamp collided with a resident"
                    new_sk.add(nid)
                    self._sleep_remove(nid.bit_length() - 1)
            self.sk = new_sk
            return
        s = _UP.get(ch)
        if s is None:
            raise ValueError(f"unknown letter {ch!r}")
        new_sk = set()
        entering = []
        for nid in self.sk:
            # the root has no side: it enters its hair under either letter
            if nid & 1 == s and nid > 1:
                new_sk.add(nid >> 1)
            else:
                entering.append(nid)
        key = self.cnt[s]
        self.cnt[s] = key + 1
        if entering:
            bucket = self.bkt[s].setdefault(key, set())
            for nid in entering:
                assert nid not in bucket, "lamp rejoined an occupied hair point"
                bucket.add(nid)
                self._sleep_add(nid.bit_length() - 1)
        self.sk = new_sk

    def _k_parts(self):
        msk = mka = mkb = -1
        for nid in self.sk:
            d = nid.bit_length() - 1
            if d > msk:
                msk = d
            s = nid & 1 if nid > 1 else -1
            da = d - 1 if s == 0 else d
            db = d - 1 if s == 1 else d
            if da > mka:
                mka = da
            if db > mkb:
                mkb = db
        mh = self._mhair if self.sleep_total else -1
        return msk, mka, mkb, mh

    def k_now(self) -> int:
        """Largest lamp depth (hair lamps count their base), 0 when empty."""
        msk, _, _, mh = self._k_parts()
        return max(msk, mh, 0)

    def f_now(self) -> Fraction:
        return pow2(2 - self.k_now())

    def supermartingale_margin_ok(self) -> bool:
        """Exact one-step mean decrease of the depth potential, in integers."""
        msk, mka, mkb, mh = self._k_parts()
        k0 = max(msk, mh, 0)
        kab = max(msk + 1 if msk >= 0 else -1, mh, 0)
        kA = max(mka, mh, 0)
        kB = max(mkb, mh, 0)
        km = max(k0, kab, kA, kB)
        lhs = 5 << (km - k0)
        rhs = (
            2 * (1 << (km - kab))
            + (1 << (km - kA))
            + (1 << (km - kB))
            + (1 << (km - k0))
        )
        return lhs >= rhs

    def to_config(self) -> Config:
        """Reconstruct the explicit configuration (slow; for cross-checks)."""
        pts = [sentinel_vertex(nid) for nid in self.sk]
        for letter, counter, bkt in zip("AB", self.cnt, self.bkt):
            for key, bucket in bkt.items():
                off = counter - key
                assert off >= 1, "parked lamp with nonpositive offset"
                for nid in bucket:
                    pts.append(act_word(letter * off, sentinel_vertex(nid), act_letter))
        return config(pts)


def test_structural_walk_matches_sentinel_oracle():
    for trial in range(4):
        rng = random.Random(4200 + trial)
        st, ref = StructuralLampWalk(), SentinelLampWalk()
        for t in range(1, 10_001):
            ch = LAMP_LETTERS[rng.randrange(5)]
            st.step(ch)
            ref.step(ch)
            assert st._k_parts() == ref._k_parts(), f"trial {trial} step {t}"
            assert st.supermartingale_margin_ok() == ref.supermartingale_margin_ok()
            assert st.lamp_count() == ref.lamp_count()
            # rebuilding configurations costs in the offsets of hair
            # lamps, so deep states are compared only at the end
            if t % 25 == 0 and t <= 1000 or t == 10_000:
                assert sorted(_lamp_codes(st.root)) == sorted(map(graph_node, ref.sk))
                assert st.to_config() == ref.to_config(), f"trial {trial} step {t}"
                assert st.cnt == ref.cnt
                for side in (0, 1):
                    got = [(key, trie[4]) for key, trie, _, _ in st.parked[side][1:]]
                    assert got == sorted((key, len(b)) for key, b in ref.bkt[side].items())


def test_letters_equal_choice():
    # _letters reads CPython's _randbelow/getrandbits word order directly,
    # so this comparison with choice is what guards it
    n_long = 2 * _DRAW_WORDS + 1001
    for seed in range(24):
        for n in (1, 997, n_long):
            ref = random.Random(seed * 1_000_003 + n)
            want = bytes(LAMP_LETTERS.index(ref.choice(LAMP_LETTERS)) for _ in range(n))
            chunks = list(_letters(random.Random(seed * 1_000_003 + n), n))
            assert b"".join(chunks) == want, (seed, n)
            assert max(map(len, chunks)) <= _DRAW_WORDS
            if n == n_long:
                assert len(chunks) >= 3, "the long draw must cross two chunk ends"


def _fused_matches_stepped(word: bytes, cuts, small: bool) -> None:
    """run on the pieces of word between cuts against one letter at a time,
    counting the states that fail supermartingale_margin_ok."""
    fused, stepped = StructuralLampWalk(), StructuralLampWalk()
    ends = [0, *sorted(cuts), len(word)]
    for lo, hi in zip(ends, ends[1:]):
        want = 0
        for i in word[lo:hi]:
            want += not stepped.supermartingale_margin_ok()
            stepped.step(LAMP_LETTERS[i])
        assert fused.run(word[lo:hi]) == want, (lo, hi)
        assert fused._k_parts() == stepped._k_parts()
        assert fused.lamp_count() == stepped.lamp_count()
        assert fused.cnt == stepped.cnt
        if small:
            assert fused.to_config() == stepped.to_config()


@given(
    word=strategies.binary(max_size=60).map(lambda b: bytes(x % 5 for x in b)),
    cuts=strategies.lists(strategies.integers(0, 60), max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_run_matches_single_steps(word, cuts):
    _fused_matches_stepped(word, [c for c in cuts if c <= len(word)], small=True)


def test_run_matches_single_steps_on_long_words():
    for seed in range(4):
        rng = random.Random(7100 + seed)
        word = b"".join(_letters(rng, 10_000))
        _fused_matches_stepped(word, rng.sample(range(10_001), 40), small=False)


def test_run_margin_matches_the_oracle_on_any_heights():
    # tries built by letters never fail the margin, so the fused check is
    # held to supermartingale_margin_ok on hand-made states whose stored
    # heights need not match their children, in both of run's cases (the
    # skeleton at or above the parked bases, or below them); a child above
    # the scale is a negative shift, and both must raise on it
    def leaf(h):
        return None if h is None else (None, None, 1, h, 1)

    s = bytes([LAMP_LETTERS.index("s")])
    outcomes = set()
    for mark, h0, h1, top, b0, b1 in product(
        (0, 1),
        (None, 0, 1, 2, 3, 5),
        (None, 0, 1, 2, 4),
        (None, 0, 1, 2, 3, 4, 6),
        (-1, 0, 1, 2, 3, 5),
        (-1, 0, 1, 3, 4),
    ):
        st = StructuralLampWalk()
        if top is not None:
            st.root = (leaf(h0), leaf(h1), mark, top, 3)
        st.parked = tuple(
            [_NO_PARK] if b < 0 else [_NO_PARK, (-1, leaf(0), b, 1)] for b in (b0, b1)
        )
        msk, _, _, mh = st._k_parts()
        try:
            ok = st.supermartingale_margin_ok()
        except ValueError:
            with pytest.raises(ValueError):
                st.run(s)
            ok = "raises"
        else:
            assert st.run(s) == (not ok), st._k_parts()
        outcomes.add((msk >= max(mh, 0), ok))
    # below the bases the sum of the two terms is 2 or a shift is negative
    assert outcomes == {
        (True, True), (True, False), (True, "raises"), (False, True), (False, "raises")
    }


def test_run_commutes_with_the_mirror():
    # the mirror swaps the sides, so the walk on a word and on its mirrored
    # word must agree on every quantity that does not single out a side;
    # each side has its own branch in run, and this holds them to each other
    for seed in range(50):
        word = b"".join(_letters(random.Random(6100 + seed), 2_000))
        st, mir = StructuralLampWalk(), StructuralLampWalk()
        for t in range(0, 2_000, 100):
            piece = word[t:t + 100]
            assert st.run(piece) == mir.run(mirror_letters(piece)), (seed, t)
            assert st.f_now() == mir.f_now(), (seed, t)
            assert st.lamp_count() == mir.lamp_count(), (seed, t)
            assert st.cnt == mir.cnt[::-1], (seed, t)
            msk, mka, mkb, mh = st._k_parts()
            assert mir._k_parts() == (msk, mkb, mka, mh), (seed, t)


@given(word=strategies.text(alphabet="aAbBs", max_size=40))
@settings(max_examples=60, deadline=None)
def test_structural_walk_config_equals_apply_word(word):
    st = StructuralLampWalk()
    for ch in word:
        st.step(ch)
    assert st.to_config() == apply_word(EMPTY, word[::-1])


def test_decay_experiment_fast_path():
    rep = potential_decay_experiment(
        WalkConfig(trials=30, steps=400, seed=3, checkpoints=(50, 400))
    )
    assert rep.ok and rep.supermartingale_violations == 0
    assert rep.states_checked == 30 * 401
    assert set(rep.medians) == {50, 400}
    assert rep.medians[400] <= rep.medians[50]
    assert 0 <= rep.never_removed_fraction <= 1


def test_decay_experiment_frozen_deep_trajectories():
    # frozen values; 10^4 steps reach tree depths the README's 2,000-step
    # decay digest does not
    rep = potential_decay_experiment(WalkConfig(trials=8, steps=10_000, seed=11))
    assert rep.to_json() == {
        "trials": 8,
        "steps": 10_000,
        "seed": 11,
        "fn": "minfun:phi_u",
        "medians": {"100": "1/64", "10000": "1/1125899906842624"},
        "supermartingale_violations": 0,
        "states_checked": 80_008,
        "never_removed_fraction": 1.0,
    }


def test_decay_experiment_slow_path():
    # frozen values; explicit configurations read the same bulk draws
    rep = potential_decay_experiment(
        WalkConfig(trials=4, steps=60, seed=1, checkpoints=(60,), fn_name="minfun:phi:0")
    )
    assert rep.to_json() == {
        "trials": 4,
        "steps": 60,
        "seed": 1,
        "fn": "minfun:phi:0",
        "medians": {"60": "1"},
        "supermartingale_violations": 0,
        "states_checked": 244,
        "never_removed_fraction": 1.0,
    }
    fn_name = "gmin:kmean:2:3:phi_u"
    rep = potential_decay_experiment(
        WalkConfig(trials=5, steps=120, seed=8, checkpoints=(1, 7, 30, 120), fn_name=fn_name)
    )
    assert rep.to_json() == {
        "trials": 5,
        "steps": 120,
        "seed": 8,
        "fn": fn_name,
        "medians": {"1": "1", "7": "1", "30": "17/32", "120": "3/4096"},
        "supermartingale_violations": 0,
        "states_checked": 605,
        "never_removed_fraction": 1.0,
    }


def test_decay_experiment_validation():
    with pytest.raises(ValueError):
        potential_decay_experiment(WalkConfig(trials=0))
    with pytest.raises(ValueError):
        potential_decay_experiment(WalkConfig(steps=10, checkpoints=(100,)))
    for bad in ((0,), (-5, 10), ()):
        with pytest.raises(ValueError, match="within the horizon"):
            WalkConfig(steps=10, checkpoints=bad)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        WalkConfig(seed=-1)


def test_decay_report_serializes():
    rep = potential_decay_experiment(
        WalkConfig(trials=5, steps=50, seed=2, checkpoints=(50,))
    )
    d = rep.to_json()
    assert d["trials"] == 5 and "50" in d["medians"]
