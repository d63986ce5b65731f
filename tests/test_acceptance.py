"""End-to-end acceptance checks, one test per headline guarantee.

Each test prints a single [PASS]/[FAIL] line (visible with -s) and fails
loudly otherwise; run with -v to get one status line per criterion either
way.  Budgets are generous for slow machines but every check is exact
except the Monte Carlo band in criterion 2.
"""

import random
import time
from fractions import Fraction

from extamen.approx import (
    construct_En_countable,
    construct_En_markov,
    construct_En_single,
    construct_En_sum,
    explicit_En_hairs,
    generalized_En_search,
    golden_witness,
    strong_verify,
)
from extamen.dyadic import ROOT, Dyadic, cocycle_identity_check, word_to_pl
from extamen.freegroup import (
    random_z_configs,
    tail_segment,
    witness_word,
    z_boundary_ratio,
)
from extamen.graph import (
    EDGE_LABELS,
    Hair,
    Skeleton,
    act_letter,
    ball,
    classify,
    golden_path,
)
from extamen.harmonic import canonical_phi_u, phi_family, pow2
from extamen.lamplighter import LAMP_LETTERS, config, lamp_action, to_codes
from extamen.minfn import (
    countable_sum,
    generalized_minfun,
    minfun,
    r_family_kmean,
)
from extamen.lamplighter import switch_invariant_check
from extamen.walks import (
    WalkConfig,
    delta_check_phi_u,
    green_mc,
    green_partial,
    lumped_return_series,
    potential_decay_experiment,
    return_prob,
    supermartingale_check,
)


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def family_sum(n):
    return countable_sum(pow2(-n))


def test_criterion_01_root_margin():
    started = time.monotonic()
    rep = delta_check_phi_u(12)
    elapsed = time.monotonic() - started
    ok = rep.ok and elapsed < 10
    _report(
        1,
        ok,
        f"phi_u margin 1 at the root and 0 at {rep.checked - 1} other vertices "
        f"(radius 12, {elapsed:.1f}s)",
    )


def test_criterion_02_green_function():
    series = lumped_return_series(30)
    partials = []
    total = Fraction(0)
    for term in series:
        total += term
        partials.append(total)
    monotone = all(x <= y for x, y in zip(partials, partials[1:]))
    bounded = partials[-1] < 4
    agrees = green_partial(ROOT, ROOT, Fraction(1), 30) == partials[-1]
    mc = green_mc(10**5, 10**4, seed=42)
    in_band = 3.5 <= mc.estimate <= 4.05
    ok = monotone and bounded and agrees and in_band
    _report(
        2,
        ok,
        f"partial Green values climb to {float(partials[-1]):.4f} < 4; "
        f"MC estimate {mc.estimate:.3f} +/- {mc.stderr:.3f} in [3.5, 4.05]",
    )


def test_criterion_03_return_probability():
    rep = return_prob(30)
    monotone = all(x <= y for x, y in zip(rep.partials, rep.partials[1:]))
    bounded = rep.total < Fraction(3, 4)
    frozen = rep.total == Fraction(173439864528734371, 288230376151711744)
    ok = monotone and bounded and frozen
    _report(
        3,
        ok,
        f"first-return mass through N=30 is {float(rep.total):.7f} < 3/4 "
        "and matches the frozen exact value",
    )


def test_criterion_04_T_operator_bound():
    verts = ball(ROOT, 8).vertices
    assert len(verts) == 1021
    fns = [minfun(canonical_phi_u())] + [minfun(phi_family(i)) for i in range(3)]
    alphas = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    rng = random.Random(1234)
    move = lamp_action()
    violations = 0
    checked = 0
    for _ in range(10**4):
        C = to_codes(config(rng.sample(verts, rng.randrange(7))))
        a, A, b, B, s = (move(ch, C) for ch in LAMP_LETTERS)
        for F in fns:
            base = F.fn(C)
            t1 = (F.fn(a) + F.fn(b) + F.fn(A) + F.fn(B)) / 4
            t2 = F.fn(s)
            for alpha in alphas:
                checked += 1
                if alpha * t1 + (1 - alpha) * t2 > base:
                    violations += 1
    ok = violations == 0
    _report(4, ok, f"T_alpha F <= F on {checked} exact checks, {violations} violations")


def test_criterion_05_explicit_families():
    worst = Fraction(0)
    checked = 0
    for n in range(2, 8):
        E = explicit_En_hairs(n)
        rep = strong_verify(family_sum(n), E, n, pow2(-n))
        worst = max(worst, rep.worst_deviation)
        checked += rep.checked
    ok = worst == 0
    _report(
        5,
        ok,
        f"explicit configurations for n=2..7 are exactly invariant "
        f"({checked} orbit states, worst deviation {worst})",
    )


def test_criterion_06_golden_witness():
    verts = ball(ROOT, 8).vertices
    rng = random.Random(77)
    refuted = 0
    for n in (4, 5, 6, 7):
        F = family_sum(n)
        for _ in range(200):
            E = config(rng.sample(verts, rng.randrange(n - 1)))
            w = golden_witness(E, n, F=F)
            assert w.deviation >= pow2(-n) and len(w.word) <= n, f"{E} n={n}"
            refuted += 1
    _report(6, True, f"golden witnesses refuted {refuted} sparse configurations")


def test_criterion_07_constructors():
    results = []
    for n in (4, 5, 6):
        results.append(construct_En_single(canonical_phi_u(), n))
        results.append(construct_En_sum([phi_family(i) for i in range(3)], n))
        results.append(construct_En_markov([phi_family(0), phi_family(1)], [0, 1], n))
        results.append(construct_En_countable(n))
    failures = []
    for res in results:
        rep = strong_verify(res.setfn, res.E, res.n, res.beta)
        if not rep.passed:
            failures.append((res.setfn.name, res.n, rep.worst_deviation))
    ok = not failures
    _report(
        7,
        ok,
        f"all {len(results)} constructions verified at beta = 1/n for n in 4..6"
        + (f"; failures {failures}" if failures else ""),
    )


def test_criterion_08_generalized_targets():
    for k in (1, 2, 3):
        for m in range(k, 4):
            r_family_kmean(k, m).ensure_tested()
    G = generalized_minfun(r_family_kmean(2, 3), canonical_phi_u())
    verts = ball(ROOT, 6).vertices
    rng = random.Random(4321)
    samples = [to_codes(config(rng.sample(verts, rng.randrange(7)))) for _ in range(10**4)]
    ok_switch, _ = switch_invariant_check(G.fn, samples)
    sup = supermartingale_check(G, samples)
    search = generalized_En_search(r_family_kmean(2, 3), canonical_phi_u(), 4)
    found = search.found is not None and search.report.passed
    ok = ok_switch and sup.ok and found
    _report(
        8,
        ok,
        f"k-mean targets pass self-tests, {len(samples)} switch/supermartingale "
        f"checks, and a verified level-4 search ({search.tried} candidate)",
    )


def test_criterion_09_z_counterexample():
    configs = random_z_configs(10**3, radius=10, max_size=6, seed=17)
    worst_len = 0
    for E in configs:
        word, ratio = witness_word(E)
        assert ratio == Fraction(1, 3), [str(v) for v in E]
        worst_len = max(worst_len, len(word))
    folner_ok = all(
        z_boundary_ratio(tail_segment(L)) <= Fraction(2, L) for L in (10, 100, 1000)
    )
    ok = worst_len <= 2 and folner_ok
    _report(
        9,
        ok,
        f"{len(configs)} random Z-configurations refuted by words of length "
        f"<= {worst_len}; tail segments meet the 2/L boundary bound",
    )


def test_criterion_10_cocycle_identity():
    rng = random.Random(55)
    checked = 0
    for _ in range(10**3):
        w1 = "".join(rng.choice("aAbB") for _ in range(rng.randint(0, 8)))
        w2 = "".join(rng.choice("aAbB") for _ in range(rng.randint(0, 8)))
        e = rng.randint(1, 12)
        x = Dyadic(rng.randint(1, 2**e - 1), e)
        assert cocycle_identity_check(word_to_pl(w1), word_to_pl(w2), x), (w1, w2, x)
        checked += 1
    _report(10, True, f"slope cocycle identity holds on {checked} random triples")


def test_criterion_11_graph_shape():
    B = ball(ROOT, 10)
    problems = []
    for v in B.interior():
        addr = classify(v)
        if isinstance(addr, Hair):
            loops = sum(1 for ch in EDGE_LABELS if act_letter(ch, v) == v)
            if loops != 2:
                problems.append((v, "hair without two loops"))
            continue
        ca, cb = act_letter("a", v), act_letter("b", v)
        if classify(ca) != Skeleton(addr.path + ("L",)):
            problems.append((v, "a-image is not the L child"))
        if classify(cb) != Skeleton(addr.path + ("R",)):
            problems.append((v, "b-image is not the R child"))
        starts = sum(
            1 for ch in ("A", "B") if isinstance(classify(act_letter(ch, v)), Hair)
        )
        if starts != (2 if v == ROOT else 1):
            problems.append((v, f"{starts} hair starts"))
    pattern_ok = all(
        [phi_family(i)(v) for v in golden_path(i)]
        == [pow2(-i)] * (i + 1) + [pow2(-(i + 1))]
        for i in range(5)
    )
    ok = not problems and pattern_ok
    _report(
        11,
        ok,
        f"radius-10 ball: binary skeleton with one hair per vertex and two at "
        f"the root ({len(B.interior())} vertices); golden-path values match"
        + (f"; problems {problems[:3]}" if problems else ""),
    )


def test_criterion_12_potential_decay():
    rep = potential_decay_experiment(
        WalkConfig(trials=500, steps=10_000, seed=0, checkpoints=(100, 10_000))
    )
    decayed = rep.medians[10_000] < rep.medians[100]
    ok = rep.ok and decayed
    _report(
        12,
        ok,
        f"median potential falls from {rep.medians[100]} to "
        f"{float(rep.medians[10_000]):.2e} over {rep.walk.steps} steps; "
        f"{rep.supermartingale_violations} supermartingale violations "
        f"in {rep.states_checked} states",
    )
