"""Hyperlogarithmic and paralogarithmic monomial evaluations."""

import cmath
import math

import numpy as np
import pytest

from armould.monomials import (
    CONTRACTION_UNIT,
    ContourError,
    ContourSpec,
    MOULD_NORMALIZATION,
    borel_pole_probe,
    growth_scan,
    hyperlog_V_borel,
    hyperlog_V_eval,
    paralog_Ua_eval,
    paralog_forest_eval,
    paralog_mould,
    paralog_variants,
    x_integral_eval,
)
from armould.moulds import check_symmetry
from armould.quadrature import de_halfline
from armould.words import EMPTY_WORD, letter, parse_forest, word

Z = -2.0
C = 1.0


class TestContourSpec:
    def test_angles_increasing_and_bounded(self):
        spec = ContourSpec()
        ang = spec.angles(4)
        assert all(b > a for a, b in zip(ang, ang[1:]))
        assert 0 < ang[0] and ang[-1] < math.pi / 4

    def test_too_many_slots(self):
        with pytest.raises(ContourError):
            ContourSpec(multipliers=(1, 2)).angles(3)

    def test_non_monotone_rejected(self):
        with pytest.raises(ContourError):
            ContourSpec(multipliers=(2, 1, 3)).angles(3)


class TestParalogUa:
    def test_empty_word(self):
        assert paralog_Ua_eval(EMPTY_WORD, Z, C).value == 1.0

    def test_r1_against_independent_oracle(self):
        mv = paralog_Ua_eval(word(1), Z, C)
        ref, _ = de_halfline(lambda y: np.exp(-(y + 1.0 / y)) / (y + 2.0), scale=1.0)
        assert abs(mv.value - ref) <= 1e-8 * abs(ref)

    def test_error_estimate_covers_contour_change(self):
        s1 = ContourSpec(eps=0.05)
        s2 = ContourSpec(eps=0.03, multipliers=(1, 2.6, 4.1, 5.9, 7.2, 9.0))
        for w in (word(1, 2), word(2, 1, 1)):
            a = paralog_Ua_eval(w, Z, C, s1)
            b = paralog_Ua_eval(w, Z, C, s2)
            assert abs(a.value - b.value) <= a.error + b.error

    def test_symmetrelity_contraction_unit(self):
        # Ua^(1) Ua^(2) - Ua^(1,2) - Ua^(2,1) = (-2 pi i) Ua^(3)
        u1 = paralog_Ua_eval(word(1), Z, C).value
        u2 = paralog_Ua_eval(word(2), Z, C).value
        u3 = paralog_Ua_eval(word(3), Z, C).value
        u12 = paralog_Ua_eval(word(1, 2), Z, C).value
        u21 = paralog_Ua_eval(word(2, 1), Z, C).value
        kappa = (u1 * u2 - u12 - u21) / u3
        assert abs(kappa - CONTRACTION_UNIT) <= 1e-8 * abs(CONTRACTION_UNIT)

    def test_dilation_invariance(self):
        # Ua_c^(om)(z) = Ua_{lc}^(om/l)(lz); different contour spec so the
        # comparison is not bitwise trivial
        s1 = ContourSpec(eps=0.05)
        s2 = ContourSpec(eps=0.041)
        a = paralog_Ua_eval(word(1), Z, C, s1).value
        for l in (2.0, 0.5):
            b = paralog_Ua_eval([1.0 / l], l * Z, l * C, s2).value
            assert abs(a - b) <= 1e-8 * abs(a)

    def test_reality_r1(self):
        for om in (1, 2):
            for c in (0.5, 1.0, 2.0):
                v = paralog_Ua_eval(word(om), Z, c).value
                assert abs(v.imag) <= 1e-8 * abs(v)

    def test_product_reality_r2(self):
        # individual r=2 lateral values are complex; the symmetrel combination
        # with the contraction term is real on the real axis
        u12 = paralog_Ua_eval(word(1, 2), Z, C).value
        u21 = paralog_Ua_eval(word(2, 1), Z, C).value
        u3 = paralog_Ua_eval(word(3), Z, C).value
        total = u12 + u21 + CONTRACTION_UNIT * u3
        assert abs(u12.imag) > 1e3 * abs(total.imag)  # genuinely complex pieces
        assert abs(total.imag) <= 1e-8 * abs(total)

    def test_asymptotics_match_hyperlogarithms(self):
        # Ua^(1)(z) (-z) -> int_0^inf g as z -> -inf, error O(1/z)
        g_int, _ = de_halfline(lambda y: np.exp(-(y + 1.0 / y)), scale=1.0)
        errs = []
        for zz in (-50.0, -100.0, -200.0):
            v = paralog_Ua_eval(word(1), zz, C).value
            errs.append(abs(v * (-zz) / g_int - 1.0))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.01
        # halving pattern ~ 1/|z|
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)

    def test_z_on_cut_rejected(self):
        with pytest.raises(ContourError):
            paralog_Ua_eval(word(1), 2.0, C)

    def test_derivative_shares_the_value_passes(self, monkeypatch):
        import armould.monomials as mono

        calls = []
        one_pass = mono._pass

        def counted(*args):
            calls.append(args)
            return one_pass(*args)

        monkeypatch.setattr(mono, "_pass", counted)
        monkeypatch.setattr(mono, "_UA_CACHE", {})
        w = word(1, 2)
        paralog_Ua_eval(w, Z, C)
        value_passes = len(calls)
        d = paralog_Ua_eval(w, Z, C, z_derivative=True)
        assert value_passes > 0 and len(calls) == value_passes
        monkeypatch.setattr(mono, "_UA_CACHE", {})
        fresh = paralog_Ua_eval(w, Z, C, z_derivative=True)
        assert (d.value, d.error) == (fresh.value, fresh.error)

    def test_hyperlog_limit_c0(self):
        mv = paralog_Ua_eval(word(1), Z, 0.0)
        ref, _ = de_halfline(lambda y: np.exp(-y) / (y + 2.0), scale=1.0)
        assert abs(mv.value - ref) <= 1e-9 * abs(ref)


class TestVariants:
    def test_ratios(self):
        ua, uc, ue = paralog_variants(word(1), Z, C)
        assert abs(uc.value - ua.value * cmath.exp(C * C / Z)) < 1e-14
        assert abs(ue.value - ua.value * cmath.exp(Z + C * C / Z)) < 1e-14

    def test_modulus_identity(self):
        z = -2.0 + 1.0j
        ua, _, ue = paralog_variants(word(1), z, C)
        expected = abs(ua.value) * math.exp((z + C * C / z).real)
        assert abs(abs(ue.value) - expected) <= 1e-12 * expected

    def test_z_zero_rejected(self):
        with pytest.raises(ContourError):
            paralog_variants(word(1), 0.0, C)


class TestForest:
    def test_single_node_equals_word(self):
        a = paralog_forest_eval(parse_forest("2"), Z, C).value
        b = paralog_Ua_eval(word(2), Z, C).value
        assert abs(a - b) <= 1e-12 * abs(b)

    def test_chain_equals_word(self):
        # a word is a chain forest: both run the same quadrature pass, so
        # value and error agree exactly
        for c in (0.0, 1.0):
            for letters in ((2,), (1, 2), (1, 2, 1)):
                chain = "(".join(str(a) for a in letters) + ")" * (len(letters) - 1)
                a = paralog_forest_eval(parse_forest(chain), Z, c)
                b = paralog_Ua_eval(word(*letters), Z, c)
                assert (a.value, a.error) == (b.value, b.error), (chain, c)

    def test_antichain_factorizes(self):
        a = paralog_forest_eval(parse_forest("1;2"), Z, C).value
        b = paralog_Ua_eval(word(1), Z, C).value * paralog_Ua_eval(word(2), Z, C).value
        assert abs(a - b) <= 1e-10 * abs(b)

    def test_cherry_cross_check(self):
        mv = paralog_forest_eval(parse_forest("1(1,2)"), Z, C, cross_check=True, check_tol=1e-4)
        assert mv.meta["reference_drift"] <= 1e-6

    def test_antichain_cross_check(self):
        mv = paralog_forest_eval(parse_forest("1;2"), Z, C, cross_check=True, check_tol=1e-4)
        assert mv.meta["reference_drift"] <= 1e-6

    def test_node_budget(self):
        f = parse_forest("1;1;1;1;1;1;1")
        with pytest.raises(ContourError):
            paralog_forest_eval(f, Z, C, ContourSpec(multipliers=(1, 2, 3, 4)))


class TestSymmetrelMould:
    def test_normalized_ue_symmetrel_combined_length_2(self):
        m = paralog_mould(Z, C, kind="Ue", normalized=True)
        rep = check_symmetry(m, "symmetrel", 2, [letter(1), letter(2)], tol=1e-6)
        assert rep.passed, str(rep)

    def test_normalized_ua_symmetrel(self):
        m = paralog_mould(Z, C, kind="Ua", normalized=True)
        rep = check_symmetry(m, "symmetrel", 2, [letter(1), letter(2)], tol=1e-6)
        assert rep.passed, str(rep)

    def test_raw_ue_not_symmetrel(self):
        m = paralog_mould(Z, C, kind="Ue", normalized=False)
        rep = check_symmetry(m, "symmetrel", 2, [letter(1)], tol=1e-6)
        assert not rep.passed


class TestHyperlogV:
    def test_base_closed_form(self):
        for om in (1, 2, 3):
            for zeta in (-1.0, -0.3 + 0.4j, 2.7j):
                v = hyperlog_V_borel(word(om), zeta)
                assert abs(v - 1.0 / (zeta - om)) <= 1e-12

    def test_r1_value(self):
        assert abs(hyperlog_V_borel(word(1), -1.0) - (-0.5)) < 1e-12

    def test_r2_log_value(self):
        # (-zeta + 2) Vhat = -int_0^zeta ds/(s-1): at zeta=-1, Vhat = -log 2 / 3
        v = hyperlog_V_borel(word(1, 1), -1.0)
        assert abs(v - (-math.log(2.0) / 3.0)) < 1e-10

    def test_singular_path_rejected(self):
        with pytest.raises(ContourError):
            hyperlog_V_borel(word(1), 2.0)  # segment [0,2] passes through 1

    def test_empty_value(self):
        assert hyperlog_V_eval(EMPTY_WORD, -3.0).value == 1.0

    def test_r1_laplace_matches_adaptive_oracle(self):
        # V^(1)(-3) = int_0^inf e^{-3t}/(1+t) dt by an independent quadrature
        v = hyperlog_V_eval(word(1), -3.0).value
        ref, _ = de_halfline(lambda t: np.exp(-3.0 * t) / (1.0 + t), scale=1.0 / 3.0)
        assert abs(v - ref) <= 1e-8 * abs(ref)

    def test_shuffle_identity(self):
        v1 = hyperlog_V_eval(word(1), -3.0).value
        v2 = hyperlog_V_eval(word(2), -3.0).value
        v12 = hyperlog_V_eval(word(1, 2), -3.0).value
        v21 = hyperlog_V_eval(word(2, 1), -3.0).value
        assert abs(v1 * v2 - v12 - v21) <= 1e-6 * abs(v1 * v2)

    def test_singular_direction_rejected(self):
        with pytest.raises(ContourError):
            hyperlog_V_eval(word(1), 3.0, theta=0.0)


class TestGrowthScan:
    def test_decay_and_fit(self):
        rep = growth_scan([0.5, 1.0, 2.0], 2, Z, include_forests=False)
        assert rep.monotone_decreasing
        assert rep.fit_slope < 0
        assert rep.fit_r2 >= 0.9

    def test_c0_column_does_not_decay(self):
        rep = growth_scan([0.0, 1.0, 2.0], 2, Z, include_forests=False)
        assert rep.c0_khat is not None
        assert rep.c0_khat > 2.0 * rep.khat[2.0]


class TestPoleProbe:
    @pytest.mark.parametrize("om,c", [(1.0, 1.0), (2.0, 0.5), (1.0, 0.5), (2.0, 1.0)])
    def test_location_and_residue(self, om, c):
        loc, res = borel_pole_probe(om, c)
        assert abs(loc - (-om)) <= 1e-3
        assert abs(res - 1.0) <= 1e-4

    def test_c0_exact(self):
        loc, res = borel_pole_probe(3.0, 0.0)
        assert loc == -3.0 and res == 1.0


class TestXIntegral:
    def test_r0(self):
        assert x_integral_eval(EMPTY_WORD, Z, C).value == 1.0

    def test_r1_agreement(self):
        ref = paralog_Ua_eval(word(1), Z, C).value
        v = x_integral_eval(word(1), Z, C, delta=1e-2).value
        assert abs(v - ref) <= 1e-3 * abs(ref)

    def test_r1_delta_independence(self):
        a = x_integral_eval(word(1), Z, C, delta=1e-2).value
        b = x_integral_eval(word(1), Z, C, delta=1e-3).value
        ref = paralog_Ua_eval(word(1), Z, C).value
        assert abs(a - b) <= 1e-3 * abs(ref)

    def test_r2_agreement_not_flagged(self):
        mv = x_integral_eval(word(1, 2), Z, C, delta=5e-2)
        assert not mv.meta["ambiguous"]
        assert mv.meta["drift"] <= 1e-3

    def test_r3_rejected(self):
        with pytest.raises(ContourError):
            x_integral_eval(word(1, 1, 1), Z, C)
