"""Hyperlogarithmic and paralogarithmic monomial evaluations."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import cauchy_fold_dense, forest_cover_sum
import armould.monomials as mono
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
from armould.words import EMPTY_WORD, forests_of_norm, letter, parse_forest, word

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
        # one evaluation runs one pass per Richardson level and returns the
        # value together with the z-derivative of those same passes
        calls = []
        one_pass = mono._pass

        def counted(*args):
            calls.append(args)
            return one_pass(*args)

        monkeypatch.setattr(mono, "_pass", counted)
        w = word(1, 2)
        mv = paralog_Ua_eval(w, Z, C)
        assert len(calls) == ContourSpec().richardson_levels
        assert mv.derivative is not None and mv.derivative_error > 0
        h = 1e-4
        fd = (paralog_Ua_eval(w, Z + h, C).value - paralog_Ua_eval(w, Z - h, C).value) / (2 * h)
        assert abs(mv.derivative - fd) <= 1e-6 * abs(mv.derivative)

    @pytest.mark.parametrize(
        "z, c",
        [(Z, math.nan), (Z, math.inf), (Z, -1.0), (complex(math.nan, 0.0), C), (-math.inf, C)],
        ids=["c-nan", "c-inf", "c-negative", "z-nan", "z-inf"],
    )
    def test_non_finite_arguments_rejected(self, z, c):
        for evaluate in (lambda: paralog_Ua_eval(word(1), z, c), lambda: paralog_forest_eval(parse_forest("1;2"), z, c)):
            with pytest.raises(ContourError):
                evaluate()

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

    @staticmethod
    def _cover_sum_drift(literal):
        f = parse_forest(literal)
        value = paralog_forest_eval(f, Z, C).value
        ref, _ = forest_cover_sum(f, Z, C)
        return abs(value - ref) / max(abs(value), abs(ref), 1e-300)

    def test_cherry_cross_check(self):
        assert self._cover_sum_drift("1(1,2)") <= 1e-6

    def test_antichain_cross_check(self):
        assert self._cover_sum_drift("1;2") <= 1e-6

    def test_node_budget(self):
        f = parse_forest("1;1;1;1;1;1;1")
        with pytest.raises(ContourError):
            paralog_forest_eval(f, Z, C, ContourSpec(multipliers=(1, 2, 3, 4)))


@st.composite
def ray_pairs(draw):
    """Two log-uniform rays of one step h, built as a pass builds them, with
    unequal lengths, independent windows and directions at least 0.005 apart."""
    h = draw(st.floats(0.002, 0.05))
    n_from, n_to = draw(st.lists(st.integers(33, 2000), min_size=2, max_size=2, unique=True))
    tilt_from, tilt_to = (draw(st.floats(0.0, 0.78)) for _ in range(2))
    base_from, base_to = (draw(st.floats(-0.5, 0.5)) for _ in range(2))
    assume(abs(tilt_from - tilt_to) >= 0.005)
    assume(abs((base_from - tilt_from) - (base_to - tilt_to)) >= 0.005)
    t_from, t_to = (draw(st.floats(-35.0, -3.0)) for _ in range(2))
    ray_from = mono._ray(1.0, base_from, tilt_from, t_from, h, n_from)
    ray_to = mono._ray(1.0, base_to, tilt_to, t_to, h, n_to)
    return h, ray_from, ray_to


def _dense_fold(values, y_from, log_from, y_to, log_to, h):
    return cauchy_fold_dense(values, y_from, y_to)


class TestFold:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(ray_pairs())
    def test_fold_matches_dense_oracle(self, pair):
        h, (y_from, wgt, log_from), (y_to, _, log_to) = pair
        values = np.exp(-y_from) * wgt  # the c = 0 kernel of decoration 1
        fast = mono._cauchy_fold(values, y_from, log_from, y_to, log_to, h)
        dense = cauchy_fold_dense(values, y_from, y_to)
        assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 0.0])
    def test_values_match_dense_fold_within_reported_error(self, monkeypatch, c):
        # every word and forest is evaluated with the library fold and with
        # the dense oracle; the bound is the smaller reported error, since
        # fold noise in the library value also widens its own Richardson
        # error estimate
        letters = [letter(1), letter(2)]
        max_len, max_norm = (3, 3) if c == 0 else (4, 4)
        words = [word(*w) for r in range(1, max_len + 1) for w in itertools.product((1, 2), repeat=r)]
        if c == 0:
            words.append(word(1, 1, 1, 2))
        cases = [(str(w), lambda w=w: paralog_Ua_eval(w, Z, c)) for w in words]
        cases += [(str(f), lambda f=f: paralog_forest_eval(f, Z, c)) for f in forests_of_norm(letters, max_norm)]
        library_fold = mono._cauchy_fold
        for label, evaluate in cases:
            out = []
            for fold in (library_fold, _dense_fold):
                monkeypatch.setattr(mono, "_cauchy_fold", fold)
                out.append(evaluate())
            fast, dense = out
            assert abs(fast.value - dense.value) <= min(fast.error, dense.error), (label, c)


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

    @pytest.mark.parametrize("norm_cap", [0, -1])
    def test_norm_cap_below_one_rejected(self, norm_cap):
        with pytest.raises(ValueError):
            growth_scan([1.0, 2.0], norm_cap, Z)


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
