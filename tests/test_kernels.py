"""Kernels, Laplace transforms, and the in-house Bessel K1."""

import math

import numpy as np
import pytest

from armould.bessel import BesselDomainError, bessel_k0, bessel_k1
from armould.kernels import (
    KernelDomainError,
    KernelParams,
    f_closed_form_oracle,
    f_eval,
    g_eval,
    g_sup_bound,
)
from armould.quadrature import de_halfline

# frozen multiprecision reference values for K1/K0
K1_REFS = {
    0.05: 19.909674325882506,
    0.3: 3.055992033457325,
    1.0: 0.6019072301972346,
    2.0: 0.13986588181652243,
    2.1: 0.12274641153350789,
    6.0: 0.001343919717735509,
    12.0: 2.290757464767188e-06,
    25.0: 3.5327780731999337e-12,
    (2 + 1j): (0.03629159240042704 - 0.12406383457283476j),
    (6 + 5j): (0.0007093907300846331 + 0.0009084519228286553j),
    (0.3 + 5j): (0.3769170969462769 + 0.18441992561363016j),
}
K0_REFS = {
    0.3: 1.3724600605442974,
    2.0: 0.11389387274953344,
    8.0: 0.0001464707052228154,
    (3 + 2.5j): (-0.02935661880868875 - 0.0094513031330961j),
}


class TestBessel:
    @pytest.mark.parametrize("w", sorted(K1_REFS, key=str))
    def test_k1_reference_values(self, w):
        assert abs(bessel_k1(w) - K1_REFS[w]) <= 1e-11 * abs(K1_REFS[w])

    @pytest.mark.parametrize("w", sorted(K0_REFS, key=str))
    def test_k0_reference_values(self, w):
        assert abs(bessel_k0(w) - K0_REFS[w]) <= 1e-11 * abs(K0_REFS[w])

    def test_integral_representation_oracle(self):
        # K1(w) = int_0^inf exp(-w cosh t) cosh t dt, Re w > 0
        for w in (0.7, 2.0, 3.3, 2 + 1.5j):
            val, _ = de_halfline(
                lambda u: np.exp(-w * np.cosh(np.log1p(u))) * np.cosh(np.log1p(u)) / (1.0 + u),
                scale=1.0,
            )
            # substitution t = log(1+u) maps (0,inf) to (0,inf)
            assert abs(bessel_k1(w) - val) <= 1e-9 * abs(val)

    def test_small_argument_pole(self):
        # w K1(w) -> 1
        for w in (1e-4, 1e-6):
            assert abs(w * bessel_k1(w) - 1.0) < 1e-7

    def test_left_half_plane_rejected(self):
        with pytest.raises(BesselDomainError):
            bessel_k1(-1.0 + 0.5j)


class TestKernelParams:
    def test_saddle_node_needs_positive_real_omega(self):
        with pytest.raises(KernelDomainError):
            KernelParams(1.0, -2.0)
        with pytest.raises(KernelDomainError):
            KernelParams(1.0, 1.0 + 1j)

    def test_negative_c_rejected(self):
        with pytest.raises(KernelDomainError):
            KernelParams(-0.5, 1.0)

    @pytest.mark.parametrize(
        "c, omega, field",
        [
            (math.nan, 1.0, "c"),
            (math.inf, 1.0, "c"),
            (1e200, 1.0, "c"),  # finite, but c^2 overflows
            (1.0, math.inf, "omega"),
            (1.0, math.nan, "omega"),
            (0.0, complex(1.0, math.nan), "omega"),
        ],
    )
    def test_non_finite_rejected(self, c, omega, field):
        with pytest.raises(KernelDomainError, match=f"parameter {field} = .* must be finite"):
            KernelParams(c, omega)


class TestGEval:
    def test_symmetric_point_value(self):
        # at y = c the saddle-node kernel equals exp(-2 omega c)
        p = KernelParams(1.5, 2.0)
        assert abs(g_eval(p, 1.5) - math.exp(-2 * 2.0 * 1.5)) < 1e-15

    def test_c_zero_is_pure_exponential(self):
        p = KernelParams(0.0, 3.0)
        for y in (0.2, 1.0, 4.0):
            assert abs(g_eval(p, y) - math.exp(-3.0 * y)) < 1e-15

    def test_zero_rejected(self):
        with pytest.raises(KernelDomainError):
            g_eval(KernelParams(1.0, 1.0), 0.0)

    def test_dilation_covariance(self):
        # g_{c,om}(y) = g_{lc, om/l}(l y) for l > 0 (saddle-node, om/l real > 0)
        for l in (2.0, 0.5, 3.7):
            p1 = KernelParams(1.3, 2.0)
            p2 = KernelParams(l * 1.3, 2.0 / l)
            for y in (0.5, 1.0 + 0.7j, 3.0):
                assert abs(g_eval(p1, y) - g_eval(p2, l * y)) < 1e-14


class TestSupBound:
    def test_value(self):
        assert g_sup_bound(KernelParams(1.0, 1.0)) == pytest.approx(math.exp(-2))

    def test_c_zero(self):
        assert g_sup_bound(KernelParams(0.0, 5.0)) == 1.0

    def test_grid_never_exceeds(self):
        for (c, om) in [(1.0, 1.0), (3.0, 2.0), (0.25, 3.0)]:
            p = KernelParams(c, om)
            bound = g_sup_bound(p)
            ys = np.logspace(-3, 3, 2001)
            assert np.max(np.abs(g_eval(p, ys))) <= bound * (1 + 1e-12)


class TestFEval:
    def test_c_zero_elementary(self):
        p = KernelParams(0.0, 2.0)
        v, err = f_eval(p, 1.5)
        assert abs(v - 1.0 / 3.5) < 1e-10

    def test_spec_point_two_k1_two(self):
        v, err = f_eval(KernelParams(1.0, 1.0), 0.0)
        assert abs(v - 2.0 * bessel_k1(2.0)) < 1e-12

    GRID = [
        (KernelParams(c, om), x)
        for c in (0.0, 0.25, 1.0, 2.3, 4.0)
        for om in (1.0, 2.0, 3.0)
        for x in (0.0, 0.6, 3.0, 10.0, 2.4j, -0.5 + 1j, 4.6j, -3.3j)
        if (complex(x) + om).real >= 0.25
    ]

    def test_against_closed_form_grid(self):
        worst = 0.0
        for p, x in self.GRID:
            v, _ = f_eval(p, x)
            ref = f_closed_form_oracle(p, x)
            worst = max(worst, abs(v - ref) / abs(ref))
        assert worst <= 1e-10

    def test_error_estimate_is_positive_for_nonzero_values(self):
        # the rule's last refinement delta can read 0 at a converged value
        for p, x in self.GRID:
            v, err = f_eval(p, x)
            assert v != 0 and err > 0

    @pytest.mark.parametrize("c", [1.0, 4.0, 10.0])
    def test_oscillating_integrand(self, c):
        # Re(x + omega) small against Im x: on the real axis exp(-x y) turns
        # many times within the decay length, and a real-axis rule lost up to
        # all digits here at c = 10
        worst = 0.0
        for re in (0.1, 0.25, 0.5):
            for im in (3.0, 5.0, 10.0, -4.6):
                p, x = KernelParams(c, 1.0), complex(re - 1.0, im)
                v, _ = f_eval(p, x)
                ref = f_closed_form_oracle(p, x)
                worst = max(worst, abs(v - ref) / abs(ref))
        assert worst <= 1e-10

    def test_large_x_matches_oracle(self):
        p = KernelParams(1.0, 1.0)
        v, _ = f_eval(p, 10.0)
        ref = f_closed_form_oracle(p, 10.0)
        assert abs(v - ref) <= 1e-8 * abs(ref)

    def test_divergent_domain_rejected(self):
        with pytest.raises(KernelDomainError):
            f_eval(KernelParams(1.0, 1.0), -2.0)

    def test_reality_on_real_axis(self):
        p = KernelParams(1.3, 2.0)
        v, _ = f_eval(p, 0.7)
        assert abs(v.imag) <= 1e-15 * abs(v)


class TestClosedForm:
    def test_c_to_zero_limit(self):
        x, om = 1.2, 2.0
        target = 1.0 / (x + om)
        for c in (1e-3, 1e-5):
            p = KernelParams(c, om)
            assert abs(f_closed_form_oracle(p, x) - target) < 1e-4

    def test_simple_pole_at_minus_omega(self):
        # (x + om) f -> 1 as x -> -om from the right
        p = KernelParams(1.0, 1.0)
        for rho in (1e-6, 1e-8):
            x = -1.0 + rho
            assert abs((x + 1.0) * f_closed_form_oracle(p, x) - 1.0) < 1e-4
