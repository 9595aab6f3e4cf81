"""Synthesis pipeline: normalizer, conjugated field, diagnostics, linear RH."""

import math

import numpy as np
import pytest

import armould.monomials as mono
from armould.monomials import ContourSpec
from armould.operators import DiffOperator
from armould.series import TruncatedSeries
from armould.synthesis import (
    InvariantFamily,
    SynthesisConfig,
    SynthesisError,
    SynthesizedField,
    automorphism_defect,
    build_theta,
    conjugate_normal_field,
    convergence_report,
    linear_rh_synthesize,
    signed_monomial_mould,
    synthesize,
)
from armould.words import word
from oracles import exp_atom_operators, theta_word_assembly

CFG = SynthesisConfig(c=2.0, nu=6, r_max=4, z_samples=(-2.0,))


class TestInvariantFamily:
    def test_zero_coefficients_dropped(self):
        inv = InvariantFamily({1: 0.0, 2: 0.5}, growth_bound=1.0)
        assert inv.support == (2,)

    def test_negative_index_rejected(self):
        with pytest.raises(SynthesisError):
            InvariantFamily({-1: 1.0})

    def test_growth_bound_enforced(self):
        with pytest.raises(SynthesisError):
            InvariantFamily({2: 9.0}, growth_bound=2.0)

    def test_z_sample_on_cut_rejected(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(c=1.0, z_samples=(3.0,))

    @pytest.mark.parametrize("nu, r_max", [(0, 4), (4, 0), (4, -1), (8, 7)])
    def test_degenerate_caps_rejected(self, nu, r_max):
        # r_max = 7 needs seven integration slots; the default contour has six
        with pytest.raises(SynthesisError):
            SynthesisConfig(c=2.0, nu=nu, r_max=r_max)


    @pytest.mark.parametrize(
        "make",
        [
            lambda: InvariantFamily({1: math.nan}),
            lambda: InvariantFamily({1: complex(0.25, math.inf)}, growth_bound=1.0),
            lambda: InvariantFamily({1: 0.25}, growth_bound=math.inf),
            lambda: InvariantFamily({1: 0.25}, growth_bound=math.nan),
            lambda: SynthesisConfig(c=math.nan),
            lambda: SynthesisConfig(c=math.inf),
            lambda: SynthesisConfig(c=2.0, z_samples=(complex(math.nan, 1.0),)),
            lambda: SynthesisConfig(c=2.0, z_samples=(-math.inf,)),
        ],
        ids=["A-nan", "A-inf", "H-inf", "H-nan", "c-nan", "c-inf", "z-nan", "z-inf"],
    )
    def test_non_finite_inputs_rejected(self, make):
        with pytest.raises(SynthesisError):
            make()


class TestPassCount:
    """L carries each value with its z-derivative, so every distinct word
    costs one set of quadrature passes, once."""

    INV = InvariantFamily({1: 0.25, 2: 0.125})
    CFG = SynthesisConfig(c=2.0, nu=4, r_max=4, z_samples=(-1.5, -2.5))

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        one_pass = mono._pass

        def counted(decorations, parents, z, *rest):
            calls.append((decorations, z))
            return one_pass(decorations, parents, z, *rest)

        monkeypatch.setattr(mono, "_pass", counted)
        return calls

    def test_synthesize_runs_one_pass_set_per_distinct_word(self, passes):
        synthesize(self.INV, self.CFG)
        levels = self.CFG.contour.richardson_levels
        assert len(set(passes)) == 30
        assert len(passes) == levels * 30 == 60

    def test_convergence_report_reuses_build_theta(self, passes):
        build_theta(self.INV, self.CFG)
        theta_passes = len(passes)
        passes.clear()
        convergence_report(self.INV, self.CFG, [2.0])
        assert len(passes) == theta_passes


class TestFixedPoint:
    def test_zero_invariants_give_identity(self):
        field = synthesize(InvariantFamily({}), CFG)
        s = field.samples[0]
        assert s.action_on_u == {1: 1.0 + 0.0j}
        assert s.derivation_defect < 1e-14
        assert s.automorphism_defect < 1e-14

    def test_zero_invariants_theta_is_identity(self):
        e = build_theta(InvariantFamily({}), CFG)[0]
        assert e.operator == DiffOperator.identity()
        assert e.d_operator.is_zero()


class TestNormalizer:
    INV = InvariantFamily({1: 0.25})

    def test_norm_one_term(self):
        # single-node forest acts on u as L^(1) * a * u^2
        e = build_theta(self.INV, CFG)[0]
        ell = signed_monomial_mould(-2.0, 2.0, CFG.contour)
        expected = complex(ell.value(word(1)).coeff(0)) * 0.25
        u = TruncatedSeries.u_power(1, 0, CFG.nu, coeff=1.0 + 0.0j)
        img = e.apply(u)
        assert abs(img.coeff(0, 2) - expected) <= 1e-12 * abs(expected)

    def test_tangent_to_identity(self):
        e = build_theta(self.INV, CFG)[0]
        u = TruncatedSeries.u_power(1, 0, CFG.nu, coeff=1.0 + 0.0j)
        img = e.apply(u)
        assert img.coeff(0, 1) == 1.0
        one = TruncatedSeries.constant(1.0 + 0.0j, 0, CFG.nu)
        assert e.apply(one) == one

    def test_automorphism_defect_small(self):
        e = build_theta(self.INV, CFG)[0]
        assert automorphism_defect(e) <= 1e-9

    def test_theta_times_inverse_is_identity(self):
        e = build_theta(self.INV, CFG)[0]
        composed = e.operator.compose(e.inverse_operator()).truncate_u(CFG.nu)
        rng = np.random.default_rng(3)
        for _ in range(2):
            coeffs = {(0, k): complex(rng.uniform(-1, 1)) for k in range(CFG.nu + 1)}
            f = TruncatedSeries(coeffs, 0, CFG.nu)
            assert composed.apply(f).max_abs_diff(f) <= 1e-12

    def test_forest_vs_word_assembly(self):
        cfg3 = SynthesisConfig(c=2.0, nu=6, r_max=3, z_samples=(-2.0,))
        e = build_theta(self.INV, cfg3)[0]
        w_op = theta_word_assembly(self.INV, cfg3, -2.0)
        assert (e.operator - w_op).max_abs_diff(DiffOperator.zero()) <= 1e-12

    def test_exp_atom_route_matches(self):
        # composing the exp atoms reproduces the assembled operator when both
        # are truncated at the same underlying word length
        cfg2 = SynthesisConfig(c=2.0, nu=4, r_max=2, z_samples=(-2.0,))
        inv = InvariantFamily({1: 0.25, 2: 0.125}, growth_bound=0.5)
        atoms = exp_atom_operators(inv, cfg2)
        ell = signed_monomial_mould(-2.0, 2.0, cfg2.contour)
        out = DiffOperator.identity()
        from armould.moulds import words_of_norm_at_most
        from armould.words import letter

        for w in words_of_norm_at_most([letter(n) for n in range(1, cfg2.nu + 1)], cfg2.nu):
            op = DiffOperator.identity()
            ok = True
            for a in w:
                n = int(a.value.re)
                if n not in atoms:
                    ok = False
                    break
                op = atoms[n].compose(op)
            if not ok:
                continue
            out = out + op.scale(complex(ell.value(w).coeff(0)))
        # drop contributions of underlying length > r_max: compare against the
        # word assembly only through norm <= 2 coefficients where they agree
        e = build_theta(inv, cfg2)[0]
        u = TruncatedSeries.u_power(1, 0, cfg2.nu, coeff=1.0 + 0.0j)
        a_img = out.apply(u)
        b_img = e.apply(u)
        for deg in (2, 3):
            assert abs(a_img.coeff(0, deg) - b_img.coeff(0, deg)) <= 1e-10


class TestField:
    INV = InvariantFamily({1: 0.25})

    def test_defects(self):
        field = synthesize(self.INV, CFG)
        s = field.samples[0]
        assert s.automorphism_defect <= 1e-9
        assert s.derivation_defect <= 1e-9

    def test_u2_coefficient_against_fd_conjugation(self):
        # oracle: replace the analytic z-derivative with centered differences
        z0, dz = -2.0, 1e-4
        e = build_theta(self.INV, CFG)[0]
        ep = build_theta(self.INV, SynthesisConfig(c=2.0, nu=6, r_max=4, z_samples=(z0 + dz,)))[0]
        em = build_theta(self.INV, SynthesisConfig(c=2.0, nu=6, r_max=4, z_samples=(z0 - dz,)))[0]
        fd = (ep.operator - em.operator).scale(1.0 / (2 * dz))
        euler = DiffOperator({1: {1: 1.0 + 0.0j}})
        theta_inv = e.inverse_operator()
        xc_fd = e.operator.compose(euler).compose(theta_inv) - fd.compose(theta_inv)
        u = TruncatedSeries.u_power(1, 0, CFG.nu, coeff=1.0 + 0.0j)
        c2_fd = xc_fd.apply(u).coeff(0, 2)
        c2 = conjugate_normal_field(e).action_on_u[2]
        assert abs(c2 - c2_fd) <= 1e-3 * abs(c2)

    def test_tail_ratios_below_one(self):
        e = build_theta(self.INV, CFG)[0]
        ratios = e.tail_ratios()
        assert ratios and all(v < 1 for v in ratios.values())

    def test_monotone_tails_in_c(self):
        tails = {}
        for c in (1.0, 2.0, 4.0):
            e = build_theta(self.INV, SynthesisConfig(c=c, nu=6, r_max=3, z_samples=(-2.0,)))[0]
            tails[c] = e.tail_norms
        for n in tails[1.0]:
            assert tails[1.0][n] >= tails[2.0][n] >= tails[4.0][n]

    def test_reality_on_lateral_slice(self):
        # the one-sided monomials carry a factor i/(2 pi) per letter, so real
        # synthesized tables correspond to purely imaginary data; with
        # A_1 = i t the field coefficients are real to machine precision
        inv = InvariantFamily({1: 0.25j})
        field = synthesize(inv, CFG)
        assert field.max_relative_imag() <= 1e-8

    def test_literal_real_data_gives_lateral_phases(self):
        # documented behaviour: literally real A_n produce a normalizer with
        # the lateral phase i/(2 pi) per letter, so the first nontrivial
        # field coefficient is purely imaginary; reality lives on the
        # twisted slice above
        field = synthesize(self.INV, CFG)
        c2 = field.samples[0].action_on_u[2]
        assert abs(c2.imag) > 1e3 * abs(c2.real)


class TestConvergenceReport:
    def test_zero_invariants(self):
        rep = convergence_report(InvariantFamily({}), CFG, [2.0])
        assert rep.tail_norms[2.0] == {}

    def test_large_data_divergence_signature_at_c0(self):
        # beyond the small-data regime the word-organized ratios exceed 1 at
        # c = 0 while the paralogarithmic column collapses
        inv = InvariantFamily({1: 4.0}, growth_bound=4.0)
        cfg = SynthesisConfig(c=4.0, nu=6, r_max=4, z_samples=(-0.5,))
        rep = convergence_report(inv, cfg, [4.0, 0.0])
        assert all(v < 1 for v in rep.tail_ratios[4.0].values())
        assert all(v < 1e-6 for v in rep.word_ratios[4.0].values())
        assert max(rep.word_ratios[0.0].values()) > 1.0


class TestLinearRH:
    def test_identity_at_zero_data(self):
        rep = linear_rh_synthesize((1.0, 0.0), 0.0, 0.0, c=1.0)
        assert np.allclose(rep.theta_matrix, np.eye(2))

    def test_small_data_decay(self):
        rep = linear_rh_synthesize((1.0, 0.0), 0.1, 0.05, c=1.0)
        assert rep.geometric_decay

    def test_large_data_threshold(self):
        bad = linear_rh_synthesize((1.0, 0.0), 10.0, 10.0, c=0.5)
        assert not bad.geometric_decay
        good = linear_rh_synthesize((1.0, 0.0), 10.0, 10.0, c=8.0)
        assert good.geometric_decay

    def test_degenerate_eigenvalues_rejected(self):
        with pytest.raises(SynthesisError):
            linear_rh_synthesize((1.0, 1.0), 1.0, 1.0, c=1.0)

    def test_alternating_structure(self):
        # odd layers are off-diagonal, even layers diagonal
        rep = linear_rh_synthesize((1.0, 0.0), 0.3, 0.2, c=1.0, r_max=2)
        assert rep.term_norms[1] > 0 and rep.term_norms[2] > 0
