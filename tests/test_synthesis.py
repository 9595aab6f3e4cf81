"""Synthesis pipeline: normalizer, conjugated field, diagnostics, linear RH."""

import cmath
import math

import numpy as np
import pytest

import armould.monomials as mono
from armould.monomials import ContourSpec
from armould.operators import DiffOperator
from armould.series import TruncatedSeries
import armould.synthesis as synth
from armould.synthesis import (
    FieldSample,
    InvariantFamily,
    NormalizerExpansion,
    SynthesisConfig,
    SynthesisError,
    SynthesizedField,
    automorphism_defect,
    build_theta,
    conjugate_normal_field,
    convergence_report,
    linear_rh_synthesize,
    synthesize,
)
from armould.words import word
from oracles import conjugate_by_products, exp_atom_operators, signed_monomial_moulds, theta_word_assembly

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

    def test_c_checked_without_z_samples(self):
        # c is checked along with the z samples, so a config needs one
        with pytest.raises(SynthesisError):
            SynthesisConfig(c=math.nan, z_samples=())

    def test_z_near_the_singular_ray_rejected_before_any_forest_row(self, monkeypatch):
        # the quadrature refuses z within 0.3 rad of R+, so the config does
        def no_rows(*args):
            raise AssertionError("a forest row was built")

        monkeypatch.setattr(synth, "_forest_rows", no_rows)
        with pytest.raises(SynthesisError, match="singular ray"):
            synthesize(InvariantFamily({1: 0.25, 2: 0.125}), SynthesisConfig(c=2.0, nu=10, r_max=6, z_samples=(1.5 * cmath.exp(0.2j),)))

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
            lambda: SynthesisConfig(c=1e200),
            lambda: SynthesisConfig(c=2.0, z_samples=(complex(math.nan, 1.0),)),
            lambda: SynthesisConfig(c=2.0, z_samples=(-math.inf,)),
            # zero data never reach a monomial evaluation, so c is checked first
            lambda: linear_rh_synthesize((1.0, 0.0), 0.0, 0.0, c=math.nan),
            lambda: linear_rh_synthesize((1.0, 0.0), 0.0, 0.0, c=-1.0),
        ],
        ids=["A-nan", "A-inf", "H-inf", "H-nan", "c-nan", "c-inf", "c-square-overflows", "z-nan", "z-inf", "rh-c-nan", "rh-c-negative"],
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
        levels = ContourSpec().richardson_levels
        assert len(set(passes)) == 30
        assert len(passes) == levels * 30 == 60

    def test_convergence_report_reuses_build_theta(self, passes):
        build_theta(self.INV, self.CFG)
        theta_passes = len(passes)
        passes.clear()
        convergence_report(self.INV, self.CFG, [2.0])
        assert len(passes) == theta_passes


class TestForestLimit:
    """Caps whose forest sum is too large fail before any quadrature, with
    the exact forest count in the message."""

    @pytest.fixture
    def no_quadrature(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a quadrature pass ran")

        monkeypatch.setattr(mono, "_pass", refuse)

    def test_explosive_caps_rejected(self, no_quadrature):
        inv = InvariantFamily({n: 0.01 for n in range(1, 11)})
        cfg = SynthesisConfig(c=2.0, nu=40, r_max=6, z_samples=(-2.0,))
        with pytest.raises(SynthesisError, match="MAX_FORESTS"):
            build_theta(inv, cfg)

    def test_limit_names_the_count(self, no_quadrature, monkeypatch):
        import armould.synthesis as synth

        # 107 forests of norm <= 6 and at most 4 nodes over {1, 2}
        monkeypatch.setattr(synth, "MAX_FORESTS", 106)
        inv = InvariantFamily({1: 0.25, 2: 0.125})
        with pytest.raises(SynthesisError, match="give 107 forests"):
            build_theta(inv, CFG)


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
        ell, _ = signed_monomial_moulds(-2.0, 2.0, ContourSpec())
        expected = ell.value(word(1)) * 0.25
        u = TruncatedSeries.u_power(1, CFG.nu, coeff=1.0 + 0.0j)
        img = e.operator.apply(u)
        assert abs(img.coeff(2) - expected) <= 1e-12 * abs(expected)

    def test_tangent_to_identity(self):
        e = build_theta(self.INV, CFG)[0]
        u = TruncatedSeries.u_power(1, CFG.nu, coeff=1.0 + 0.0j)
        img = e.operator.apply(u)
        assert img.coeff(1) == 1.0
        one = TruncatedSeries.constant(1.0 + 0.0j, CFG.nu)
        assert e.operator.apply(one) == one

    def test_automorphism_defect_small(self):
        e = build_theta(self.INV, CFG)[0]
        assert automorphism_defect(e) <= 1e-9

    def test_automorphism_defect_detects_one_perturbed_coefficient(self):
        # large data at r_max = nu, so that Theta is an automorphism at the cap
        # and its lowest non-derivation term u^4 d^2 is far above rounding
        cfg = SynthesisConfig(c=0.5, nu=4, r_max=4, z_samples=(-2.0,))
        e = build_theta(InvariantFamily({1: 100.0}, growth_bound=100.0), cfg)[0]
        assert automorphism_defect(e) <= 1e-9
        terms = {k: dict(p) for k, p in e.operator.terms.items()}
        terms[2][4] *= 1 + 1e-3
        assert automorphism_defect(NormalizerExpansion(e.z, e.config, DiffOperator(terms), e.d_operator, e.ell, e.tail_norms)) > 1e-6

    def test_theta_times_inverse_is_identity(self):
        e = build_theta(self.INV, CFG)[0]
        composed = e.operator.compose(e.inverse_operator()).truncate_u(CFG.nu)
        rng = np.random.default_rng(3)
        for _ in range(2):
            coeffs = {k: complex(rng.uniform(-1, 1)) for k in range(CFG.nu + 1)}
            f = TruncatedSeries(coeffs, CFG.nu)
            assert composed.apply(f).max_abs_diff(f) <= 1e-12

    @pytest.mark.parametrize(
        "inv, r_max",
        [(InvariantFamily({1: 0.25}), 3), (InvariantFamily({1: 0.25, 2: 0.125}), 4)],
        ids=["support-1", "support-12"],
    )
    def test_forest_vs_word_assembly(self, inv, r_max):
        # every coefficient of Theta and of d_z Theta agrees within 1e-13 of
        # the sum of |terms| that enter it on the word side
        cfg = SynthesisConfig(c=2.0, nu=6, r_max=r_max, z_samples=(-2.0,))
        e = build_theta(inv, cfg)[0]
        words = theta_word_assembly(inv, cfg, -2.0)
        for forest_op, word_op, scale in (
            (e.operator, words.theta, words.theta_scale),
            (e.d_operator, words.d_theta, words.d_theta_scale),
        ):
            assert set(forest_op.terms) == set(word_op.terms)
            for k, poly in word_op.terms.items():
                assert set(forest_op.terms[k]) == set(poly)
                for d, x in poly.items():
                    assert abs(complex(forest_op.terms[k][d]) - x) <= 1e-13 * scale.terms[k][d]

    def test_exp_atom_route_matches(self):
        # composing the exp atoms reproduces the assembled operator when both
        # are truncated at the same underlying word length
        cfg2 = SynthesisConfig(c=2.0, nu=4, r_max=2, z_samples=(-2.0,))
        inv = InvariantFamily({1: 0.25, 2: 0.125}, growth_bound=0.5)
        atoms = exp_atom_operators(inv, cfg2)
        ell, _ = signed_monomial_moulds(-2.0, 2.0, ContourSpec())
        out = DiffOperator.identity()
        from armould.moulds import words_of_norm_at_most
        from armould.words import letter

        for w in words_of_norm_at_most([letter(n) for n in range(1, cfg2.nu + 1)], cfg2.nu):
            op = DiffOperator.identity()
            ok = True
            for a in w:
                n = int(a.re)
                if n not in atoms:
                    ok = False
                    break
                op = atoms[n].compose(op)
            if not ok:
                continue
            out = out + op.scale(ell.value(w))
        # drop contributions of underlying length > r_max: compare against the
        # word assembly only through norm <= 2 coefficients where they agree
        e = build_theta(inv, cfg2)[0]
        u = TruncatedSeries.u_power(1, cfg2.nu, coeff=1.0 + 0.0j)
        a_img = out.apply(u)
        b_img = e.operator.apply(u)
        for deg in (2, 3):
            assert abs(a_img.coeff(deg) - b_img.coeff(deg)) <= 1e-10


class TestField:
    INV = InvariantFamily({1: 0.25})

    def test_defects(self):
        field = synthesize(self.INV, CFG)
        s = field.samples[0]
        assert s.automorphism_defect <= 1e-9
        assert s.derivation_defect <= 1e-9

    def test_derivation_defect_detects_a_non_derivation(self):
        # d^2(fg) - d^2(f) g - f d^2(g) = 2 f' g', while u^2 d is a derivation
        def leibniz(op):
            return lambda f, g: (op.apply(f * g), op.apply(f) * g + f * op.apply(g))

        assert synth._sampled_defect(7, CFG.nu, leibniz(DiffOperator({1: {2: 1.0 + 0.0j}}))) <= 1e-15
        assert synth._sampled_defect(7, CFG.nu, leibniz(DiffOperator({2: {0: 1.0 + 0.0j}}))) > 1e-6

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
        u = TruncatedSeries.u_power(1, CFG.nu, coeff=1.0 + 0.0j)
        c2_fd = xc_fd.apply(u).coeff(2)
        c2 = conjugate_normal_field(e).action_on_u[2]
        assert abs(c2 - c2_fd) <= 1e-3 * abs(c2)

    @pytest.mark.parametrize("c", [0.0, 2.0])
    def test_field_from_actions_matches_operator_products(self, c):
        cfg = SynthesisConfig(c=c, nu=6, r_max=4, z_samples=(-1.5, -2.5))
        for e in build_theta(InvariantFamily({1: 0.25, 2: 0.125}), cfg):
            got, ref = conjugate_normal_field(e), conjugate_by_products(e)
            scale = max(abs(v) for v in ref.action_on_u.values())
            assert set(got.action_on_u) == set(ref.action_on_u)
            for k, v in ref.action_on_u.items():
                assert abs(got.action_on_u[k] - v) <= 1e-14 * scale
            assert got.derivation_defect <= 1e-12 and ref.derivation_defect <= 1e-12

    def test_non_finite_field_fails_its_checks(self, monkeypatch):
        # a NaN monomial value makes the field coefficients and both defects
        # come out NaN, and each is a failed check
        one_item = mono.paralog_Ua_eval

        def nan_value(*args, **kwargs):
            mv = one_item(*args, **kwargs)
            return mono.MonomialValue(complex(math.nan, 0.0), mv.error, complex(math.nan, 0.0), mv.derivative_error)

        monkeypatch.setattr(mono, "paralog_Ua_eval", nan_value)
        field = synthesize(self.INV, SynthesisConfig(c=2.0, nu=4, r_max=2, z_samples=(-2.0,)))
        checks = {check: value for check, value, _ in field.failures}
        assert set(checks) == {"automorphism_defect", "derivation_defect", "finite_coefficient_rows"}
        assert math.isnan(checks["automorphism_defect"]) and math.isnan(checks["derivation_defect"])
        assert checks["finite_coefficient_rows"] == 3

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

    def test_nan_tail_at_one_z_stays_nan(self, monkeypatch):
        # a NaN Ua^(2) at the first of two z samples makes that sample's
        # norm-2 tail NaN; the max over samples and the ratios beside it
        # keep the NaN whichever sample comes first
        one_item = mono.paralog_Ua_eval

        def nan_at_first_z(w, z, *args, **kwargs):
            mv = one_item(w, z, *args, **kwargs)
            return mono.MonomialValue(complex(math.nan, 0.0), mv.error, mv.derivative, mv.derivative_error) if (w, z) == (word(2), -1.5) else mv

        monkeypatch.setattr(mono, "paralog_Ua_eval", nan_at_first_z)
        inv = InvariantFamily({1: 0.25, 2: 0.125})
        cfg = SynthesisConfig(c=2.0, nu=3, r_max=3, z_samples=(-1.5, -2.5))
        rep = convergence_report(inv, cfg, [2.0])
        assert math.isnan(rep.tail_norms[2.0][2])
        assert math.isnan(rep.tail_ratios[2.0][2]) and math.isnan(rep.tail_ratios[2.0][3])
        # the NaN stays in the forests whose rows use Ua^(2): the norm-1 tail
        # is finite and the norm-3 tail, whose kernels vanish on u-degree <= 3,
        # is still exactly zero
        assert math.isfinite(rep.tail_norms[2.0][1])
        assert rep.tail_norms[2.0][3] == 0.0

    def test_word_operators_built_once_per_call(self, monkeypatch):
        # ||B_w|| is free of c and z: one op_compose_word per word, not one per
        # word, c value and z sample
        calls = []
        one_word = synth.op_compose_word

        def counted(fam, w):
            calls.append(w)
            return one_word(fam, w)

        monkeypatch.setattr(synth, "op_compose_word", counted)
        inv = InvariantFamily({1: 0.25, 2: 0.125})
        cfg = SynthesisConfig(c=2.0, nu=3, r_max=3, z_samples=(-1.5, -2.5))
        rep = convergence_report(inv, cfg, [1.0, 2.0])
        # (1), (2), (1,1), (1,2), (2,1), (1,1,1)
        assert len(calls) == len(set(calls)) == 6
        assert sum(rep.word_sums_by_length[2.0].values()) > 0

    def test_forest_rows_built_once_for_the_c_grid(self, monkeypatch):
        # the z-free rows depend on neither c nor z: one build serves every c,
        # with the tails that a build_theta per c gives
        inv = InvariantFamily({1: 0.25, 2: 0.125})
        cfg = SynthesisConfig(c=2.0, nu=4, r_max=3, z_samples=(-1.5, -2.5))
        grid = [0.5, 1.0, 2.0]
        per_c = {c: build_theta(inv, SynthesisConfig(c, cfg.nu, cfg.r_max, cfg.z_samples)) for c in grid}
        calls = []
        one_build = synth._forest_rows

        def counted(*args):
            calls.append(args)
            return one_build(*args)

        monkeypatch.setattr(synth, "_forest_rows", counted)
        rep = convergence_report(inv, cfg, grid)
        assert len(calls) == 1
        for c, exps in per_c.items():
            assert rep.tail_norms[c] == {n: max(e.tail_norms[n] for e in exps) for n in exps[0].tail_norms}

    def test_every_c_checked_before_any_forest_row(self, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a forest row was built")

        monkeypatch.setattr(synth, "_forest_rows", no_rows)
        with pytest.raises(SynthesisError, match="c = nan"):
            convergence_report(InvariantFamily({1: 0.25}), CFG, [2.0, 1.0, math.nan])


class TestNanReductions:
    """A NaN in the data stays NaN in every maximum and ratio over it."""

    def test_tail_ratios(self):
        e = NormalizerExpansion(
            z=-2.0, config=CFG, operator=DiffOperator.identity(), d_operator=DiffOperator.zero(), ell={},
            tail_norms={1: math.nan, 2: 1.0, 3: 0.5},
        )  # fmt: skip
        ratios = e.tail_ratios()
        assert set(ratios) == {2, 3} and math.isnan(ratios[2]) and ratios[3] == 0.5

    @pytest.mark.parametrize("bad", [complex(math.nan, 1e-3), complex(1.0, math.nan)], ids=["nan-real", "nan-imag"])
    def test_max_relative_imag(self, bad):
        sample = FieldSample(z=-2.0, action_on_u={1: 1.0 + 0.0j, 2: bad}, derivation_defect=0.0, automorphism_defect=0.0)
        assert math.isnan(SynthesizedField(config=CFG, samples=[sample], tail_ratios={}, failures=[]).max_relative_imag())


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

    def test_pinned_term_norms(self):
        # the layer norms at the fixed sample point z = 2.4i
        rep = linear_rh_synthesize((1.0, 0.0), 10.0, 10.0, c=0.5)
        pinned = {1: 2.105612306186203, 2: 6.881960237115817, 3: 24.90426458805471, 4: 91.24612738242341}
        for r, v in pinned.items():
            assert abs(rep.term_norms[r] - v) <= 1e-12 * v

    def test_degenerate_eigenvalues_rejected(self):
        with pytest.raises(SynthesisError):
            linear_rh_synthesize((1.0, 1.0), 1.0, 1.0, c=1.0)

    @pytest.mark.parametrize("r_max", [0, -3])
    def test_r_max_below_one_rejected(self, r_max):
        with pytest.raises(SynthesisError, match="r_max"):
            linear_rh_synthesize((1.0, 0.0), 1.0, 1.0, c=1.0, r_max=r_max)

    @pytest.mark.parametrize(
        "lambdas, a12, a21, name",
        [
            ((math.inf, 0.0), 1.0, 1.0, "lambda1"),
            ((1.0, math.nan), 1.0, 1.0, "lambda2"),
            ((1.0, 0.0), math.nan, 1.0, "a12"),
            ((1.0, 0.0), 1.0, complex(0.0, math.inf), "a21"),
            ((1e308, -1e308), 1.0, 1.0, "omega_12"),
        ],
    )
    def test_non_finite_inputs_rejected(self, lambdas, a12, a21, name):
        with pytest.raises(SynthesisError, match=f"{name} = .* is not finite"):
            linear_rh_synthesize(lambdas, a12, a21, c=1.0)

    def test_one_batch_builds_each_ray_once(self, monkeypatch):
        # only the alternating words are evaluated, through one batch: one
        # ray per level, slot and decoration, since every item of a level
        # shares its step: 16 rays, where one evaluation per word builds 40
        # (2 levels x (1 + 2 + 3 + 4) slots x 2 words)
        calls = []
        library_ray = mono._ray

        def counted(*args):
            calls.append(args)
            return library_ray(*args)

        monkeypatch.setattr(mono, "_ray", counted)
        linear_rh_synthesize((1.0, 0.0), 10.0, 10.0, c=0.5, r_max=4)
        levels = ContourSpec().richardson_levels
        assert len(calls) == levels * 4 * 2 == 16

    @pytest.mark.parametrize("r_max", [7, 100_000_000])
    def test_r_max_above_the_slots_rejected_before_any_product(self, monkeypatch, r_max):
        def no_batch(*args):
            raise AssertionError("a monomial batch ran")

        monkeypatch.setattr(synth, "paralog_batch_eval", no_batch)
        with pytest.raises(SynthesisError, match=f"r_max = {r_max} needs {r_max} integration slots"):
            linear_rh_synthesize((1.0, 0.0), 10.0, 10.0, c=0.5, r_max=r_max)

    def test_alternating_structure(self):
        # odd layers are off-diagonal, even layers diagonal
        rep = linear_rh_synthesize((1.0, 0.0), 0.3, 0.2, c=1.0, r_max=2)
        assert rep.term_norms[1] > 0 and rep.term_norms[2] > 0
