"""Truncated series, homogeneous derivations, coarborification, contraction."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from oracles import check_coarborified_decomposition, check_coseparative
from armould import operators
from armould.moulds import (
    ArMould,
    Mould,
    arborify,
    builtin_mould,
    mould_compose,
    mould_mul,
    symmetrel_geometric,
    words_over,
    words_of_norm_at_most,
)
from armould.operators import (
    DerivationFamily,
    DiffOperator,
    coarborify_contracted,
    coarborify_homogeneous,
    contract_forest_sum,
    contract_word_sum,
    op_compose_word,
    restricted_norm,
)
from armould.series import TruncatedSeries
from armould.values import parse_exact
from armould.words import EMPTY_WORD, contracting_covers, forests_of_norm, letter, linear_extensions, parse_forest, word

AB = [letter(1), letter(2)]


def rand_series(rng, nu):
    coeffs = {}
    for k in range(nu + 1):
        if rng.random() < 0.6:
            coeffs[k] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return TruncatedSeries(coeffs, nu)


class TestTruncatedSeries:
    def test_mul_truncates_consistently(self):
        a = TruncatedSeries({3: 1, 0: 2}, 4)
        b = TruncatedSeries({2: 1, 1: 3}, 4)
        p = a * b
        assert p.coeff(4) == 3  # u^3 * 3 u -> kept
        assert p.coeff(5) == 0  # beyond u cap, dropped
        assert p.coeffs == {1: 6, 2: 2, 4: 3}
        assert TruncatedSeries({5: 1, 1: 2}, 4).coeffs == {1: 2}  # cut on construction

    def test_ring_identities(self):
        rng = random.Random(1)
        a, b, c = (rand_series(rng, 4) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        # cap-1 series are first-order jets: (a + b eps)(c + d eps) = ac + (ad + bc) eps
        x0, x1, y0, y1 = Fraction(2, 3), Fraction(5, 7), Fraction(-3, 4), Fraction(1, 5)
        x, y = TruncatedSeries({0: x0, 1: x1}, 1), TruncatedSeries({0: y0, 1: y1}, 1)
        assert x * y == TruncatedSeries({0: x0 * y0, 1: x0 * y1 + x1 * y0}, 1)

    def test_zseries_as_mould_values(self):
        # a mould valued in truncated series composes through mould operations
        cap = 3
        m = Mould(lambda w: TruncatedSeries({w.length: 1.0}, cap) if w.length else TruncatedSeries.constant(1.0, cap))
        from armould.moulds import mould_mul

        p = mould_mul(m, m)
        assert p.value(word(1)).coeffs == {1: 2.0}


class TestHomDerivations:
    def test_empty_word_is_identity(self):
        fam = DerivationFamily({1: Fraction(1)})
        op = op_compose_word(fam, EMPTY_WORD)
        assert op == DiffOperator.identity()

    def test_single_letter_action(self):
        fam = DerivationFamily({1: Fraction(1)})
        op = op_compose_word(fam, word(1))
        assert op.apply_u_poly({1: 1}) == {2: Fraction(1)}

    def test_degree_shift(self):
        fam = DerivationFamily({3: Fraction(2)})
        op = op_compose_word(fam, word(3))
        # u^k -> 2 k u^{k+3}
        assert op.apply_u_poly({4: 1}) == {7: Fraction(8)}

    def test_composition_b2b1(self):
        fam = DerivationFamily({1: Fraction(1), 2: Fraction(1)})
        op = op_compose_word(fam, word(1, 2))
        assert op.apply_u_poly({1: 1}) == {4: Fraction(2)}

    def test_leibniz(self):
        fam = DerivationFamily({2: Fraction(3, 5)})
        rng = random.Random(2)
        f = rand_series(rng, 6)
        g = rand_series(rng, 6)
        d = fam.operator(2)
        assert d.apply(f * g) == d.apply(f) * g + f * d.apply(g)


class TestCoarborification:
    FAM = DerivationFamily({1: Fraction(1), 2: Fraction(1)})

    def test_single_node(self):
        k = coarborify_homogeneous(self.FAM, parse_forest("2"))
        assert k == self.FAM.operator(2)

    def test_chain(self):
        k = coarborify_homogeneous(self.FAM, parse_forest("1(2)"))
        assert k == DiffOperator({1: {4: Fraction(2)}})

    def test_antichain(self):
        k = coarborify_homogeneous(self.FAM, parse_forest("1;2"))
        assert k == DiffOperator({2: {5: Fraction(1)}})

    def test_antichain_plus_chain_reconstructs_composition(self):
        b21 = op_compose_word(self.FAM, word(1, 2))
        total = coarborify_homogeneous(self.FAM, parse_forest("1(2)")) + coarborify_homogeneous(self.FAM, parse_forest("1;2"))
        assert b21 == total

    def test_coeff_degree_is_norm_plus_order(self):
        for f in forests_of_norm(AB, 4):
            k = coarborify_homogeneous(self.FAM, f)
            assert set(k.terms) <= {len(f.trees)}
            poly = k.terms.get(len(f.trees))
            if poly:
                assert max(poly) == int(f.norm.re) + len(f.trees)

    def test_increasing_structures_cayley_count(self):
        # r positions admit r! increasing forest structures; a forest F
        # carries linear_extensions(F)[w] / |Aut F| of them on w
        for w, count in ((word(1, 1, 1), 6), (word(1, 2, 1, 2), 24)):
            forests = forests_of_norm(list(set(w)), int(w.norm.re), max_nodes=w.length)
            assert sum(Fraction(linear_extensions(f)[w], f.automorphism_count()) for f in forests) == count

    def test_decomposition_cap1(self):
        fam = DerivationFamily({1: Fraction(2, 7)})
        assert check_coarborified_decomposition(fam, 1).passed

    def test_decomposition_cap2(self):
        assert check_coarborified_decomposition(self.FAM, 2).passed

    def test_decomposition_detects_a_wrong_kernel(self, monkeypatch):
        # doubling B_F at F = 1(2) breaks B_(1,2) = B_{1(2)} + B_{1;2} and
        # every longer word whose sum uses it
        chain, exact = parse_forest("1(2)"), operators.coarborify_homogeneous
        monkeypatch.setattr(operators, "coarborify_homogeneous", lambda fam, f: exact(fam, f).scale(2) if f == chain else exact(fam, f))
        rep = check_coarborified_decomposition(DerivationFamily({1: Fraction(1, 3), 2: Fraction(-2, 5)}), 3)
        assert str(rep) == "[FAIL] coarborified decomposition: 15 words, worst violation 2.667e-01, first at (1,2)"

    def test_decomposition_of_the_empty_family(self):
        # only the empty word, where B_() = Id = B_<empty>
        rep = check_coarborified_decomposition(DerivationFamily({}), 2)
        assert str(rep) == "[pass] coarborified decomposition: 1 words, worst violation 0.000e+00"

    def test_decomposition_cap3_random_rationals(self):
        rng = random.Random(3)
        for _ in range(5):
            fam = DerivationFamily({1: Fraction(rng.randint(-9, 9), rng.randint(1, 7)), 2: Fraction(rng.randint(-9, 9), rng.randint(1, 7))})
            rep = check_coarborified_decomposition(fam, 3)
            assert rep.passed, str(rep)


class TestCoseparativity:
    def test_empty_and_single(self):
        fam = DerivationFamily({1: Fraction(1, 2)})
        rng = random.Random(4)
        f, g = rand_series(rng, 6), rand_series(rng, 6)
        rep = check_coseparative(fam, 1, f, g)
        assert rep.passed

    def test_antichain_exact(self):
        fam = DerivationFamily({1: Fraction(1), 2: Fraction(1)})
        nu = 8
        f = TruncatedSeries.u_power(1, nu)
        g = TruncatedSeries.u_power(1, nu)
        rep = check_coseparative(fam, 3, f, g)
        assert rep.passed, str(rep)

    def test_random_series(self):
        rng = random.Random(5)
        fam = DerivationFamily({1: Fraction(2, 3), 2: Fraction(-1, 4)})
        f, g = rand_series(rng, 9), rand_series(rng, 9)
        rep = check_coseparative(fam, 4, f, g)
        assert rep.passed, str(rep)


class TestNaNFamily:
    FAM = DerivationFamily({1: math.nan, 2: 0.5})

    def test_decomposition_fails(self):
        rep = check_coarborified_decomposition(self.FAM, 2)
        assert not rep.passed
        assert math.isnan(rep.worst_violation)

    def test_coseparative_fails(self):
        f = g = TruncatedSeries.u_power(1, 8)
        rep = check_coseparative(self.FAM, 3, f, g)
        assert not rep.passed
        assert math.isnan(rep.worst_violation)


class TestContractions:
    def test_unit_mould_gives_identity(self):
        fam = DerivationFamily({1: Fraction(1)})
        out = contract_word_sum(builtin_mould("unit1"), fam, 4)
        assert out == DiffOperator.identity()

    def test_identity_mould_single_letter(self):
        fam = DerivationFamily({1: Fraction(1)})
        out = contract_word_sum(builtin_mould("identityI"), fam, 1)
        # I^empty = 0, so only the word (1) contributes: u -> u^2
        assert out.apply_u_poly({1: 1}) == {2: Fraction(1)}
        # the tangent-to-identity shape needs M^empty = 1:
        shifted = Mould(lambda w: Fraction(1) if w.length in (0, 1) else Fraction(0))
        out2 = contract_word_sum(shifted, fam, 1)
        assert out2.apply_u_poly({1: 1}) == {1: Fraction(1), 2: Fraction(1)}

    def test_simple_arborified_matches_word_sum_any_mould(self):
        rng = random.Random(6)
        fam = DerivationFamily({1: Fraction(1, 4), 2: Fraction(3, 2)})
        for _ in range(3):
            tbl = {w: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for w in words_over(AB, 4)}
            m = Mould.from_table(tbl, 4, AB)
            lhs = contract_word_sum(m, fam, 4)
            rhs = contract_forest_sum(arborify(m, "simple"), fam, 4, mode="simple")
            assert lhs == rhs

    @pytest.mark.parametrize("counting", ["merges", "surjections"])
    def test_contracting_arborified_matches_word_sum(self, counting):
        fam = DerivationFamily({1: Fraction(1, 3), 2: Fraction(-2, 5)})
        m = symmetrel_geometric(Fraction(3, 4))
        lhs = contract_word_sum(m, fam, 4)
        rhs = contract_forest_sum(arborify(m, "contracting", counting=counting), fam, 4, mode="contracting", counting=counting)
        assert lhs == rhs

    def test_single_letter_support_mould_forest_and_word_sums_coincide(self):
        fam = DerivationFamily({1: Fraction(1), 2: Fraction(1)})
        m = builtin_mould("identityI")
        lhs = contract_word_sum(m, fam, 3)
        rhs = contract_forest_sum(arborify(m, "simple"), fam, 3, mode="simple")
        assert lhs == rhs

    def test_symmetrel_word_sum_with_exp_atoms_is_automorphism(self):
        # compose the derivation data into automorphism components first:
        # Theta = sum (M o exp)^v A_v is then an algebra morphism
        fam = DerivationFamily({1: Fraction(1, 4), 2: Fraction(-1, 3)})
        m = symmetrel_geometric(Fraction(2, 7))
        me = mould_compose(m, builtin_mould("exp"))
        theta = contract_word_sum(me, fam, 4)
        rng = random.Random(7)
        f, g = rand_series(rng, 4), rand_series(rng, 4)
        assert theta.apply(f * g) == theta.apply(f) * theta.apply(g)

    def test_plain_symmetrel_word_sum_is_not_automorphism(self):
        fam = DerivationFamily({1: Fraction(1, 4), 2: Fraction(-1, 3)})
        m = symmetrel_geometric(Fraction(2, 7))
        theta = contract_word_sum(m, fam, 4)
        nu = 4
        f = TruncatedSeries.u_power(1, nu)
        assert theta.apply(f * f) != theta.apply(f) * theta.apply(f)

    MODES = (("simple", "merges"), ("contracting", "merges"), ("contracting", "surjections"))

    @pytest.mark.parametrize("x1", [parse_exact("3/7"), parse_exact("1+1i")], ids=["real", "complex"])
    def test_forest_sums_match_the_word_sum_on_both_kernel_paths(self, x1):
        # real Gaussian values take the kernel's integer path, complex ones
        # its plain loop; both must give the word sum in every mode
        fam = DerivationFamily({1: Fraction(1, 3), 2: Fraction(-2, 5)})
        geometric = [symmetrel_geometric(x1), symmetrel_geometric(Fraction(-2, 9))]
        m = mould_mul(*geometric)
        assert (m.value(word(1)).im != 0) == (x1.im != 0)
        lhs = contract_word_sum(m, fam, 4)
        for mode, counting in self.MODES:
            assert contract_forest_sum(arborify(m, mode, counting=counting), fam, 4, mode=mode, counting=counting) == lhs
        if x1.im == 0:
            assert lhs.dump() == _loop_word_sum(geometric, fam, 4).dump()


def _loop_word_sum(factors, fam, cap):
    """sum over words of the product mould's value times B_w, each sum a plain
    loop over exact values"""
    g, h = factors
    out = {}
    for w in [EMPTY_WORD] + words_of_norm_at_most(fam.letters(), cap):
        s = sum((g.value(w[:i]) * h.value(w[i:]) for i in range(w.length + 1)), start=0)
        if s != 0:
            for k, poly in op_compose_word(fam, w).terms.items():
                acc = out.setdefault(k, {})
                for d, c in poly.items():
                    acc[d] = acc.get(d, 0) + c * s
    return DiffOperator(out)


class TestContractedCoarborified:
    FAM = DerivationFamily({1: Fraction(2, 3), 2: Fraction(1, 5)})

    def test_decomposition_holds(self):
        # B_w = sum_F mult(w, F) Bt_F for every word of norm <= 4, B_w = 0
        # for the words with a letter outside the family
        for counting in ("merges", "surjections"):
            duals = coarborify_contracted(self.FAM, 4, counting=counting)
            covers = {f: contracting_covers(f, counting=counting) for f in duals}
            for w in words_of_norm_at_most([letter(n) for n in range(1, 5)], 4):
                in_family = all(int(a.re) in self.FAM.betas for a in w)
                acc = op_compose_word(self.FAM, w) if in_family else DiffOperator()
                for f, op in duals.items():
                    mult = covers[f].get(w, 0)
                    if mult:
                        acc = acc - op.scale(mult)
                assert acc.is_zero(), (counting, w)

    @pytest.mark.parametrize("cap", [3, 4, 5])
    @pytest.mark.parametrize("counting", ["merges", "surjections"])
    @pytest.mark.parametrize(
        "betas",
        [{1: Fraction(2, 3), 2: Fraction(1, 5), 3: Fraction(-4, 7)}, {1: Fraction(-3, 2), 3: Fraction(5, 9)}],
        ids=["letters123", "letters13"],
    )
    def test_matches_operator_valued_oracle(self, cap, counting, betas):
        # the second family leaves out letter 2, so B_w = 0 for some words
        fam = DerivationFamily(betas)
        duals = coarborify_contracted(fam, cap, counting=counting)
        expected = oracles.coarborify_contracted(fam, cap, counting=counting)
        assert duals.keys() == expected.keys()
        for f, op in duals.items():
            assert op == expected[f], f

    def test_scalar_consistency_check_fires(self, monkeypatch):
        # a wrong multiplicity: the one-node forest 2 claims to cover (1,1),
        # which is longer than the forest, so M X = I must fail there
        def wrong_covers(f, counting="merges"):
            out = contracting_covers(f, counting=counting)
            return out + Counter({word(1, 1): 1}) if f == parse_forest("2") else out

        monkeypatch.setattr(operators, "contracting_covers", wrong_covers)
        with pytest.raises(ArithmeticError, match="inconsistent"):
            coarborify_contracted(self.FAM, 3)

    def test_unknown_mode_rejected_before_any_value(self):
        def rule(f):
            raise AssertionError("the arborified must not be evaluated")

        with pytest.raises(ValueError, match="unknown contraction mode"):
            contract_forest_sum(ArMould(rule), self.FAM, 3, mode="bogus")


class TestOperatorUtilities:
    def test_restricted_norm_of_identity(self):
        assert restricted_norm(DiffOperator.identity(), 5) == pytest.approx(1.0)

    def test_operator_dump_shape(self):
        op = DiffOperator({1: {2: Fraction(3)}, 2: {5: Fraction(1, 2)}})
        assert op.dump() == [(1, [(2, "3")]), (2, [(5, "1/2")])]

    def test_max_abs_diff_propagates_nan(self):
        a = DiffOperator({0: {0: math.nan}})
        b = DiffOperator({0: {0: 0.0}, 1: {1: 2.0}})
        assert math.isnan(oracles.max_abs_diff(a, b))
        assert oracles.max_abs_diff(b, DiffOperator()) == 2.0
