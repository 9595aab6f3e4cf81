"""Mould product, composition, inverses, symmetries, arborification."""

import math
import random
from fractions import Fraction

import pytest

from armould.moulds import (
    AlienWordExpansion,
    IdentityReport,
    Mould,
    arborify,
    builtin_mould,
    check_separative,
    check_symmetry,
    mould_compose,
    mould_inverse_comp,
    mould_inverse_mul,
    mould_mul,
    organic_growth_report,
    symmetral_from_letter_weights,
    symmetrel_geometric,
    transition_apply,
    words_of_norm_at_most,
    words_over,
    _scan,
)
from armould.values import GaussianRational
from armould.words import EMPTY_WORD, count_forests, forests_of_norm, letter, parse_forest, parse_word, word

AB = [letter(1), letter(2)]
CLOSED = [letter(n) for n in range(1, 9)]  # additively closed up to total norm 8


def random_table_mould(rng, alphabet, cap, empty=None):
    tbl = {}
    for w in words_over(alphabet, cap):
        tbl[w] = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
    if empty is not None:
        tbl[EMPTY_WORD] = Fraction(empty)
    return Mould.from_table(tbl, cap, alphabet)


class TestWordsOfNorm:
    def test_words_of_norm_lists_compositions(self):
        assert [str(w) for w in words_of_norm_at_most(AB, 3)] == ["(1)", "(2)", "(1,1)", "(1,2)", "(2,1)", "(1,1,1)"]

    def test_words_of_norm_rejects_non_integer_letters(self):
        # a non-integer letter must not be enumerated as its real part
        for bad in ("3/2", "1+i", "0", "-1"):
            with pytest.raises(ValueError):
                words_of_norm_at_most([letter(1), letter(bad)], 3)


class TestProduct:
    def test_unit(self):
        rng = random.Random(7)
        m = random_table_mould(rng, AB, 3)
        unit = builtin_mould("unit1")
        p = mould_mul(unit, m)
        q = mould_mul(m, unit)
        for w in words_over(AB, 3):
            assert p.value(w) == m.value(w)
            assert q.value(w) == m.value(w)

    def test_single_letter_expansion(self):
        rng = random.Random(8)
        m = random_table_mould(rng, AB, 2)
        n = random_table_mould(rng, AB, 2)
        w = word(1)
        expected = m.value(EMPTY_WORD) * n.value(w) + m.value(w) * n.value(EMPTY_WORD)
        assert mould_mul(m, n).value(w) == expected

    def test_associative(self):
        rng = random.Random(9)
        for _ in range(5):
            l = random_table_mould(rng, AB, 4)
            m = random_table_mould(rng, AB, 4)
            n = random_table_mould(rng, AB, 4)
            left = mould_mul(mould_mul(l, m), n)
            right = mould_mul(l, mould_mul(m, n))
            for w in words_over(AB, 4):
                assert left.value(w) == right.value(w)


class TestComposition:
    def test_identity_right_unit(self):
        rng = random.Random(10)
        m = random_table_mould(rng, CLOSED, 3)
        comp = mould_compose(m, builtin_mould("identityI"))
        for w in words_over(AB, 3):
            assert comp.value(w) == m.value(w)

    def test_two_letter_expansion(self):
        rng = random.Random(11)
        m = random_table_mould(rng, CLOSED, 2)
        n = random_table_mould(rng, CLOSED, 2)
        w = parse_word("(1,2)")
        expected = m.value(word(3)) * n.value(w) + m.value(w) * n.value(word(1)) * n.value(word(2))
        assert mould_compose(m, n).value(w) == expected

    def test_associative(self):
        rng = random.Random(12)
        for _ in range(4):
            l = random_table_mould(rng, CLOSED, 3)
            m = random_table_mould(rng, CLOSED, 3, empty=0)
            n = random_table_mould(rng, CLOSED, 3, empty=0)
            left = mould_compose(mould_compose(l, m), n)
            right = mould_compose(l, mould_compose(m, n))
            for w in words_over(AB, 3):
                assert left.value(w) == right.value(w)

    def test_exp_and_log_are_mutually_inverse(self):
        expm = builtin_mould("exp")
        logm = builtin_mould("standard_log")
        ident = builtin_mould("identityI")
        for w in words_over([letter(1)], 5):
            assert mould_compose(expm, logm).value(w) == ident.value(w)
            assert mould_compose(logm, expm).value(w) == ident.value(w)


class TestInverses:
    def test_mul_inverse_of_unit(self):
        unit = builtin_mould("unit1")
        inv = mould_inverse_mul(unit, 4)
        for w in words_over(AB, 4):
            assert inv.value(w) == unit.value(w)

    def test_mul_inverse_length_one(self):
        tbl = {EMPTY_WORD: Fraction(1), word(1): Fraction(5, 3)}
        m = Mould.from_table(tbl, 1, [letter(1)])
        inv = mould_inverse_mul(m, 1)
        assert inv.value(word(1)) == Fraction(-5, 3)

    def test_mul_inverse_two_sided(self):
        rng = random.Random(13)
        m = random_table_mould(rng, AB, 4, empty=Fraction(3, 2))
        inv = mould_inverse_mul(m, 4)
        unit = builtin_mould("unit1")
        for w in words_over(AB, 4):
            assert mould_mul(m, inv).value(w) == unit.value(w)
            assert mould_mul(inv, m).value(w) == unit.value(w)

    def test_comp_inverse_of_identity(self):
        ident = builtin_mould("identityI")
        inv = mould_inverse_comp(ident, 3)
        for w in words_over(AB, 3):
            assert inv.value(w) == ident.value(w)

    def test_comp_inverse_constant_letter_value(self):
        c = Fraction(7, 2)
        m = Mould(lambda w: c if w.length == 1 else Fraction(0))
        inv = mould_inverse_comp(m, 1)
        assert inv.value(word(4)) == 1 / c

    def test_comp_inverse_exhaustive(self):
        rng = random.Random(14)
        m = random_table_mould(rng, CLOSED, 3, empty=0)
        inv = mould_inverse_comp(m, 3)
        ident = builtin_mould("identityI")
        comp = mould_compose(m, inv)
        for w in words_over(AB, 3):
            assert comp.value(w) == ident.value(w)

    def test_comp_inverse_two_sided(self):
        rng = random.Random(18)
        m = random_table_mould(rng, CLOSED, 3, empty=0)
        inv = mould_inverse_comp(m, 3)
        ident = builtin_mould("identityI")
        other = mould_compose(inv, m)
        for w in words_over(AB, 3):
            assert other.value(w) == ident.value(w)


class TestSymmetry:
    def test_constant_mould_fails_symmetral(self):
        m = Mould(lambda w: Fraction(1), alphabet=AB)
        rep = check_symmetry(m, "symmetral", 2)
        assert not rep.passed

    @pytest.mark.parametrize("cap, alphabet", [(1, AB), (0, AB), (4, [])], ids=["cap1", "cap0", "no-letters"])
    def test_nothing_to_check_is_an_error(self, cap, alphabet):
        # no pair of words fits, so a pass would check nothing
        with pytest.raises(ValueError, match="no pair of words"):
            check_symmetry(builtin_mould("standard_log"), "alternel", cap, alphabet)

    def test_standard_log_alternel(self):
        rep = check_symmetry(builtin_mould("standard_log"), "alternel", 4, AB)
        assert rep.passed
        # length (1,1) case: -1/2 - 1/2 + 1 = 0
        slog = builtin_mould("standard_log")
        total = slog.value(word(1, 2)) + slog.value(word(2, 1)) + slog.value(word(3))
        assert total == 0

    def test_redom_ledom_alternel(self):
        for name in ("redom", "ledom"):
            rep = check_symmetry(builtin_mould(name), "alternel", 4, AB)
            assert rep.passed, str(rep)

    def test_generated_symmetral(self):
        m = symmetral_from_letter_weights({1: Fraction(2, 3), 2: Fraction(-1, 5)})
        assert check_symmetry(m, "symmetral", 4, AB).passed

    def test_generated_symmetrel(self):
        m = symmetrel_geometric(Fraction(3, 7))
        assert check_symmetry(m, "symmetrel", 4, AB).passed

    def test_generated_moulds_match_their_closed_forms(self):
        x = Fraction(-3, 7)
        weights = {1: Fraction(2, 3), 2: Fraction(-1, 5), 3: 4}
        se, sy = symmetrel_geometric(x), symmetral_from_letter_weights(weights)
        for w in words_over([letter(1), letter(2), letter(3)], 4):
            r, n = w.length, int(w.norm.re)
            got = se.value(w)
            assert type(got) is GaussianRational and got == (-1) ** r * (-x) ** n
            got = sy.value(w)
            assert type(got) is Fraction and got == Fraction(math.prod(weights[int(a.re)] for a in w), math.factorial(r))

    def test_products_preserve_symmetry(self):
        rng = random.Random(15)
        for _ in range(20):
            x1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            x2 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            se = mould_mul(symmetrel_geometric(x1), symmetrel_geometric(x2))
            assert check_symmetry(se, "symmetrel", 4, AB).passed
            w1 = {1: Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 2: Fraction(rng.randint(-9, 9), rng.randint(1, 9))}
            w2 = {1: Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 2: Fraction(rng.randint(-9, 9), rng.randint(1, 9))}
            sy = mould_mul(symmetral_from_letter_weights(w1), symmetral_from_letter_weights(w2))
            assert check_symmetry(sy, "symmetral", 4, AB).passed


def nan_mould():
    """Float mould: 1.0 on the empty word, NaN on every other word."""
    return Mould(lambda w: 1.0 if w.length == 0 else math.nan, alphabet=AB)


class TestNaNFails:
    def test_scan_keeps_nan_worst_and_first_failure(self):
        rep = _scan("k", [("a", 0.0), ("b", math.nan), ("c", 5.0), ("d", 0.5)], tol=1.0)
        assert isinstance(rep, IdentityReport)
        assert not rep.passed and rep.pairs_checked == 4
        assert math.isnan(rep.worst_violation)
        assert rep.first_violation == "b"
        rep = _scan("k", [("a", 0.5), ("b", 5.0), ("c", math.nan)], tol=1.0)
        assert math.isnan(rep.worst_violation) and rep.first_violation == "b"

    def test_nan_mould_fails_symmetral(self):
        rep = check_symmetry(nan_mould(), "symmetral", 3)
        assert not rep.passed
        assert math.isnan(rep.worst_violation)

    def test_nan_mould_arborified_fails_separative(self):
        rep = check_separative(arborify(nan_mould()), AB, 3)
        assert not rep.passed
        assert math.isnan(rep.worst_violation)

    def test_nan_empty_word_value_fails(self):
        m = Mould(lambda w: math.nan, alphabet=AB)
        rep = check_symmetry(m, "symmetral", 2)
        assert not rep.passed and rep.pairs_checked == 0
        assert math.isnan(rep.worst_violation)


class TestBuiltins:
    def test_redom_values(self):
        redom = builtin_mould("redom")
        assert redom.value(word(1)) == -1
        assert redom.value(word(5)) == -1
        assert redom.value(word(1, 2)) == Fraction(1, 2)
        assert redom.value(word(1, 1)) == Fraction(1, 2)

    def test_ledom_is_negative_redom(self):
        redom, ledom = builtin_mould("redom"), builtin_mould("ledom")
        for w in words_over(AB, 3):
            if w.length:
                assert ledom.value(w) == -redom.value(w)

    def test_standard_log_value(self):
        assert builtin_mould("standard_log").value(word(1, 2, 3)) == Fraction(1, 3)

    def test_redom_zero_norm_rejected(self):
        redom = builtin_mould("redom")
        with pytest.raises(ZeroDivisionError):
            redom.value(word(1, -1))

    def test_table_mould_rejects_beyond_cap(self):
        m = Mould.from_table({EMPTY_WORD: Fraction(1), word(1): Fraction(2)}, 1, [letter(1)])
        with pytest.raises(KeyError):
            m.value(word(1, 1))


class TestArborify:
    def test_cherry_simple(self):
        rng = random.Random(16)
        m = random_table_mould(rng, [letter(1), letter(2), letter(3)], 3)
        arb = arborify(m, "simple")
        f = parse_forest("1(2,3)")
        assert arb.value(f) == m.value(word(1, 2, 3)) + m.value(word(1, 3, 2))

    def test_cherry_contracting_adds_double_cover(self):
        m = symmetrel_geometric(Fraction(1, 3))
        arb = arborify(m, "contracting", counting="merges")
        f = parse_forest("1(2,3)")
        expected = m.value(word(1, 2, 3)) + m.value(word(1, 3, 2)) + 2 * m.value(word(1, 5))
        assert arb.value(f) == expected

    def test_single_node_both_modes(self):
        m = symmetrel_geometric(Fraction(2, 5))
        f = parse_forest("4")
        assert arborify(m, "simple").value(f) == m.value(word(4))
        assert arborify(m, "contracting").value(f) == m.value(word(4))

    def test_simple_arborified_of_symmetral_is_separative(self):
        m = symmetral_from_letter_weights({1: Fraction(1, 2), 2: Fraction(4, 3)})
        rep = check_separative(arborify(m, "simple"), AB, 4)
        assert rep.passed, str(rep)

    def test_contracting_arborified_of_symmetrel_is_separative(self):
        # separativity holds under the surjection counting, which makes covers
        # of a disjoint union the contracting shuffle of the parts' covers
        m = symmetrel_geometric(Fraction(5, 4))
        rep = check_separative(arborify(m, "contracting", counting="surjections"), AB, 4)
        assert rep.passed, str(rep)

    def test_merges_counting_breaks_separativity_on_antichains(self):
        # documented discrepancy: the classical worked example's counting
        # double-counts merged covers, so the antichain value differs from
        # the product by exactly one contraction term
        m = symmetrel_geometric(Fraction(5, 4))
        arb = arborify(m, "contracting", counting="merges")
        f1, f2 = parse_forest("1"), parse_forest("2")
        lhs = arb.value(f1 * f2)
        rhs = arb.value(f1) * arb.value(f2)
        assert lhs - rhs == m.value(word(3))

    def test_arborified_of_constant_mould_not_separative(self):
        m = Mould(lambda w: Fraction(1))
        rep = check_separative(arborify(m, "simple"), AB, 2)
        assert not rep.passed


class TestOrganicGrowth:
    @pytest.mark.parametrize(
        "counting, sups",
        [
            ("merges", [1.0, 1.0, 1.2599210498948732, 1.5650845800732875, 1.8881750225898049]),
            ("surjections", [1.0, 0.7071067811865476, 0.7539474411291538, 0.7825422900366437, 0.8027415617602307]),
        ],
        ids=["merges", "surjections"],
    )
    def test_five_nodes_pinned(self, counting, sups):
        rep = organic_growth_report(5, (1, 2, 3), counting)
        assert rep.forest_counts == {1: 3, 2: 15, 3: 82, 4: 495, 5: 3144}
        assert list(rep.sup_by_nodes) == [1, 2, 3, 4, 5]
        for r, want in enumerate(sups, start=1):
            assert abs(rep.sup_by_nodes[r] - want) <= 1e-12

    @pytest.mark.parametrize("counting", ["merges", "surjections"])
    @pytest.mark.parametrize("decs", [(1, 2, 3), (1, 3)], ids=["123", "13"])
    def test_fold_matches_materialised_covers(self, decs, counting):
        # the fold never builds a cover word; here every cover is summed
        redom = arborify(builtin_mould("redom"), "contracting", counting)
        want = {r: 0.0 for r in range(1, 5)}
        for f in forests_of_norm([letter(d) for d in decs], 4 * max(decs), max_nodes=4):
            r = f.node_count
            want[r] = max(want[r], abs(complex(redom.value(f))) ** (1 / r))
        got = organic_growth_report(4, decs, counting).sup_by_nodes
        assert list(got) == list(want)
        for r in want:
            assert abs(got[r] - want[r]) <= 1e-12 * want[r]

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"decorations": (1.5, 2)}, "decorations"),
            ({"decorations": (0, 1)}, "decorations"),
            ({"decorations": (-1, 2)}, "decorations"),
            ({"decorations": ("1/2",)}, "decorations"),
            ({"decorations": ()}, "decorations"),
            ({"max_nodes": 0}, "max_nodes"),
            ({"max_nodes": -2}, "max_nodes"),
            ({"max_nodes": True}, "max_nodes"),
        ],
        ids=["float", "zero", "negative", "fraction", "empty", "no-nodes", "negative-nodes", "bool-nodes"],
    )
    def test_bad_inputs_are_refused(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            organic_growth_report(**{"max_nodes": 3, **kwargs})

    @pytest.mark.parametrize("decs, max_nodes", [((1, 2, 3), 5), ((1, 3), 4), ((2, 5), 4), ((1,), 6)], ids=str)
    def test_forest_counts_match_count_forests(self, decs, max_nodes):
        letters = [letter(d) for d in decs]
        cap = max_nodes * max(decs)
        want = {r: count_forests(letters, cap, r) - count_forests(letters, cap, r - 1) for r in range(1, max_nodes + 1)}
        assert organic_growth_report(max_nodes, decs).forest_counts == want

    def test_decorations_are_letters(self):
        rep = organic_growth_report(3, ("2", 1, Fraction(3), 2))
        assert rep.decorations == (1, 2, 3)
        assert rep.sup_by_nodes == organic_growth_report(3, (1, 2, 3)).sup_by_nodes


class TestTransition:
    def test_ledom_norm_one(self):
        exp = transition_apply(builtin_mould("ledom"), 1)
        assert exp.terms == {word(1): GaussianRational(1)}

    def test_ledom_norm_two(self):
        exp = transition_apply(builtin_mould("ledom"), 2)
        assert exp.terms[word(2)] == 1
        assert exp.terms[word(1, 1)] == Fraction(-1, 2)
        assert len(exp.terms) == 2

    def test_standard_log_norm_two(self):
        exp = transition_apply(builtin_mould("standard_log"), 2)
        assert exp.terms[word(2)] == 1
        assert exp.terms[word(1, 1)] == Fraction(-1, 2)

    def test_non_integer_norm_rejected(self):
        with pytest.raises(ValueError):
            transition_apply(builtin_mould("ledom"), Fraction(1, 2))


class TestSerialization:
    def test_json_round_trip(self):
        rng = random.Random(17)
        m = random_table_mould(rng, AB, 2)
        text = m.to_json()
        back = Mould.from_json(text)
        for w in words_over(AB, 2):
            assert back.value(w) == m.value(w)
