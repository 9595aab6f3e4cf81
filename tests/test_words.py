"""Words, forests, shuffles and order morphisms."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from armould.values import GaussianRational, parse_exact
from armould.words import (
    EMPTY_WORD,
    Forest,
    Tree,
    Word,
    contracting_covers,
    contracting_shuffle,
    count_forests,
    forest,
    forests_of_norm,
    letter,
    linear_extensions,
    parse_forest,
    parse_word,
    shuffle,
    tree,
    word,
)


def as_strs(counter):
    return {str(k): v for k, v in counter.items()}


class TestShuffle:
    def test_length_one_pair(self):
        out = shuffle(word(1), word(2))
        assert as_strs(out) == {"(1,2)": 1, "(2,1)": 1}

    def test_three_letter_example(self):
        out = shuffle(word(1, 2), word(3))
        assert as_strs(out) == {"(1,2,3)": 1, "(1,3,2)": 1, "(3,1,2)": 1}

    def test_repeated_letter_multiplicity(self):
        out = shuffle(word(1, 2), word(2))
        assert as_strs(out) == {"(1,2,2)": 2, "(2,1,2)": 1}

    def test_counts_are_binomial(self):
        alphabet = [1, 2, 3]
        for r1 in range(0, 4):
            for r2 in range(0, 4 - r1 + 1):
                for w1 in itertools.product(alphabet, repeat=r1):
                    for w2 in itertools.product(alphabet, repeat=r2):
                        total = sum(shuffle(word(*w1), word(*w2)).values())
                        assert total == math.comb(r1 + r2, r1)

    def test_empty_unit(self):
        assert as_strs(shuffle(EMPTY_WORD, word(1, 2))) == {"(1,2)": 1}


class TestContractingShuffle:
    def test_five_term_example(self):
        out = contracting_shuffle(word(1, 2), word(4))
        assert as_strs(out) == {
            "(1,2,4)": 1,
            "(1,4,2)": 1,
            "(4,1,2)": 1,
            "(1,6)": 1,
            "(5,2)": 1,
        }

    def test_single_contraction(self):
        out = contracting_shuffle(word(1), word(2))
        assert as_strs(out) == {"(1,2)": 1, "(2,1)": 1, "(3)": 1}

    def test_empty_unit(self):
        assert as_strs(contracting_shuffle(EMPTY_WORD, word(7))) == {"(7)": 1}

    def test_full_length_part_is_shuffle(self):
        for w1, w2 in [(word(1, 2), word(3, 1)), (word(2, 2), word(2,)), (word(1, 1, 2), word(3,))]:
            csh = contracting_shuffle(w1, w2)
            full = Counter({w: m for w, m in csh.items() if w.length == w1.length + w2.length})
            assert full == shuffle(w1, w2)

    def test_count_recursion(self):
        # |csh| over lengths satisfies N(m,n) = N(m-1,n) + N(m,n-1) + N(m-1,n-1)
        def count(m, n):
            w1 = word(*range(1, m + 1))
            w2 = word(*range(m + 1, m + n + 1))
            return sum(contracting_shuffle(w1, w2).values())

        for m in range(1, 4):
            for n in range(1, 4):
                assert count(m, n) == count(m - 1, n) + count(m, n - 1) + count(m - 1, n - 1)


class TestWordBasics:
    def test_norm_additive_under_concatenation(self):
        w1, w2 = word(1, 2), word(3, 4)
        assert (w1 + w2).norm == w1.norm + w2.norm

    def test_empty_word_norm(self):
        assert EMPTY_WORD.length == 0
        assert EMPTY_WORD.norm == 0

    def test_parse_round_trip(self):
        for text in ["(1,2,3)", "(1/2,3)", "(2+1i,1)"]:
            assert str(parse_word(text)) == text

    def test_float_decorations_rejected(self):
        with pytest.raises(ValueError):
            parse_word("(0.5,1)")


class TestForests:
    def test_canonical_order_insensitive(self):
        t1, t2, t3 = tree(1), tree(2, [tree(1)]), tree(3)
        for perm in itertools.permutations([t1, t2, t3]):
            assert Forest(tuple(perm)) == Forest((t1, t2, t3))
            assert str(Forest(tuple(perm))) == str(Forest((t1, t2, t3)))

    def test_forest_product_commutative_associative_unit(self):
        f1, f2, f3 = parse_forest("1"), parse_forest("2(1)"), parse_forest("1;1")
        product = oracles.forest_product
        assert product(f1, f2) == product(f2, f1)
        assert product(product(f1, f2), f3) == product(f1, product(f2, f3))
        assert product(f1, Forest(())) == f1

    def test_norm_and_nodes(self):
        f = parse_forest("1(2,3);4")
        assert f.node_count == 4
        assert f.norm == 10

    def test_parse_round_trip(self):
        for text in ["1(2,3)", "1;2", "1(1(1))", "2(1);3"]:
            assert str(parse_forest(text)) == str(parse_forest(str(parse_forest(text))))

    def test_forests_of_norm_rejects_non_integer_letters(self):
        # a non-real letter must not be enumerated as its real part
        for bad in ("1+i", "1/2", "0", "-1"):
            with pytest.raises(ValueError):
                forests_of_norm([letter(1), letter(bad)], 2)


class TestLinearExtensions:
    def test_single_node(self):
        assert as_strs(linear_extensions(parse_forest("5"))) == {"(5)": 1}

    def test_cherry(self):
        out = linear_extensions(parse_forest("1(2,3)"))
        assert as_strs(out) == {"(1,2,3)": 1, "(1,3,2)": 1}

    def test_antichain_two_nodes(self):
        out = linear_extensions(parse_forest("1;2"))
        assert as_strs(out) == {"(1,2)": 1, "(2,1)": 1}

    def test_antichain_factorial(self):
        f = forest(tree(1), tree(2), tree(3), tree(4))
        assert sum(linear_extensions(f).values()) == 24

    def test_extension_letters_match_decorations(self):
        for text in ["1(2,3);4", "1(1,2)", "2(1(1))", "1;1;2"]:
            f = parse_forest(text)
            decs = f.decorations()
            for w in linear_extensions(f):
                assert w.length == f.node_count
                assert Counter(w.letters) == decs

    def test_all_forests_up_to_five_nodes(self):
        # exhaustive over decorations {1,2}: every extension has length equal
        # to the node count and carries exactly the decoration multiset
        for f in forests_of_norm([letter(1), letter(2)], 5, max_nodes=5):
            decs = f.decorations()
            covers = contracting_covers(f)
            for w, mult in linear_extensions(f).items():
                assert w.length == f.node_count
                assert Counter(w.letters) == decs
                assert covers[w] >= mult


class TestContractingCovers:
    def test_cherry_merges_counting(self):
        out = contracting_covers(parse_forest("1(2,3)"), counting="merges")
        assert as_strs(out) == {"(1,2,3)": 1, "(1,3,2)": 1, "(1,5)": 2}

    def test_cherry_surjection_counting(self):
        out = contracting_covers(parse_forest("1(2,3)"), counting="surjections")
        assert as_strs(out) == {"(1,2,3)": 1, "(1,3,2)": 1, "(1,5)": 1}

    def test_single_node(self):
        assert as_strs(contracting_covers(parse_forest("9"))) == {"(9)": 1}

    def test_chain_no_contraction(self):
        assert as_strs(contracting_covers(parse_forest("1(2)"))) == {"(1,2)": 1}

    def test_covers_contain_extensions(self):
        for text in ["1(2,3)", "1;2;3", "1(1);2", "1(1,1)"]:
            f = parse_forest(text)
            covers = contracting_covers(f)
            for w, mult in linear_extensions(f).items():
                assert covers[w] >= mult

    def test_surjection_counting_factorizes_over_csh(self):
        # covers(F1 | F2) = csh(covers(F1), covers(F2)) under surjection counting
        f1, f2 = parse_forest("1(2)"), parse_forest("3")
        lhs = contracting_covers(oracles.forest_product(f1, f2), counting="surjections")
        rhs = Counter()
        for w1, m1 in contracting_covers(f1, counting="surjections").items():
            for w2, m2 in contracting_covers(f2, counting="surjections").items():
                for w, m in contracting_shuffle(w1, w2).items():
                    rhs[w] += m1 * m2 * m
        assert lhs == rhs


class TestAutomorphisms:
    def test_counts(self):
        cases = {
            "1": 1,
            "1;1": 2,
            "1;2": 1,
            "1;1;1": 6,
            "1(1,1)": 2,
            "1(1,2)": 1,
            "1(1,1);1": 2,
        }
        for text, expected in cases.items():
            assert parse_forest(text).automorphism_count() == expected, text


DECORATIONS = [letter(x) for x in ("1", "2", "3", "1/2+i")]


# Gaussian, fractional and negative letters, some with integer parts
KEY_DECORATIONS = [letter(x) for x in ("1", "2", "-1", "-2/3", "1/2", "1/2+i", "-1i", "3/4-2i", "1+i")]
SHORT_WORDS = st.lists(st.sampled_from(KEY_DECORATIONS), max_size=3).map(lambda letters: Word(tuple(letters)))


@st.composite
def random_forests(draw, decorations=DECORATIONS):
    """Forests from a random parent list: node j is a root or the child of an
    earlier node."""
    n = draw(st.integers(1, 6))
    parents = [draw(st.integers(-1, j - 1)) for j in range(n)]
    decs = [draw(st.sampled_from(decorations)) for _ in range(n)]

    def build(j):
        return Tree(decs[j], Forest(tuple(build(k) for k in range(n) if parents[k] == j)))

    return Forest(tuple(build(j) for j in range(n) if parents[j] == -1))


class TestAgainstOracles:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(random_forests())
    def test_extensions_and_covers_match_oracle(self, f):
        assert linear_extensions(f) == oracles.linear_extensions(f)
        for counting in ("merges", "surjections"):
            assert contracting_covers(f, counting=counting) == oracles.contracting_covers(f, counting=counting)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(random_forests(KEY_DECORATIONS))
    def test_extensions_and_covers_match_oracle_on_key_decorations(self, f):
        # fiber sums such as 1/2 + 1/2 and 1 + (-1) land on integers and on 0;
        # the oracle sums letters with GaussianRational addition
        assert linear_extensions(f) == oracles.linear_extensions(f)
        for counting in ("merges", "surjections"):
            got = contracting_covers(f, counting=counting)
            want = oracles.contracting_covers(f, counting=counting)
            assert got == want
            same = {w: w for w in want}
            for w in got:
                for a, b in zip(w, same[w]):
                    assert a == b and hash(a) == hash(b)
                    assert [type(x) for x in a.sort_key()] == [type(x) for x in b.sort_key()]

    @pytest.mark.parametrize(
        "text, total",
        [("1/2;1/2", "1"), ("1;-1", "0"), ("1/2+i;1/2-i", "1"), ("-1i;1+i", "1"), ("-2/3;1/2;1/2", "1/3"), ("3/4-2i;1+i", "7/4-i")],
    )
    def test_merged_letter_is_the_letter_of_its_sum(self, text, total):
        want = letter(total)
        for counting in ("merges", "surjections"):
            (merged,) = [w[0] for w in contracting_covers(parse_forest(text), counting=counting) if len(w) == 1]
            assert merged == want and hash(merged) == hash(want)
            assert merged.sort_key() == want.sort_key()
            assert [type(x) for x in merged.sort_key()] == [type(x) for x in want.sort_key()]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(SHORT_WORDS, SHORT_WORDS)
    def test_shuffles_match_oracle(self, w1, w2):
        # letters repeat, either word may be empty, and merged letters such as
        # 1/2 + 1/2 and 1 + (-1) land on integers and on 0
        assert shuffle(w1, w2) == oracles.shuffle(w1, w2)
        assert contracting_shuffle(w1, w2) == oracles.contracting_shuffle(w1, w2)

    # the cap shapes the library's callers use
    @pytest.mark.parametrize(
        "values, caps",
        [([1, 2, 3], (5,)), ([1, 2, 3, 4, 5], (5,)), ([1, 2], (6, 4)), ([1, 2], (4, 2)), ([1], (4, 4))],
        ids=["123-norm5", "12345-norm5", "12-norm6-nodes4", "12-norm4-nodes2", "1-norm4-nodes4"],
    )
    def test_forests_of_norm_matches_oracle(self, values, caps):
        letters = [letter(v) for v in values]
        assert forests_of_norm(letters, *caps) == oracles.forests_of_norm(letters, *caps)

    @pytest.mark.parametrize(
        "values, caps",
        [([1, 2, 3], (5,)), ([1, 2, 3, 4, 5], (5,)), ([1, 2], (6, 4)), ([1, 2], (8, 8)), ([2, 5], (12, 5)), ([3], (2,))],
    )
    def test_count_forests_matches_enumeration(self, values, caps):
        letters = [letter(v) for v in values]
        assert count_forests(letters, *caps) == len(forests_of_norm(letters, *caps))

    def test_count_forests_rejects_non_integer_letters(self):
        for bad in ("1+i", "1/2", "0"):
            with pytest.raises(ValueError):
                count_forests([letter(1), letter(bad)], 2)


class TestKeyLevelForests:
    """forests_of_norm enumerates keys and builds each Forest at the end; it
    must list what the Forest-building stream it replaced lists."""

    @pytest.mark.parametrize("max_nodes", [None, 1, 3], ids=["no-cap", "nodes1", "nodes3"])
    @pytest.mark.parametrize("values", [[1], [1, 2], [1, 3], [1, 2, 3], [2, 5]], ids=str)
    def test_forests_of_norm_matches_the_forest_stream(self, values, max_nodes):
        letters = [letter(v) for v in values]
        roots = {a.sort_key(): a for a in letters}
        for max_norm in range(1, 8):
            stream = oracles.forest_stream(values, max_norm, max_norm if max_nodes is None else max_nodes)
            want = [f for _, f in sorted(((n, k, f.sort_key()), f) for k, n, f in stream)]
            got = forests_of_norm(letters, max_norm, max_nodes)
            assert [f.sort_key() for f in got] == [f.sort_key() for f in want]
            assert [str(f) for f in got] == [str(f) for f in want]
            assert [hash(f) for f in got] == [hash(f) for f in want]
            for f in got:
                assert Forest(f.trees) == f
                nodes = list(f.trees)
                while nodes:
                    t = nodes.pop()
                    assert Tree(t.root, t.children) == t and hash(Tree(t.root, t.children)) == hash(t)
                    assert t.root == roots[t.root.sort_key()]
                    assert [type(x) for x in t.root.sort_key()] == [int, int]
                    nodes += t.children.trees

    def test_covers_share_the_letter_of_a_merged_key(self):
        want = GaussianRational(Fraction(3, 2), Fraction(1))
        merged = []
        for text in ("1/2+i;1", "1/2;1+i"):
            (a,) = [w[0] for w in contracting_covers(parse_forest(text)) if len(w) == 1]
            merged.append(a)
        assert merged[0] is merged[1]
        assert merged[0] == want and merged[0].sort_key() == want.sort_key()
        assert type(merged[0].re) is Fraction and type(merged[0].im) is Fraction


def _fresh(a: GaussianRational) -> GaussianRational:
    """An equal letter that shares no object with ``a``."""
    re, im = a.re, a.im
    return GaussianRational(Fraction(re.numerator, re.denominator), Fraction(str(im)))


def _rebuilt(f: Forest, permute) -> Forest:
    """``f`` rebuilt from fresh letters, every tuple of trees permuted."""

    def rebuild(t: Tree) -> Tree:
        return Tree(_fresh(t.root), Forest(permute(tuple(rebuild(c) for c in t.children.trees))))

    return Forest(permute(tuple(rebuild(t) for t in f.trees)))


class TestKeys:
    """Keys and hashes are stored at construction; they must behave as the
    (Fraction re, Fraction im) keys they replace."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(random_forests(KEY_DECORATIONS), st.randoms(use_true_random=False))
    def test_equal_forests_have_equal_keys_and_hashes(self, f, rnd):
        g = _rebuilt(f, lambda trees: tuple(rnd.sample(trees, len(trees))))
        assert g == f
        assert g.sort_key() == f.sort_key() and hash(g) == hash(f)
        assert [str(t) for t in g.trees] == [str(t) for t in f.trees]
        for t, u in zip(f.trees, g.trees):
            assert t == u and hash(t) == hash(u)
            assert t.root == u.root and hash(t.root) == hash(u.root)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(random_forests(KEY_DECORATIONS), min_size=2, max_size=8))
    def test_forest_order_matches_fraction_key(self, forests):
        assert sorted(forests, key=Forest.sort_key) == sorted(forests, key=oracles.fraction_sort_key)
        for f in forests:
            # the trees sit in the old canonical order
            assert tuple(oracles.fraction_sort_key(t) for t in f.trees) == oracles.fraction_sort_key(f)
        for f, g in itertools.combinations(forests, 2):
            assert (f == g) == (oracles.fraction_sort_key(f) == oracles.fraction_sort_key(g))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.sampled_from(KEY_DECORATIONS), max_size=4).map(lambda a: Word(tuple(a))), min_size=2, max_size=8))
    def test_word_order_matches_fraction_key(self, words):
        assert sorted(words, key=Word.sort_key) == sorted(words, key=oracles.fraction_sort_key)
        for u, v in itertools.combinations(words, 2):
            assert (u == v) == (oracles.fraction_sort_key(u) == oracles.fraction_sort_key(v))
            assert u != v or hash(u) == hash(v)

    def test_keys_hold_int_atoms(self):
        assert letter(3).sort_key() == (3, 0) and type(letter(3).sort_key()[0]) is int
        assert letter("1/2-i").sort_key() == (Fraction(1, 2), -1)
        assert parse_forest("2(1);1").sort_key() == (((1, 0), ()), ((2, 0), (((1, 0), ()),)))
