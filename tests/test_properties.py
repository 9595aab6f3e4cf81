"""Property-based checks of the algebraic identities the exact layer rests on:
shuffle counts, contracting-shuffle associativity, closure of symmetral and
symmetrel moulds under the mould product, the arborification identities,
the coarborification identity behind the normalizer's forest matrix, and
the operator product, action and homogeneous coarborified against their
nested-loop oracles.  They add to the fixed-seed examples of test_words.py,
test_moulds.py and test_operators.py."""

import math
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from armould.moulds import (
    Mould,
    arborify,
    check_symmetry,
    mould_mul,
    symmetral_from_letter_weights,
    symmetrel_geometric,
)
from armould.operators import DerivationFamily, DiffOperator, _linear_combination, coarborify_homogeneous
from armould.synthesis import _forest_rows
from armould.values import GaussianRational
from armould.words import (
    EMPTY_FOREST,
    EMPTY_WORD,
    Forest,
    Word,
    contracting_shuffle,
    forests_of_norm,
    letter,
    parse_forest,
    shuffle,
    tree,
)
import oracles
from oracles import z_free_word_side

PROPERTY = settings(deadline=None, derandomize=True, database=None)

# mixed alphabet: positive integers, a negative fraction and a Gaussian letter
MIXED = [letter(x) for x in ("1", "2", "-1/2", "1+i")]
AB = [letter(1), letter(2)]

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
nonzero_fractions = fractions.filter(bool)
exact_scalars = st.one_of(
    st.integers(-9, 9), fractions, fractions.map(GaussianRational), st.builds(GaussianRational, fractions, nonzero_fractions)
)
reals = st.floats(-4, 4)
float_scalars = st.one_of(reals, st.builds(complex, reals, reals))


def words(alphabet, max_size):
    return st.lists(st.sampled_from(alphabet), max_size=max_size).map(lambda a: Word(tuple(a)))


@st.composite
def small_forests(draw, max_nodes=3, alphabet=MIXED):
    """Forests from a random parent list: node j is a root or the child of an
    earlier node."""
    n = draw(st.integers(0, max_nodes))
    parents = [draw(st.integers(-1, j - 1)) for j in range(n)]
    decs = [draw(st.sampled_from(alphabet)) for _ in range(n)]

    def build(j):
        return tree(decs[j], [build(k) for k in range(n) if parents[k] == j])

    return Forest(tuple(build(j) for j in range(n) if parents[j] == -1))


def extend(op, left: Counter, right: Counter) -> Counter:
    """Bilinear extension of a word operation to multisets of words."""
    out: Counter = Counter()
    for u, m in left.items():
        for v, k in right.items():
            for w, mult in op(u, v).items():
                out[w] += m * k * mult
    return out


class TestShuffleAlgebra:
    @PROPERTY
    @given(st.lists(words(MIXED, 3), min_size=1, max_size=3))
    def test_shuffle_counts_are_multinomials(self, ws):
        acc = Counter({EMPTY_WORD: 1})
        for w in ws:
            acc = extend(shuffle, acc, Counter({w: 1}))
        lengths = [w.length for w in ws]
        multinomial = math.factorial(sum(lengths))
        for r in lengths:
            multinomial //= math.factorial(r)
        assert sum(acc.values()) == multinomial
        assert all(w.length == sum(lengths) for w in acc)

    @PROPERTY
    @given(st.integers(0, 4), st.integers(0, 4), st.sampled_from(MIXED))
    def test_shuffle_of_one_repeated_letter_is_one_binomial(self, r1, r2, a):
        out = shuffle(Word((a,) * r1), Word((a,) * r2))
        assert out == Counter({Word((a,) * (r1 + r2)): math.comb(r1 + r2, r1)})

    @PROPERTY
    @given(words(MIXED, 3), words(MIXED, 2), words(MIXED, 2))
    def test_contracting_shuffle_is_associative(self, a, b, c):
        one = Counter({c: 1})
        lhs = extend(contracting_shuffle, contracting_shuffle(a, b), one)
        rhs = extend(contracting_shuffle, Counter({a: 1}), contracting_shuffle(b, c))
        assert lhs == rhs


class TestSymmetryClosure:
    @settings(PROPERTY, max_examples=8)
    @given(st.lists(st.tuples(nonzero_fractions, nonzero_fractions), min_size=2, max_size=2))
    def test_symmetral_closed_under_mould_mul(self, pairs):
        moulds = [symmetral_from_letter_weights({1: w1, 2: w2}) for w1, w2 in pairs]
        assert check_symmetry(mould_mul(*moulds), "symmetral", 4, AB).passed

    @settings(PROPERTY, max_examples=8)
    @given(nonzero_fractions, nonzero_fractions)
    def test_symmetrel_closed_under_mould_mul(self, x1, x2):
        m = mould_mul(symmetrel_geometric(x1), symmetrel_geometric(x2))
        assert check_symmetry(m, "symmetrel", 4, AB).passed


class TestArborification:
    @PROPERTY
    @given(words(MIXED, 5).filter(len), fractions, fractions)
    def test_simple_arborified_on_chain_is_the_word_value(self, w, a, b):
        # a mould with no symmetry: M^w = prod_i (a omega_i + b i)
        def rule(v: Word):
            acc = Fraction(1)
            for i, x in enumerate(v, start=1):
                acc = (x * a + b * i) * acc
            return acc

        m = Mould(rule)
        chain = tree(w[-1])
        for x in reversed(tuple(w)[:-1]):
            chain = tree(x, [chain])
        assert arborify(m, "simple").value(Forest((chain,))) == m.value(w)

    @settings(PROPERTY, max_examples=60)
    @given(small_forests(), small_forests(), st.lists(nonzero_fractions, min_size=len(MIXED), max_size=len(MIXED)))
    def test_simple_arborified_of_symmetral_is_multiplicative(self, f1, f2, weights):
        m = symmetral_from_letter_weights(dict(zip(MIXED, weights)))
        arb = arborify(m, "simple")
        assert arb.value(oracles.forest_product(f1, f2)) == arb.value(f1) * arb.value(f2)


class TestForestMatrix:
    """The z-free side of the normalizer is the coarborification identity:
    for every word u that L is asked for, sum_F C[F, u] B_F / |Aut F| over
    the forests equals the sum over words v and their cuts with block-norm
    word u of prod 1/|block|! B_v."""

    @settings(PROPERTY, max_examples=60)
    @given(
        st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3, unique=True),
        st.lists(nonzero_fractions, min_size=3, max_size=3),
        st.integers(1, 5),
        st.integers(1, 4),
    )
    def test_forest_side_equals_word_side(self, support, coeffs, nu, r_max):
        betas = dict(zip(support, coeffs))
        fam = DerivationFamily(betas)
        words, rows = _forest_rows(fam, nu, r_max)
        forest_side: dict = {}
        for kernel, aut, _, _, cols, coefs in rows:
            for j, x in zip(cols, coefs):
                forest_side.setdefault(words[j], []).append((x / aut, kernel))
        word_side = z_free_word_side(fam, nu, r_max)
        # with |A| no term cancels, so its word side is the sum of |terms|
        scale = z_free_word_side(DerivationFamily({n: abs(b) for n, b in betas.items()}), nu, r_max)
        assert set(forest_side) == set(word_side)
        for u, terms in forest_side.items():
            got, want = _linear_combination(terms), word_side[u]
            for key, s in scale[u].terms.items():
                diff = complex(got.terms.get(key, 0)) - complex(want.terms.get(key, 0))
                assert abs(diff) <= 1e-13 * s


def operators(scalars):
    """c_k(u) d^k with orders 0..3, u-degrees 0..5 and up to three of each."""
    polys = st.dictionaries(st.integers(0, 5), scalars, max_size=3)
    return st.dictionaries(st.integers(0, 3), polys, max_size=3).map(oracles._from_polys)


def polys(scalars):
    return st.dictionaries(st.integers(0, 6), scalars, max_size=4)


def _abs(op: DiffOperator) -> DiffOperator:
    return DiffOperator({key: abs(c) for key, c in op.terms.items()})


def _order_zero(poly: dict) -> DiffOperator:
    """The multiplication operator of a u-polynomial."""
    return DiffOperator({(0, d): c for d, c in poly.items()})


def _largest(coefficients) -> float:
    return max((abs(c) for c in coefficients), default=0.0)


class TestOperatorKernel:
    """The sparse-sum operator product and action, and the closed-form
    homogeneous coarborified, against the nested loops they replace: equal
    values and printed forms on exact coefficients, and on floats agreement
    within 1e-15 of the largest coefficient of the same sum taken over
    |terms|: each product groups its integer factors differently, and the
    action adds its terms in one pass rather than order by order."""

    @settings(PROPERTY, max_examples=100)
    @given(operators(exact_scalars), operators(exact_scalars))
    def test_exact_product(self, left, right):
        got, want = left.compose(right), oracles.compose(left, right)
        assert got == want and got.dump() == want.dump()

    @settings(PROPERTY, max_examples=100)
    @given(operators(exact_scalars), polys(exact_scalars), st.none() | st.integers(0, 8))
    def test_exact_action(self, op, f, nu):
        got, want = op.apply_u_poly(f, nu), oracles.apply_u_poly(op, f, nu)
        assert got == want and _order_zero(got).dump() == _order_zero(want).dump()

    @settings(PROPERTY, max_examples=100)
    @given(operators(float_scalars), operators(float_scalars))
    def test_float_product(self, left, right):
        largest = _largest(oracles.compose(_abs(left), _abs(right)).terms.values())
        assert oracles.max_abs_diff(left.compose(right), oracles.compose(left, right)) <= 1e-15 * largest

    @settings(PROPERTY, max_examples=100)
    @given(operators(float_scalars), polys(float_scalars), st.none() | st.integers(0, 8))
    def test_float_action(self, op, f, nu):
        largest = _largest(oracles.apply_u_poly(_abs(op), {d: abs(c) for d, c in f.items()}, nu).values())
        got = _order_zero(op.apply_u_poly(f, nu))
        assert oracles.max_abs_diff(got, _order_zero(oracles.apply_u_poly(op, f, nu))) <= 1e-15 * largest

    @settings(PROPERTY, max_examples=20)
    @given(st.lists(nonzero_fractions, min_size=3, max_size=3))
    def test_homogeneous_coarborified_on_every_small_forest(self, betas):
        # every forest of at most 4 nodes on {1, 2, 3}, zero kernels such as
        # 1(2,2,3), whose root takes three derivatives of u^2, among them
        fam = DerivationFamily(dict(zip((1, 2, 3), betas)))
        forests = [EMPTY_FOREST] + forests_of_norm([letter(n) for n in (1, 2, 3)], 12, max_nodes=4)
        assert parse_forest("1(2,2,3)") in forests and coarborify_homogeneous(fam, parse_forest("1(2,2,3)")).is_zero()
        for f in forests:
            got, want = coarborify_homogeneous(fam, f), oracles.coarborify_homogeneous(fam, f)
            assert got == want and got.dump() == want.dump(), f
