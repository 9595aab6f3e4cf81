"""Gaussian rationals: stored keys and hashes, the real fast path, literal
parsing, copying and pickling of exact values, immutability of the value
types, and the accumulation kernel against the plain loops it replaces."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from armould.kernels import KernelParams
from armould.monomials import ContourSpec
from armould.series import TruncatedSeries
from armould.synthesis import InvariantFamily, SynthesisConfig
from armould.values import GaussianRational, linear_sum, parse_exact, sparse_sum
from armould.words import letter, parse_forest, word

fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
gaussians = st.builds(GaussianRational, fractions, fractions | st.just(Fraction(0)))


def components(g: GaussianRational) -> tuple[Fraction, Fraction]:
    return g.re, g.im


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(gaussians, gaussians)
def test_ring_operations_match_the_component_formulas(a, b):
    # the real fast path must give what the general formulas give
    assert components(a + b) == (a.re + b.re, a.im + b.im)
    assert components(a - b) == (a.re - b.re, a.im - b.im)
    assert components(a * b) == (a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)
    for g in (a + b, a - b, a * b, -a):
        assert type(g.re) is Fraction and type(g.im) is Fraction
        assert g.sort_key() == GaussianRational(g.re, g.im).sort_key()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(gaussians, gaussians)
def test_equality_and_hash_follow_the_fraction_pair(a, b):
    assert (a == b) == ((a.re, a.im) == (b.re, b.im))
    assert (a.sort_key() < b.sort_key()) == ((a.re, a.im) < (b.re, b.im))
    if a.im == 0:
        assert hash(a) == hash(a.re) and a == a.re
    else:
        assert hash(a) == hash((a.re, a.im))


def test_integer_parts_key_as_ints():
    g = parse_exact("3-2i")
    assert g.sort_key() == (3, -2) and all(type(x) is int for x in g.sort_key())
    assert parse_exact("1/2").sort_key() == (Fraction(1, 2), 0)
    assert hash(GaussianRational(3)) == hash(3) == hash(Fraction(3))
    assert GaussianRational(Fraction(4, 2)).is_positive_integer
    assert not GaussianRational(Fraction(1, 2)).is_positive_integer
    assert not GaussianRational(2, 1).is_positive_integer


def test_fractions_are_not_rewrapped():
    q = Fraction(5, 7)
    assert GaussianRational(q, q).re is q


@pytest.mark.parametrize(
    "text, parts",
    [
        ("i", (0, 1)),
        ("-i", (0, -1)),
        ("+i", (0, 1)),
        ("-1i", (0, -1)),
        ("2-i", (2, -1)),
        ("2+1i", (2, 1)),
        ("1/3-2/5i", (Fraction(1, 3), Fraction(-2, 5))),
    ],
)
def test_parse_imaginary_literals(text, parts):
    assert components(parse_exact(text)) == parts


@pytest.mark.parametrize("text", ["--i", "i2", "2i+1", "1/2.5"])
def test_parse_rejects_malformed_literals(text):
    with pytest.raises(ValueError):
        parse_exact(text)


@pytest.mark.parametrize("text", ["1/0", "-3/00", "1/0+2i", "2-1/0i", "1/0i"])
def test_parse_rejects_a_zero_denominator_naming_the_literal(text):
    # Fraction would raise ZeroDivisionError("Fraction(1, 0)"), naming neither
    with pytest.raises(ValueError, match="zero denominator in exact literal: " + re.escape(repr(text))):
        parse_exact(text)


def test_exact_values_copy_and_pickle():
    values = [parse_exact("1/3-2i"), letter("3/2"), word(1, "1+i", 2), parse_forest("1(2,3/2)"), parse_forest("1(2,3/2);1+i")]
    for x in values:
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x and hash(y) == hash(x)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: KernelParams(1.0, 2.0), "omega"),
        (ContourSpec, "eps"),
        (lambda: InvariantFamily({1: 0.25}), "coefficients"),
        (lambda: SynthesisConfig(c=2.0), "nu"),
        (lambda: word(1, 2), "_key"),
        (lambda: parse_forest("1(2);3"), "_key"),
    ],
    ids=["KernelParams", "ContourSpec", "InvariantFamily", "SynthesisConfig", "Word", "Forest"],
)
def test_immutable_value_types(make, field):
    x = make()
    before = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, before)
    assert getattr(x, field) is before
    # copies and pickles rebuild through the constructor, since assignment is refused
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and getattr(y, field) == before
    # a quadrature checks its spec by equality, so two distinct default specs match
    assert ContourSpec() is not ContourSpec() and ContourSpec() == ContourSpec()
    assert hash(ContourSpec()) == hash(ContourSpec()) and ContourSpec(eps=0.04) != ContourSpec()


# -- accumulation kernel ------------------------------------------------------

ints = st.integers(-20, 20)
real = ints | fractions | st.builds(GaussianRational, fractions)
exact = real | st.builds(GaussianRational, fractions, fractions)
inexact = (
    ints
    | fractions
    | st.floats(-1e3, 1e3, allow_nan=False)
    | st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
)
series = st.builds(
    lambda cs: TruncatedSeries(dict(enumerate(cs)), 3),
    st.lists(st.floats(-10, 10, allow_nan=False) | fractions, min_size=1, max_size=4),
)


def loop_sum(pairs):
    total = None
    for s, v in pairs:
        term = s * v
        total = term if total is None else total + term
    return total


def loop_sparse_sum(terms):
    out = {}
    for s, vec in terms:
        if s != 0:
            for k, v in vec.items():
                out[k] = out.get(k, 0) + s * v
    return {k: v for k, v in out.items() if v != 0}


def typed(x):
    # the value with its type, and the bits of a float or complex
    return type(x), repr(x) if isinstance(x, (float, complex, TruncatedSeries)) else x


def sparse_terms(values):
    return st.lists(st.tuples(values, st.dictionaries(st.integers(0, 3), values, max_size=3)), max_size=6)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(real, real), min_size=1, max_size=8) | st.lists(st.tuples(exact, exact), min_size=1, max_size=8),
    sparse_terms(real) | sparse_terms(exact),
)
def test_kernel_matches_the_loop_on_exact_values(pairs, terms):
    # real factors take the integer path; a complex GaussianRational anywhere
    # sends the whole sum through the loop
    assert typed(linear_sum(pairs)) == typed(loop_sum(pairs))
    got, want = sparse_sum(terms), loop_sparse_sum(terms)
    assert list(got) == list(want)
    assert [typed(v) for v in got.values()] == [typed(v) for v in want.values()]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(inexact, inexact), min_size=1, max_size=8),
    sparse_terms(inexact),
    st.lists(st.tuples(series, series | inexact), min_size=1, max_size=4),
)
def test_kernel_keeps_the_bits_of_the_loop_on_other_values(pairs, terms, series_pairs):
    for got, want in ((linear_sum(pairs), loop_sum(pairs)), (linear_sum(series_pairs), loop_sum(series_pairs))):
        assert got == want and typed(got) == typed(want)
    got, want = sparse_sum(terms), loop_sparse_sum(terms)
    assert got == want and [typed(v) for v in got.values()] == [typed(v) for v in want.values()]


@pytest.mark.parametrize(
    "pairs, zero",
    [
        ([(2, 3), (-3, 2)], 0),
        ([(Fraction(1, 2), 2), (-1, 1)], Fraction(0)),
        ([(GaussianRational(Fraction(1, 3)), 3), (-1, 1)], GaussianRational(0)),
    ],
)
def test_a_cancelled_sum_is_a_typed_zero_or_no_entry(pairs, zero):
    assert typed(linear_sum(pairs)) == typed(zero)
    assert sparse_sum((s, {"gone": v, "kept": 1}) for s, v in pairs) == {"kept": sum(s for s, _ in pairs)}


def test_zero_scalars_are_skipped_and_keyed_loops_start_at_zero():
    # a skipped zero scalar sets neither an entry nor its type
    got = sparse_sum([(GaussianRational(0), {0: 1, 1: 2}), (1, {0: 1})])
    assert [typed(v) for v in got.values()] == [typed(1)] and list(got) == [0]
    # -1.0 * (-1+0j) is (1-0j); the keyed loop adds it to 0, which clears the
    # negative zero, and the scalar loop starts at it
    assert typed(sparse_sum([(-1.0, {0: complex(-1, 0.0)})])[0]) == typed(complex(1, 0.0))
    assert typed(linear_sum([(-1.0, complex(-1, 0.0))])) == typed(complex(1, -0.0))


@pytest.mark.parametrize("s", [1, -1, 2, Fraction(1, 2)], ids=str)
def test_a_real_scalar_keeps_a_zero_imaginary_part(s):
    # CPython widens s to s+0j, so a plain s * complex(inf, 0) is inf+nanj
    inf = float("inf")
    (got,) = sparse_sum([(s, {0: complex(inf, 0)})]).values()
    assert got.real == s * inf and got.imag == 0
    got = linear_sum([(s, complex(inf, 0)), (s, complex(1, 0))])
    assert got.real == s * inf and got.imag == 0
    total = TruncatedSeries({0: complex(inf, 0), 1: 1.0}, 2) + TruncatedSeries({1: 2.0}, 2)
    assert total.coeffs[0] == complex(inf, 0) and total.coeffs[0].imag == 0 and total.coeffs[1] == 3.0


@pytest.mark.parametrize("s", [1, -1, 2, Fraction(1, 2)], ids=str)
def test_a_series_times_a_real_scalar_keeps_a_zero_imaginary_part(s):
    series = TruncatedSeries({0: complex(float("inf"), 0), 1: 1.0}, 2)
    for product in (series * s, s * series):
        assert product.coeffs[0].real == s * float("inf") and product.coeffs[0].imag == 0
        assert product.coeffs[1] == s


def test_a_series_times_zero_is_the_zero_series_as_an_operator_is():
    # the kernel skips a zero scalar, so 0 * nan leaves no coefficient, as in
    # DiffOperator.scale(0); a nonzero scalar keeps the nan
    from armould.operators import DiffOperator

    series = TruncatedSeries({0: float("nan"), 1: 1.0}, 2)
    for product in (series * 0, 0 * series, series * 0.0):
        assert product.coeffs == {}
    assert DiffOperator({(0, 0): float("nan")}).scale(0).is_zero()
    doubled = (series * 2).coeffs
    assert doubled[0] != doubled[0] and doubled[1] == 2
