"""Gaussian rationals: stored keys and hashes, the real fast path, literal
parsing, and copying and pickling of exact values."""

import copy
import pickle
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from armould.values import GaussianRational, parse_exact
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


def test_exact_values_copy_and_pickle():
    forest = parse_forest("1(2,3/2);1+i")
    values = [parse_exact("1/3-2i"), letter("3/2"), word(1, "1+i", 2), forest.trees[0], forest]
    for x in values:
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x and hash(y) == hash(x)
