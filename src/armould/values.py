"""Exact scalar values: Gaussian rationals, literal parsing, and the kernel
of every sum of products (:func:`sparse_sum`, :func:`linear_sum`): one integer
numerator over a running denominator on real exact factors (TAOCP 4.5.1).

Decorations, mould tables and golden files use exact arithmetic; floats are
rejected at parse time so that shuffle and contraction identities can be
tested with equality rather than tolerances.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Union

Exactable = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    The sort key ``(re, im)`` is built once, each part an ``int`` when its
    denominator is 1; ints and Fractions compare exactly and hash alike, so
    the key orders and hashes as the Fraction pair does.  The hash is stored
    the first time it is asked for.
    """

    __slots__ = ("re", "im", "_key", "_hash")

    def __init__(self, re=0, im=0):
        _set(self, "re", re if type(re) is Fraction else Fraction(re))
        _set(self, "im", im if type(im) is Fraction else Fraction(im))
        _set(self, "_key", (_atom(self.re), _atom(self.im)))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the parts, since __setattr__ refuses
        return (GaussianRational, (self.re, self.im))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = as_gaussian(other)
        if not (self.im or other.im):
            return _real(self.re + other.re)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_gaussian(other)
        if not (self.im or other.im):
            return _real(self.re - other.re)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_gaussian(other) - self

    def __mul__(self, other):
        other = as_gaussian(other)
        if not (self.im or other.im):
            return _real(self.re * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_gaussian(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return as_gaussian(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    # -- comparisons / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._key == other._key
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, complex):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            re, im = self._key
            h = hash(re) if im == 0 else hash(self._key)
            _set(self, "_hash", h)
            return h

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    @property
    def is_positive_integer(self):
        re, im = self._key
        return im == 0 and type(re) is int and re >= 1

    def sort_key(self):
        return self._key

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_exact(self)


_set = object.__setattr__
_ZERO = Fraction(0)
_REAL = (int, Fraction, float)


def _atom(q: Fraction):
    return q.numerator if q.denominator == 1 else q


def _real(re: Fraction) -> GaussianRational:
    """A real GaussianRational from a Fraction, without re-wrapping its parts."""
    g = object.__new__(GaussianRational)
    _set(g, "re", re)
    _set(g, "im", _ZERO)
    _set(g, "_key", (_atom(re), 0))
    return g


def as_gaussian(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational (floats are rejected)")


_LITERAL = re.compile(
    r"""^\s*
    (?P<re>[+-]?\d+(?:/\d+)?)?
    (?P<im>[+-](?:\d+(?:/\d+)?)?)?
    (?P<unit>i)?
    \s*$""",
    re.VERBOSE,
)


def parse_exact(text: str) -> GaussianRational:
    """Parse an exact literal: ``3``, ``-1/2``, ``2+1i``, ``-i``, ``1/3-2/5i``.

    Floating literals (``0.5``) and zero denominators (``1/0``) are rejected.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty exact literal")
    if "." in s or "e" in s.lower().replace("i", ""):
        raise ValueError(f"floating literal rejected: {text!r}")
    m = _LITERAL.match(s)
    if not m:
        raise ValueError(f"bad exact literal: {text!r}")
    if re.search(r"/0+(?!\d)", s):  # in the real or the imaginary part
        raise ValueError(f"zero denominator in exact literal: {text!r}")
    re_part, im_part, unit = m.group("re"), m.group("im"), m.group("unit")
    if unit is None:
        if im_part is not None:
            raise ValueError(f"bad exact literal: {text!r}")
        return GaussianRational(Fraction(re_part))
    # has an 'i'
    if im_part is None:
        # forms: "i", "2i", "1/2i" -> purely imaginary
        coeff = Fraction(re_part) if re_part is not None else Fraction(1)
        return GaussianRational(0, coeff)
    if im_part in ("+", "-"):
        coeff = Fraction(im_part + "1")
    else:
        coeff = Fraction(im_part)
    # forms: "2-i", "1/3-2/5i", and "-i", "+i" with no real part
    return GaussianRational(Fraction(re_part or 0), coeff)


def format_exact(x) -> str:
    """Inverse of :func:`parse_exact`; used by serializers and golden files."""
    g = as_gaussian(x)
    if g.im == 0:
        return str(g.re)
    if g.re == 0:
        return f"{g.im}i"
    sign = "+" if g.im >= 0 else ""
    return f"{g.re}{sign}{g.im}i"


def _zero(c) -> bool:
    try:
        return c == 0
    except Exception:
        return False


class _Inexact(Exception):
    pass


def _parts(x) -> tuple[int, int, int]:
    # numerator, denominator and type bit of an int (0), a Fraction (1) or a
    # real GaussianRational (2)
    t = type(x)
    if t is GaussianRational and x._key[1] == 0:
        x, bit = x._key[0], 2
    elif t is int or t is Fraction:
        bit = 1 if t is Fraction else 0
    else:
        raise _Inexact
    return x.numerator, x.denominator, bit


def _sum(terms, keyed: bool) -> dict:
    """key -> sum of s * v over (s, vec) terms, or over (s, v) pairs under the
    key None when not keyed; keyed sums skip zero scalars."""
    terms = list(terms)
    acc: dict = {}  # key -> [numerator, lcm of the denominators, type bits]
    try:
        for s, vec in terms:
            sn, sd, sbit = _parts(s)
            if keyed and not sn:
                continue
            for key, v in vec.items() if keyed else ((None, vec),):
                vn, vd, vbit = _parts(v)
                p, q, e = sn * vn, sd * vd, acc.get(key)
                if e is None:
                    acc[key] = [p, q, sbit | vbit]
                    continue
                if q != e[1]:
                    g = gcd(e[1], q)
                    e[0], e[1], p = e[0] * (q // g), e[1] // g * q, p * (e[1] // g)
                e[0] += p
                e[2] |= sbit | vbit
    except _Inexact:
        out: dict = {}
        for s, vec in terms:
            if keyed and _zero(s):
                continue
            for key, v in vec.items() if keyed else ((None, vec),):
                # the plain loops: a keyed sum starts at 0, a scalar one at its first
                # term; a real scalar goes into a complex value part by part, since
                # CPython widens 1 to 1+0j and 1 * complex(inf, 0) is inf+nanj
                prev = out.get(key, 0 if keyed else None)
                sv = v.__class__(s * v.real, s * v.imag) if isinstance(v, complex) and isinstance(s, _REAL) else s * v
                out[key] = sv if prev is None else prev + sv
        return out
    # one reduction per entry: a GaussianRational if any factor was one, else
    # a Fraction if any was, else an int (whose denominator is 1)
    return {k: _real(Fraction(n, d)) if bits & 2 else Fraction(n, d) if bits else n for k, (n, d, bits) in acc.items()}


def sparse_sum(terms) -> dict:
    """sum of s * vec over (s, vec) pairs, vec anything with ``.items()``;
    zero scalars are skipped and entries that sum to zero dropped."""
    return {k: v for k, v in _sum(terms, keyed=True).items() if not _zero(v)}


def linear_sum(pairs):
    """sum of s * v over (s, v) pairs: the one-key case of sparse_sum, with no
    term skipped and a typed zero for a sum that cancels."""
    return _sum(pairs, keyed=False).get(None, 0)
