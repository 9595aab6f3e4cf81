"""Bi-truncated formal series in (z^{-1}, u) and univariate z^{-1}-series.

Coefficients are duck-typed: exact Fractions/GaussianRationals for identity
checks, complex floats in the synthesis pipeline.  Terms beyond the caps are
discarded consistently on construction and after every product.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

import numpy as np


class TruncatedSeries:
    """sum c_{j,k} z^{-j} u^k with 0 <= j <= nz, 0 <= k <= nu."""

    __slots__ = ("coeffs", "nz", "nu")

    def __init__(self, coeffs: dict, nz: int, nu: int):
        self.nz = nz
        self.nu = nu
        self.coeffs = {}
        for (j, k), c in coeffs.items():
            if j <= nz and k <= nu and not _is_zero(c):
                self.coeffs[(j, k)] = c

    @classmethod
    def zero(cls, nz: int, nu: int) -> "TruncatedSeries":
        return cls({}, nz, nu)

    @classmethod
    def constant(cls, c, nz: int, nu: int) -> "TruncatedSeries":
        return cls({(0, 0): c}, nz, nu)

    @classmethod
    def u_power(cls, k: int, nz: int, nu: int, coeff=1) -> "TruncatedSeries":
        return cls({(0, k): coeff}, nz, nu)

    def _check(self, other: "TruncatedSeries"):
        if (self.nz, self.nu) != (other.nz, other.nu):
            raise ValueError(f"cap mismatch: {(self.nz, self.nu)} vs {(other.nz, other.nu)}")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.nz, self.nu)
        self._check(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return TruncatedSeries(out, self.nz, self.nu)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries({k: -c for k, c in self.coeffs.items()}, self.nz, self.nu)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.nz, self.nu)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries({k: c * other for k, c in self.coeffs.items()}, self.nz, self.nu)
        self._check(other)
        out: dict = {}
        for (j1, k1), c1 in self.coeffs.items():
            for (j2, k2), c2 in other.coeffs.items():
                j, k = j1 + j2, k1 + k2
                if j <= self.nz and k <= self.nu:
                    key = (j, k)
                    out[key] = out.get(key, 0) + c1 * c2
        return TruncatedSeries(out, self.nz, self.nu)

    def __rmul__(self, other):
        return self.__mul__(other)

    def coeff(self, j: int, k: int):
        return self.coeffs.get((j, k), 0)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(_eq(self.coeffs.get(k, 0), other.coeffs.get(k, 0)) for k in keys)

    def max_abs_diff(self, other: "TruncatedSeries") -> float:
        """Largest coefficient difference; NaN if any difference is NaN."""
        keys = set(self.coeffs) | set(other.coeffs)
        diffs = [abs(complex(self.coeffs.get(k, 0)) - complex(other.coeffs.get(k, 0))) for k in keys]
        return float(np.max(diffs, initial=0.0))

    def __repr__(self):
        bits = []
        for (j, k) in sorted(self.coeffs):
            bits.append(f"({self.coeffs[(j, k)]})*z^-{j}*u^{k}")
        return " + ".join(bits) if bits else "0"


def _is_zero(c) -> bool:
    if isinstance(c, (int, Fraction)):
        return c == 0
    if isinstance(c, complex):
        return c == 0
    try:
        return not bool(c)
    except TypeError:
        return False


def _eq(a, b) -> bool:
    return a == b


class ZSeries:
    """Truncated univariate series in z^{-1} with a degree cap; a mould value
    algebra for z-dependent moulds.  A cap-1 series in a formal eps is a
    first-order jet a + b eps (eps^2 = 0), which carries a value and its
    derivative through the linear mould operations at once."""

    __slots__ = ("coeffs", "cap")

    def __init__(self, coeffs: Iterable | dict, cap: int):
        self.cap = cap
        data: dict = {}
        if isinstance(coeffs, dict):
            items = coeffs.items()
        else:
            items = enumerate(coeffs)
        for j, c in items:
            if j <= cap and not _is_zero(c):
                data[j] = c
        self.coeffs = data

    @classmethod
    def constant(cls, c, cap: int) -> "ZSeries":
        return cls({0: c}, cap)

    def coeff(self, j: int):
        return self.coeffs.get(j, 0)

    def __add__(self, other):
        if not isinstance(other, ZSeries):
            other = ZSeries.constant(other, self.cap)
        out = dict(self.coeffs)
        for j, c in other.coeffs.items():
            out[j] = out.get(j, 0) + c
        return ZSeries(out, self.cap)

    __radd__ = __add__

    def __neg__(self):
        return ZSeries({j: -c for j, c in self.coeffs.items()}, self.cap)

    def __sub__(self, other):
        if not isinstance(other, ZSeries):
            other = ZSeries.constant(other, self.cap)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, ZSeries):
            return ZSeries({j: c * other for j, c in self.coeffs.items()}, self.cap)
        out: dict = {}
        for j1, c1 in self.coeffs.items():
            for j2, c2 in other.coeffs.items():
                if j1 + j2 <= self.cap:
                    out[j1 + j2] = out.get(j1 + j2, 0) + c1 * c2
        return ZSeries(out, self.cap)

    __rmul__ = __mul__

    def inverse(self) -> "ZSeries":
        c0 = self.coeffs.get(0, 0)
        if _is_zero(c0):
            raise ZeroDivisionError("ZSeries with zero constant term is not invertible")
        inv = {0: 1 / c0}
        for j in range(1, self.cap + 1):
            s = 0
            for i in range(1, j + 1):
                s = s + self.coeffs.get(i, 0) * inv.get(j - i, 0)
            inv[j] = -s / c0
        return ZSeries(inv, self.cap)

    def __truediv__(self, other):
        if not isinstance(other, ZSeries):
            return ZSeries({j: c / other for j, c in self.coeffs.items()}, self.cap)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            other = ZSeries.constant(other, self.cap)
        if not isinstance(other, ZSeries):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coeffs.get(k, 0) == other.coeffs.get(k, 0) for k in keys)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        bits = [f"({self.coeffs[j]})*z^-{j}" for j in sorted(self.coeffs)]
        return " + ".join(bits) if bits else "0"
