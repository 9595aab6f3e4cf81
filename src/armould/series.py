"""Truncated power series in one variable, and the polynomial arithmetic the
operators share with them.

A ``TruncatedSeries`` of cap ``nu`` is a u-series of the synthesis.
Coefficients are duck-typed: exact Fractions/GaussianRationals for identity
checks, complex floats in the synthesis pipeline.  Terms beyond the cap are
discarded on construction and after every product.
"""

from __future__ import annotations

import numpy as np

from .values import _zero

UPoly = dict  # degree -> coefficient


def _poly_add(a: UPoly, b: UPoly) -> UPoly:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if not _zero(c)}


def _poly_mul(a: UPoly, b: UPoly) -> UPoly:
    out: UPoly = {}
    for i, c in a.items():
        for j, d in b.items():
            out[i + j] = out.get(i + j, 0) + c * d
    return {k: c for k, c in out.items() if not _zero(c)}


def _poly_scale(a: UPoly, s) -> UPoly:
    return {k: c * s for k, c in a.items() if not _zero(c * s)}


def _poly_diff(a: UPoly, times: int = 1) -> UPoly:
    out = dict(a)
    for _ in range(times):
        out = {k - 1: c * k for k, c in out.items() if k >= 1}
    return {k: c for k, c in out.items() if not _zero(c)}


def _poly_max_abs_diff(a: UPoly, b: UPoly) -> float:
    """Largest coefficient difference; NaN if any difference is NaN."""
    return float(np.max([abs(complex(a.get(k, 0)) - complex(b.get(k, 0))) for k in a.keys() | b.keys()], initial=0.0))


class TruncatedSeries:
    """sum c_k u^k with 0 <= k <= nu."""

    __slots__ = ("coeffs", "nu")

    def __init__(self, coeffs: UPoly, nu: int):
        self.nu = nu
        self.coeffs = {k: c for k, c in coeffs.items() if k <= nu and not _zero(c)}

    @classmethod
    def constant(cls, c, nu: int) -> "TruncatedSeries":
        return cls({0: c}, nu)

    @classmethod
    def u_power(cls, k: int, nu: int, coeff=1) -> "TruncatedSeries":
        return cls({k: coeff}, nu)

    def _check(self, other: "TruncatedSeries"):
        if self.nu != other.nu:
            raise ValueError(f"cap mismatch: {self.nu} vs {other.nu}")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.nu)
        self._check(other)
        return TruncatedSeries(_poly_add(self.coeffs, other.coeffs), self.nu)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries({k: -c for k, c in self.coeffs.items()}, self.nu)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.nu)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries({k: c * other for k, c in self.coeffs.items()}, self.nu)
        self._check(other)
        nu = self.nu
        out: UPoly = {}
        for i, c in self.coeffs.items():
            for j, d in other.coeffs.items():
                if i + j <= nu:
                    out[i + j] = out.get(i + j, 0) + c * d
        return TruncatedSeries(out, nu)

    def __rmul__(self, other):
        return self.__mul__(other)

    def coeff(self, k: int):
        return self.coeffs.get(k, 0)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def max_abs_diff(self, other: "TruncatedSeries") -> float:
        """Largest coefficient difference; NaN if any difference is NaN."""
        return _poly_max_abs_diff(self.coeffs, other.coeffs)

    def __repr__(self):
        bits = [f"({self.coeffs[k]})*u^{k}" for k in sorted(self.coeffs)]
        return " + ".join(bits) if bits else "0"
