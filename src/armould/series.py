"""Truncated power series in one variable.

A ``TruncatedSeries`` of cap ``nu`` is a u-series of the synthesis.
Coefficients are duck-typed: exact Fractions/GaussianRationals for identity
checks, complex floats in the synthesis pipeline.  Terms beyond the cap are
discarded on construction and after every product; sums and products go
through the one kernel of :func:`armould.values.sparse_sum`.
"""

from __future__ import annotations

import numpy as np

from .values import _zero, sparse_sum

UPoly = dict  # degree -> coefficient


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
        return TruncatedSeries(sparse_sum([(1, self.coeffs), (1, other.coeffs)]), self.nu)

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
            return TruncatedSeries(sparse_sum([(other, self.coeffs)]), self.nu)
        self._check(other)
        nu = self.nu
        terms = [(c, {i + j: d for j, d in other.coeffs.items() if i + j <= nu}) for i, c in self.coeffs.items()]
        return TruncatedSeries(sparse_sum(terms), nu)

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
