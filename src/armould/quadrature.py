"""Shared quadrature rules: the exp-sinh double-exponential rule on the half
line (the Laplace transform ``kernels.f_eval``, the hyperlogarithm's Laplace
integral and the test oracles) and composite Gauss-Legendre on a segment (the
hyperlogarithm's Borel recursion).

Node tables are cached per rule parameters and shared read-only.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _gauss_legendre(n: int):
    return np.polynomial.legendre.leggauss(n)


def segment_quad(f, a: complex, b: complex, n: int) -> complex:
    """Composite Gauss-Legendre along the straight segment [a, b], n nodes on
    each of its two halves."""
    x, w = _gauss_legendre(n)
    total = 0.0 + 0.0j
    for p in range(2):
        lo = a + (b - a) * (p / 2)
        hi = a + (b - a) * ((p + 1) / 2)
        mid = (lo + hi) / 2
        half = (hi - lo) / 2
        nodes = mid + half * x
        total += half * np.sum(w * f(nodes))
    return complex(total)


@lru_cache(maxsize=128)
def _expsinh_nodes(level: int, lo: float, hi: float):
    # t = exp((pi/2) sinh(u)); nodes for int_0^inf
    h = 1.0 / (1 << level)
    ks = np.arange(lo / h, hi / h + 1)
    u = ks * h
    s = (math.pi / 2) * np.sinh(u)
    t = np.exp(s)
    w = t * (math.pi / 2) * np.cosh(u) * h
    return t, w


def de_halfline(f, scale: float = 1.0, max_level: int = 9):
    """Integrate f over (0, inf) with the exp-sinh double-exponential rule.

    ``scale`` stretches the nodes to the integrand's decay length.  Refines
    until the delta is within 1e-12 relative or at max_level.  Returns
    (value, error_estimate); the estimate is the last refinement delta.
    """
    lo, hi = -3.6, 3.6  # u-range: t spans ~ [3e-13, 3e12] relative to scale
    prev = None
    value = 0.0 + 0.0j
    err = math.inf
    for level in range(3, max_level + 1):
        t, w = _expsinh_nodes(level, lo, hi)
        ts = t * scale
        vals = f(ts)
        value = complex(np.sum(vals * w) * scale)
        if prev is not None:
            err = abs(value - prev)
            if err <= 1e-12 * max(abs(value), 1e-300):
                break
        prev = value
    return value, err
