"""The saddle-node kernel and its Laplace transform.

g_{c,omega}(y) = exp(-omega y - c^2 conj(omega) / y).  For real omega > 0 it
is exp(-omega (y + c^2/y)): it decays at both ends of (0, inf), has its
saddle at y = c and is bounded there by exp(-2 omega c).  ``KernelParams``
and the public functions keep to that domain; the monomial engine evaluates
the same expression, ``saddle_node_kernel``, on its rays for complex
decorations too.  Its Laplace transform, ``f_eval``, is one
double-exponential rule for every c >= 0, and ``f_closed_form_oracle`` is
the independent Bessel-K1 closed form it is checked against.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .bessel import bessel_k1
from .quadrature import de_halfline
from .values import _set


class KernelDomainError(ValueError):
    pass


class KernelParams:
    """Kernel parameters: a c >= 0 and a finite real omega > 0 with c^2 and
    c^2 omega finite.  Immutable."""

    __slots__ = ("c", "omega")

    def __init__(self, c: float, omega: float):
        if not math.isfinite(c * c):
            raise KernelDomainError(f"parameter c = {c} must be finite, and so must c^2")
        if c < 0:
            raise KernelDomainError("parameter c must be >= 0")
        om = complex(omega)
        if not cmath.isfinite(om):
            raise KernelDomainError(f"parameter omega = {omega} must be finite")
        if om.imag != 0 or om.real <= 0:
            raise KernelDomainError("the saddle-node kernel needs real omega > 0")
        if not math.isfinite(c * c * om.real):
            raise KernelDomainError(f"parameter c = {c} is too large for omega = {omega}: c^2 omega is not finite")
        _set(self, "c", c)
        _set(self, "omega", omega)

    def __setattr__(self, name, value):
        raise AttributeError("KernelParams is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return (KernelParams, (self.c, self.omega))


def saddle_node_kernel(om: complex, c: float, y: np.ndarray) -> np.ndarray:
    """exp(-om y - c^2 conj(om) / y), elementwise, computed in the one array
    it returns; no domain checks."""
    out = np.multiply(-om, y, out=np.empty(np.shape(y), complex))
    out -= (c * c) * np.conjugate(om) / y
    return np.exp(out, out=out)


def g_eval(p: KernelParams, y):
    """Kernel value; y may be a complex scalar or numpy array, finite and at
    least the smallest normal float in modulus, so that 1/y is finite."""
    arr = np.asarray(y, dtype=complex)
    if not np.all(np.isfinite(arr) & (np.abs(arr) >= sys.float_info.min)):
        raise KernelDomainError(f"kernel undefined at y = {y}: it needs a finite y with |y| >= {sys.float_info.min!r}")
    # omega y or c^2 omega / y overflows only at an extreme omega or y: a real
    # part of -inf, which exp takes to the exact 0, or a value refused below
    with np.errstate(over="ignore", invalid="ignore"):
        out = saddle_node_kernel(complex(p.omega), p.c, arr)
    if not np.all(np.isfinite(out)):
        raise KernelDomainError(f"g is not a finite number at y = {y}: its modulus or its phase overflows")
    return complex(out) if np.isscalar(y) or getattr(y, "shape", None) == () else out


def g_sup_bound(p: KernelParams) -> float:
    """Sup of |g| over y > 0: exp(-2 omega c) at y = c."""
    return math.exp(-2.0 * (p.c * complex(p.omega).real))


def f_eval(p: KernelParams, x) -> tuple[complex, float]:
    """Laplace transform f(x) = int_0^inf exp(-x y) g(y) dy, with an error
    estimate: one exp-sinh rule, ``quadrature.de_halfline``, for every c >= 0.

    The integrand exp(-a y - b/y), a = x + omega and b = c^2 omega, is one
    exponent, so it stays finite where exp(-x y) alone overflows (Re x < 0).
    At c > 0 the ray turns by -arg(a)/2, through the saddle sqrt(b/a): a y and
    b/y then share one phase, so the integrand turns by less than a radian
    per e-fold of its decay.  At c = 0 it turns by -arg(a), where exp(-a y)
    does not oscillate at all.  The nodes are scaled to 1/Re(a) on the ray.
    The error is the rule's last refinement delta, at least 5e-14 |f|, since
    the delta can read 0 at a converged value.
    """
    x = complex(x)
    om = complex(p.omega)
    if not (cmath.isfinite(x) and (x + om).real > 0):
        raise KernelDomainError(f"need a finite x with Re(x + omega) > 0, got x = {x}")
    a, b = x + om, p.c * p.c * om.real
    turn = cmath.exp((-0.5j if b else -1j) * cmath.phase(a))
    a, b = a * turn, b / turn
    try:
        with np.errstate(over="ignore"):  # b/y overflows at the first nodes of a huge c, where the integrand is 0
            val, err = de_halfline(lambda y: np.exp(-a * y - b / y), scale=1.0 / a.real)
    except ValueError:
        raise KernelDomainError(f"x = {x} and omega = {p.omega}: the rule's nodes, scaled to 1/Re(x + omega), leave the normal floats") from None
    return val * turn, max(err, abs(val) * 5e-14)


def f_closed_form_oracle(p: KernelParams, x) -> complex:
    """Independent closed form for the Laplace transform:

        f(x) = w K1(w) / (x+omega),  w = 2 c sqrt(omega) sqrt(x+omega),

    which is 2 c sqrt(omega/(x+omega)) K1(w), evaluated through the in-house
    modified-Bessel routine; near w = 0 (c = 0, or a subnormal omega) it is
    the limit 1/(x+omega), since w K1(w) -> 1.
    """
    x = complex(x)
    om = complex(p.omega).real
    if (x + om).real <= 0:
        raise KernelDomainError(f"need Re(x + omega) > 0, got {x + om}")
    w = 2.0 * p.c * math.sqrt(om) * cmath.sqrt(x + om)
    if abs(w) < 1e-9:  # w K1(w) = 1 + (w^2/2) log(w/2) + O(w^2) rounds to 1
        return 1.0 / (x + om)
    k1 = bessel_k1(w)
    # where K1 underflows to 0, so does f, even at a w that overflowed (inf * 0 is NaN)
    return w * k1 / (x + om) if k1 else 0j
