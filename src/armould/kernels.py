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
    """Kernel value; y may be a complex scalar or numpy array, y != 0."""
    arr = np.asarray(y, dtype=complex)
    if np.any(arr == 0):
        raise KernelDomainError("kernel undefined at y = 0")
    out = saddle_node_kernel(complex(p.omega), p.c, arr)
    return complex(out) if np.isscalar(y) or getattr(y, "shape", None) == () else out


def g_sup_bound(p: KernelParams) -> float:
    """Sup of |g| over y > 0: exp(-2 omega c) at y = c."""
    return math.exp(-2.0 * complex(p.omega).real * p.c)


def f_eval(p: KernelParams, x) -> tuple[complex, float]:
    """Laplace transform f(x) = int_0^inf exp(-x y) g(y) dy, with an error
    estimate: one exp-sinh rule, ``quadrature.de_halfline``, for every c >= 0.

    The integrand exp(-a y - b/y), a = x + omega and b = c^2 omega, is one
    exponent, so it stays finite where exp(-x y) alone overflows (Re x < 0).
    At c > 0 the ray turns by -arg(a)/2, through the saddle sqrt(b/a): a y and
    b/y then share one phase, so the integrand turns by less than a radian
    per e-fold of its decay.  The nodes are scaled to 1/Re(a) on the ray.
    The error is the rule's last refinement delta, at least 5e-14 |f|, since
    the delta can read 0 at a converged value.
    """
    x = complex(x)
    om = complex(p.omega)
    if (x + om).real <= 0:
        raise KernelDomainError(f"need Re(x + omega) > 0, got {x + om}")
    a, b = x + om, p.c * p.c * om.real
    turn = cmath.exp(-0.5j * cmath.phase(a)) if b else 1.0
    a, b = a * turn, b / turn
    with np.errstate(over="ignore"):  # b/y overflows at the first nodes of a huge c, where the integrand is 0
        val, err = de_halfline(lambda y: np.exp(-a * y - b / y), scale=1.0 / a.real)
    return val * turn, max(err, abs(val) * 5e-14)


def f_closed_form_oracle(p: KernelParams, x) -> complex:
    """Independent closed form for the Laplace transform:

        f(x) = 2 c sqrt(omega/(x+omega)) K1(2 c sqrt(omega (x+omega)))

    evaluated through the in-house modified-Bessel routine; reduces to
    1/(x+omega) as c -> 0 since w K1(w) -> 1.
    """
    x = complex(x)
    om = complex(p.omega).real
    if (x + om).real <= 0:
        raise KernelDomainError(f"need Re(x + omega) > 0, got {x + om}")
    if p.c == 0:
        return 1.0 / (x + om)
    arg = 2.0 * p.c * cmath.sqrt(om * (x + om))
    return 2.0 * p.c * cmath.sqrt(om / (x + om)) * bessel_k1(arg)
