"""Modified Bessel functions K0, K1 on the right half plane.

Two branches: the ascending (small-argument) series, and for larger modulus
the continued fraction that resums the large-argument asymptotic series
(Temme's CF2).  The plain truncated asymptotic series cannot reach 1e-10
relative accuracy in double precision on the intermediate range |w| in
(4, 13); the continued fraction covers it.
"""

from __future__ import annotations

import cmath
import math

_EULER_GAMMA = 0.5772156649015328606065120900824024


class BesselDomainError(ValueError):
    pass


def bessel_k1(w) -> complex:
    """K1(w) for Re(w) > 0 (or w on the imaginary axis with |w| moderate)."""
    return _k0k1(complex(w))[1]


def bessel_k0(w) -> complex:
    return _k0k1(complex(w))[0]


def _k0k1(w: complex) -> tuple[complex, complex]:
    if w == 0:
        raise BesselDomainError("K at 0 diverges")
    r = abs(w)
    if w.real < 0:
        raise BesselDomainError(f"K implemented for Re w >= 0 only, got {w}")
    if r <= 2.0 or (w.real < 0.35 * r and r <= 26.0):
        return _k_series(w)
    if cmath.exp(-w) == 0:  # K0 and K1 underflow, where the continued fraction may not converge
        return 0j, 0j
    return _k_cf2(w)


def _k_series(w: complex) -> tuple[complex, complex]:
    """Ascending series; safe while the I-side stays within ~6 digits of K."""
    q = w * w / 4.0
    lg = cmath.log(w / 2.0)
    # running pieces: i0t = q^k/(k!)^2, i1t = q^k/(k!(k+1)!)
    i0 = i0t = 1.0 + 0.0j
    i1 = i1t = 1.0 + 0.0j
    k0_sum = 0.0 + 0.0j  # sum H_k q^k/(k!)^2
    k1_sum = (2.0 * -_EULER_GAMMA) * i1t  # sum (psi(k+1)+psi(k+2)) q^k/(k!(k+1)!)
    k1_sum += i1t  # psi(2)-psi(1) = 1 contributes at k=0: psi(1)+psi(2) = -2g+1
    h = 0.0
    for k in range(1, 120):
        i0t *= q / (k * k)
        i1t *= q / (k * (k + 1))
        h += 1.0 / k
        i0 += i0t
        i1 += i1t
        k0_sum += i0t * h
        # psi(k+1) + psi(k+2) = -2 gamma + H_k + H_{k+1}
        k1_sum += i1t * (-2.0 * _EULER_GAMMA + 2.0 * h + 1.0 / (k + 1))
        if abs(i0t) < 1e-18 * max(abs(i0), 1.0) and abs(i1t) < 1e-18 * max(abs(i1), 1.0):
            break
    i1 *= w / 2.0
    k0 = -(lg + _EULER_GAMMA) * i0 + k0_sum
    k1 = 1.0 / w + lg * i1 - (w / 4.0) * k1_sum
    return k0, k1


def _k_cf2(w: complex) -> tuple[complex, complex]:
    """Continued-fraction evaluation for |w| >= 2, Re w > 0."""
    b = 2.0 * (1.0 + w)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0 + 0.0j, 1.0 + 0.0j
    a1 = 0.25
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, 100000):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (a * d + b)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels) <= 1e-17 * abs(s):
            break
    else:
        raise BesselDomainError(f"continued fraction did not converge for w={w}")
    h = a1 * h
    k0 = cmath.sqrt(math.pi / 2.0 / w) * cmath.exp(-w) / s
    k1 = k0 * (w + 0.5 - h) / w
    return k0, k1
