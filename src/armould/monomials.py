"""Numerical resurgence monomials: hyperlogarithmic V and paralogarithmic
Ua/U_c/Ue families, forest values, growth scans and the r=1 singularity probe.

Paralogarithmic values are iterated contour integrals

    Ua^{(w1..wr)}(z) = int ... int  g_{c,w1}(y1) ... g_{c,wr}(yr)
                        / ((yr - y_{r-1}) ... (y2 - y1)(y1 - z)) dy1 ... dyr

with each y_j on a ray slightly under the positive real axis, tilted strictly
deeper with depth (theta_1 < theta_2 < ...).  After y = c e^(t - i theta) the
integrand decays doubly exponentially and the trapezoid rule converges
geometrically; the analyticity strip between adjacent rays has width
(theta_{j+1} - theta_j), which sets the step size.

Normalisation: with these contours the monomials satisfy the contracting
shuffle identities with a factor of (-2 pi i) per merged letter,

    Ua^{(a)} Ua^{(b)} = Ua^{(a,b)} + Ua^{(b,a)} - 2 pi i Ua^{(a+b)},

so the symmetrel mould is Ua^w / (-2 pi i)^r; MOULD_NORMALIZATION below is
that per-letter factor.  Forest values obey the same bookkeeping with
surjection-counted covers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .kernels import KernelParams, f_analytic_continuation, f_closed_form_oracle
from .moulds import Mould, words_of_norm_at_most
from .quadrature import de_halfline, segment_quad
from .words import Forest, Tree, Word, forests_of_norm, letter

CONTRACTION_UNIT = -2j * math.pi
MOULD_NORMALIZATION = 1.0 / CONTRACTION_UNIT  # per-letter factor -> symmetrel


class ContourError(ValueError):
    pass


@dataclass(frozen=True)
class ContourSpec:
    """Rotated-ray prescription: variable slot j (1-based) integrates along
    e^{-i angle_j} R+ with angle_j = eps * multipliers[j-1]; multipliers must
    be strictly increasing so deeper variables pass strictly further under
    the axis (admissibility: all angles in (0, pi/4))."""

    eps: float = 0.05
    multipliers: tuple = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    richardson_levels: int = 2

    def angles(self, r: int, level: int = 0) -> tuple:
        if r > len(self.multipliers):
            raise ContourError(f"contour spec has {len(self.multipliers)} slots, the integral needs {r}")
        eps = self.eps / (2**level)
        out = tuple(eps * m for m in self.multipliers[:r])
        if any(b <= a for a, b in zip(out, out[1:])):
            raise ContourError("angles must be strictly increasing")
        if out and not (0 < out[0] and out[-1] < math.pi / 4):
            raise ContourError("angles must lie in (0, pi/4)")
        return out

    def min_gap(self, r: int, level: int = 0) -> float:
        ang = self.angles(r, level)
        if len(ang) <= 1:
            return ang[0] if ang else self.eps
        return min(b - a for a, b in zip(ang, ang[1:]))


@dataclass
class MonomialValue:
    """A monomial value with its error estimate; a word's value also carries
    its z-derivative, computed from the same quadrature passes."""

    value: complex
    error: float
    derivative: complex | None = None
    derivative_error: float | None = None
    meta: dict = field(default_factory=dict)

    def __complex__(self):
        return complex(self.value)


# ---------------------------------------------------------------------------
# paralogarithmic engine
# ---------------------------------------------------------------------------


def _decorations(w) -> tuple:
    if isinstance(w, Word):
        return tuple(complex(a.value) for a in w.letters)
    return tuple(complex(x) for x in w)


def _check_z(z: complex, c: float, decorations: Sequence[complex]):
    """z as a complex number, after rejecting a non-finite or negative c, a
    non-finite z and a z on or near a singular ray of the decorations."""
    if not (math.isfinite(c) and c >= 0):
        raise ContourError(f"c = {c} must be a finite number >= 0")
    z = complex(z)
    if not cmath.isfinite(z):
        raise ContourError(f"z = {z} is not finite")
    for om in decorations:
        if om == 0:
            raise ContourError("zero decoration")
        # singular ray of this decoration: direction of conj(om)o... the ray
        # arg(y) = -arg(om) carries the contour; z must stay off a small
        # sector around it
        ray = -cmath.phase(om)
        dphi = abs((cmath.phase(z) - ray + math.pi) % (2 * math.pi) - math.pi)
        if dphi < 0.3:
            raise ContourError(f"z = {z} too close to the singular ray of decoration {om}")
    if z == 0:
        raise ContourError("z = 0 is singular")
    return z


def _ray(scale: float, base_angle: float, tilt: float, t_lo: float, h: float, n: int):
    """Fixed-step log-uniform ray y_k = scale e^{t_lo + h k + i(base_angle - tilt)},
    k = 0..n-1, with its trapezoid weights and the complex log of y_0."""
    t = t_lo + h * np.arange(n)
    y = scale * np.exp(t + 1j * (base_angle - tilt))
    wgt = y * h
    wgt[0] *= 0.5
    wgt[-1] *= 0.5
    return y, wgt, complex(math.log(scale) + t_lo, base_angle - tilt)


def _t_window(c: float, om_abs: float, cos_t: float) -> tuple[float, float]:
    if c > 0:
        budget = 2.0 * om_abs * c + 52.0
        t_hi = math.log(budget / (om_abs * c * cos_t))
        return -t_hi, t_hi
    # hyperlogarithmic limit: scale 1, decay e^t from the Jacobian at -inf
    return -34.0, math.log(46.0 / (om_abs * cos_t))


def _kernel_values(om: complex, c: float, y: np.ndarray) -> np.ndarray:
    # saddle-node convention extended to complex decorations:
    # exp(-om y - c^2 conj(om)/y); for real om > 0 this is exp(-om(y + c^2/y))
    return np.exp(-om * y - (c * c) * np.conjugate(om) / y)


def _cauchy_fold(
    values: np.ndarray, y_from: np.ndarray, log_from: complex, y_to: np.ndarray, log_to: complex, h: float
) -> np.ndarray:
    """out[i] = sum_k values[k] / (y_from[k] - y_to[i]) between two log-uniform
    rays of common step h whose first nodes have logs log_from and log_to.

    With u = values / y_from and x_m = y_to[i] / y_from[k] = e^{log_to - log_from + h m}
    at lag m = i - k, out[i] = sum_k u_k / (1 - x_{i-k}): a Toeplitz mat-vec.
    Its kernel splits as [|x| < 1] + r with r = x / (1 - x) inside the unit
    circle and 1 / (1 - x) outside; |x| grows with m, so the step part is a
    suffix sum of u, and r, which decays at both ends, goes through one FFT
    convolution of power-of-two length >= N + M - 1."""
    n, m = len(y_from), len(y_to)
    u = values / y_from
    lags = np.arange(-(n - 1), m)
    shift = log_to - log_from
    inside = shift.real + h * lags < 0  # |x| < 1: a prefix of the lags
    x = np.exp(shift + h * lags)
    r = np.where(inside, x, 1.0) / (1.0 - x)
    # lag index i - k + n - 1 is inside below p, i.e. for k >= i + n - p
    p = np.count_nonzero(inside)
    suffix = np.append(np.cumsum(u[::-1])[::-1], 0.0)
    step = suffix[np.clip(np.arange(m) + n - p, 0, n)]
    size = 1 << (n + m - 2).bit_length()
    conv = np.fft.ifft(np.fft.fft(u, size) * np.fft.fft(r, size))[n - 1 : n - 1 + m]
    return step + conv


def _preorder(f: Forest) -> tuple[tuple, tuple]:
    """Flat preorder node list of a forest: decorations and, per node, the
    index of its parent (-1 for a root)."""
    decs: list[complex] = []
    parents: list[int] = []

    def walk(t: Tree, parent: int):
        j = len(decs)
        decs.append(complex(t.root.value))
        parents.append(parent)
        for ch in t.children.trees:
            walk(ch, j)

    for t in f.trees:
        walk(t, -1)
    return tuple(decs), tuple(parents)


def _pass(
    decorations: Sequence[complex],
    parents: Sequence[int],
    z: complex,
    c: float,
    spec: ContourSpec,
    level: int,
) -> tuple[complex, complex]:
    """One trapezoid evaluation of the iterated integral over a preorder node
    list: a factor 1/(y_child - y_parent) per edge and 1/(y_root - z) per root.
    Returns that value and, from the same folds with 1/(y_root - z)^2 at the
    roots, the z-derivative of a one-root integral (a word).  Nodes are folded
    leaves first, each one's children multiplied in preorder; a word is the
    chain (-1, 0, ..., r-2).  Every ray has the same step h, so each edge is
    one Toeplitz fold."""
    n = len(decorations)
    tilts = spec.angles(n, level)
    h = spec.min_gap(n, level) / 4.6  # e^{-2 pi gap/h} ~ 3e-13
    scale = c if c > 0 else 1.0
    rays = []
    for om, tilt in zip(decorations, tilts):
        t_lo, t_hi = _t_window(c, abs(om), math.cos(tilt))
        npts = max(int(math.ceil((t_hi - t_lo) / h)) + 1, 33)
        rays.append(_ray(scale, -cmath.phase(om), tilt, t_lo, h, npts))
    children: list[list[int]] = [[] for _ in range(n)]
    for j, p in enumerate(parents):
        if p >= 0:
            children[p].append(j)
    folded: dict = {}
    for j in range(n - 1, -1, -1):
        y, wgt, log0 = rays[j]
        vals = _kernel_values(decorations[j], c, y) * wgt
        for ch in children[j]:
            vals = vals * folded.pop(ch)
        p = parents[j]
        if p >= 0:
            y_to, _, log_to = rays[p]
            folded[j] = _cauchy_fold(vals, y, log0, y_to, log_to, h)
        else:
            d = y - z
            folded[j] = (complex(np.sum(vals / d)), complex(np.sum(vals / d**2)))
    total = dtotal = 1.0 + 0.0j
    for j in sorted(folded):  # only the roots are left, in preorder
        total *= folded[j][0]
        dtotal *= folded[j][1]
    return total, dtotal


def _refined(decorations, parents, z: complex, c: float, spec: ContourSpec) -> tuple[tuple[complex, float], tuple[complex, float]]:
    """Richardson refinement in the tilt parameter of both results of one set
    of passes, value and z-derivative: each the finest pass and, as its error,
    the last refinement delta with a 5e-14 relative floor."""
    passes = [_pass(decorations, parents, z, c, spec, lvl) for lvl in range(spec.richardson_levels)]
    out = []
    for vals in zip(*passes):
        value = vals[-1]
        err = abs(vals[-1] - vals[-2]) if len(vals) >= 2 else abs(value) * 1e-10
        out.append((value, max(err, abs(value) * 5e-14)))
    return out[0], out[1]


def paralog_Ua_eval(w, z: complex, c: float, spec: ContourSpec | None = None) -> MonomialValue:
    """Raw auxiliary paralogarithmic monomial Ua^w(z) and its z-derivative,
    both from one set of passes, Richardson-refined in the tilt parameter;
    each reported error dominates the observed refinement delta."""
    spec = spec or ContourSpec()
    decs = _decorations(w)
    z = _check_z(z, c, decs)
    if not decs:
        return MonomialValue(1.0 + 0.0j, 0.0, 0.0j, 0.0)
    chain = tuple(range(-1, len(decs) - 1))  # a word is the chain forest
    (value, err), (dvalue, derr) = _refined(decs, chain, z, c, spec)
    return MonomialValue(value, err, dvalue, derr)


def paralog_variants(w, z: complex, c: float, spec: ContourSpec | None = None) -> tuple[MonomialValue, MonomialValue, MonomialValue]:
    """(Ua, U_c, Ue) from one Ua evaluation:
    U_c = Ua exp(c^2 ||w|| / z),   Ue = Ua exp(||w||(z + c^2/z))."""
    z = complex(z)
    if z == 0:
        raise ContourError("z = 0")
    ua = paralog_Ua_eval(w, z, c, spec)
    nrm = sum(_decorations(w))
    mid = cmath.exp(c * c * nrm / z)
    full = cmath.exp(nrm * z + c * c * nrm / z)
    uc = MonomialValue(ua.value * mid, ua.error * abs(mid))
    ue = MonomialValue(ua.value * full, ua.error * abs(full))
    return ua, uc, ue


# ---------------------------------------------------------------------------
# forest values
# ---------------------------------------------------------------------------


def paralog_forest_eval(f: Forest, z: complex, c: float, spec: ContourSpec | None = None) -> MonomialValue:
    """Contracted-arborified monomial value Ua^F(z): one structured integral
    with variables indexed by nodes, a difference factor 1/(y_child - y_parent)
    per tree edge and a root factor 1/(y_root - z) per tree."""
    spec = spec or ContourSpec()
    decs, parents = _preorder(f)
    z = _check_z(z, c, decs)
    if not decs:
        return MonomialValue(1.0 + 0.0j, 0.0)
    (value, err), _ = _refined(decs, parents, z, c, spec)
    return MonomialValue(value, err, meta={"nodes": len(decs)})


# ---------------------------------------------------------------------------
# symmetrel mould of paralogarithmic values
# ---------------------------------------------------------------------------


def paralog_mould(z: complex, c: float, spec: ContourSpec | None = None, kind: str = "Ue", normalized: bool = True) -> Mould:
    """Mould w -> monomial value at fixed (z, c); normalized=True applies the
    per-letter factor 1/(-2 pi i), under which the family is symmetrel."""
    spec = spec or ContourSpec()
    if kind not in ("Ua", "Uc", "Ue"):
        raise ValueError(f"unknown monomial kind {kind!r}")

    def rule(w: Word):
        if w.length == 0:
            return 1.0 + 0.0j
        ua, uc, ue = paralog_variants(w, z, c, spec)
        val = {"Ua": ua, "Uc": uc, "Ue": ue}[kind].value
        if normalized:
            val *= MOULD_NORMALIZATION**w.length
        return val

    return Mould(rule, name=f"{kind}(z={z}, c={c}{', normalized' if normalized else ''})")


# ---------------------------------------------------------------------------
# hyperlogarithms
# ---------------------------------------------------------------------------


def hyperlog_V_borel(w, zeta: complex, nodes: int = 48, pieces: int = 2) -> complex:
    """Borel-plane hyperlogarithm by length recursion:

        V^(w1) (zeta) = 1/(zeta - w1)
        (-zeta + ||w||) V^w(zeta) = - int_0^zeta V^(w minus last)(s) ds

    along the straight segment from 0; raises if the segment passes near a
    singular partial sum w1 + ... + wi."""
    decs = _decorations(w)
    if not decs:
        raise ValueError("empty word has no Borel minor")
    zeta = complex(zeta)
    _check_borel_path(decs, zeta)
    return _v_borel_rec(decs, zeta, nodes, pieces)


def _check_borel_path(decs: Sequence[complex], zeta: complex):
    partial = 0.0 + 0.0j
    for om in decs:
        partial += om
        # distance from the segment [0, zeta] to the singular point
        t = max(0.0, min(1.0, (partial.conjugate() * zeta).real / max(abs(zeta) ** 2, 1e-300)))
        d = abs(partial - t * zeta)
        if d < 1e-6:
            raise ContourError(f"integration path [0, {zeta}] passes through singular point {partial}")


def _v_borel_rec(decs: tuple, zeta: complex, nodes: int, pieces: int) -> complex:
    if len(decs) == 1:
        return 1.0 / (zeta - decs[0])
    shorter = decs[:-1]
    integral = segment_quad(
        lambda s: np.array([_v_borel_rec(shorter, complex(sv), nodes, pieces) for sv in s]),
        0.0,
        zeta,
        n=nodes,
        pieces=pieces,
    )
    return -integral / (-zeta + sum(decs))


def hyperlog_V_eval(w, z: complex, theta: float = math.pi, spec: ContourSpec | None = None) -> MonomialValue:
    """Laplace transform of the Borel hyperlogarithm along e^{i theta} R+;
    V^empty = 1.  Needs Re(z e^{i theta}) > 0 and a direction clear of the
    singular partial sums."""
    decs = _decorations(w)
    z = complex(z)
    if not decs:
        return MonomialValue(1.0 + 0.0j, 0.0)
    rot = cmath.exp(1j * theta)
    decay = (z * rot).real
    if decay <= 0:
        raise ContourError(f"direction theta={theta} does not damp exp(-z zeta) for z={z}")
    partial = 0.0 + 0.0j
    for om in decs:
        partial += om
        if abs((cmath.phase(partial) - theta + math.pi) % (2 * math.pi) - math.pi) < 1e-9:
            raise ContourError(f"singular direction: partial sum {partial} lies on the ray")

    def integrand(ts):
        return np.array([rot * cmath.exp(-z * rot * t) * _v_borel_rec(decs, rot * t, 40, 2) for t in ts])

    val, err = de_halfline(integrand, scale=1.0 / decay, rel_tol=1e-12, max_level=8)
    return MonomialValue(val, max(err, abs(val) * 1e-12))


# ---------------------------------------------------------------------------
# growth scan
# ---------------------------------------------------------------------------


@dataclass
class GrowthReport:
    z: complex
    norm_cap: int
    khat: dict  # c -> estimated growth constant
    details: dict  # c -> {label: |Ua|^{1/norm}}
    monotone_decreasing: bool
    fit_slope: float
    fit_r2: float
    c0_khat: float | None = None

    def __str__(self):
        rows = ", ".join(f"K({c:g})={k:.4f}" for c, k in sorted(self.khat.items()))
        s = f"growth scan at z={self.z}, norms<={self.norm_cap}: {rows}; slope={self.fit_slope:.3f}, R2={self.fit_r2:.3f}"
        if self.c0_khat is not None:
            s += f"; c=0 column K={self.c0_khat:.4f}"
        return s


def growth_scan(
    c_values: Sequence[float],
    norm_cap: int,
    z: complex,
    spec: ContourSpec | None = None,
    include_forests: bool = True,
    max_nodes: int = 4,
) -> GrowthReport:
    """Estimate K(c) = sup |Ua_c^w(z)|^{1/||w||} over words (and forests) of
    norm <= cap; checks monotone decay in c and fits log K(c) linearly."""
    if norm_cap < 1:
        raise ValueError(f"norm cap {norm_cap} must be >= 1")
    spec = spec or ContourSpec()
    # the hyperlogarithmic column needs a much longer t-window; a single
    # contour level at scan accuracy keeps the column affordable
    c0_spec = replace(spec, richardson_levels=1)
    letters = [letter(n) for n in range(1, norm_cap + 1)]
    wordlist = words_of_norm_at_most(letters, norm_cap)
    forestlist = forests_of_norm(letters, norm_cap, max_nodes=max_nodes) if include_forests else []
    khat: dict = {}
    details: dict = {}
    for c in c_values:
        use = c0_spec if c == 0 else spec
        best = 0.0
        detail = {}
        for w in wordlist:
            nrm = int(w.norm.re)
            v = abs(paralog_Ua_eval(w, z, c, use).value) ** (1.0 / nrm)
            detail[str(w)] = v
            best = max(best, v)
        for f in forestlist:
            nrm = int(f.norm.re)
            v = abs(paralog_forest_eval(f, z, c, use).value) ** (1.0 / nrm)
            detail[str(f)] = v
            best = max(best, v)
        khat[float(c)] = best
        details[float(c)] = detail
    positive = sorted(c for c in khat if c > 0)
    monotone = all(khat[a] > khat[b] for a, b in zip(positive, positive[1:]))
    slope, r2 = _loglinear_fit(positive, [khat[c] for c in positive])
    return GrowthReport(
        z=complex(z),
        norm_cap=norm_cap,
        khat=khat,
        details=details,
        monotone_decreasing=monotone,
        fit_slope=slope,
        fit_r2=r2,
        c0_khat=khat.get(0.0),
    )


def _loglinear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return 0.0, 1.0
    x = np.asarray(xs, dtype=float)
    y = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


# ---------------------------------------------------------------------------
# r = 1 Borel singularity probe
# ---------------------------------------------------------------------------


def borel_pole_probe(omega: float, c: float) -> tuple[complex, complex]:
    """Continue the r=1 Borel minor f_{c,omega}(zeta) toward zeta = -omega and
    extract the simple pole: returns (location, residue); the expected values
    are (-omega, 1) for every c >= 0."""
    p = KernelParams(c, omega)
    if c == 0:
        return (-omega + 0.0j, 1.0 + 0.0j)
    rhos = [1e-2, 1e-3, 1e-4]
    vals = []
    for rho in rhos:
        zeta = -omega + rho
        vals.append((zeta + omega) * f_closed_form_oracle(p, zeta))
    # model v(rho) = R + a rho log rho + b rho
    m = np.array([[1.0, r * math.log(r), r] for r in rhos])
    coef = np.linalg.solve(m, np.array(vals))
    residue = complex(coef[0])
    # location from the linear behaviour of 1/f near the pole
    z1, z2 = -omega + 1e-3, -omega + 2e-3
    f1 = f_closed_form_oracle(p, z1)
    f2 = f_closed_form_oracle(p, z2)
    slope = (1.0 / f1 - 1.0 / f2) / (z1 - z2)
    location = complex(z1 - (1.0 / f1) / slope)
    return location, residue


# ---------------------------------------------------------------------------
# experimental x-integral form
# ---------------------------------------------------------------------------


def x_integral_eval(w, z: complex, c: float, delta: float = 1e-2, check_tol: float = 1e-3, spec: ContourSpec | None = None) -> MonomialValue:
    """Laplace-side evaluation with step-function constrained frequency
    variables; the half-lines are rotated by ``delta`` into the lower half
    plane so the step factors keep a definite sign.

    r = 0 and r = 1 are solid; r = 2 is experimental and cross-checked
    against the y-integral, attaching meta['ambiguous'] when the two
    disagree beyond check_tol.  Larger r is not provided.
    """
    decs = _decorations(w)
    z = complex(z)
    r = len(decs)
    if c <= 0 and r > 0:
        raise ContourError("x-integral needs c > 0")
    if r == 0:
        return MonomialValue(1.0 + 0.0j, 0.0)
    if z.real >= 0:
        raise ContourError("x-integral implemented for Re z < 0")
    if r == 1:
        om = decs[0].real
        p = KernelParams(c, om)
        rot = cmath.exp(-1j * delta)

        def integrand(ts):
            return np.array([rot * f_closed_form_oracle(p, rot * t) * cmath.exp(rot * t * z) for t in ts])

        val, err = de_halfline(integrand, scale=1.0 / abs(z.real), rel_tol=1e-11, max_level=8)
        return MonomialValue(val, max(err, abs(val) * 1e-10), meta={"delta": delta})
    if r != 2:
        raise ContourError("x-integral provided for r <= 2 only")
    om1, om2 = decs[0].real, decs[1].real
    p1, p2 = KernelParams(c, om1), KernelParams(c, om2)
    # Ua^(w1,w2)(z) = int_0^inf e^{x1hat z} [ int_L f2(x) f1(x1hat - x) dx ] dx1hat
    # with L the half-line rotated just past the imaginary axis,
    # L = e^{i(pi/2 + delta)} R+.  Writing x2hat := -x (so Re x2hat < 0) this is
    # the step-function-constrained double integral; the rotation keeps both
    # Laplace factors convergent and fixes the branch of f2 at its cut.
    phi = math.pi / 2.0 + delta
    rot = cmath.exp(1j * phi)
    n = 240
    t1, w1 = _halfline_nodes(scale=1.0 / abs(z.real), n=n)
    t2, w2 = _halfline_nodes(scale=(4.0 / (2.0 * c * math.sqrt(min(om1, om2)))) ** 2, n=n)
    xs = rot * t2
    f2v = np.array([f_analytic_continuation(p2, complex(x)) for x in xs])
    total = 0.0 + 0.0j
    for s1, ww in zip(t1, w1):
        f1v = np.array([f_analytic_continuation(p1, complex(s1 - x)) for x in xs])
        total += ww * cmath.exp(s1 * z) * np.sum(f2v * f1v * w2) * rot
    out = MonomialValue(total, abs(total) * 1e-6, meta={"delta": delta})
    ref = paralog_Ua_eval(w, z, c, spec)
    drift = abs(total - ref.value) / max(abs(ref.value), 1e-300)
    out.meta["y_reference"] = ref.value
    out.meta["drift"] = drift
    out.meta["ambiguous"] = drift > check_tol
    return out


def _halfline_nodes(scale: float, n: int):
    # exp-sinh nodes trimmed to a fixed count for tensor quadrature
    h = 7.0 / n
    ks = np.arange(-n // 2, n // 2 + 1)
    u = ks * h
    s = (math.pi / 2) * np.sinh(u)
    t = np.exp(s) * scale
    wgt = t * (math.pi / 2) * np.cosh(u) * h
    keep = (t > 1e-280) & (t < 1e280)
    return t[keep], wgt[keep]
