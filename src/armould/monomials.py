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
from typing import Sequence

import numpy as np

from .kernels import KernelParams, f_closed_form_oracle, saddle_node_kernel
from .quadrature import de_halfline, segment_quad
from .values import _set
from .words import Forest, Tree, forests_of_norm, letter, words_of_norm_at_most

CONTRACTION_UNIT = -2j * math.pi
MOULD_NORMALIZATION = 1.0 / CONTRACTION_UNIT  # per-letter factor -> symmetrel


class ContourError(ValueError):
    pass


class ContourSpec:
    """Rotated-ray prescription: slot j (0-based) integrates along
    e^{-i angle_j} R+, angle_j = eps * multipliers[j] / 2^level at Richardson
    level `level`.  Construction checks that the angles increase strictly, so
    deeper variables pass further under the axis, lie in (0, pi/4), and that
    there is a level.  Immutable; two specs are equal when their three fields
    are."""

    __slots__ = ("eps", "multipliers", "richardson_levels")

    def __init__(self, eps: float = 0.05, multipliers: tuple = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0), richardson_levels: int = 2):
        angles = [eps * m for m in multipliers]
        if not angles or any(b <= a for a, b in zip(angles, angles[1:])):
            raise ContourError(f"multipliers {multipliers} must be nonempty and strictly increasing")
        if not (0 < angles[0] and angles[-1] < math.pi / 4):
            raise ContourError(f"angles eps * multipliers = {angles} must lie in (0, pi/4)")
        if richardson_levels < 1:
            raise ContourError(f"richardson_levels = {richardson_levels} must be >= 1")
        _set(self, "eps", eps)
        _set(self, "multipliers", multipliers)
        _set(self, "richardson_levels", richardson_levels)

    def __setattr__(self, name, value):
        raise AttributeError("ContourSpec is immutable")

    def __reduce__(self):
        return (ContourSpec, self._fields())

    def _fields(self) -> tuple:
        return (self.eps, self.multipliers, self.richardson_levels)

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"ContourSpec(eps={self.eps!r}, multipliers={self.multipliers!r}, richardson_levels={self.richardson_levels!r})"

    def step(self, level: int) -> float:
        """The trapezoid step of every ray at this level: the narrowest strip
        between adjacent slots, slot 0 and the axis included, over 4.6, so
        that the strip error e^{-2 pi gap/h} is about 3e-13."""
        gap = min(b - a for a, b in zip((0.0, *self.multipliers), self.multipliers))
        return self.eps / 2**level * gap / 4.6

    def check_slots(self, r: int, what: str = "the integral"):
        """Refuse an integral over more variables than the spec has slots."""
        if r > len(self.multipliers):
            raise ContourError(f"{what} needs {r} integration slots, the contour has {len(self.multipliers)}")


class MonomialValue:
    """A monomial value with its error estimate; a word's value also carries
    its z-derivative, computed from the same quadrature passes."""

    def __init__(self, value: complex, error: float, derivative: complex | None = None, derivative_error: float | None = None):
        self.value = value
        self.error = error
        self.derivative = derivative
        self.derivative_error = derivative_error


# ---------------------------------------------------------------------------
# paralogarithmic engine
# ---------------------------------------------------------------------------


def _decorations(w) -> tuple:
    return tuple(complex(x) for x in w)


def _check_z(z: complex, c: float, decorations: Sequence[complex]):
    """z as a complex number, after rejecting a negative c or one whose
    square is not finite, a non-finite z, z = 0, a z on or near a singular
    ray of the decorations, and a c or z too large for what the quadrature
    computes: c^2 |omega| in every kernel value, and the square of y - z at
    the farthest node y of every ray."""
    if not (math.isfinite(c * c) and c >= 0):
        raise ContourError(f"c = {c} must be a number >= 0 with a finite square")
    z = complex(z)
    if not cmath.isfinite(z):
        raise ContourError(f"z = {z} is not finite")
    if z == 0:
        raise ContourError("z = 0 is singular")
    for om in decorations:
        if om == 0:
            raise ContourError("zero decoration")
        if not math.isfinite(c * c * abs(om)):
            raise ContourError(f"c = {c} is too large for decoration {om}: c^2 |omega| is not finite")
        # every ray tilts by less than pi/4, which bounds its window from above
        far = (c if c > 0 else 1.0) * math.exp(_t_window(c, abs(om), math.cos(math.pi / 4))[1]) + abs(z)
        if not math.isfinite(far * far):
            raise ContourError(f"c = {c} and z = {z} are too large for decoration {om}: |y - z|^2 overflows on its ray")
        # the ray arg(y) = -arg(om) is this decoration's singular ray and
        # carries its contour; z must stay outside a 0.3 rad sector around it
        ray = -cmath.phase(om)
        dphi = abs((cmath.phase(z) - ray + math.pi) % (2 * math.pi) - math.pi)
        if dphi < 0.3:
            raise ContourError(f"z = {z} too close to the singular ray of decoration {om}")
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
    convolution of power-of-two length >= N + M - 1.  r and u are built in
    their zero-padded FFT buffers, which are transformed and multiplied in
    place, so the fold allocates little beyond the two buffers and its result."""
    n, m = len(y_from), len(y_to)
    shift = log_to - log_from
    h_lags = h * np.arange(-(n - 1), m)
    # |x| < 1 on a prefix of the lags: lag index i - k + n - 1 is inside
    # below p, i.e. for k >= i + n - p
    p = np.count_nonzero(shift.real + h_lags < 0)
    size = 1 << (n + m - 2).bit_length()
    r, u = np.zeros(size, complex), np.zeros(size, complex)
    x, one_minus_x = r[: n + m - 1], u[: n + m - 1]  # u's buffer holds 1 - x until u is written
    np.exp(np.add(shift, h_lags, out=x), out=x)
    del h_lags
    np.subtract(1.0, x, out=one_minus_x)
    x[p:] = 1.0
    x /= one_minus_x
    np.divide(values, y_from, out=u[:n])
    u[n:] = 0.0
    suffix = np.zeros(n + 1, complex)
    np.cumsum(u[n - 1 :: -1], out=suffix[n - 1 :: -1])
    out = suffix[np.clip(np.arange(n - p, m + n - p), 0, n)]
    np.fft.fft(u, out=u)
    u *= np.fft.fft(r, out=r)
    out += np.fft.ifft(u, out=u)[n - 1 : n - 1 + m]
    return out


def _preorder(f: Forest) -> tuple[tuple, tuple]:
    """Flat preorder node list of a forest: decorations and, per node, the
    index of its parent (-1 for a root)."""
    decs: list[complex] = []
    parents: list[int] = []

    def walk(t: Tree, parent: int):
        j = len(decs)
        decs.append(complex(t.root))
        parents.append(parent)
        for ch in t.children.trees:
            walk(ch, j)

    for t in f.trees:
        walk(t, -1)
    return tuple(decs), tuple(parents)


class Quadrature:
    """The quadrature of one batch of evaluations at one (c, spec): rays and
    Cauchy folds shared by every word, forest and z sample evaluated through
    it, and freed with it, or a ray earlier: paralog_batch_eval releases each
    ray after the last item of its batch that can touch it.

    A ray, with its weighted kernel values, depends on the level, the slot
    and the decoration alone, since the spec sets its tilt and step, and is
    built once.  A fold depends on the subtree it folds (decorations and
    parent links, from its slot on) and on the ray it lands on (parent slot
    and decoration); z enters only the root sums.  One fold is held per
    (level, slot), so a batch shares the folds of items that come one after
    the other with a common subtree at a common slot; paralog_batch_eval
    walks its items in that order."""

    def __init__(self, c: float, spec: ContourSpec | None = None):
        self.c = c
        self.spec = spec or ContourSpec()
        self._rays: dict = {}  # (level, slot, decoration) -> (y, log y_0, weighted kernel values)
        self._folds: dict = {}  # (level, slot) -> (fold key, folded values)

    def ray(self, level: int, slot: int, om: complex):
        """The ray of decoration om at (level, slot), built on first use."""
        key = (level, slot, om)
        ray = self._rays.get(key)
        if ray is None:
            c, h = self.c, self.spec.step(level)
            tilt = self.spec.eps / 2**level * self.spec.multipliers[slot]
            t_lo, t_hi = _t_window(c, abs(om), math.cos(tilt))
            npts = max(int(math.ceil((t_hi - t_lo) / h)) + 1, 33)
            y, wgt, log0 = _ray(c if c > 0 else 1.0, -cmath.phase(om), tilt, t_lo, h, npts)
            vals = np.multiply(saddle_node_kernel(om, c, y), wgt, out=wgt)  # kernel times weights, in this order, in place
            ray = self._rays[key] = (y, log0, vals)
        return ray

    def held(self, level: int, slot: int, key: tuple) -> np.ndarray | None:
        """The fold held for (level, slot) if it was stored under key; one
        stored under another key is dropped."""
        entry = self._folds.get((level, slot))
        if entry is not None and entry[0] == key:
            return entry[1]
        self._folds.pop((level, slot), None)
        return None

    def hold(self, level: int, slot: int, key: tuple, folded: np.ndarray) -> np.ndarray:
        self._folds[(level, slot)] = (key, folded)
        return folded


def _pass(decorations: Sequence[complex], parents: Sequence[int], z: complex, quad: Quadrature, level: int) -> tuple[complex, complex]:
    """One trapezoid evaluation of the iterated integral over a preorder node
    list: a factor 1/(y_child - y_parent) per edge and 1/(y_root - z) per root.
    Returns that value and, from the same folds with 1/(y_root - z)^2 at the
    roots, the z-derivative of a one-root integral (a word).  Nodes are folded
    leaves first, each one's children multiplied in preorder; a word is the
    chain (-1, 0, ..., r-2).  Every ray of a level has the same step h, so each
    edge is one Toeplitz fold.  Rays come from quad, and so does the fold of
    every subtree quad holds, which spares the nodes below it."""
    n = len(decorations)
    h = quad.spec.step(level)
    ends = list(range(1, n + 1))  # node j's subtree is the preorder slice j:ends[j]
    for j in range(n - 1, -1, -1):
        if parents[j] >= 0:
            ends[parents[j]] = max(ends[parents[j]], ends[j])
    children: list[list[int]] = [[] for _ in range(n)]
    keys: list = [None] * n
    computed = [False] * n
    folded: dict = {}
    for j, p in enumerate(parents):  # a parent comes before its children
        if p < 0:
            computed[j] = True
        elif computed[p]:  # below a held fold no node is visited
            children[p].append(j)
            keys[j] = (decorations[j : ends[j]], tuple(q - j for q in parents[j + 1 : ends[j]]), p, decorations[p])
            held = quad.held(level, j, keys[j])
            if held is None:
                computed[j] = True
            else:
                folded[j] = held
    for j in range(n - 1, -1, -1):
        if not computed[j]:
            continue
        y, log0, vals = quad.ray(level, j, decorations[j])
        for ch in children[j]:
            vals = vals * folded.pop(ch)
        p = parents[j]
        if p >= 0:
            y_to, log_to, _ = quad.ray(level, p, decorations[p])
            folded[j] = quad.hold(level, j, keys[j], _cauchy_fold(vals, y, log0, y_to, log_to, h))
        else:
            d = y - z
            folded[j] = (complex(np.sum(vals / d)), complex(np.sum(vals / d**2)))
    total = dtotal = 1.0 + 0.0j
    for j in sorted(folded):  # only the roots are left, in preorder
        total *= folded[j][0]
        dtotal *= folded[j][1]
    return total, dtotal


def _refined(decorations, parents, z: complex, quad: Quadrature) -> tuple[tuple[complex, float], tuple[complex, float]]:
    """Richardson refinement in the tilt parameter of both results of one set
    of passes, value and z-derivative: each the finest pass and, as its error,
    the last refinement delta with a 5e-14 relative floor."""
    passes = [_pass(decorations, parents, z, quad, lvl) for lvl in range(quad.spec.richardson_levels)]
    out = []
    for vals in zip(*passes):
        value = vals[-1]
        err = abs(vals[-1] - vals[-2]) if len(vals) >= 2 else abs(value) * 1e-10
        out.append((value, max(err, abs(value) * 5e-14)))
    return out[0], out[1]


def _monomial(decorations, parents, z: complex, c: float, spec: ContourSpec | None, quad: Quadrature | None):
    """The body of paralog_Ua_eval and paralog_forest_eval: check z, c and
    the slot count, then refine through quad, or through a batch of one."""
    spec = spec or ContourSpec()
    z = _check_z(z, c, decorations)
    spec.check_slots(len(decorations))
    if not decorations:
        return (1.0 + 0.0j, 0.0), (0.0j, 0.0)
    if quad is None:
        quad = Quadrature(c, spec)
    elif (c, spec) != (quad.c, quad.spec):
        raise ValueError(f"quadrature for c = {quad.c}, {quad.spec} asked to evaluate at c = {c}, {spec}")
    return _refined(decorations, parents, z, quad)


def paralog_Ua_eval(w, z: complex, c: float, spec: ContourSpec | None = None, quad: Quadrature | None = None) -> MonomialValue:
    """Raw auxiliary paralogarithmic monomial Ua^w(z) and its z-derivative,
    both from one set of passes, Richardson-refined in the tilt parameter;
    each reported error dominates the observed refinement delta.  quad, a
    Quadrature for the same (c, spec), shares rays and folds with the other
    evaluations of its batch; without it the word is a batch of one."""
    decs = _decorations(w)
    chain = tuple(range(-1, len(decs) - 1))  # a word is the chain forest
    (value, err), (dvalue, derr) = _monomial(decs, chain, z, c, spec, quad)
    return MonomialValue(value, err, dvalue, derr)


def _ue_factor(nrm: complex, z: complex, c: float) -> complex:
    """Ue^w(z) / Ua^w(z) = exp(||w||(z + c^2/z)) at norm nrm = ||w||."""
    return cmath.exp(nrm * z + c * c * nrm / z)


def paralog_variants(w, z: complex, c: float, spec: ContourSpec | None = None) -> tuple[MonomialValue, MonomialValue, MonomialValue]:
    """(Ua, U_c, Ue) from one Ua evaluation:
    U_c = Ua exp(c^2 ||w|| / z),   Ue = Ua exp(||w||(z + c^2/z))."""
    ua = paralog_Ua_eval(w, z, c, spec)
    z = complex(z)
    nrm = sum(_decorations(w))
    mid = cmath.exp(c * c * nrm / z)
    full = _ue_factor(nrm, z, c)
    uc, ue = (MonomialValue(ua.value * f, ua.error * abs(f)) for f in (mid, full))
    return ua, uc, ue


# ---------------------------------------------------------------------------
# forest values
# ---------------------------------------------------------------------------


def paralog_forest_eval(f: Forest, z: complex, c: float, spec: ContourSpec | None = None, quad: Quadrature | None = None) -> MonomialValue:
    """Contracted-arborified monomial value Ua^F(z): one structured integral
    with variables indexed by nodes, a difference factor 1/(y_child - y_parent)
    per tree edge and a root factor 1/(y_root - z) per tree.  quad as for
    paralog_Ua_eval."""
    (value, err), _ = _monomial(*_preorder(f), z, c, spec, quad)
    return MonomialValue(value, err)


def paralog_batch_eval(items: Sequence, zs: Sequence[complex], c: float, spec: ContourSpec | None = None) -> list[list[MonomialValue]]:
    """out[i][k] is items[i], a word (or decoration sequence) or a forest, at
    zs[k]: one paralog_Ua_eval or paralog_forest_eval call with quad= per
    pair, through one Quadrature, z the inner loop.  Items go depth first, by
    node count, then by the preorder (decoration, parent link) pairs read from
    the last node back, so that items sharing a subtree at a slot, such as a
    word and its chain forest, come one after the other.  A ray is released
    after the z loop of the last item in that order that can touch it, one
    with its decoration at its slot."""
    quad = Quadrature(c, spec)

    def preorder(item) -> tuple:
        if isinstance(item, Forest):
            return _preorder(item)
        decs = _decorations(item)
        return decs, range(-1, len(decs) - 1)

    nodes = [preorder(item) for item in items]

    def key(i: int):
        decs, parents = nodes[i]
        return len(decs), [(d.real, d.imag, p) for d, p in zip(reversed(decs), reversed(parents))]

    order = sorted(range(len(items)), key=key)
    rays = [[(lvl, j, om) for lvl in range(quad.spec.richardson_levels) for j, om in enumerate(decs)] for decs, _ in nodes]
    last = {ray: i for i in order for ray in rays[i]}
    out: list[list] = [[] for _ in items]
    for i in order:
        evaluate = paralog_forest_eval if isinstance(items[i], Forest) else paralog_Ua_eval
        out[i] = [evaluate(items[i], z, c, spec, quad=quad) for z in zs]
        for ray in rays[i]:
            if last[ray] == i:
                quad._rays.pop(ray, None)
    return out


# ---------------------------------------------------------------------------
# hyperlogarithms
# ---------------------------------------------------------------------------

# each letter nests one more Gauss-Legendre rule and costs about 80x more:
# 3 letters take seconds, 4 take minutes
HYPERLOG_MAX_LETTERS = 3


def _hyperlog_decorations(w) -> tuple:
    decs = _decorations(w)
    if len(decs) > HYPERLOG_MAX_LETTERS:
        raise ValueError(f"a word of {len(decs)} letters is above the hyperlog limit HYPERLOG_MAX_LETTERS = {HYPERLOG_MAX_LETTERS}")
    return decs


def _v_borel_rec(decs: tuple, zeta: complex, nodes: int) -> complex:
    if len(decs) == 1:
        return 1.0 / (zeta - decs[0])
    shorter = decs[:-1]
    integral = segment_quad(lambda s: np.array([_v_borel_rec(shorter, complex(sv), nodes) for sv in s]), 0.0, zeta, n=nodes)
    return -integral / (-zeta + sum(decs))


def hyperlog_V_eval(w, z: complex) -> MonomialValue:
    """Laplace transform of the Borel hyperlogarithm along e^{i pi} R+, with
    40 Gauss-Legendre nodes per half segment inside the integrand;
    V^empty = 1.  Needs Re(z) < 0, no singular partial sum on the
    negative real axis and at most HYPERLOG_MAX_LETTERS letters."""
    decs = _hyperlog_decorations(w)
    z = complex(z)
    if not decs:
        return MonomialValue(1.0 + 0.0j, 0.0)
    rot = cmath.exp(1j * math.pi)
    decay = (z * rot).real
    if decay <= 0:
        raise ContourError(f"direction theta=pi does not damp exp(-z zeta) for z={z}")
    partial = 0.0 + 0.0j
    for om in decs:
        partial += om
        if math.pi - abs(cmath.phase(partial)) < 1e-9:
            raise ContourError(f"singular direction: partial sum {partial} lies on the ray")

    def integrand(ts):
        return np.array([rot * cmath.exp(-z * rot * t) * _v_borel_rec(decs, rot * t, 40) for t in ts])

    val, err = de_halfline(integrand, scale=1.0 / decay, max_level=8)
    return MonomialValue(val, max(err, abs(val) * 1e-12))


# ---------------------------------------------------------------------------
# growth scan
# ---------------------------------------------------------------------------


class GrowthReport:
    def __init__(self, z: complex, norm_cap: int, khat: dict, details: dict, monotone_decreasing: bool, fit_slope: float, fit_r2: float):
        self.z = z
        self.norm_cap = norm_cap
        self.khat = khat  # c -> estimated growth constant
        self.details = details  # c -> {label: |Ua|^{1/norm}}
        self.monotone_decreasing = monotone_decreasing
        self.fit_slope = fit_slope
        self.fit_r2 = fit_r2


def growth_scan(c_values: Sequence[float], norm_cap: int, z: complex, include_forests: bool = True) -> GrowthReport:
    """Estimate K(c) = sup |Ua_c^w(z)|^{1/||w||} over words (and forests of at
    most 4 nodes) of norm <= cap; checks monotone decay in c and fits log K(c)
    linearly."""
    if norm_cap < 1:
        raise ValueError(f"norm cap {norm_cap} must be >= 1")
    spec = ContourSpec()
    # the all-ones word of norm norm_cap has norm_cap letters: refuse a cap
    # the contour cannot integrate before any word is built
    spec.check_slots(norm_cap, f"norm cap {norm_cap}")
    # the hyperlogarithmic column needs a much longer t-window; a single
    # contour level at scan accuracy keeps the column affordable
    c0_spec = ContourSpec(richardson_levels=1)
    letters = [letter(n) for n in range(1, norm_cap + 1)]
    items = words_of_norm_at_most(letters, norm_cap)
    if include_forests:
        items += forests_of_norm(letters, norm_cap, max_nodes=4)
    norms = [int(item.norm.re) for item in items]
    khat: dict = {}
    details: dict = {}
    for c in c_values:
        rows = paralog_batch_eval(items, [z], c, c0_spec if c == 0 else spec)
        detail = {str(item): abs(row[0].value) ** (1.0 / nrm) for item, row, nrm in zip(items, rows, norms)}
        khat[float(c)] = float(np.max(list(detail.values()), initial=0.0))  # a NaN stays NaN
        if c > 0 and khat[float(c)] == 0:
            raise ValueError(f"K(c) underflows to 0 at c = {c}: every monomial value is 0, so log K(c) has no fit")
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
    )


def _loglinear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Slope and R^2 of the least-squares line through (x, log y); NaN for
    both when there are fewer than two points."""
    if len(xs) < 2:
        return math.nan, math.nan
    x = np.asarray(xs, dtype=float)
    y = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot != 0 else 1.0  # a NaN stays NaN
    return float(slope), r2


# ---------------------------------------------------------------------------
# r = 1 Borel singularity probe
# ---------------------------------------------------------------------------


def borel_pole_probe(omega: float, c: float) -> tuple[complex, complex]:
    """Continue the r=1 Borel minor f_{c,omega}(zeta) toward zeta = -omega and
    extract the simple pole: returns (location, residue); the expected values
    are (-omega, 1) for every c >= 0."""
    p = KernelParams(c, omega)
    rhos = [1e-2, 1e-3, 1e-4]
    vals = [(zeta + omega) * f_closed_form_oracle(p, zeta) for zeta in (-omega + rho for rho in rhos)]
    # model v(rho) = R + a rho log rho + b rho
    m = np.array([[1.0, r * math.log(r), r] for r in rhos])
    coef = np.linalg.solve(m, np.array(vals))
    residue = complex(coef[0])
    # location from the linear behaviour of 1/f near the pole
    z1, z2 = -omega + 1e-3, -omega + 2e-3
    f1 = f_closed_form_oracle(p, z1)
    f2 = f_closed_form_oracle(p, z2)
    if f1 == 0 or f2 == 0:
        raise ValueError(f"f underflows to 0 near its pole at c = {c}, omega = {omega}, so the pole has no fit")
    slope = (1.0 / f1 - 1.0 / f2) / (z1 - z2)
    location = complex(z1 - (1.0 / f1) / slope)
    return location, residue
