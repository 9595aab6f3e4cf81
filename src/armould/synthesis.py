"""Saddle-node synthesis: from prescribed invariants to the truncated
normalizer, the conjugated field, convergence diagnostics, and the linear
Riemann-Hilbert demonstration.

The normalizer at parameter c and sample z is

    Theta = sum over words (-1)^r G^w(z) Aplus_{w_r} ... Aplus_{w_1}

where G is the paralogarithmic monomial family normalized per letter by
1/(2 pi i) (the measure normalization under which the signed family is
symmetrel), and the atoms Aplus_n are the homogeneity-n components of
exp(sum A_n u^{n+1} d_u) — the derivation data composed into automorphism
components, so the comould is cosymmetrel and Theta is an algebra
automorphism up to quadrature error.

Equivalently (and cheaper) Theta = sum_v (L o exp)^v A_v over the plain
derivation comould, with L the signed normalized mould and exp the 1/r!
mould; the forest assembly is the simple arborified of (L o exp) against the
homogeneous coarborified with automorphism-factor weights.  Both groupings
are the same operator; the acceptance agreement between them is structural.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .moulds import Mould, arborify, builtin_mould, mould_compose, words_of_norm_at_most
from .monomials import (
    ContourSpec,
    MOULD_NORMALIZATION,
    paralog_Ua_eval,
)
from .operators import (
    DerivationFamily,
    DiffOperator,
    coarborify_homogeneous,
    op_compose_word,
    restricted_norm,
)
from .series import TruncatedSeries, ZSeries
from .words import Word, forests_of_norm, letter


class SynthesisError(ValueError):
    pass


@dataclass(frozen=True)
class InvariantFamily:
    """Prescribed invariants n -> A_n (finite support in Z>=1) with a declared
    exponential growth bound |A_n| <= H^n."""

    coefficients: dict
    growth_bound: float = 1.0

    def __post_init__(self):
        coeffs = {int(n): complex(a) for n, a in self.coefficients.items() if complex(a) != 0}
        if any(n < 1 for n in coeffs):
            raise SynthesisError("invariants are indexed by positive integers (A_{-1} = 0 throughout)")
        h = self.growth_bound
        if not (math.isfinite(h) and h > 0):
            raise SynthesisError(f"growth bound H = {h} must be a finite positive number")
        for n, a in coeffs.items():
            if not cmath.isfinite(a):
                raise SynthesisError(f"A_{n} = {a} is not finite")
            if abs(a) > h**n * (1 + 1e-12):
                raise SynthesisError(f"|A_{n}| = {abs(a)} exceeds declared bound H^n = {h ** n}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.coefficients))

    def derivations(self) -> DerivationFamily:
        return DerivationFamily(self.coefficients)


@dataclass(frozen=True)
class SynthesisConfig:
    c: float
    nu: int = 6
    r_max: int = 4
    z_samples: tuple = (-2.0,)
    contour: ContourSpec = field(default_factory=ContourSpec)

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c >= 0):
            raise SynthesisError(f"c = {self.c} must be a finite number >= 0")
        if self.nu < 1 or self.r_max < 1:
            raise SynthesisError(f"caps nu = {self.nu} and r_max = {self.r_max} must both be >= 1")
        if self.r_max > len(self.contour.multipliers):
            raise SynthesisError(
                f"r_max = {self.r_max} exceeds the {len(self.contour.multipliers)} integration slots of the contour"
            )
        zs = tuple(complex(z) for z in self.z_samples)
        for z in zs:
            if not cmath.isfinite(z):
                raise SynthesisError(f"z sample {z} is not finite")
            if z.real >= 0 and abs(z.imag) < 1e-12:
                raise SynthesisError(f"z sample {z} lies on the singular ray R>=0")
        object.__setattr__(self, "z_samples", zs)


@dataclass
class NormalizerExpansion:
    """Assembled normalizer at one z sample, with per-norm diagnostics."""

    z: complex
    config: SynthesisConfig
    operator: DiffOperator
    d_operator: DiffOperator  # z-derivative of the mould side
    mould: Mould  # the jet-valued L the operators were assembled from
    tail_norms: dict  # norm n -> sum over ||F|| = n of |value| * ||B_F|| / |Aut F|

    def apply(self, f: TruncatedSeries) -> TruncatedSeries:
        return self.operator.apply(f)

    def inverse_operator(self) -> DiffOperator:
        return _invert_tangent_to_identity(self.operator, self.config.nu)

    def tail_ratios(self) -> dict:
        norms = sorted(self.tail_norms)
        out = {}
        for a, b in zip(norms, norms[1:]):
            if self.tail_norms[a] > 0:
                out[b] = self.tail_norms[b] / self.tail_norms[a]
        return out


def _invert_tangent_to_identity(op: DiffOperator, nu: int) -> DiffOperator:
    """Theta = Id + N with N raising the u-degree; invert by the finite
    Neumann sum sum_k (-N)^k within the degree cap."""
    n_part = (op - DiffOperator.identity()).truncate_u(nu)
    out = DiffOperator.identity()
    term = DiffOperator.identity()
    for _ in range(nu + 1):
        term = n_part.compose(term).scale(-1).truncate_u(nu)
        if term.is_zero():
            break
        out = out + term
    return out


def signed_monomial_mould(z: complex, c: float, spec: ContourSpec) -> Mould:
    """The ansatz mould L^w = (-1)^r (2 pi i)^{-r} Ue_c^w(z), i.e. the
    per-letter normalization MOULD_NORMALIZATION that makes the family
    symmetrel, valued in first-order jets L + dL eps (a ZSeries of cap 1, so
    eps^2 = 0) with dL the exact z-derivative."""

    def rule(w: Word):
        r = w.length
        if r == 0:
            return ZSeries.constant(1.0 + 0.0j, 1)
        nrm = complex(w.norm)
        expo = cmath.exp(nrm * z + c * c * nrm / z)
        ua = paralog_Ua_eval(w, z, c, spec)
        chain = nrm * (1.0 - c * c / (z * z))
        unit = MOULD_NORMALIZATION**r
        return ZSeries([unit * ua.value * expo, unit * (ua.derivative + chain * ua.value) * expo], 1)

    return Mould(rule, name=f"L(z={z},c={c})")


def build_theta(inv: InvariantFamily, cfg: SynthesisConfig) -> list[NormalizerExpansion]:
    """Assemble the normalizer and its z-derivative at every z sample as one
    forest sum: the simple arborified of (L o exp), in jets, paired with the
    homogeneous coarborified over the invariant support, each canonical forest
    weighted by 1/|Aut F|."""
    fam = inv.derivations()
    expansions = []
    support_letters = [letter(n) for n in inv.support]
    forests = forests_of_norm(support_letters, cfg.nu, max_nodes=cfg.r_max) if support_letters else []
    expm = builtin_mould("exp")
    for z in cfg.z_samples:
        ell = signed_monomial_mould(z, cfg.c, cfg.contour)
        arb = arborify(mould_compose(ell, expm), "simple")
        op = DiffOperator.identity()
        dop = DiffOperator.zero()
        tails: dict = {}
        for f in forests:
            kernel = coarborify_homogeneous(fam, f).operator()
            if kernel.is_zero():
                continue
            aut = f.automorphism_count()
            jet = arb.value(f)
            val, dval = complex(jet.coeff(0)), complex(jet.coeff(1))
            op = op + kernel.scale(val / aut)
            dop = dop + kernel.scale(dval / aut)
            n = int(f.norm.re)
            tails[n] = tails.get(n, 0.0) + abs(val) * restricted_norm(kernel, cfg.nu) / aut
        expansions.append(NormalizerExpansion(z=z, config=cfg, operator=op, d_operator=dop, mould=ell, tail_norms=tails))
    return expansions


@dataclass
class FieldSample:
    z: complex
    action_on_u: dict  # u-degree -> complex coefficient of X_c(u)
    derivation_defect: float
    automorphism_defect: float


@dataclass
class SynthesizedField:
    config: SynthesisConfig
    samples: list

    def max_relative_imag(self) -> float:
        worst = 0.0
        for s in self.samples:
            scale = max(abs(v) for v in s.action_on_u.values()) if s.action_on_u else 1.0
            for v in s.action_on_u.values():
                worst = max(worst, abs(v.imag) / scale)
        return worst


def automorphism_defect(exp: NormalizerExpansion, rng_seed: int = 11) -> float:
    """Max coefficient of Theta(fg) - Theta(f) Theta(g) on random series
    (NaN if any coefficient is NaN)."""
    rng = np.random.default_rng(rng_seed)
    nu = exp.config.nu
    diffs = []
    for _ in range(3):
        f = _random_series(rng, nu)
        g = _random_series(rng, nu)
        lhs = exp.apply(f * g)
        rhs = exp.apply(f) * exp.apply(g)
        diffs.append(lhs.max_abs_diff(rhs))
    return float(np.max(diffs))


def _random_series(rng, nu) -> TruncatedSeries:
    coeffs = {}
    for k in range(nu + 1):
        coeffs[(0, k)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / (1 + k)
    return TruncatedSeries(coeffs, 0, nu)


def conjugate_normal_field(exp: NormalizerExpansion) -> FieldSample:
    """X_c = Theta (d_z + u d_u) Theta^{-1} at the sample: the u-component is

        X_c(u) = [Theta o (u d_u) o Theta^{-1}](u) - [(d_z Theta) o Theta^{-1}](u)

    with d_z Theta from the exact z-derivative of the mould values.  At A = 0
    this is u exactly."""
    nu = exp.config.nu
    theta = exp.operator
    theta_inv = exp.inverse_operator()
    euler = DiffOperator({1: {1: 1.0 + 0.0j}})
    xc_op = theta.compose(euler).compose(theta_inv) - exp.d_operator.compose(theta_inv)
    xc_op = xc_op.truncate_u(nu)
    u_series = TruncatedSeries.u_power(1, 0, nu, coeff=1.0 + 0.0j)
    img = xc_op.apply(u_series)
    action = {k: complex(v) for (j, k), v in img.coeffs.items() if j == 0}
    # derivation defect on random series, NaN if any coefficient is NaN
    rng = np.random.default_rng(7)
    diffs = []
    for _ in range(3):
        f = _random_series(rng, nu)
        g = _random_series(rng, nu)
        lhs = xc_op.apply(f * g)
        rhs = xc_op.apply(f) * g + f * xc_op.apply(g)
        diffs.append(lhs.max_abs_diff(rhs))
    return FieldSample(
        z=exp.z,
        action_on_u=action,
        derivation_defect=float(np.max(diffs)),
        automorphism_defect=automorphism_defect(exp),
    )


def synthesize(inv: InvariantFamily, cfg: SynthesisConfig) -> SynthesizedField:
    expansions = build_theta(inv, cfg)
    return SynthesizedField(config=cfg, samples=[conjugate_normal_field(e) for e in expansions])


# ---------------------------------------------------------------------------
# convergence diagnostics
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceReport:
    c_values: tuple
    tail_norms: dict  # c -> {norm: tail}
    tail_ratios: dict  # c -> {norm: ratio}
    word_sums_by_length: dict  # c -> {r: sum of |L^w| ||A_w||}
    word_ratios: dict  # c -> {r: ratio}

    def __str__(self):
        lines = []
        for c in self.c_values:
            ratios = ", ".join(f"t{n}={v:.3g}" for n, v in sorted(self.tail_ratios[c].items()))
            wr = ", ".join(f"s{r}={v:.3g}" for r, v in sorted(self.word_ratios[c].items()))
            lines.append(f"c={c:g}: forest tail ratios {ratios}; word-length ratios {wr}")
        return "\n".join(lines)


def convergence_report(inv: InvariantFamily, cfg: SynthesisConfig, c_values: Sequence[float]) -> ConvergenceReport:
    """Per-norm forest tails and, for comparison, the plain word-sum organised
    by length r, whose r!-driven growth the arborified organisation removes."""
    tails: dict = {}
    ratios: dict = {}
    word_sums: dict = {}
    word_ratios: dict = {}
    fam = inv.derivations()
    sup_letters = [letter(n) for n in inv.support]
    for c in c_values:
        exps = build_theta(inv, replace(cfg, c=c))
        agg: dict = {}
        for e in exps:
            for n, t in e.tail_norms.items():
                agg[n] = max(agg.get(n, 0.0), t)
        tails[c] = agg
        norms = sorted(agg)
        ratios[c] = {b: agg[b] / agg[a] for a, b in zip(norms, norms[1:]) if agg[a] > 0}
        # word organisation: the signed mould build_theta used, against plain
        # compositions
        ws: dict = {}
        for e in exps:
            for w in words_of_norm_at_most(sup_letters, cfg.nu):
                if w.length > cfg.r_max:
                    continue
                weight = abs(complex(e.mould.value(w).coeff(0))) * restricted_norm(op_compose_word(fam, w), cfg.nu)
                r = w.length
                ws[r] = ws.get(r, 0.0) + weight
        word_sums[c] = ws
        rs = sorted(ws)
        word_ratios[c] = {b: ws[b] / ws[a] for a, b in zip(rs, rs[1:]) if ws[a] > 0}
    return ConvergenceReport(
        c_values=tuple(c_values),
        tail_norms=tails,
        tail_ratios=ratios,
        word_sums_by_length=word_sums,
        word_ratios=word_ratios,
    )


# ---------------------------------------------------------------------------
# linear Riemann-Hilbert demonstration (nu = 2, trivial formal monodromy)
# ---------------------------------------------------------------------------


@dataclass
class LinearRHReport:
    lambdas: tuple
    c: float
    term_norms: dict  # r -> matrix max-norm of the length-r layer
    geometric_decay: bool
    theta_matrix: np.ndarray

    def __str__(self):
        rows = ", ".join(f"T{r}={v:.4g}" for r, v in sorted(self.term_norms.items()))
        return f"linear RH c={self.c:g}: {rows}; geometric decay: {self.geometric_decay}"


def linear_rh_synthesize(
    lambdas: tuple,
    a12: complex,
    a21: complex,
    c: float,
    r_max: int = 4,
    z: complex = 2.4j,
    spec: ContourSpec | None = None,
) -> LinearRHReport:
    """Rank-two linear inverse problem: Borel singularities at
    omega_12 = lambda_1 - lambda_2 and omega_21 = -omega_12, data on the
    off-diagonal matrix units.  Plain mould-comould sum (no arborification):

        Theta_c = sum over words (-1)^r Ue_c^w(z) A_{w_r} ... A_{w_1}

    truncated at length r_max; reports the per-length matrix norms and
    whether they decay geometrically."""
    l1, l2 = (complex(x) for x in lambdas)
    if l1 == l2:
        raise SynthesisError("distinct eigenvalues required")
    om12 = l1 - l2
    om21 = -om12
    spec = spec or ContourSpec()
    mats = {om12: np.array([[0, a12], [0, 0]], dtype=complex), om21: np.array([[0, 0], [a21, 0]], dtype=complex)}
    z = complex(z)
    theta = np.eye(2, dtype=complex)
    term_norms: dict = {}
    for r in range(1, r_max + 1):
        layer = np.zeros((2, 2), dtype=complex)
        for bits in range(2**r):
            seq = [om12 if (bits >> k) & 1 else om21 for k in range(r)]
            prod = np.eye(2, dtype=complex)
            for om in seq:  # A_{w_r} ... A_{w_1}
                prod = mats[om] @ prod
            if not prod.any():
                continue
            ua = paralog_Ua_eval(seq, z, c, spec).value
            nrm = sum(seq)
            ue = ua * cmath.exp(nrm * z + c * c * nrm / z)
            layer += ((-1.0) ** r) * ue * prod
        term_norms[r] = float(np.max(np.abs(layer)))
        theta += layer
    norms = [term_norms[r] for r in sorted(term_norms) if term_norms[r] > 0]
    decay = all(b < a for a, b in zip(norms, norms[1:])) and bool(norms)
    return LinearRHReport(lambdas=(l1, l2), c=c, term_norms=term_norms, geometric_decay=decay, theta_matrix=theta)
