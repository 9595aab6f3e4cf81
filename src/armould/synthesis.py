"""Saddle-node synthesis: from prescribed invariants to the truncated
normalizer, the conjugated field, convergence diagnostics, and the linear
Riemann-Hilbert demonstration.

The normalizer at parameter c and sample z is the mould-comould contraction

    Theta = Id + sum over canonical forests F of (L o exp)^F_arb B_F / |Aut F|

with L^w = (-1)^r (2 pi i)^{-r} Ue_c^w(z) the paralogarithmic monomials
normalized per letter so that L is symmetrel, exp the mould 1/r!, the simple
arborified on the mould side, and B_F the homogeneous coarborified of the
derivations A_n u^{n+1} d_u; Theta is an algebra automorphism up to
quadrature error.  The mould side is linear in L, so Theta splits into a
z-free part, built once per synthesis (per forest: B_F, 1/|Aut F| and the
row C[F, .] of coefficients of (L o exp)^F_arb on the words L is asked for),
and the vector of L values at each z sample:

    Theta(z) = Id + sum_F (C L(z))_F B_F / |Aut F|,

with d_z Theta the same sum over the exact z-derivatives dL.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import Sequence

import numpy as np

from .moulds import Mould, arborify, builtin_mould, mould_compose
from .monomials import ContourError, ContourSpec, MOULD_NORMALIZATION, _check_z, _ue_factor, paralog_batch_eval
from .operators import (
    DerivationFamily,
    DiffOperator,
    _linear_combination,
    coarborify_homogeneous,
    op_compose_word,
    restricted_norm,
)
from .series import TruncatedSeries
from .values import _set
from .words import Word, count_forests, forests_of_norm, words_of_norm_at_most

# _forest_rows refuses caps whose forest sum has more canonical forests than
# this; besides the quadrature, a synthesis costs about 0.5 ms per forest
# once (its z-free forest rows) plus about 0.02 ms per forest and z sample.
MAX_FORESTS = 20_000

# the largest automorphism and derivation defect a synthesized field may have
DEFECT_TOL = 1e-6


class SynthesisError(ValueError):
    pass


def _refuse(check, *args):
    """A monomials input check, failing with a SynthesisError."""
    try:
        check(*args)
    except ContourError as exc:
        raise SynthesisError(str(exc)) from None


class InvariantFamily:
    """Prescribed invariants n -> A_n (finite support in Z>=1) with a declared
    exponential growth bound |A_n| <= H^n.  Immutable."""

    __slots__ = ("coefficients", "growth_bound")

    def __init__(self, coefficients: dict, growth_bound: float = 1.0):
        coeffs = {int(n): complex(a) for n, a in coefficients.items() if complex(a) != 0}
        if any(n < 1 for n in coeffs):
            raise SynthesisError("invariants are indexed by positive integers (A_{-1} = 0 throughout)")
        h = growth_bound
        if not (math.isfinite(h) and h > 0):
            raise SynthesisError(f"growth bound H = {h} must be a finite positive number")
        for n, a in coeffs.items():
            if not cmath.isfinite(a):
                raise SynthesisError(f"A_{n} = {a} is not finite")
            # in logarithms: an H^n too large for a float bounds every finite A_n
            if math.log(abs(a)) > n * math.log(h) + 1e-12:
                raise SynthesisError(f"|A_{n}| = {abs(a)} exceeds declared bound H^n at H = {h}, n = {n}")
        _set(self, "coefficients", coeffs)
        _set(self, "growth_bound", growth_bound)

    def __setattr__(self, name, value):
        raise AttributeError("InvariantFamily is immutable")

    def __reduce__(self):
        return (InvariantFamily, (self.coefficients, self.growth_bound))

    def derivations(self) -> DerivationFamily:
        return DerivationFamily(self.coefficients)


class SynthesisConfig:
    __slots__ = ("c", "nu", "r_max", "z_samples")

    def __init__(self, c: float, nu: int = 6, r_max: int = 4, z_samples: tuple = (-2.0,)):
        if nu < 1 or r_max < 1:
            raise SynthesisError(f"caps nu = {nu} and r_max = {r_max} must both be >= 1")
        _refuse(ContourSpec().check_slots, r_max, f"r_max = {r_max}")
        zs = tuple(complex(z) for z in z_samples)
        if not zs:
            raise SynthesisError("a synthesis needs at least one z sample")
        for z in zs:
            # every decoration a synthesis evaluates is a positive integer at
            # most nu: they share the singular ray R+, and nu is the largest
            _refuse(_check_z, z, c, (complex(nu),))
            # so is every word norm, and |exp(n (z + c^2/z))| is largest at
            # n = nu wherever it can overflow
            try:
                finite = cmath.isfinite(_ue_factor(complex(nu), z, c))
            except OverflowError:
                finite = False
            if not finite:
                raise SynthesisError(f"c = {c} and z = {z}: the Ue factor exp(nu (z + c^2/z)) overflows at norm nu = {nu}")
        _set(self, "c", c)
        _set(self, "nu", nu)
        _set(self, "r_max", r_max)
        _set(self, "z_samples", zs)

    def __setattr__(self, name, value):
        raise AttributeError("SynthesisConfig is immutable")

    def __reduce__(self):
        return (SynthesisConfig, (self.c, self.nu, self.r_max, self.z_samples))


class NormalizerExpansion:
    """Assembled normalizer at one z sample, with per-norm diagnostics."""

    def __init__(self, z: complex, config: SynthesisConfig, operator: DiffOperator, d_operator: DiffOperator, ell: dict, tail_norms: dict):
        self.z = z
        self.config = config
        self.operator = operator
        self.d_operator = d_operator  # z-derivative of the mould side
        self.ell = ell  # word -> L^w at z, for every word the forest rows ask for
        self.tail_norms = tail_norms  # norm n -> sum over ||F|| = n of |value| * ||B_F|| / |Aut F|

    def inverse_operator(self) -> DiffOperator:
        return _invert_tangent_to_identity(self.operator, self.config.nu)

    def tail_ratios(self) -> dict:
        return _consecutive_ratios(self.tail_norms)


def _max_per_key(tables) -> dict:
    """key -> the largest value under that key over the tables; np.max,
    unlike max(), keeps a NaN."""
    per_key: dict = {}
    for table in tables:
        for k, v in table.items():
            per_key.setdefault(k, []).append(v)
    return {k: float(np.max(vs)) for k, vs in per_key.items()}


def _consecutive_ratios(sums: dict) -> dict:
    """b -> sums[b] / sums[a] over consecutive keys a < b with sums[a] != 0;
    a NaN sum gives NaN ratios."""
    keys = sorted(sums)
    return {b: sums[b] / sums[a] for a, b in zip(keys, keys[1:]) if sums[a] != 0}


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


class _LinearForm(dict):
    """Sparse linear form in the L values, column -> float coefficient; it
    adds and scales by numbers, which is all that mould composition and
    arborification ask of mould values."""

    def __add__(self, other: "_LinearForm") -> "_LinearForm":
        out = _LinearForm(self)
        for j, x in other.items():
            out[j] = out.get(j, 0.0) + x
        return out

    def __mul__(self, s) -> "_LinearForm":
        s = float(s)
        return _LinearForm({j: x * s for j, x in self.items()})


def _forest_rows(fam: DerivationFamily, nu: int, r_max: int) -> tuple[list[Word], list[tuple]]:
    """The z-free side of the forest sum: the words L is asked for and, per
    canonical forest F with a nonzero kernel, the row (B_F, |Aut F|,
    restricted_norm(B_F, nu), ||F||, cols, coefs) with

        (L o exp)^F_arb = sum_i coefs[i] L^{words[cols[i]]}.

    The rows are the simple arborified of (E o exp), E^w the unit linear
    form on w, evaluated once per synthesis.  Caps whose forest sum would
    hold more than MAX_FORESTS forests are refused before any row is built."""
    n_forests = count_forests(fam.letters(), nu, r_max)
    if n_forests > MAX_FORESTS:
        raise SynthesisError(
            f"caps nu = {nu}, r_max = {r_max} on the support {sorted(fam.betas)} give {n_forests} forests,"
            f" above the limit MAX_FORESTS = {MAX_FORESTS}"
        )
    index: dict = {}
    unit = Mould(lambda w: _LinearForm({index.setdefault(w, len(index)): 1.0}))
    arborified = arborify(mould_compose(unit, builtin_mould("exp")), "simple")
    rows = []
    for f in forests_of_norm(fam.letters(), nu, max_nodes=r_max):
        kernel = coarborify_homogeneous(fam, f)
        if not kernel.is_zero():
            form = arborified.value(f)
            cols = np.fromiter(form.keys(), dtype=np.intp, count=len(form))
            coefs = np.fromiter(form.values(), dtype=float, count=len(form))
            rows.append((kernel, f.automorphism_count(), restricted_norm(kernel, nu), int(f.norm.re), cols, coefs))
    return list(index), rows


def _signed_monomials(words: list[Word], cfg: SynthesisConfig) -> list[tuple[dict, dict]]:
    """L^w = (-1)^r (2 pi i)^{-r} Ue_c^w(z), i.e. the per-letter
    normalization MOULD_NORMALIZATION that makes the family symmetrel, and
    its exact z-derivative dL^w, for the given words at every z sample, from
    one paralog_batch_eval."""
    c = cfg.c
    tables: list[tuple[dict, dict]] = [({}, {}) for _ in cfg.z_samples]
    for w, row in zip(words, paralog_batch_eval(words, cfg.z_samples, c)):
        nrm = complex(w.norm)
        unit = MOULD_NORMALIZATION**w.length
        for (ell, d_ell), z, ua in zip(tables, cfg.z_samples, row):
            expo = _ue_factor(nrm, z, c)
            ell[w] = unit * ua.value * expo
            d_ell[w] = unit * (ua.derivative + nrm * (1.0 - c * c / (z * z)) * ua.value) * expo
    return tables


def build_theta(inv: InvariantFamily, cfg: SynthesisConfig) -> list[NormalizerExpansion]:
    """Assemble the normalizer and its z-derivative at every z sample: the
    z-free forest rows are built once, then assembled at (cfg.c, z)."""
    return _assemble(cfg, *_forest_rows(inv.derivations(), cfg.nu, cfg.r_max))


def _assemble(cfg: SynthesisConfig, words: list[Word], rows: list[tuple]) -> list[NormalizerExpansion]:
    """The normalizer at c = cfg.c and every z sample from the z-free forest
    rows: the L values the rows ask for are computed, and each z sample sums
    every row against its L and dL values, each forest weighted by
    1/|Aut F|."""
    expansions = []
    for z, (ell, d_ell) in zip(cfg.z_samples, _signed_monomials(words, cfg)):
        vec = np.array([(ell[w], d_ell[w]) for w in words], dtype=complex).reshape(-1, 2)
        terms, d_terms, tails = [], [], {}
        for kernel, aut, kernel_norm, n, cols, coefs in rows:
            # a row sums over its own nonzeros only, so a NaN L value stays
            # in the forests whose rows use it
            val, dval = (coefs @ vec[cols]).tolist()
            terms.append((val / aut, kernel))
            d_terms.append((dval / aut, kernel))
            tails[n] = tails.get(n, 0.0) + abs(val) * kernel_norm / aut
        op = DiffOperator.identity() + _linear_combination(terms)
        dop = _linear_combination(d_terms)
        expansions.append(NormalizerExpansion(z=z, config=cfg, operator=op, d_operator=dop, ell=ell, tail_norms=tails))
    return expansions


class FieldSample:
    def __init__(self, z: complex, action_on_u: dict, derivation_defect: float, automorphism_defect: float):
        self.z = z
        self.action_on_u = action_on_u  # u-degree -> complex coefficient of X_c(u)
        self.derivation_defect = derivation_defect
        self.automorphism_defect = automorphism_defect


class SynthesizedField:
    def __init__(self, config: SynthesisConfig, samples: list, tail_ratios: dict, failures: list):
        self.config = config
        self.samples = samples
        self.tail_ratios = tail_ratios  # norm -> largest tail ratio over the z samples
        self.failures = failures  # (check, value, tolerance) for every failed check

    def worst_defects(self) -> dict:
        """Defect name -> its largest value over the z samples, a NaN kept."""
        return {d: float(np.max([getattr(s, d) for s in self.samples], initial=0.0)) for d in ("automorphism_defect", "derivation_defect")}

    def max_relative_imag(self) -> float:
        """Largest |Im| over the largest |coefficient| of a sample; NaN if any
        coefficient is NaN."""
        ratios = []
        for s in self.samples:
            scale = float(np.max([abs(v) for v in s.action_on_u.values()])) if s.action_on_u else 1.0
            ratios.extend(abs(v.imag) / scale for v in s.action_on_u.values())
        return float(np.max(ratios, initial=0.0))


def automorphism_defect(exp: NormalizerExpansion) -> float:
    """Max coefficient of Theta(fg) - Theta(f) Theta(g) on random series
    (NaN if any coefficient is NaN)."""
    return _sampled_defect(11, exp.config.nu, lambda f, g: (exp.operator.apply(f * g), exp.operator.apply(f) * exp.operator.apply(g)))


def _sampled_defect(seed: int, nu: int, identity) -> float:
    """Max coefficient difference of the two sides identity(f, g) returns,
    over three pairs of random series drawn by random.Random(seed); NaN if
    any difference is NaN."""
    rng = random.Random(seed)
    pairs = [(_random_series(rng, nu), _random_series(rng, nu)) for _ in range(3)]
    return float(np.max([lhs.max_abs_diff(rhs) for lhs, rhs in (identity(f, g) for f, g in pairs)]))


def _random_series(rng, nu) -> TruncatedSeries:
    coeffs = {}
    for k in range(nu + 1):
        coeffs[k] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / (1 + k)
    return TruncatedSeries(coeffs, nu)


def conjugate_normal_field(exp: NormalizerExpansion) -> FieldSample:
    """X_c = Theta (d_z + u d_u) Theta^{-1} at the sample, by its action

        X_c(h) = Theta(u d_u (Theta^{-1} h)) - (d_z Theta)(Theta^{-1} h)

    on u-series cut at nu (no operator here lowers the u-degree), with d_z
    Theta from the exact z-derivative of the mould values.  At A = 0,
    X_c(u) = u exactly."""
    nu = exp.config.nu
    theta_inv = exp.inverse_operator()
    euler = DiffOperator({(1, 1): 1.0 + 0.0j})

    def field(h: TruncatedSeries) -> TruncatedSeries:
        g = theta_inv.apply(h)
        return exp.operator.apply(euler.apply(g)) - exp.d_operator.apply(g)

    img = field(TruncatedSeries.u_power(1, nu, coeff=1.0 + 0.0j))
    return FieldSample(
        z=exp.z,
        action_on_u={k: complex(v) for k, v in img.coeffs.items()},
        derivation_defect=_sampled_defect(7, nu, lambda f, g: (field(f * g), field(f) * g + f * field(g))),
        automorphism_defect=automorphism_defect(exp),
    )


def synthesize(inv: InvariantFamily, cfg: SynthesisConfig) -> SynthesizedField:
    """The conjugated field at every z sample, the per-norm tail ratios, each
    the largest over the z samples, and a failure record per failed check: a
    defect above DEFECT_TOL or a non-finite coefficient of X_c(u)."""
    expansions = build_theta(inv, cfg)
    field = SynthesizedField(cfg, [conjugate_normal_field(e) for e in expansions], _max_per_key(e.tail_ratios() for e in expansions), [])
    # "not <=" so that a NaN defect fails
    field.failures += [(check, worst, DEFECT_TOL) for check, worst in field.worst_defects().items() if not worst <= DEFECT_TOL]
    non_finite = sum(not cmath.isfinite(v) for s in field.samples for v in s.action_on_u.values())
    if non_finite:
        field.failures.append(("finite_coefficient_rows", non_finite, 0))
    return field


# ---------------------------------------------------------------------------
# convergence diagnostics
# ---------------------------------------------------------------------------


class ConvergenceReport:
    def __init__(self, c_values: tuple, tail_norms: dict, tail_ratios: dict, word_sums_by_length: dict, word_ratios: dict):
        self.c_values = c_values
        self.tail_norms = tail_norms  # c -> {norm: tail}
        self.tail_ratios = tail_ratios  # c -> {norm: ratio}
        self.word_sums_by_length = word_sums_by_length  # c -> {r: sum of |L^w| ||A_w||}
        self.word_ratios = word_ratios  # c -> {r: ratio}


def convergence_report(inv: InvariantFamily, cfg: SynthesisConfig, c_values: Sequence[float]) -> ConvergenceReport:
    """Per-norm forest tails and, for comparison, the plain word-sum organised
    by length r, whose r!-driven growth the arborified organisation removes.
    The z-free forest rows are built once for the whole c grid, after every
    per-c config has been checked."""
    tails: dict = {}
    word_sums: dict = {}
    cfgs = [SynthesisConfig(c, cfg.nu, cfg.r_max, cfg.z_samples) for c in c_values]
    fam = inv.derivations()
    forest_rows = _forest_rows(fam, cfg.nu, cfg.r_max)
    # the word organisation weighs L^w by ||B_w||, which is free of c and z
    words = [w for w in words_of_norm_at_most(fam.letters(), cfg.nu) if w.length <= cfg.r_max]
    word_norms = [restricted_norm(op_compose_word(fam, w), cfg.nu) for w in words]
    for c, c_cfg in zip(c_values, cfgs):
        exps = _assemble(c_cfg, *forest_rows)
        tails[c] = _max_per_key(e.tail_norms for e in exps)
        ws: dict = {}
        for e in exps:
            for w, nrm in zip(words, word_norms):
                ws[w.length] = ws.get(w.length, 0.0) + abs(e.ell[w]) * nrm
        word_sums[c] = ws
    return ConvergenceReport(
        c_values=tuple(c_values),
        tail_norms=tails,
        tail_ratios={c: _consecutive_ratios(t) for c, t in tails.items()},
        word_sums_by_length=word_sums,
        word_ratios={c: _consecutive_ratios(ws) for c, ws in word_sums.items()},
    )


# ---------------------------------------------------------------------------
# linear Riemann-Hilbert demonstration (nu = 2, trivial formal monodromy)
# ---------------------------------------------------------------------------


class LinearRHReport:
    def __init__(self, lambdas: tuple, c: float, term_norms: dict, geometric_decay: bool, theta_matrix: np.ndarray):
        self.lambdas = lambdas
        self.c = c
        self.term_norms = term_norms  # r -> matrix max-norm of the length-r layer
        self.geometric_decay = geometric_decay
        self.theta_matrix = theta_matrix


def linear_rh_synthesize(lambdas: tuple, a12: complex, a21: complex, c: float, r_max: int = 4) -> LinearRHReport:
    """Rank-two linear inverse problem: Borel singularities at
    omega_12 = lambda_1 - lambda_2 and omega_21 = -omega_12, data on the
    off-diagonal matrix units.  Plain mould-comould sum (no arborification):

        Theta_c = sum over words (-1)^r Ue_c^w(z) A_{w_r} ... A_{w_1}

    at z = 2.4i, truncated at length r_max; reports the per-length matrix
    norms and whether they decay geometrically."""
    l1, l2 = (complex(x) for x in lambdas)
    for name, v in (("lambda1", l1), ("lambda2", l2), ("a12", a12), ("a21", a21)):
        if not cmath.isfinite(v):
            raise SynthesisError(f"{name} = {v} is not finite")
    if l1 == l2:
        raise SynthesisError("distinct eigenvalues required")
    om12 = l1 - l2
    if not cmath.isfinite(om12):
        raise SynthesisError(f"omega_12 = lambda1 - lambda2 = {om12} is not finite")
    if r_max < 1:
        raise SynthesisError(f"r_max = {r_max} must be >= 1")
    _refuse(ContourSpec().check_slots, r_max, f"r_max = {r_max}")
    om21 = -om12
    z = 2.4j
    _refuse(_check_z, z, c, (om12, om21))
    # a term too large for a float is refused, not carried as inf or NaN
    with np.errstate(over="raise", invalid="raise"):
        try:
            mats = {om12: np.array([[0, a12], [0, 0]], dtype=complex), om21: np.array([[0, 0], [a21, 0]], dtype=complex)}
            # A_12 and A_21 are nilpotent matrix units, so A_{w_r} ... A_{w_1} is zero
            # unless w alternates: per length, the one ending in omega_21, then omega_12
            terms = []
            for r in range(1, r_max + 1):
                for last, other in ((om21, om12), (om12, om21)):
                    seq = ((other, last) * r)[-r:]
                    prod = np.eye(2, dtype=complex)
                    for om in seq:  # A_{w_r} ... A_{w_1}
                        prod = mats[om] @ prod
                    if prod.any():
                        terms.append((r, seq, prod))
            layers = {r: np.zeros((2, 2), dtype=complex) for r in range(1, r_max + 1)}
            for (r, seq, prod), (ua,) in zip(terms, paralog_batch_eval([seq for _, seq, _ in terms], [z], c)):
                layers[r] += ((-1.0) ** r) * (ua.value * _ue_factor(sum(seq), z, c)) * prod
            theta = np.eye(2, dtype=complex)
            for layer in layers.values():  # in r order
                theta += layer
        except FloatingPointError:
            raise SynthesisError(f"the terms overflow at a12 = {a12}, a21 = {a21}, c = {c}, r_max = {r_max}") from None
    term_norms = {r: float(np.max(np.abs(layer))) for r, layer in layers.items()}
    norms = [term_norms[r] for r in sorted(term_norms) if term_norms[r] > 0]
    decay = all(b < a for a, b in zip(norms, norms[1:])) and bool(norms)
    return LinearRHReport(lambdas=(l1, l2), c=c, term_norms=term_norms, geometric_decay=decay, theta_matrix=theta)
