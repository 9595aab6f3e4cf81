"""Homogeneous derivations, comould composition, coarborification and exact
mould-comould contraction on truncated series.

Operators are finite sums c(u) d^k with polynomial coefficients, kept exact
so decomposition and Leibniz identities can be checked with equality.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .series import TruncatedSeries, UPoly, _poly_add, _poly_diff, _poly_mul, _poly_scale, _zero
from .words import (
    EMPTY_FOREST,
    Forest,
    Letter,
    Tree,
    Word,
    contracting_covers,
    forests_of_norm,
    letter,
)
from .moulds import Mould, ArMould, words_of_norm_at_most


class DiffOperator:
    """Finite sum over k of c_k(u) d^k, with exact or complex coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, UPoly] | None = None):
        self.terms: dict[int, UPoly] = {}
        if terms:
            for k, poly in terms.items():
                clean = {d: c for d, c in poly.items() if not _zero(c)}
                if clean:
                    self.terms[k] = clean

    @classmethod
    def identity(cls) -> "DiffOperator":
        return cls({0: {0: Fraction(1)}})

    @classmethod
    def zero(cls) -> "DiffOperator":
        return cls({})

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        out = {k: dict(p) for k, p in self.terms.items()}
        for k, p in other.terms.items():
            out[k] = _poly_add(out.get(k, {}), p)
        return DiffOperator(out)

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + other.scale(-1)

    def scale(self, s) -> "DiffOperator":
        return DiffOperator({k: _poly_scale(p, s) for k, p in self.terms.items()})

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """Operator product self o other: (self o other)(f) = self(other(f))."""
        out: dict[int, UPoly] = {}
        for k, a in self.terms.items():
            for m, b in other.terms.items():
                # d^k (b f^(m)) = sum_i C(k,i) b^(i) f^(k-i+m)
                for i in range(k + 1):
                    coeff = _binom(k, i)
                    poly = _poly_mul(a, _poly_scale(_poly_diff(b, i), coeff))
                    order = k - i + m
                    if poly:
                        out[order] = _poly_add(out.get(order, {}), poly)
        return DiffOperator(out)

    def apply_u_poly(self, f: UPoly, nu: int | None = None) -> UPoly:
        out: UPoly = {}
        for k, a in self.terms.items():
            fk = _poly_diff(f, k)
            for d, c in _poly_mul(a, fk).items():
                if nu is None or d <= nu:
                    out[d] = out.get(d, 0) + c
        return {k: c for k, c in out.items() if not _zero(c)}

    def apply(self, f: TruncatedSeries) -> TruncatedSeries:
        """Act on a truncated u-series, cut at its cap."""
        return TruncatedSeries(self.apply_u_poly(f.coeffs, nu=f.nu), f.nu)

    def truncate_u(self, nu: int) -> "DiffOperator":
        """Drop terms that cannot contribute below the u-degree cap."""
        out = {}
        for k, p in self.terms.items():
            keep = {d: c for d, c in p.items() if d - k <= nu}
            if keep:
                out[k] = keep
        return DiffOperator(out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        for k in keys:
            a, b = self.terms.get(k, {}), other.terms.get(k, {})
            degs = set(a) | set(b)
            if any(a.get(d, 0) != b.get(d, 0) for d in degs):
                return False
        return True

    def max_abs_diff(self, other: "DiffOperator") -> float:
        keys = set(self.terms) | set(other.terms)
        worst = 0.0
        for k in keys:
            a, b = self.terms.get(k, {}), other.terms.get(k, {})
            for d in set(a) | set(b):
                worst = max(worst, abs(complex(a.get(d, 0)) - complex(b.get(d, 0))))
        return worst

    def dump(self) -> list:
        """JSON-friendly: list of (order, [(degree, str(coeff)), ...])."""
        out = []
        for k in sorted(self.terms):
            poly = [(d, str(self.terms[k][d])) for d in sorted(self.terms[k])]
            out.append((k, poly))
        return out

    def __repr__(self):
        bits = []
        for k in sorted(self.terms):
            poly = " + ".join(f"({c})u^{d}" for d, c in sorted(self.terms[k].items()))
            bits.append(f"[{poly}] d^{k}")
        return " + ".join(bits) if bits else "0"


def _binom(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def restricted_norm(op: DiffOperator, nu: int) -> float:
    """Max-row-sum norm of the operator on the u-degree <= nu block."""
    rows: dict[int, float] = {}
    for j in range(nu + 1):
        img = op.apply_u_poly({j: 1}, nu=nu)
        for d, c in img.items():
            rows[d] = rows.get(d, 0.0) + abs(complex(c))
    return max(rows.values(), default=0.0)


# ---------------------------------------------------------------------------
# homogeneous derivations and comoulds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomDerivation:
    """beta * u^(n+1) * d/du: homogeneous of degree n >= 1 in the u-grading."""

    degree: int
    beta: object  # scalar coefficient

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("homogeneity degree must be >= 1")

    def beta_poly(self) -> UPoly:
        return {self.degree + 1: self.beta}

    def operator(self) -> DiffOperator:
        return DiffOperator({1: self.beta_poly()})


class DerivationFamily:
    """Indexed family n -> beta_n u^{n+1} d_u over positive integer letters."""

    def __init__(self, betas: Mapping[int, object]):
        self.betas = {int(n): b for n, b in betas.items()}
        if any(n < 1 for n in self.betas):
            raise ValueError("letters must be positive integers")

    def letters(self) -> list[Letter]:
        return [letter(n) for n in sorted(self.betas)]

    def beta_poly(self, n: int) -> UPoly:
        if n not in self.betas:
            raise KeyError(f"unknown letter {n} in derivation family")
        return {n + 1: self.betas[n]}

    def operator(self, n: int) -> DiffOperator:
        return DiffOperator({1: self.beta_poly(n)})


def op_compose_word(family: DerivationFamily, w: Word) -> DiffOperator:
    """Comould value B_w = B_{w_r} ... B_{w_1} (rightmost letter outermost);
    identity for the empty word."""
    op = DiffOperator.identity()
    for a in w:
        n = _as_int(a)
        op = family.operator(n).compose(op)
    return op


def _as_int(a: Letter) -> int:
    if not a.is_positive_integer:
        raise ValueError(f"letter {a} is not a positive integer")
    return int(a.value.re)


# ---------------------------------------------------------------------------
# coarborification
# ---------------------------------------------------------------------------


def coarborify_homogeneous(family: DerivationFamily, f: Forest) -> DiffOperator:
    """Homogeneous coarborified of a derivation family.

    Tree with root omega and child subtrees S_1..S_m:
        c_T = (c_{S_1} ... c_{S_m}) * (d^m beta_omega / du^m)
    Forest of trees T_1..T_k:  B_F = (c_{T_1} ... c_{T_k}) d^k.
    The u-degree of c_F is norm(F) + #trees exactly.
    """
    poly = {0: Fraction(1)}
    for t in f.trees:
        poly = _poly_mul(poly, _tree_coeff(family, t))
    return DiffOperator({len(f.trees): poly})


def _tree_coeff(family: DerivationFamily, t: Tree) -> UPoly:
    m = len(t.children.trees)
    beta = family.beta_poly(_as_int(t.root))
    acc = _poly_diff(beta, m)
    for s in t.children.trees:
        acc = _poly_mul(acc, _tree_coeff(family, s))
    return acc


def increasing_structures(w: Word) -> Counter:
    """Forests on the positions of w whose partial order is extended by the
    position order: each position's parent is an earlier position or a root.
    Returns canonical forests counted with structure multiplicity; this is
    the exact bookkeeping of Cayley's decomposition of B_{w_r}...B_{w_1}."""
    r = w.length
    out: Counter = Counter()
    if r == 0:
        out[EMPTY_FOREST] += 1
        return out

    def build(parents: tuple) -> Forest:
        kids: dict[int, list[int]] = {i: [] for i in range(r)}
        roots = []
        for i, p in enumerate(parents):
            if p is None:
                roots.append(i)
            else:
                kids[p].append(i)

        def mk(i: int) -> Tree:
            return Tree(w[i], Forest(tuple(mk(j) for j in kids[i])))

        return Forest(tuple(mk(i) for i in roots))

    def rec(i: int, parents: tuple):
        if i == r:
            out[build(parents)] += 1
            return
        rec(i + 1, parents + (None,))
        for p in range(i):
            rec(i + 1, parents + (p,))

    rec(0, ())
    return out


@dataclass
class DecompositionReport:
    passed: bool
    words_checked: int
    worst_violation: float
    first_violation: Word | None = None

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        s = f"[{status}] coarborified decomposition: {self.words_checked} words, worst {self.worst_violation:.3e}"
        if self.first_violation is not None:
            s += f", first at {self.first_violation}"
        return s


def check_coarborified_decomposition(family: DerivationFamily, cap: int, letters: Sequence[Letter] | None = None) -> DecompositionReport:
    """Verify B_w = sum over forests admitting w as a linear extension of B_F,
    with each increasing structure on the positions counted once (equivalently
    bijection count / |Aut F|), exactly as operators."""
    letters = list(letters) if letters is not None else family.letters()
    worst = 0.0
    first = None
    count = 0
    from .moulds import words_over

    for w in words_over(letters, cap):
        count += 1
        lhs = op_compose_word(family, w)
        rhs = DiffOperator.zero()
        for f, mult in increasing_structures(w).items():
            rhs = rhs + coarborify_homogeneous(family, f).scale(mult)
        if lhs != rhs:
            v = lhs.max_abs_diff(rhs)
            if v > worst:
                worst = v
                first = first or w
    return DecompositionReport(worst == 0.0, count, worst, first)


@dataclass
class CoseparativityReport:
    passed: bool
    forests_checked: int
    worst_violation: float
    first_violation: Forest | None = None

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        s = f"[{status}] coseparative: {self.forests_checked} forests, worst {self.worst_violation:.3e}"
        if self.first_violation is not None:
            s += f", first at {self.first_violation}"
        return s


def check_coseparative(family: DerivationFamily, cap: int, f: TruncatedSeries, g: TruncatedSeries) -> CoseparativityReport:
    """Verify B_F(fg) = sum over ordered splittings F = F' F'' of B_{F'}(f) B_{F''}(g).

    Splittings enumerate complementary sub-multisets with binomial
    multiplicity (trees treated as distinguishable slots), matching the
    product rule of d^k on fg.
    """
    letters = family.letters()
    worst = 0.0
    first = None
    count = 0
    for forest_ in [EMPTY_FOREST] + forests_of_norm(letters, cap, max_nodes=cap):
        count += 1
        lhs = coarborify_homogeneous(family, forest_).apply(f * g)
        rhs = TruncatedSeries({}, f.nu)
        trees = forest_.trees
        for mask in range(1 << len(trees)):
            left = Forest(tuple(t for i, t in enumerate(trees) if mask & (1 << i)))
            right = Forest(tuple(t for i, t in enumerate(trees) if not mask & (1 << i)))
            fl = coarborify_homogeneous(family, left).apply(f)
            fr = coarborify_homogeneous(family, right).apply(g)
            rhs = rhs + fl * fr
        if lhs != rhs:
            v = lhs.max_abs_diff(rhs)
            if v > worst:
                worst = v
                first = first or forest_
    return CoseparativityReport(worst == 0.0, count, worst, first)


# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------


def contract_word_sum(m: Mould, family: DerivationFamily, norm_cap: int) -> DiffOperator:
    """Phi = sum over words of norm <= cap of M^w B_w; homogeneity makes the
    sum finite under the u-degree cap.  Includes the empty word."""
    out = DiffOperator.identity().scale(m.value(Word(())))
    for w in words_of_norm_at_most(family.letters(), norm_cap):
        val = m.value(w)
        if _zero(val):
            continue
        out = out + op_compose_word(family, w).scale(val)
    return out


def contract_forest_sum(
    a: ArMould,
    family: DerivationFamily,
    norm_cap: int,
    mode: str = "simple",
    counting: str = "merges",
) -> DiffOperator:
    """Phi = sum over canonical forests of A^F B_F.

    mode='simple': B_F is the homogeneous coarborified divided by |Aut F|
    (the symmetry factor restores the bijection counting used by the simple
    arborified, so the sum equals the word sum for every mould).

    mode='contracting': B_F is the contracted coarborified solved from the
    cover decomposition with the same ``counting`` convention as the
    arborified; the sum then equals the word sum for every mould.
    """
    letters = family.letters()
    out = DiffOperator.identity().scale(a.value(EMPTY_FOREST))
    if mode == "simple":
        for f in forests_of_norm(letters, norm_cap):
            val = a.value(f)
            if _zero(val):
                continue
            kernel = coarborify_homogeneous(family, f)
            out = out + kernel.scale(val * Fraction(1, f.automorphism_count()))
        return out
    if mode != "contracting":
        raise ValueError(f"unknown contraction mode {mode!r}")
    duals = coarborify_contracted(family, norm_cap, counting=counting)
    for f, op in duals.items():
        val = a.value(f)
        if _zero(val):
            continue
        out = out + op.scale(val)
    return out


def coarborify_contracted(family: DerivationFamily, norm_cap: int, counting: str = "merges") -> dict[Forest, DiffOperator]:
    """Contracted coarborified of the word comould: operators Bt_F with

        B_w = sum over forests F covering w of mult(w, F) Bt_F

    for every word w of norm <= cap, where mult is the contracting-cover
    multiplicity in the chosen counting.  The decomposition is not unique;
    the node-count-descending layerwise solve below picks the minimum-norm
    solution of each layer and verifies the decomposition afterwards,
    raising if the system were inconsistent.
    """
    # forests decorated by all positive integers up to the norm cap
    all_letters = [letter(n) for n in range(1, norm_cap + 1)]
    forests = forests_of_norm(all_letters, norm_cap)
    words = words_of_norm_at_most(all_letters, norm_cap)
    cover_mult: dict[Forest, Counter] = {f: contracting_covers(f, counting=counting) for f in forests}

    def b_word(w: Word) -> DiffOperator:
        betas = family.betas
        if any(_as_int(x) not in betas for x in w):
            return DiffOperator.zero()
        return op_compose_word(family, w)

    solution: dict[Forest, DiffOperator] = {}
    for norm in range(1, norm_cap + 1):
        layer_words = [w for w in words if int(w.norm.re) == norm]
        layer_forests = [f for f in forests if int(f.norm.re) == norm]
        max_nodes = max((f.node_count for f in layer_forests), default=0)
        for nodes in range(max_nodes, 0, -1):
            eq_words = [w for w in layer_words if w.length == nodes]
            unknowns = [f for f in layer_forests if f.node_count == nodes]
            if not unknowns:
                continue
            rhs = []
            for w in eq_words:
                acc = b_word(w)
                for f in layer_forests:
                    if f.node_count > nodes:
                        mult = cover_mult[f].get(w, 0)
                        if mult:
                            acc = acc - solution[f].scale(mult)
                rhs.append(acc)
            matrix = [[Fraction(cover_mult[f].get(w, 0)) for f in unknowns] for w in eq_words]
            for f, op in zip(unknowns, _min_norm_solve(matrix, rhs)):
                solution[f] = op
    # consistency: the decomposition must hold exactly for every word
    for w in words:
        acc = b_word(w)
        for f in forests:
            mult = cover_mult[f].get(w, 0)
            if mult:
                acc = acc - solution[f].scale(mult)
        if not acc.is_zero():
            raise ArithmeticError(f"contracted coarborification inconsistent at {w}")
    return solution


def _min_norm_solve(matrix: list[list[Fraction]], rhs: list[DiffOperator]) -> list[DiffOperator]:
    """Minimum-norm solution x = A^T (A A^T)^{-1} b with operator-valued b.

    A is a small exact integer matrix (words x forests) of cover counts;
    A A^T is symmetric positive definite when the rows are independent,
    which holds for cover-multiplicity systems.
    """
    rows = len(matrix)
    if rows == 0:
        return [DiffOperator.zero() for _ in range(0)]
    cols = len(matrix[0])
    gram = [[sum(matrix[i][k] * matrix[j][k] for k in range(cols)) for j in range(rows)] for i in range(rows)]
    inv = _fraction_inverse(gram)
    # y = (A A^T)^{-1} b  (operator-valued), then x = A^T y
    y = []
    for i in range(rows):
        acc = DiffOperator.zero()
        for j in range(rows):
            if inv[i][j]:
                acc = acc + rhs[j].scale(inv[i][j])
        y.append(acc)
    out = []
    for k in range(cols):
        acc = DiffOperator.zero()
        for i in range(rows):
            if matrix[i][k]:
                acc = acc + y[i].scale(matrix[i][k])
        out.append(acc)
    return out


def _fraction_inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular cover system; rows are dependent")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
