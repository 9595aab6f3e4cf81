"""Homogeneous derivations, comould composition, coarborification and exact
mould-comould contraction on truncated series.

Operators are finite sums c(u) d^k with polynomial coefficients, kept exact
so decomposition and Leibniz identities can be checked with equality.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping

from .values import GaussianRational, _zero, sparse_sum
from .series import TruncatedSeries, UPoly
from .words import (
    EMPTY_FOREST,
    EMPTY_WORD,
    Forest,
    Word,
    _forest,
    _forests,
    contracting_covers,
    forests_of_norm,
    letter,
    words_of_norm_at_most,
)
from .moulds import ArMould, Mould


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

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        return _linear_combination([(1, self), (1, other)])

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return _linear_combination([(1, self), (-1, other)])

    def scale(self, s) -> "DiffOperator":
        return _linear_combination([(s, self)])

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """Operator product self o other: (self o other)(f) = self(other(f)).

        By Leibniz, a d^k o b d^m = sum_i C(k,i) a b^(i) d^(k-i+m), with
        d^i u^e = e!/(e-i)! u^(e-i): one sparse sum per group (k, m, i),
        then one over the groups."""
        groups = []
        for k, a in self.terms.items():
            for m, b in other.terms.items():
                for i in range(k + 1):
                    order, comb = k - i + m, math.comb(k, i)
                    bi = {e - i: c * (comb * math.perm(e, i)) for e, c in b.items() if e >= i}
                    groups.append((1, sparse_sum((ca, {(order, d + e): c for e, c in bi.items()}) for d, ca in a.items())))
        return _operator(sparse_sum(groups))

    def apply_u_poly(self, f: UPoly, nu: int | None = None) -> UPoly:
        """The image of a u-polynomial, cut at degree nu if one is given:
        a d^k u^e = e!/(e-k)! a u^(e-k), all in one sparse sum."""
        terms = []
        for k, a in self.terms.items():
            fk = {e - k: c * math.perm(e, k) for e, c in f.items() if e >= k}
            terms += [(ca, {d + e: c for e, c in fk.items() if nu is None or d + e <= nu}) for d, ca in a.items()]
        return sparse_sum(terms)

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

    def items(self):
        """((order, degree), coefficient) pairs: the operator as a sparse vector."""
        return (((k, d), c) for k, poly in self.terms.items() for d, c in poly.items())

    def dump(self) -> list:
        """JSON-friendly: list of (order, [(degree, str(coeff)), ...])."""
        return [(k, [(d, str(self.terms[k][d])) for d in sorted(self.terms[k])]) for k in sorted(self.terms)]

    def __repr__(self):
        polys = {k: " + ".join(f"({c})u^{d}" for d, c in sorted(p.items())) for k, p in self.terms.items()}
        return " + ".join(f"[{polys[k]}] d^{k}" for k in sorted(polys)) or "0"


def restricted_norm(op: DiffOperator, nu: int) -> float:
    """Max-row-sum norm of the operator on the u-degree <= nu block."""
    images = [op.apply_u_poly({j: 1}, nu=nu) for j in range(nu + 1)]
    rows = sparse_sum((1, {d: abs(complex(c)) for d, c in img.items()}) for img in images)
    return max(rows.values(), default=0.0)


# ---------------------------------------------------------------------------
# homogeneous derivations and comoulds
# ---------------------------------------------------------------------------


class DerivationFamily:
    """Indexed family n -> beta_n u^{n+1} d_u over positive integer letters."""

    def __init__(self, betas: Mapping[int, object]):
        self.betas = {int(n): b for n, b in betas.items()}
        if any(n < 1 for n in self.betas):
            raise ValueError("letters must be positive integers")

    def letters(self) -> list[GaussianRational]:
        return [letter(n) for n in sorted(self.betas)]

    def beta(self, n: int):
        if n not in self.betas:
            raise KeyError(f"unknown letter {n} in derivation family")
        return self.betas[n]

    def operator(self, n: int) -> DiffOperator:
        return DiffOperator({1: {n + 1: self.beta(n)}})


def op_compose_word(family: DerivationFamily, w: Word) -> DiffOperator:
    """Comould value B_w = B_{w_r} ... B_{w_1} (rightmost letter outermost);
    identity for the empty word."""
    op = DiffOperator.identity()
    for a in w:
        n = _as_int(a)
        op = family.operator(n).compose(op)
    return op


def _as_int(a: GaussianRational) -> int:
    if not a.is_positive_integer:
        raise ValueError(f"letter {a} is not a positive integer")
    return int(a.re)


# ---------------------------------------------------------------------------
# coarborification
# ---------------------------------------------------------------------------


def coarborify_homogeneous(family: DerivationFamily, f: Forest) -> DiffOperator:
    """Homogeneous coarborified of a derivation family: each child of a node
    n takes one u-derivative of the node's beta_n u^{n+1}, so B_F is the term

        kappa_F u^{norm(F) + k} d^k,  kappa_F = prod over the nodes of beta_n (n+1)!/(n+1-m)!,

    with k the number of trees and m the node's number of children; a factor
    is 0 when m > n+1, and then B_F = 0."""
    kappa, nodes = Fraction(1), list(f.trees)
    while nodes:
        t = nodes.pop()
        n = _as_int(t.root)
        kappa = kappa * family.beta(n) * math.perm(n + 1, len(t.children.trees))
        nodes += t.children.trees
    k = len(f.trees)
    return DiffOperator({k: {int(f.norm.re) + k: kappa}})


# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------


def _linear_combination(terms: Iterable[tuple[object, DiffOperator]]) -> DiffOperator:
    """sum of s * op over (s, op) pairs, one sparse_sum over (order, degree)
    keys."""
    return _operator(sparse_sum(terms))


def _operator(vec: Mapping[tuple[int, int], object]) -> DiffOperator:
    """The operator of a sparse vector over (order, degree) keys, the orders
    and degrees in the vector's order."""
    terms: dict[int, UPoly] = {}
    for (k, d), c in vec.items():
        terms.setdefault(k, {})[d] = c
    return DiffOperator(terms)


def contract_word_sum(m: Mould, family: DerivationFamily, norm_cap: int) -> DiffOperator:
    """Phi = sum over words of norm <= cap of M^w B_w; homogeneity makes the
    sum finite under the u-degree cap.  Includes the empty word."""
    terms = [(m.value(EMPTY_WORD), DiffOperator.identity())]
    terms += [(val, op_compose_word(family, w)) for w in words_of_norm_at_most(family.letters(), norm_cap) if not _zero(val := m.value(w))]
    return _linear_combination(terms)


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
    if mode not in ("simple", "contracting"):
        raise ValueError(f"unknown contraction mode {mode!r}")
    terms = [(a.value(EMPTY_FOREST), DiffOperator.identity())]
    if mode == "simple":
        for f in forests_of_norm(family.letters(), norm_cap):
            val = a.value(f)
            if not _zero(val):
                terms.append((val * Fraction(1, f.automorphism_count()), coarborify_homogeneous(family, f)))
    else:
        terms += [(a.value(f), op) for f, op in coarborify_contracted(family, norm_cap, counting=counting).items()]
    return _linear_combination(terms)


def coarborify_contracted(family: DerivationFamily, norm_cap: int, counting: str = "merges") -> dict[Forest, DiffOperator]:
    """Contracted coarborified of the word comould: operators Bt_F with

        B_w = sum over forests F covering w of mult(w, F) Bt_F

    for every word w of norm <= cap, where mult is the contracting-cover
    multiplicity in the chosen counting.  The multiplicities do not depend on
    the family, so the system is solved once on rational scalars
    (:func:`_contracted_duals`) and each Bt_F = sum_w X[F, w] B_w is then
    assembled from the words over the family's letters; B_w = 0 for every
    other word.
    """
    duals = _contracted_duals(norm_cap, counting)
    ops = {w: op_compose_word(family, w) for w in words_of_norm_at_most(family.letters(), norm_cap)}
    return {f: _linear_combination((x, ops[w]) for w, x in row.items() if w in ops) for f, row in duals.items()}


def _contracted_duals(norm_cap: int, counting: str) -> dict[Forest, dict[Word, Fraction]]:
    """Scalar solution X of M X = I, where M is the word x forest matrix of
    cover multiplicities over the forests decorated by 1..cap of norm <= cap
    and the words they cover (all words of norm <= cap: each is a linear
    extension of its chain).

    A cover keeps the norm and has at most as many letters as the forest has
    nodes, so each norm layer is solved node-count-descending: the words of
    length k against the forests of k nodes, once those with more nodes are
    known, by the minimum-norm solution x = A^T (A A^T)^{-1} b.  The
    decomposition is not unique; M X = I is verified exactly afterwards,
    raising ArithmeticError if the system were inconsistent.
    """
    layers: dict[int, list[tuple[int, Forest, Counter]]] = {}
    trees: dict = {}
    for nodes, norm, fk in _forests(range(1, norm_cap + 1), norm_cap, norm_cap):
        f = _forest(fk, trees)
        layers.setdefault(norm, []).append((nodes, f, contracting_covers(f, counting=counting)))
    duals: dict[Forest, dict[Word, Fraction]] = {}
    for norm in sorted(layers):
        layer = layers[norm]
        for nodes in range(max(k for k, _, _ in layer), 0, -1):
            unknowns = [(f, cover) for k, f, cover in layer if k == nodes]
            if not unknowns:
                continue
            eq_words = list(dict.fromkeys(w for _, cover in unknowns for w in cover if w.length == nodes))
            # b_w = e_w - sum over the forests with more nodes of mult(w, F) X[F]
            known = [(f, cover) for k, f, cover in layer if k > nodes]
            rhs = [sparse_sum([(1, {w: 1})] + [(-cover[w], duals[f]) for f, cover in known if w in cover]) for w in eq_words]
            matrix = [[cover.get(w, 0) for _, cover in unknowns] for w in eq_words]
            inv = _fraction_inverse([[sum(a * b for a, b in zip(ri, rj)) for rj in matrix] for ri in matrix])
            y = [sparse_sum(zip(inv_row, rhs)) for inv_row in inv]
            for col, (f, _) in enumerate(unknowns):
                duals[f] = sparse_sum((row[col], yi) for row, yi in zip(matrix, y))
    # consistency: sum_F mult(w, F) X[F] must be the unit vector at w
    check: dict[Word, list] = {}
    for layer in layers.values():
        for _, f, cover in layer:
            for w, mult in cover.items():
                check.setdefault(w, []).append((mult, duals[f]))
    for w, terms in check.items():
        if sparse_sum(terms) != {w: 1}:
            raise ArithmeticError(f"contracted coarborification inconsistent at {w}")
    return duals


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
