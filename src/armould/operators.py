"""Homogeneous derivations, comould composition, coarborification and exact
mould-comould contraction on truncated series.

An operator is a sparse vector {(k, d): c} of terms c u^d d^k, kept exact so
decomposition and Leibniz identities can be checked with equality; sums,
products and actions are each one sparse sum over its keys.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Mapping

from .values import GaussianRational, _zero, sparse_sum
from .series import TruncatedSeries, UPoly
from .words import (
    EMPTY_FOREST,
    EMPTY_WORD,
    Forest,
    Word,
    _covers,
    _forest,
    _forests,
    _letter,
    _word,
    forests_of_norm,
    letter,
    words_of_norm_at_most,
)
from .moulds import ArMould, Mould


class DiffOperator:
    """Finite sum of c u^d d^k, with exact or complex coefficients: the sparse
    vector {(k, d): c} over (order, degree) keys, with no zero entry."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], object] | None = None):
        try:
            self.terms: dict[tuple[int, int], object] = {(k, d): c for (k, d), c in (terms or {}).items() if not _zero(c)}
        except (TypeError, ValueError):
            raise TypeError(f"DiffOperator takes the flat {{(order, degree): c}} dict, not {terms!r}") from None

    @classmethod
    def identity(cls) -> "DiffOperator":
        return cls({(0, 0): Fraction(1)})

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        return _linear_combination([(1, self), (1, other)])

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return _linear_combination([(1, self), (-1, other)])

    def scale(self, s) -> "DiffOperator":
        return _linear_combination([(s, self)])

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """Operator product self o other: (self o other)(f) = self(other(f)).

        By Leibniz, u^d d^k o u^e d^m = sum_i C(k,i) e!/(e-i)! u^(d+e-i)
        d^(k-i+m), all in one sparse sum."""
        return DiffOperator(
            sparse_sum(
                (ca, {(k - i + m, d + e - i): cb * (math.comb(k, i) * math.perm(e, i)) for (m, e), cb in other.terms.items() if e >= i})
                for (k, d), ca in self.terms.items()
                for i in range(k + 1)
            )
        )

    def apply_u_poly(self, f: UPoly, nu: int | None = None) -> UPoly:
        """The image of a u-polynomial, cut at degree nu if one is given:
        u^d d^k u^e = e!/(e-k)! u^(d+e-k), all in one sparse sum."""
        return sparse_sum(
            (ca, {d + e - k: c * math.perm(e, k) for e, c in f.items() if e >= k and (nu is None or d + e - k <= nu)})
            for (k, d), ca in self.terms.items()
        )

    def apply(self, f: TruncatedSeries) -> TruncatedSeries:
        """Act on a truncated u-series, cut at its cap."""
        return TruncatedSeries(self.apply_u_poly(f.coeffs, nu=f.nu), f.nu)

    def truncate_u(self, nu: int) -> "DiffOperator":
        """Drop terms that cannot contribute below the u-degree cap."""
        return DiffOperator({(k, d): c for (k, d), c in self.terms.items() if d - k <= nu})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return all(self.terms.get(key, 0) == other.terms.get(key, 0) for key in self.terms.keys() | other.terms.keys())

    def _by_order(self):
        """(order, [(degree, coefficient), ...]) pairs, orders and degrees
        sorted; the keys are distinct, so the sort never compares coefficients."""
        return [(k, [(d, c) for (_, d), c in group]) for k, group in groupby(sorted(self.terms.items()), key=lambda t: t[0][0])]

    def dump(self) -> list:
        """JSON-friendly: list of (order, [(degree, str(coeff)), ...])."""
        return [(k, [(d, str(c)) for d, c in poly]) for k, poly in self._by_order()]

    def __repr__(self):
        return " + ".join(f"[{' + '.join(f'({c})u^{d}' for d, c in poly)}] d^{k}" for k, poly in self._by_order()) or "0"


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
        return DiffOperator({(1, n + 1): self.beta(n)})


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
    kappa, nodes = Fraction(1), list(f._key)
    while nodes:
        dec, kids = nodes.pop()
        n = _as_int(_letter(dec))
        kappa = kappa * family.beta(n) * math.perm(n + 1, len(kids))
        nodes += kids
    k = len(f._key)
    return DiffOperator({(k, int(f.norm.re) + k): kappa})


# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------


def _linear_combination(terms: Iterable[tuple[object, DiffOperator]]) -> DiffOperator:
    """sum of s * op over (s, op) pairs, one sparse_sum over (order, degree)
    keys."""
    return DiffOperator(sparse_sum((s, op.terms) for s, op in terms))


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
    the family, so the system is solved once on rational scalars, on forest
    and word keys (:func:`_contracted_duals`), and each Bt_F = sum_w X[F, w] B_w
    is then assembled from the words over the family's letters; B_w = 0 for
    every other word.
    """
    duals = _contracted_duals(norm_cap, counting)
    ops = {w._key: op_compose_word(family, w) for w in words_of_norm_at_most(family.letters(), norm_cap)}
    return {_forest(fk): _linear_combination((x, ops[w]) for w, x in row.items() if w in ops) for fk, row in duals.items()}


def _contracted_duals(norm_cap: int, counting: str) -> dict[tuple, dict[tuple, Fraction]]:
    """Scalar solution X of M X = I, keyed by forest key and word key, where
    M is the word x forest matrix of cover multiplicities over the forests
    decorated by 1..cap of norm <= cap and the words they cover (all words of
    norm <= cap: each is a linear extension of its chain).

    A cover keeps the norm and has at most as many letters as the forest has
    nodes, so each norm layer is solved node-count-descending: the words of
    length k against the forests of k nodes, once those with more nodes are
    known, by the minimum-norm solution x = A^T y, (A A^T) y = b.  y comes
    from Gauss-Jordan elimination on the rows [A A^T | b], each one sparse
    vector (A A^T under column indices, b under word keys), so that every row
    operation is one sparse_sum.  The decomposition is not unique; M X = I is
    verified exactly afterwards, raising ArithmeticError if the system were
    inconsistent.
    """
    if counting not in ("merges", "surjections"):
        raise ValueError(f"unknown counting {counting!r}")
    layers: dict[int, list[tuple[int, tuple, dict]]] = {}
    for nodes, norm, fk in _forests(range(1, norm_cap + 1), norm_cap, norm_cap):
        layers.setdefault(norm, []).append((nodes, fk, _covers(fk, counting)))
    duals: dict[tuple, dict[tuple, Fraction]] = {}
    for norm in sorted(layers):
        layer = layers[norm]
        for nodes in range(max(k for k, _, _ in layer), 0, -1):
            unknowns = [(f, cover) for k, f, cover in layer if k == nodes]
            if not unknowns:
                continue
            eq_words = list(dict.fromkeys(w for _, cover in unknowns for w in cover if len(w) == nodes))
            matrix = [[cover.get(w, 0) for _, cover in unknowns] for w in eq_words]
            known = [(f, cover) for k, f, cover in layer if k > nodes]
            rows = []
            for w, ri in zip(eq_words, matrix):
                # [A A^T | b] with b_w = e_w - sum over the forests with more nodes of mult(w, F) X[F]
                gram = dict(enumerate(sum(a * b for a, b in zip(ri, rj)) for rj in matrix))
                rows.append(sparse_sum([(1, gram), (1, {w: 1})] + [(-cover[w], duals[f]) for f, cover in known if w in cover]))
            for i in range(len(rows)):
                # A A^T is positive semidefinite, so a zero pivot has a zero column below it
                if i not in rows[i]:
                    raise ArithmeticError("singular cover system; rows are dependent")
                pivot = rows[i] = sparse_sum([(Fraction(1) / rows[i][i], rows[i])])
                rows = [row if k == i or i not in row else sparse_sum([(1, row), (-row[i], pivot)]) for k, row in enumerate(rows)]
            y = [{w: x for w, x in row.items() if w != i} for i, row in enumerate(rows)]  # A A^T is now I
            for col, (f, _) in enumerate(unknowns):
                duals[f] = sparse_sum((row[col], yi) for row, yi in zip(matrix, y))
    # consistency: sum_F mult(w, F) X[F] must be the unit vector at w
    check: dict[tuple, list] = {}
    for layer in layers.values():
        for _, f, cover in layer:
            for w, mult in cover.items():
                check.setdefault(w, []).append((mult, duals[f]))
    for w, terms in check.items():
        if sparse_sum(terms) != {w: 1}:
            raise ArithmeticError(f"contracted coarborification inconsistent at {_word(w)}")
    return duals
