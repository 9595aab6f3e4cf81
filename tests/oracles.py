"""Test oracles: slower, independently built constructions that the library
is checked against.  The normalizer's word assembly, with its own scalar
L and dL, checks its forest assembly, and the word side of the z-free
coarborification identity checks its forest rows; the index-walk enumerators
and the position-subset shuffles check the memoised fiber recursion and the
streamed forest generator of :mod:`armould.words`; the dense Cauchy fold
checks the FFT-Toeplitz fold of :mod:`armould.monomials`, and the cover sum
of word values checks its structured forest integral, and the Laplace-side
double integral checks its value at r = 2.  The operator-valued
layered solve checks the scalar solve of the contracted coarborified.  The (Fraction re,
Fraction im) sort key checks the canonical order of words and forests."""

import cmath
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from armould.bessel import bessel_k1
from armould.monomials import CONTRACTION_UNIT, MOULD_NORMALIZATION, ContourSpec, paralog_Ua_eval
from armould.moulds import Mould, builtin_mould, mould_compose, words_of_norm_at_most
from armould.operators import DerivationFamily, DiffOperator, _as_int, _fraction_inverse, _linear_combination, op_compose_word
from armould.synthesis import InvariantFamily, SynthesisConfig
from armould.values import GaussianRational
from armould.words import Forest, Tree, Word, letter


def signed_monomial_moulds(z: complex, c: float, spec: ContourSpec) -> tuple[Mould, Mould]:
    """Scalar moulds L^w = (-1)^r (2 pi i)^{-r} Ue_c^w(z) and dL^w, its
    z-derivative, from one paralog_Ua_eval per word (no batch, no table);
    L^empty = 1 and dL^empty = 0."""
    pairs: dict = {}

    def pair(w: Word) -> tuple[complex, complex]:
        if w not in pairs:
            ua = paralog_Ua_eval(w, z, c, spec)
            nrm = complex(w.norm)
            expo = cmath.exp(nrm * z + c * c * nrm / z)
            unit = MOULD_NORMALIZATION**w.length
            pairs[w] = unit * ua.value * expo, unit * (ua.derivative + nrm * (1 - c * c / (z * z)) * ua.value) * expo
        return pairs[w]

    ell = Mould(lambda w: pair(w)[0] if w.length else 1.0)
    d_ell = Mould(lambda w: pair(w)[1] if w.length else 0.0)
    return ell, d_ell


class WordAssembly(NamedTuple):
    theta: DiffOperator
    d_theta: DiffOperator
    theta_scale: DiffOperator  # per coefficient, the sum of |terms| entering it
    d_theta_scale: DiffOperator


def theta_word_assembly(inv: InvariantFamily, cfg: SynthesisConfig, z: complex) -> WordAssembly:
    """Oracle assembly: Theta = Id + sum_v (L o exp)^v B_v over the plain word
    comould, and d_z Theta = sum_v (dL o exp)^v B_v; equal to the forest
    assembly up to term regrouping."""
    fam = inv.derivations()
    expm = builtin_mould("exp")
    moulds = signed_monomial_moulds(z, cfg.c, ContourSpec())
    composed = [mould_compose(m, expm) for m in moulds]
    # (|L| o exp)^v: the sum of |terms| of (L o exp)^v over the cuts of v
    magnitudes = [mould_compose(Mould(lambda w, m=m: abs(m.value(w))), expm) for m in moulds]
    terms: list[list] = [[(1, DiffOperator.identity())], []]
    scales: list[list] = [[(1, DiffOperator.identity())], []]
    for v in words_of_norm_at_most([letter(n) for n in inv.support], cfg.nu):
        if v.length > cfg.r_max:
            continue
        b = op_compose_word(fam, v)
        b_abs = DiffOperator({k: {d: abs(complex(x)) for d, x in p.items()} for k, p in b.terms.items()})
        for m, mag, t, s in zip(composed, magnitudes, terms, scales):
            t.append((complex(m.value(v)), b))
            s.append((float(mag.value(v)), b_abs))
    return WordAssembly(*(_linear_combination(t) for t in terms + scales))


def z_free_word_side(fam: DerivationFamily, nu: int, r_max: int) -> dict[Word, DiffOperator]:
    """Word side of the z-free forest identity: for each block-norm word u,
    sum over words v (norm <= nu, length <= r_max) and cuts of v into
    consecutive blocks whose norms spell u of prod 1/|block|! * B_v."""
    out: dict[Word, list] = {}
    for v in words_of_norm_at_most(fam.letters(), nu):
        r = v.length
        if r > r_max:
            continue
        b = op_compose_word(fam, v)
        for mask in range(1 << (r - 1)):
            cuts = [0] + [g + 1 for g in range(r - 1) if mask >> g & 1] + [r]
            blocks = [v.letters[i:j] for i, j in zip(cuts, cuts[1:])]
            u = Word(tuple(letter(sum(int(a.re) for a in blk)) for blk in blocks))
            weight = Fraction(1, math.prod(math.factorial(len(blk)) for blk in blocks))
            out.setdefault(u, []).append((weight, b))
    return {u: _linear_combination(t) for u, t in out.items()}


def exp_atom_operators(inv: InvariantFamily, cfg: SynthesisConfig) -> dict[int, DiffOperator]:
    """Cosymmetrel atoms: Aplus_n = sum over words v with ||v|| = n of
    (1/len(v)!) A_v, the homogeneity components of exp(sum A_n u^{n+1} d_u),
    truncated to underlying word length r_max."""
    fam = inv.derivations()
    expm = builtin_mould("exp")
    atoms: dict[int, DiffOperator] = {}
    for n in range(1, cfg.nu + 1):
        acc = DiffOperator.zero()
        for v in words_of_norm_at_most([letter(m) for m in inv.support], cfg.nu):
            if int(v.norm.re) == n and v.length <= cfg.r_max:
                acc = acc + op_compose_word(fam, v).scale(expm.value(v))
        if not acc.is_zero():
            atoms[n] = acc
    return atoms


def cauchy_fold_dense(values: np.ndarray, y_from: np.ndarray, y_to: np.ndarray) -> np.ndarray:
    """Oracle for :func:`armould.monomials._cauchy_fold`: the direct N x M sum
    out[i] = sum_k values[k] / (y_from[k] - y_to[i]), 512 target rows at a time."""
    out = np.empty(len(y_to), dtype=complex)
    for lo in range(0, len(y_to), 512):
        hi = min(lo + 512, len(y_to))
        out[lo:hi] = np.reciprocal(y_from[None, :] - y_to[lo:hi, None]) @ values
    return out


def forest_cover_sum(f: Forest, z: complex, c: float, spec: ContourSpec | None = None) -> tuple[complex, float]:
    """Oracle for :func:`armould.monomials.paralog_forest_eval`: the cover sum

        sum over words w covering F (surjection counting) of
        (-2 pi i)^(nodes(F) - len(w)) Ua^w(z),

    the contraction bookkeeping matching the per-merge residue factor.
    Returns the sum and the sum of the weighted word errors."""
    ref = 0.0 + 0.0j
    ref_err = 0.0
    for cover, mult in contracting_covers(f, counting="surjections").items():
        mv = paralog_Ua_eval(cover, z, c, spec)
        factor = CONTRACTION_UNIT ** (f.node_count - cover.length)
        ref += mult * factor * mv.value
        ref_err += abs(mult) * abs(factor) * mv.error
    return ref, ref_err


def _laplace_continued(c: float, om: float, x: complex) -> complex:
    """The kernel's Laplace transform 2 c sqrt(om/s) K1(2 c sqrt(om s)),
    s = x + om, continued off Re s > 0 through the principal square root."""
    s = x + om
    return 2.0 * c * cmath.sqrt(om / s) * bessel_k1(2.0 * c * cmath.sqrt(om * s))


def x_integral_r2(w: Word, z: complex, c: float, delta: float) -> complex:
    """Oracle for :func:`armould.monomials.paralog_Ua_eval` on a two-letter
    word at c > 0 and Re z < 0: the Laplace-side double integral

        Ua^(w1,w2)(z) = int_0^inf e^{x1hat z} [ int_L f2(x) f1(x1hat - x) dx ] dx1hat

    with f_j the Laplace transform of the kernel of w_j and L the half-line
    rotated just past the imaginary axis, L = e^{i(pi/2 + delta)} R+.  Writing
    x2hat := -x (so Re x2hat < 0) this is the step-function-constrained double
    integral; the rotation keeps both Laplace factors convergent and fixes the
    branch of f2 at its cut."""
    om1, om2 = (complex(a).real for a in w.letters)
    z = complex(z)
    if c <= 0 or z.real >= 0:
        raise ValueError("the r = 2 x-integral needs c > 0 and Re z < 0")
    phi = math.pi / 2.0 + delta
    rot = cmath.exp(1j * phi)
    n = 240
    t1, w1 = _halfline_nodes(scale=1.0 / abs(z.real), n=n)
    t2, w2 = _halfline_nodes(scale=(4.0 / (2.0 * c * math.sqrt(min(om1, om2)))) ** 2, n=n)
    xs = rot * t2
    f2v = np.array([_laplace_continued(c, om2, complex(x)) for x in xs])
    total = 0.0 + 0.0j
    for s1, ww in zip(t1, w1):
        f1v = np.array([_laplace_continued(c, om1, complex(s1 - x)) for x in xs])
        total += ww * cmath.exp(s1 * z) * np.sum(f2v * f1v * w2) * rot
    return complex(total)


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


# ---------------------------------------------------------------------------
# enumerators: mutable node walks over one forest at a time
# ---------------------------------------------------------------------------


class _Node:
    """Mutable node identity used while enumerating extensions/covers."""

    __slots__ = ("decoration", "parent")

    def __init__(self, decoration: GaussianRational):
        self.decoration = decoration
        self.parent = None


def _flatten(f: Forest) -> list[_Node]:
    nodes: list[_Node] = []

    def walk(t: Tree, parent):
        node = _Node(t.root)
        node.parent = parent
        nodes.append(node)
        for c in t.children.trees:
            walk(c, node)

    for t in f.trees:
        walk(t, None)
    return nodes


def linear_extensions(f: Forest) -> Counter:
    """Oracle for :func:`armould.words.linear_extensions`: a depth-first walk
    over the list of available nodes."""
    nodes = _flatten(f)
    children: dict[int, list[int]] = {i: [] for i in range(len(nodes))}
    for i, nd in enumerate(nodes):
        if nd.parent is not None:
            children[nodes.index(nd.parent)].append(i)
    out: Counter = Counter()
    available = [i for i, nd in enumerate(nodes) if nd.parent is None]

    def rec(available: list[int], placed: tuple[GaussianRational, ...]):
        if not available:
            out[Word(placed)] += 1
            return
        for idx, i in enumerate(available):
            nxt = available[:idx] + available[idx + 1 :] + children[i]
            rec(nxt, placed + (nodes[i].decoration,))

    rec(available, ())
    return out


def contracting_covers(f: Forest, counting: str = "merges") -> Counter:
    """Oracle for :func:`armould.words.contracting_covers`: every antichain of
    minimal nodes as the next fiber, on node indices of this forest only."""
    if counting not in ("merges", "surjections"):
        raise ValueError(f"unknown counting {counting!r}")
    nodes = _flatten(f)
    index_of = {id(nd): i for i, nd in enumerate(nodes)}
    children: dict[int, list[int]] = {i: [] for i in range(len(nodes))}
    for i, nd in enumerate(nodes):
        if nd.parent is not None:
            children[index_of[id(nd.parent)]].append(i)
    out: Counter = Counter()
    roots = frozenset(i for i, nd in enumerate(nodes) if nd.parent is None)

    def rec(avail: frozenset, placed: tuple[GaussianRational, ...], weight: int):
        if not avail:
            out[Word(placed)] += weight
            return
        avail_list = sorted(avail)
        for size in range(1, len(avail_list) + 1):
            for combo in itertools.combinations(avail_list, size):
                dec = nodes[combo[0]].decoration
                for i in combo[1:]:
                    dec = dec + nodes[i].decoration
                nxt = set(avail)
                for i in combo:
                    nxt.discard(i)
                    nxt.update(children[i])
                w = weight * (_factorial(size) if counting == "merges" else 1)
                rec(frozenset(nxt), placed + (dec,), w)

    rec(roots, (), 1)
    return out


def shuffle(w1: Word, w2: Word) -> Counter:
    """Oracle for :func:`armould.words.shuffle`, with no recursion: w1's
    letters, in order, at each r1-subset of the r1 + r2 positions, and w2's
    letters, in order, at the remaining positions."""
    n = len(w1) + len(w2)
    out: Counter = Counter()
    for places in itertools.combinations(range(n), len(w1)):
        a, b = iter(w1.letters), iter(w2.letters)
        out[Word(tuple(next(a) if p in places else next(b) for p in range(n)))] += 1
    return out


def contracting_shuffle(w1: Word, w2: Word) -> Counter:
    """Oracle for :func:`armould.words.contracting_shuffle`, with no
    recursion: one term per pair of strictly increasing maps from w1's and
    w2's positions into [n] whose images cover [n], position p holding the
    sum of the letters mapped to it."""
    out: Counter = Counter()
    for n in range(max(len(w1), len(w2)), len(w1) + len(w2) + 1):
        for im1 in itertools.combinations(range(n), len(w1)):
            for im2 in itertools.combinations(range(n), len(w2)):
                if set(im1) | set(im2) != set(range(n)):
                    continue
                slots: list[list] = [[] for _ in range(n)]
                for p, a in itertools.chain(zip(im1, w1.letters), zip(im2, w2.letters)):
                    slots[p].append(a)
                out[Word(tuple(sum(s[1:], s[0]) for s in slots))] += 1
    return out


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def forests_of_norm(letters, max_norm: int, max_nodes: int | None = None) -> list[Forest]:
    """Oracle for :func:`armould.words.forests_of_norm`: trees built by norm,
    every candidate list materialised and deduplicated, then sorted by
    (norm, node count, sort key)."""
    values = sorted({a.re for a in letters})
    if any(v < 1 or v.denominator != 1 for v in values):
        raise ValueError("forest enumeration needs positive integer decorations")
    trees_by_norm: dict[int, list[Tree]] = {}

    def trees_up_to(n: int) -> list[Tree]:
        out = []
        for m in range(1, n + 1):
            out.extend(trees_by_norm.get(m, []))
        return out

    for n in range(1, max_norm + 1):
        acc: list[Tree] = []
        for v in values:
            v = int(v)
            if v > n:
                continue
            rest = n - v
            for sub in _forests_with_norm(trees_up_to(rest), rest):
                t = Tree(letter(v), sub)
                if max_nodes is None or t.node_count <= max_nodes:
                    acc.append(t)
        trees_by_norm[n] = _dedup(acc)
    out: list[Forest] = []
    for f in _forests_with_norm(trees_up_to(max_norm), max_norm, include_all_below=True):
        if f.trees and (max_nodes is None or f.node_count <= max_nodes):
            out.append(f)
    out = _dedup(out)
    out.sort(key=lambda f: (int(f.norm.re), f.node_count, fraction_sort_key(f)))
    return out


def _forests_with_norm(trees_pool, norm_budget, include_all_below=False):
    """Multisets of trees with total norm == budget (or <= budget)."""
    pool = sorted(_dedup(list(trees_pool)), key=fraction_sort_key)
    results: list[Forest] = []

    def rec(start: int, budget: int, acc: tuple):
        if include_all_below or budget == 0:
            results.append(Forest(acc))
        if budget <= 0:
            return
        for i in range(start, len(pool)):
            t = pool[i]
            n = int(t.norm.re)
            if n <= budget:
                rec(i, budget - n, acc + (t,))

    rec(0, norm_budget, ())
    if not include_all_below:
        results = [f for f in results if int(f.norm.re) == norm_budget]
    return _dedup(results)


def _dedup(items):
    seen = set()
    out = []
    for x in items:
        k = fraction_sort_key(x)
        if k not in seen:
            seen.add(k)
            out.append(x)
    return out


def fraction_sort_key(x):
    """Oracle for ``sort_key()`` of a letter, Word, Tree or Forest: each
    letter as its (Fraction re, Fraction im) pair, words and trees nested
    alike, and a forest's trees sorted by this key, whatever order it holds
    them in."""
    if isinstance(x, GaussianRational):
        return (x.re, x.im)
    if isinstance(x, Word):
        return tuple(fraction_sort_key(a) for a in x.letters)
    if isinstance(x, Tree):
        return (fraction_sort_key(x.root), fraction_sort_key(x.children))
    return tuple(sorted(fraction_sort_key(t) for t in x.trees))


def coarborify_contracted(family: DerivationFamily, norm_cap: int, counting: str = "merges") -> dict[Forest, DiffOperator]:
    """Oracle for :func:`armould.operators.coarborify_contracted`: the same
    layered minimum-norm solve run with operator-valued right-hand sides
    B_w (zero for words off the family's letters), on the oracle forest and
    cover enumerators, then checked against every word as operators."""
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
