"""Test oracles: slower, independently built constructions that the library
is checked against.  The normalizer's word assembly checks its forest
assembly; the index-walk enumerators check the memoised fiber recursion and
the streamed forest generator of :mod:`armould.words`; the dense Cauchy fold
checks the FFT-Toeplitz fold of :mod:`armould.monomials`, and the cover sum
of word values checks its structured forest integral."""

import itertools
from collections import Counter

import numpy as np

from armould.monomials import CONTRACTION_UNIT, ContourSpec, paralog_Ua_eval
from armould.moulds import builtin_mould, mould_compose, words_of_norm_at_most
from armould.operators import DiffOperator, op_compose_word
from armould.synthesis import InvariantFamily, SynthesisConfig, signed_monomial_mould
from armould.words import Forest, Letter, Tree, Word, letter


def theta_word_assembly(inv: InvariantFamily, cfg: SynthesisConfig, z: complex) -> DiffOperator:
    """Oracle assembly: Theta = sum_v (L o exp)^v A_v over the plain word
    comould; equals the forest assembly exactly, term regrouping aside."""
    fam = inv.derivations()
    ell = signed_monomial_mould(z, cfg.c, cfg.contour)
    composed = mould_compose(ell, builtin_mould("exp"))
    out = DiffOperator.identity()
    for v in words_of_norm_at_most([letter(n) for n in inv.support], cfg.nu):
        if v.length > cfg.r_max:
            continue
        val = complex(composed.value(v).coeff(0))
        if val == 0:
            continue
        out = out + op_compose_word(fam, v).scale(val)
    return out


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
        out[lo:hi] = (values[None, :] / (y_from[None, :] - y_to[lo:hi, None])).sum(axis=1)
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


# ---------------------------------------------------------------------------
# enumerators: mutable node walks over one forest at a time
# ---------------------------------------------------------------------------


class _Node:
    """Mutable node identity used while enumerating extensions/covers."""

    __slots__ = ("decoration", "parent")

    def __init__(self, decoration: Letter):
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

    def rec(available: list[int], placed: tuple[Letter, ...]):
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

    def rec(avail: frozenset, placed: tuple[Letter, ...], weight: int):
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


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def forests_of_norm(letters, max_norm: int, max_nodes: int | None = None) -> list[Forest]:
    """Oracle for :func:`armould.words.forests_of_norm`: trees built by norm,
    every candidate list materialised and deduplicated, then sorted by
    (norm, node count, sort key)."""
    values = sorted({a.value.re for a in letters})
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
    out.sort(key=lambda f: (int(f.norm.re), f.node_count, f.sort_key()))
    return out


def _forests_with_norm(trees_pool, norm_budget, include_all_below=False):
    """Multisets of trees with total norm == budget (or <= budget)."""
    pool = sorted(_dedup(list(trees_pool)), key=lambda t: t.sort_key())
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
        k = x.sort_key()
        if k not in seen:
            seen.add(k)
            out.append(x)
    return out
