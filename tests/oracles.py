"""Test oracles: slower, independently built constructions that the library
is checked against.  The normalizer's word assembly, with its own scalar
L and dL, checks its forest assembly, the conjugated field built from
operator products checks the field built from operator actions, and the word side of the z-free
coarborification identity checks its forest rows; the index-walk enumerators
and the position-subset shuffles check the memoised fiber recursion of
:mod:`armould.words`, the by-norm builder of forest keys and the stream
that builds its trees with ``tree`` and ``Forest`` check its key-level forest
enumerator, and the recursive key walks check the node counts, norms and
automorphism counts that a forest reads off its key; the dense Cauchy fold
checks the FFT-Toeplitz fold of :mod:`armould.monomials`, the same fold with
every step in a new array checks its in-place buffers bit for bit, the two-phase
pass with its bookkeeping arrays checks the one-recursion pass bit for bit, and the cover sum
of word values checks its structured forest integral, and the Laplace-side
double integral checks its value at r = 2.  The operator-valued
layered solve checks the scalar solve of the contracted coarborified, and
the nested-loop Leibniz product, action and tree recursion check the
sparse sums of the operator product, the operator action and the
single-term homogeneous coarborified.  The (Fraction re,
Fraction im) sort key checks the canonical order of words and forests.

The identity checks that only the tests run live here too: separativity of
an arborified mould, the coarborified decomposition and coseparativity, with
the forest product and the operator difference they use; so do the
Borel-plane hyperlogarithm on the library's own recursion and the writer of
the table format that ``Mould.from_json`` reads."""

import cmath
import heapq
import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

import armould.operators
import armould.words
from armould.bessel import bessel_k1
from armould.monomials import CONTRACTION_UNIT, MOULD_NORMALIZATION, ContourError, ContourSpec, paralog_Ua_eval
from armould.monomials import Quadrature, _cauchy_fold, _hyperlog_decorations, _v_borel_rec
from armould.moulds import ArMould, IdentityReport, Mould, builtin_mould, mould_compose, words_of_norm_at_most, words_over
from armould.moulds import _is_exact, _scan, _violation
from armould.operators import DerivationFamily, DiffOperator, _as_int, _linear_combination, op_compose_word
from armould.series import TruncatedSeries
from armould.synthesis import FieldSample, InvariantFamily, NormalizerExpansion, SynthesisConfig, _sampled_defect, automorphism_defect
from armould.values import GaussianRational, _zero, format_exact
from armould.words import EMPTY_FOREST, Forest, Word, _forest, letter, tree


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
    for v in words_of_norm_at_most([letter(n) for n in support(inv)], cfg.nu):
        if v.length > cfg.r_max:
            continue
        b = op_compose_word(fam, v)
        b_abs = DiffOperator({key: abs(complex(x)) for key, x in b.terms.items()})
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
            blocks = [tuple(v)[i:j] for i, j in zip(cuts, cuts[1:])]
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
        acc = DiffOperator()
        for v in words_of_norm_at_most([letter(m) for m in support(inv)], cfg.nu):
            if int(v.norm.re) == n and v.length <= cfg.r_max:
                acc = acc + op_compose_word(fam, v).scale(expm.value(v))
        if not acc.is_zero():
            atoms[n] = acc
    return atoms


def conjugate_by_products(exp: NormalizerExpansion) -> FieldSample:
    """X_c = Theta (d_z + u d_u) Theta^{-1} as one operator cut at nu: the
    u-component is

        X_c(u) = [Theta o (u d_u) o Theta^{-1}](u) - [(d_z Theta) o Theta^{-1}](u)

    and the derivation defect is that operator's."""
    nu = exp.config.nu
    theta = exp.operator
    theta_inv = exp.inverse_operator()
    euler = DiffOperator({(1, 1): 1.0 + 0.0j})
    xc_op = theta.compose(euler).compose(theta_inv) - exp.d_operator.compose(theta_inv)
    xc_op = xc_op.truncate_u(nu)
    u_series = TruncatedSeries.u_power(1, nu, coeff=1.0 + 0.0j)
    img = xc_op.apply(u_series)
    action = {k: complex(v) for k, v in img.coeffs.items()}
    return FieldSample(
        z=exp.z,
        action_on_u=action,
        derivation_defect=_sampled_defect(7, nu, lambda f, g: (xc_op.apply(f * g), xc_op.apply(f) * g + f * xc_op.apply(g))),
        automorphism_defect=automorphism_defect(exp),
    )


def cauchy_fold_dense(values: np.ndarray, y_from: np.ndarray, y_to: np.ndarray) -> np.ndarray:
    """Oracle for :func:`armould.monomials._cauchy_fold`: the direct N x M sum
    out[i] = sum_k values[k] / (y_from[k] - y_to[i]), 512 target rows at a time."""
    out = np.empty(len(y_to), dtype=complex)
    for lo in range(0, len(y_to), 512):
        hi = min(lo + 512, len(y_to))
        out[lo:hi] = np.reciprocal(y_from[None, :] - y_to[lo:hi, None]) @ values
    return out


def cauchy_fold_allocating(
    values: np.ndarray, y_from: np.ndarray, log_from: complex, y_to: np.ndarray, log_to: complex, h: float
) -> np.ndarray:
    """Oracle for :func:`armould.monomials._cauchy_fold`, bit for bit: the
    same operations of the FFT-Toeplitz fold in the same order, each into a
    new array (np.where, np.append, np.fft.fft with its own zero padding)."""
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


def pass_two_phase(decorations: Sequence[complex], parents: Sequence[int], z: complex, quad: Quadrature, level: int) -> tuple[complex, complex]:
    """Oracle for :func:`armould.monomials._pass`, bit for bit: the same pass
    in two phases, a preorder walk that looks up held folds and a walk back
    that folds, with arrays of children, fold keys, computed nodes and folds.

    One trapezoid evaluation of the iterated integral over a preorder node
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
    om1, om2 = (complex(a).real for a in w)
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

    def walk(tk: tuple, parent):
        node = _Node(_key_letter(tk[0]))
        node.parent = parent
        nodes.append(node)
        for c in tk[1]:
            walk(c, node)

    for tk in f._key:
        walk(tk, None)
    return nodes


def _key_letter(dec: tuple) -> GaussianRational:
    """A new letter from a node's (re, im) key."""
    re, im = dec
    return GaussianRational(Fraction(re), Fraction(im))


def key_letters(fk: tuple) -> list[GaussianRational]:
    """Oracle for the walks of ``Forest.node_count`` and ``Forest.norm``: the
    letter of every node of a forest key, by recursion on its trees, each
    root before its children."""
    return [a for dec, kids in fk for a in [_key_letter(dec), *key_letters(kids)]]


def key_automorphisms(fk: tuple) -> int:
    """Oracle for ``Forest.automorphism_count``, by recursion on the distinct
    trees of a forest key: m equal trees with children C give m! |Aut C|^m."""
    n = 1
    for (_, kids), m in Counter(fk).items():
        n *= _factorial(m) * key_automorphisms(kids) ** m
    return n


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
        a, b = iter(w1), iter(w2)
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
                for p, a in itertools.chain(zip(im1, w1), zip(im2, w2)):
                    slots[p].append(a)
                out[Word(tuple(sum(s[1:], s[0]) for s in slots))] += 1
    return out


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def forests_of_norm(letters, max_norm: int, max_nodes: int | None = None) -> list[Forest]:
    """Oracle for :func:`armould.words.forests_of_norm`: tree keys built by
    norm, every candidate list materialised and deduplicated, then sorted by
    (norm, node count, sort key)."""
    values = sorted({a.re for a in letters})
    if any(v < 1 or v.denominator != 1 for v in values):
        raise ValueError("forest enumeration needs positive integer decorations")
    trees_by_norm: dict[int, list[tuple]] = {}

    def trees_up_to(n: int) -> list[tuple]:
        out = []
        for m in range(1, n + 1):
            out.extend(trees_by_norm.get(m, []))
        return out

    for n in range(1, max_norm + 1):
        acc: list[tuple] = []
        for v in values:
            v = int(v)
            if v > n:
                continue
            rest = n - v
            for sub in _forests_with_norm(trees_up_to(rest), rest):
                t = ((v, 0), sub)
                if max_nodes is None or len(key_letters((t,))) <= max_nodes:
                    acc.append(t)
        trees_by_norm[n] = _dedup(acc, _fraction_tree_key)
    out: list[tuple] = []
    for fk in _forests_with_norm(trees_up_to(max_norm), max_norm, include_all_below=True):
        if fk and (max_nodes is None or len(key_letters(fk)) <= max_nodes):
            out.append(fk)
    out.sort(key=lambda fk: (_key_norm(fk), len(key_letters(fk)), _fraction_forest_key(fk)))
    return [_forest(fk) for fk in out]


def forest_stream(values, max_norm: int, max_nodes: int):
    """Oracle for the key-level enumerator ``armould.words._forests``: the
    same streamed pool of trees, each built by ``tree`` as a one-tree forest
    and joined by the ``Forest`` constructor, yielding (nodes, norm, Forest)
    in increasing node count."""
    pool: list[tuple[int, int, Forest]] = []  # (nodes, norm, one-tree forest), by node count

    def multisets(nodes: int, budget: int, start: int):
        if nodes == 0:
            yield 0, ()
            return
        for i in range(start, len(pool)):
            k, n, t = pool[i]
            if k > nodes:
                break
            if n <= budget:
                for rest_norm, rest in multisets(nodes - k, budget - n, i):
                    yield n + rest_norm, (t,) + rest

    for nodes in range(1, max_nodes + 1):
        grown = []
        for v in values:
            if v > max_norm:
                continue
            for n, kids in multisets(nodes - 1, max_norm - v, 0):
                grown.append((nodes, v + n, tree(v, kids)))
        pool.extend(grown)
        for n, trees in multisets(nodes, max_norm, 0):
            yield nodes, n, Forest(trees)


def _forests_with_norm(trees_pool, norm_budget, include_all_below=False):
    """Forest keys: multisets of tree keys with total norm == budget (or <= budget)."""
    pool = sorted(_dedup(list(trees_pool), _fraction_tree_key), key=_fraction_tree_key)
    results: list[tuple] = []

    def rec(start: int, budget: int, acc: tuple):
        if include_all_below or budget == 0:
            results.append(acc)
        if budget <= 0:
            return
        for i in range(start, len(pool)):
            t = pool[i]
            n = _key_norm((t,))
            if n <= budget:
                rec(i, budget - n, acc + (t,))

    rec(0, norm_budget, ())
    if not include_all_below:
        results = [fk for fk in results if _key_norm(fk) == norm_budget]
    return _dedup(results, _fraction_forest_key)


def _key_norm(fk: tuple) -> Fraction:
    return sum(a.re for a in key_letters(fk))


def _dedup(items, key):
    seen = set()
    out = []
    for x in items:
        k = key(x)
        if k not in seen:
            seen.add(k)
            out.append(x)
    return out


def _fraction_tree_key(tk: tuple) -> tuple:
    (re, im), kids = tk
    return (Fraction(re), Fraction(im)), _fraction_forest_key(kids)


def _fraction_forest_key(fk: tuple) -> tuple:
    return tuple(sorted(map(_fraction_tree_key, fk)))


def fraction_sort_key(x):
    """Oracle for ``sort_key()`` of a letter, Word or Forest: each letter as
    its (Fraction re, Fraction im) pair, words and trees nested alike, and
    the trees of every forest sorted by this key, whatever order its key
    holds them in."""
    if isinstance(x, GaussianRational):
        return (x.re, x.im)
    if isinstance(x, Word):
        return tuple(fraction_sort_key(a) for a in x)
    return _fraction_forest_key(x._key)


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
            return DiffOperator()
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
        return [DiffOperator() for _ in range(0)]
    cols = len(matrix[0])
    gram = [[sum(matrix[i][k] * matrix[j][k] for k in range(cols)) for j in range(rows)] for i in range(rows)]
    inv = _fraction_inverse(gram)
    # y = (A A^T)^{-1} b  (operator-valued), then x = A^T y
    y = []
    for i in range(rows):
        acc = DiffOperator()
        for j in range(rows):
            if inv[i][j]:
                acc = acc + rhs[j].scale(inv[i][j])
        y.append(acc)
    out = []
    for k in range(cols):
        acc = DiffOperator()
        for i in range(rows):
            if matrix[i][k]:
                acc = acc + y[i].scale(matrix[i][k])
        out.append(acc)
    return out


def _fraction_inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """The inverse of a square Fraction matrix by Gauss-Jordan elimination
    with row swaps on dense rows."""
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


# ---------------------------------------------------------------------------
# operator products by nested loops, one polynomial at a time
# ---------------------------------------------------------------------------


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if not _zero(c)}


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, c in a.items():
        for j, d in b.items():
            out[i + j] = out.get(i + j, 0) + c * d
    return {k: c for k, c in out.items() if not _zero(c)}


def _poly_diff(a: dict, times: int) -> dict:
    out = dict(a)
    for _ in range(times):
        out = {k - 1: c * k for k, c in out.items() if k >= 1}
    return {k: c for k, c in out.items() if not _zero(c)}


def _polys_by_order(op: DiffOperator) -> dict:
    """The coefficient polynomial c_k(u) of each order k of an operator."""
    out: dict = {}
    for (k, d), c in op.terms.items():
        out.setdefault(k, {})[d] = c
    return out


def _from_polys(polys: dict) -> DiffOperator:
    """The operator sum over k of c_k(u) d^k."""
    return DiffOperator({(k, d): c for k, poly in polys.items() for d, c in poly.items()})


def compose(left: DiffOperator, right: DiffOperator) -> DiffOperator:
    """Oracle for :meth:`DiffOperator.compose`: d^k (b f^(m)) = sum_i
    C(k,i) b^(i) f^(k-i+m), each b^(i) by i single derivatives and each
    group multiplied and added as polynomials."""
    out: dict = {}
    for k, a in _polys_by_order(left).items():
        for m, b in _polys_by_order(right).items():
            for i in range(k + 1):
                poly = _poly_mul(a, {d: c * math.comb(k, i) for d, c in _poly_diff(b, i).items()})
                if poly:
                    out[k - i + m] = _poly_add(out.get(k - i + m, {}), poly)
    return _from_polys(out)


def apply_u_poly(op: DiffOperator, f: dict, nu: int | None = None) -> dict:
    """Oracle for :meth:`DiffOperator.apply_u_poly`: per order k, the
    polynomial product of c_k(u) with the k-th derivative of f."""
    out: dict = {}
    for k, a in _polys_by_order(op).items():
        for d, c in _poly_mul(a, _poly_diff(f, k)).items():
            if nu is None or d <= nu:
                out[d] = out.get(d, 0) + c
    return {k: c for k, c in out.items() if not _zero(c)}


def coarborify_homogeneous(family: DerivationFamily, f: Forest) -> DiffOperator:
    """Oracle for :func:`armould.operators.coarborify_homogeneous` by
    recursion on the trees: a tree of root n and child subtrees S_1..S_m has
    c_T = (c_{S_1} ... c_{S_m}) d^m (beta_n u^{n+1}) / du^m, and
    B_F = (c_{T_1} ... c_{T_k}) d^k."""

    def tree_coeff(tk: tuple) -> dict:
        n = _as_int(_key_letter(tk[0]))
        acc = _poly_diff({n + 1: family.betas[n]}, len(tk[1]))
        for s in tk[1]:
            acc = _poly_mul(acc, tree_coeff(s))
        return acc

    poly = {0: Fraction(1)}
    for tk in f._key:
        poly = _poly_mul(poly, tree_coeff(tk))
    return _from_polys({len(f._key): poly})


# ---------------------------------------------------------------------------
# identity checks and writers that only the tests call
# ---------------------------------------------------------------------------


def support(inv: InvariantFamily) -> tuple:
    """The indices n of the nonzero invariants A_n, in order."""
    return tuple(sorted(inv.coefficients))


def forest_product(f1: Forest, f2: Forest) -> Forest:
    """The forest whose trees are those of both forests: one merge of their
    two sorted keys."""
    return _forest(tuple(heapq.merge(f1._key, f2._key)))


def max_abs_diff(a: DiffOperator, b: DiffOperator) -> float:
    """Largest coefficient difference of two operators; NaN if any
    difference is NaN."""
    x, y = a.terms, b.terms
    return float(np.max([abs(complex(x.get(k, 0)) - complex(y.get(k, 0))) for k in x.keys() | y.keys()], initial=0.0))


def mould_to_json(m: Mould) -> str:
    """Serialize a table-backed mould, exact values as literal strings: the
    format ``Mould.from_json`` reads."""
    if m.cap is None or m.alphabet is None:
        raise ValueError("only capped moulds with a declared alphabet serialize")
    entries = {str(w): format_exact(m.value(w)) for w in words_over(m.alphabet, m.cap)}
    payload = {"alphabet": [format_exact(a) for a in m.alphabet], "cap": m.cap, "entries": entries}
    return json.dumps(payload, indent=2, sort_keys=True)


def check_separative(a: ArMould, alphabet: Sequence[GaussianRational], cap: int, tol: float | None = None) -> IdentityReport:
    """Verify M^{F'F''} = M^{F'} M^{F''} for all forest pairs with total nodes <= cap."""
    singles = armould.words.forests_of_norm(alphabet, cap, max_nodes=cap)
    if tol is None and not _is_exact(a.value(Forest(()))):
        tol = 1e-9

    def cases():
        for f1 in singles:
            for f2 in singles:
                if f1.node_count + f2.node_count <= cap:
                    yield (f1, f2), _violation(a.value(forest_product(f1, f2)), a.value(f1) * a.value(f2), tol)

    return _scan("separative", cases(), tol or 0.0)


def check_coarborified_decomposition(family: DerivationFamily, cap: int) -> IdentityReport:
    """Verify B_w = sum over forests admitting w as a linear extension of B_F,
    with each increasing structure on the positions counted once, exactly as
    operators, on the words over the family's letters.  F carries
    linear_extensions(F)[w] / |Aut F| of them on w (orbit-stabiliser)."""
    letters = family.letters()
    terms: dict[Word, list] = {}
    for f in [EMPTY_FOREST] + armould.words.forests_of_norm(letters, cap * max(family.betas, default=0), max_nodes=cap):
        op = armould.operators.coarborify_homogeneous(family, f)
        for w, mult in armould.words.linear_extensions(f).items():
            terms.setdefault(w, []).append((mult // f.automorphism_count(), op))

    def cases():
        for w in words_over(letters, cap):
            lhs = op_compose_word(family, w)
            rhs = _linear_combination(terms.get(w, ()))
            yield w, 0.0 if lhs == rhs else max_abs_diff(lhs, rhs)

    return _scan("coarborified decomposition", cases(), unit="words")


def check_coseparative(family: DerivationFamily, cap: int, f: TruncatedSeries, g: TruncatedSeries) -> IdentityReport:
    """Verify B_F(fg) = sum over ordered splittings F = F' F'' of B_{F'}(f) B_{F''}(g).

    Splittings enumerate complementary sub-multisets with binomial
    multiplicity (trees treated as distinguishable slots), matching the
    product rule of d^k on fg.
    """

    def cases():
        for forest_ in [EMPTY_FOREST] + armould.words.forests_of_norm(family.letters(), cap, max_nodes=cap):
            lhs = armould.operators.coarborify_homogeneous(family, forest_).apply(f * g)
            rhs = TruncatedSeries({}, f.nu)
            trees = forest_._key
            for mask in range(1 << len(trees)):
                # a subsequence of a sorted key is the key of its sub-forest
                left = _forest(tuple(t for i, t in enumerate(trees) if mask & (1 << i)))
                right = _forest(tuple(t for i, t in enumerate(trees) if not mask & (1 << i)))
                fl = armould.operators.coarborify_homogeneous(family, left).apply(f)
                fr = armould.operators.coarborify_homogeneous(family, right).apply(g)
                rhs = rhs + fl * fr
            yield forest_, 0.0 if lhs == rhs else lhs.max_abs_diff(rhs)

    return _scan("coseparative", cases(), unit="forests")


def hyperlog_V_borel(w, zeta: complex) -> complex:
    """Borel-plane hyperlogarithm by length recursion:

        V^(w1) (zeta) = 1/(zeta - w1)
        (-zeta + ||w||) V^w(zeta) = - int_0^zeta V^(w minus last)(s) ds

    along the straight segment from 0, 48 Gauss-Legendre nodes on each half,
    by the library's recursion ``_v_borel_rec``; raises if the segment passes
    near a singular partial sum w1 + ... + wi, or if w has more than
    HYPERLOG_MAX_LETTERS letters."""
    decs = _hyperlog_decorations(w)
    if not decs:
        raise ValueError("empty word has no Borel minor")
    zeta = complex(zeta)
    _check_borel_path(decs, zeta)
    return _v_borel_rec(decs, zeta, 48)


def _check_borel_path(decs: Sequence[complex], zeta: complex):
    partial = 0.0 + 0.0j
    for om in decs:
        partial += om
        # distance from the segment [0, zeta] to the singular point
        t = max(0.0, min(1.0, (partial.conjugate() * zeta).real / max(abs(zeta) ** 2, 1e-300)))
        d = abs(partial - t * zeta)
        if d < 1e-6:
            raise ContourError(f"integration path [0, {zeta}] passes through singular point {partial}")
