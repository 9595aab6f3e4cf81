"""Mould algebra over a commutative value algebra.

A mould is a map from words to values; values may be exact (Fraction,
GaussianRational), complex floats, truncated series, or anything else with
the operations a construction asks of them.  Moulds are rule-backed with
memoisation (arborified moulds are not); table-backed moulds refuse queries
beyond their cap instead of inventing zeros.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .values import GaussianRational, as_gaussian, linear_sum, parse_exact
from .words import (
    EMPTY_WORD,
    Forest,
    Word,
    _fiber_step,
    _forests,
    _integer_values,
    contracting_covers,
    contracting_shuffle,
    letter,
    linear_extensions,
    parse_word,
    shuffle,
    words_of_norm_at_most,
    words_over,
)


# Word pairs one symmetry check may test: alternel redom on two letters takes
# 3.6 s at cap 9 (7,172 pairs) and 18 s at cap 10 (16,388) on a 2-vCPU VM.
MAX_SYMMETRY_PAIRS = 10_000


class Mould:
    """Rule-backed mould with a memo table.

    ``alphabet`` (optional) declares which letters the mould is meant for;
    composition closes it additively up to the length cap.
    """

    def __init__(self, rule: Callable[[Word], object], alphabet: Sequence[GaussianRational] | None = None, cap: int | None = None):
        self._rule = rule
        self.alphabet = tuple(alphabet) if alphabet is not None else None
        self.cap = cap
        self._memo: dict[Word, object] = {}

    def value(self, w: Word):
        try:
            return self._memo[w]
        except KeyError:
            pass
        if self.cap is not None and w.length > self.cap:
            raise KeyError(f"mould queried beyond cap {self.cap}: {w}")
        v = self._rule(w)
        self._memo.setdefault(w, v)
        return v

    @classmethod
    def from_table(cls, entries: dict[Word, object], cap: int, alphabet: Sequence[GaussianRational]) -> "Mould":
        table = dict(entries)

        def rule(w: Word):
            try:
                return table[w]
            except KeyError:
                raise KeyError(f"table mould has no entry for {w}") from None

        return cls(rule, alphabet=alphabet, cap=cap)

    @classmethod
    def from_json(cls, text: str) -> "Mould":
        """A table mould from a JSON object: an ``alphabet`` array and an
        ``entries`` object (keyed by word literals) of exact literal strings,
        and a ``cap`` integer >= 0.  Anything else raises a ValueError that
        names the field."""
        payload = json.loads(text)
        if type(payload) is not dict:
            raise ValueError(f"a mould table must be a JSON object, got {json.dumps(payload)}")
        for field, kind, what in (("alphabet", list, "an array"), ("cap", int, "an integer >= 0"), ("entries", dict, "an object")):
            if field not in payload:
                raise ValueError(f"mould table has no field {field!r}")
            if type(payload[field]) is not kind or kind is int and payload[field] < 0:
                raise ValueError(f"mould table field {field!r} must be {what}, got {json.dumps(payload[field])}")
        literals = {f"alphabet[{i}]": a for i, a in enumerate(payload["alphabet"])}
        literals.update((f"entries[{k!r}]", v) for k, v in payload["entries"].items())
        for field, value in literals.items():
            if type(value) is not str:
                raise ValueError(f"mould table {field} = {json.dumps(value)} must be an exact literal string")
        alphabet = [parse_exact(a) for a in payload["alphabet"]]
        entries = {parse_word(k): parse_exact(v) for k, v in payload["entries"].items()}
        return cls.from_table(entries, payload["cap"], alphabet)


class ArMould:
    """Map from canonical forests to values."""

    def __init__(self, rule: Callable[[Forest], object]):
        self._rule = rule

    def value(self, f: Forest):
        return self._rule(f)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def mould_mul(m: Mould, n: Mould) -> Mould:
    """Mould product: P^w = sum over splits w = uv of M^u N^v."""

    def rule(w: Word):
        return linear_sum((m.value(w[:i]), n.value(w[i:])) for i in range(w.length + 1))

    return Mould(rule, alphabet=m.alphabet, cap=_min_cap(m, n))


def mould_compose(m: Mould, n: Mould) -> Mould:
    """Mould composition: Q^w = sum over partitions of w into consecutive
    nonempty blocks w = w1...ws of M^{(|w1|,...,|ws|)} N^{w1}...N^{ws},
    where |wi| is the block norm."""

    def rule(w: Word):
        return m.value(EMPTY_WORD) if w.length == 0 else linear_sum(_composition_terms(m, n, w))

    return Mould(rule, cap=_min_cap(m, n))


def _composition_terms(m: Mould, n: Mould, w: Word, start: int = 0):
    """(M^{(|w1|,...,|ws|)} N^{w1}...N^{w(s-1)}, N^{ws}) over the partitions of
    a nonempty w into consecutive blocks, each product the term as it reads
    from the left; partitions are cut masks on the gaps, 0 the single block."""
    r = w.length
    for mask in range(start, 1 << (r - 1)):
        cuts = [0] + [gap + 1 for gap in range(r - 1) if mask >> gap & 1] + [r]
        blocks = [w[i:j] for i, j in zip(cuts, cuts[1:])]
        head = m.value(Word(tuple(b.norm for b in blocks)))
        for b in blocks[:-1]:
            head = head * n.value(b)
        yield head, n.value(blocks[-1])


def _min_cap(m: Mould, n: Mould):
    caps = [c for c in (m.cap, n.cap) if c is not None]
    return min(caps) if caps else None


def mould_inverse_mul(m: Mould, cap: int) -> Mould:
    """Two-sided inverse for the mould product up to the length cap."""
    e = m.value(EMPTY_WORD)
    inv_e = 1 / e
    out = Mould(lambda w: None, alphabet=m.alphabet, cap=cap)

    def rule(w: Word):
        if w.length == 0:
            return inv_e
        return -(linear_sum((m.value(w[:i]), out.value(w[i:])) for i in range(1, w.length + 1)) * inv_e)

    out._rule = rule
    return out


def mould_inverse_comp(m: Mould, cap: int) -> Mould:
    """Composition inverse on moulds with M^empty = 0, up to the length cap."""
    if m.value(EMPTY_WORD) != 0:
        raise ValueError("composition inverse needs M^empty = 0")
    out = Mould(lambda w: None, alphabet=m.alphabet, cap=cap)
    identity = builtin_mould("identityI")

    def rule(w: Word):
        if w.length == 0:
            return Fraction(0)
        head = m.value(Word((w.norm,)))
        if head == 0:
            raise ZeroDivisionError(f"single-letter value vanishes at norm {w.norm}")
        return (identity.value(w) - linear_sum(_composition_terms(m, out, w, start=1))) * (1 / head)

    out._rule = rule
    return out


# ---------------------------------------------------------------------------
# symmetry checks
# ---------------------------------------------------------------------------


class IdentityReport:
    """Outcome of one identity check over its cases: a pair of words or
    forests, a word, or a forest."""

    def __init__(self, kind: str, passed: bool, pairs_checked: int, worst_violation: float, first_violation=None, unit="pairs", detail=""):
        self.kind = kind
        self.passed = passed
        self.pairs_checked = pairs_checked  # name read by perfbench/workloads.py; counts words or forests for the operator checks of the tests
        self.worst_violation = worst_violation
        self.first_violation = first_violation
        self.unit = unit
        self.detail = detail

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        s = f"[{status}] {self.kind}: {self.pairs_checked} {self.unit}, worst violation {self.worst_violation:.3e}"
        first = self.first_violation
        if first is not None:
            s += ", first at " + (" / ".join(map(str, first)) if isinstance(first, tuple) else str(first))
        if self.detail:
            s += f" ({self.detail})"
        return s


def _scan(kind: str, cases: Iterable[tuple[object, float]], tol: float = 0.0, unit: str = "pairs") -> IdentityReport:
    """Report over (case, violation) pairs.  A violation above tol fails and
    so does a NaN one; a NaN worst violation stays NaN."""
    worst, first, count = 0.0, None, 0
    for case, v in cases:
        count += 1
        if not v <= tol and first is None:
            first = case
        if v > worst or v != v:
            worst = v
    return IdentityReport(kind, worst <= tol, count, worst, first, unit)


def check_symmetry(m: Mould, kind: str, cap: int, alphabet: Sequence[GaussianRational] | None = None, tol: float | None = None) -> IdentityReport:
    """Verify the shuffle/contracting-shuffle symmetry up to combined length cap.

    Exact values compare with equality (tol=None); float-valued moulds use a
    relative tolerance (default 1e-9) and the report carries the worst
    violation seen, not just the first.
    """
    if kind not in ("symmetral", "symmetrel", "alternal", "alternel"):
        raise ValueError(f"unknown symmetry kind {kind!r}")
    alphabet = tuple(alphabet) if alphabet is not None else m.alphabet
    if alphabet is None:
        raise ValueError("symmetry check needs an alphabet")
    if cap < 2 or not alphabet:
        raise ValueError(f"symmetry check at cap {cap} over {len(alphabet)} letters has no pair of words to test")
    pairs = 0
    for total in range(2, cap + 1):  # (total - 1) splits of each length total into two nonempty words
        pairs += (total - 1) * len(alphabet) ** total
        if pairs > MAX_SYMMETRY_PAIRS:
            raise ValueError(f"symmetry check at cap {cap} over {len(alphabet)} letters has more than MAX_SYMMETRY_PAIRS = {MAX_SYMMETRY_PAIRS} pairs of words")
    shuffler = shuffle if kind in ("symmetral", "alternal") else contracting_shuffle
    multiplicative = kind in ("symmetral", "symmetrel")
    e = m.value(EMPTY_WORD)
    if tol is None and not _is_exact(e):
        tol = 1e-9
    # empty-word normalisation
    v = _violation(e, 1 if multiplicative else 0, tol)
    if not v <= (tol or 0.0):
        return IdentityReport(kind, False, 0, v, detail="empty-word value")

    def cases():
        nonempty = [w for w in words_over(alphabet, cap - 1) if w.length >= 1]
        for w1 in nonempty:
            for w2 in nonempty:
                if w1.length + w2.length > cap:
                    continue
                lhs = m.value(w1) * m.value(w2) if multiplicative else 0
                rhs = linear_sum((m.value(w), mult) for w, mult in shuffler(w1, w2).items())
                yield (w1, w2), _violation(rhs, lhs, tol)

    return _scan(kind, cases(), tol or 0.0)


def _is_exact(x):
    return isinstance(x, (int, Fraction, GaussianRational))


def _violation(a, b, tol):
    if tol is None:
        return 0.0 if a == b else 1.0
    fa, fb = complex(a), complex(b)
    return abs(fa - fb) / max(abs(fa), abs(fb), 1e-300)


# ---------------------------------------------------------------------------
# arborification
# ---------------------------------------------------------------------------


def arborify(m: Mould, mode: str = "simple", counting: str = "merges") -> ArMould:
    """Arborified (mode='simple') or contracted arborified (mode='contracting')
    of a mould: sum of mould values over linear extensions / contracting
    covers of the forest.

    For the contracting mode the cover multiplicities follow ``counting``
    (see :func:`armould.words.contracting_covers`).
    """
    if mode not in ("simple", "contracting"):
        raise ValueError(f"unknown arborification mode {mode!r}")

    def rule(f: Forest):
        if not f._key:
            return m.value(EMPTY_WORD)
        cover = linear_extensions(f) if mode == "simple" else contracting_covers(f, counting=counting)
        return linear_sum((m.value(w), mult) for w, mult in cover.items())

    return ArMould(rule)


# ---------------------------------------------------------------------------
# built-in moulds
# ---------------------------------------------------------------------------


def builtin_mould(name: str) -> Mould:
    """Built-ins: unit1, identityI, standard_log, exp, redom, ledom.

    standard_log is (-1)^(r-1)/r — the transition mould of the directional
    logarithm; exp is 1/r! with empty value 0, its composition inverse.
    redom/ledom are the organic transition moulds
    redom^w = (-1)^r (omega_1+omega_r) / (2 ||w||) = -ledom^w.
    """
    if name == "unit1":
        return Mould(lambda w: Fraction(1 if w.length == 0 else 0))
    if name == "identityI":
        return Mould(lambda w: Fraction(1 if w.length == 1 else 0))
    if name == "standard_log":

        def rule_log(w: Word):
            r = w.length
            if r == 0:
                return Fraction(0)
            return Fraction((-1) ** (r - 1), r)

        return Mould(rule_log)
    if name == "exp":

        def rule_exp(w: Word):
            r = w.length
            if r == 0:
                return Fraction(0)
            return Fraction(1, math.factorial(r))

        return Mould(rule_exp)
    if name in ("redom", "ledom"):
        sign = 1 if name == "redom" else -1

        def rule_org(w: Word):
            r = w.length
            if r == 0:
                return GaussianRational(0)
            total = w.norm
            if not total:
                raise ZeroDivisionError(f"{name} undefined on zero-norm word {w}")
            val = (w[0] + w[r - 1]) / (total * 2)
            return val * ((-1) ** r * sign)

        return Mould(rule_org)
    raise ValueError(f"unknown builtin mould {name!r}")


def symmetral_from_letter_weights(weights: dict[GaussianRational, object]) -> Mould:
    """M^w = (prod of letter weights)/r!; the exponential of a single-letter
    (alternal) mould, hence symmetral.  Weights are rationals, and each value
    is one Fraction of the products of their numerators and denominators."""
    wt = {letter(k): Fraction(v).as_integer_ratio() for k, v in weights.items()}

    def rule(w: Word):
        num = den = 1
        for a in w:
            n, d = wt[a]
            num *= n
            den *= d
        return Fraction(num, den * math.factorial(w.length))

    return Mould(rule, alphabet=tuple(wt))


def symmetrel_geometric(x) -> Mould:
    """M^w = (-1)^r (-x)^{||w||}, a quasi-shuffle character, hence symmetrel.

    Needs positive-integer decorations so (-x)^{||w||} is polynomial in x.
    """
    neg_x = -as_gaussian(x)
    powers = [GaussianRational(1)]  # (-x)^k, grown as norms ask for them

    def rule(w: Word):
        r = w.length
        if r == 0:
            return GaussianRational(1)
        n = w.norm
        if not n.is_positive_integer:
            raise ValueError("geometric symmetrel mould needs positive integer norms")
        k = int(n.re)
        while len(powers) <= k:
            powers.append(powers[-1] * neg_x)
        return -powers[k] if r % 2 else powers[k]

    return Mould(rule)


# ---------------------------------------------------------------------------
# transition moulds acting on alien words
# ---------------------------------------------------------------------------


class AlienWordExpansion:
    """Formal expansion of an alien operator at a given norm as a weighted sum
    of lateral-operator words; purely symbolic, never applied to functions."""

    def __init__(self, target: GaussianRational, terms: dict[Word, object] | None = None):
        self.target = target
        self.terms = {} if terms is None else terms


def transition_apply(led: Mould, target_norm) -> AlienWordExpansion:
    """Expand an alien operator of the given positive-integer norm through the
    lateral operators: sum over compositions (omega_1,...,omega_r) of the norm
    of led^{(omega_1,...,omega_r)} D+_{omega_r} ... D+_{omega_1}."""
    target = letter(target_norm)
    if not target.is_positive_integer:
        raise ValueError("transition expansion needs a positive integer norm")
    n = int(target.re)
    compositions = [w for w in words_of_norm_at_most([letter(k) for k in range(1, n + 1)], n) if w.norm == target]
    return AlienWordExpansion(target=target, terms={w: led.value(w) for w in compositions})


# ---------------------------------------------------------------------------
# organic growth report
# ---------------------------------------------------------------------------


class OrganicGrowthReport:
    def __init__(self, max_nodes: int, decorations: tuple, counting: str, sup_by_nodes: dict, forest_counts: dict):
        self.max_nodes = max_nodes
        self.decorations = decorations
        self.counting = counting
        self.sup_by_nodes = sup_by_nodes  # r -> sup over r-node forests of |redom^F|^(1/r)
        self.forest_counts = forest_counts

    @property
    def bound(self) -> float:
        return max(self.sup_by_nodes.values())


def organic_growth_report(max_nodes: int = 6, decorations: Sequence[int] = (1, 2, 3), counting: str = "merges") -> OrganicGrowthReport:
    """Exhaustive growth scan of the contracted arborified of redom:
    sup over r-node forests of |redom^F|^{1/r} for r <= max_nodes.

    redom^{(w_1..w_s)} = (-1)^s (w_1 + w_s) / (2 ||w||) depends only on the
    first letter, the last letter, the length and the (fixed) norm, so the
    cover sum folds over the fiber step of the cover recursion without
    materialising cover words.  A memo on forest keys keeps three exact
    integers over the fiber chains of each forest: sum w (-1)^len, the same
    sum weighted by the first fiber, and by the last.  Each forest takes one
    fiber step, and only the final quotient is a float.
    """
    if counting not in ("merges", "surjections"):
        raise ValueError(f"unknown counting {counting!r}")
    if isinstance(max_nodes, bool) or not isinstance(max_nodes, int) or max_nodes < 1:
        raise ValueError(f"max_nodes must be a positive integer, got {max_nodes!r}")
    try:
        decs = tuple(_integer_values([letter(d) for d in decorations]))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"decorations must be positive integers, got {decorations!r}") from exc
    if not decs:
        raise ValueError("decorations must name at least one letter")
    chains: dict[tuple, tuple[int, int, int]] = {}

    def fold(fk: tuple) -> tuple[int, int, int]:
        # (sum w (-1)^len, the same times the first fiber, times the last)
        # over the fiber chains of the forest key fk; forests come by node
        # count, so every residual's fold is already held
        hit = chains.get(fk)
        if hit is None:
            signed = first = last = 0
            for (dec, rest), w in _fiber_step(fk, counting).items():
                s = dec[0]
                # when nothing is left, its one empty chain counts 1 and the
                # last fiber is this one
                rest_signed, _, rest_last = fold(rest) if rest else (1, 0, s)
                signed -= w * rest_signed
                first -= w * s * rest_signed
                last -= w * rest_last
            hit = chains[fk] = (signed, first, last)
        return hit

    sup_by_nodes = {r: 0.0 for r in range(1, max_nodes + 1)}
    counts = {r: 0 for r in range(1, max_nodes + 1)}
    for r, norm, fk in _forests(decs, max_nodes * max(decs), max_nodes):
        counts[r] += 1
        _, first, last = fold(fk)
        v = abs((first + last) / (2 * norm))
        if v > 0:
            sup_by_nodes[r] = max(sup_by_nodes[r], v ** (1.0 / r))
    return OrganicGrowthReport(
        max_nodes=max_nodes, decorations=decs, counting=counting, sup_by_nodes=sup_by_nodes, forest_counts=counts
    )
