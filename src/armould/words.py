"""Decorated words and forests, and the order morphisms between them.

Multiset semantics throughout: every operation returns a Counter mapping a
Word (or Forest) to its multiplicity.  A letter is its decoration, an exact
GaussianRational; two letters are equal iff their decorations are equal
exactly.

One fiber recursion enumerates every order morphism.  A word is a chain
forest, so the shuffle of two words is the set of linear extensions of
their two-chain forest, and their contracting shuffle is that forest's
covers counted once per surjection.  Contracting covers carry two counting
conventions (see :func:`contracting_covers`); the choice matters as soon as
a forest has incomparable nodes.

Words, trees and forests are immutable and build their canonical key once:
a nested tuple of the letters' ``(re, im)`` keys (integer parts as ints),
made from the parts' stored keys, with its hash beside it.  Equality
compares keys, ``sort_key()`` returns the key, and a norm is one sum over
the key's atoms.

The cover recursion and the forest enumerator run on forest keys alone: a
fiber step removes a set of root keys and sorts what is left into the
residual key, and its fiber sum is a key too.  No Tree, Forest or
GaussianRational is built inside them; cover words become Words and forest
keys Forests once, at the boundary, on letters from one bounded memo.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .values import GaussianRational, _atom, _set, as_gaussian, parse_exact

_key_of = attrgetter("_key")


class _Keyed:
    """Equality and hashing on the canonical key stored at construction, and
    immutability: every field is set once, through ``_set``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return self._key

    def _store_key(self, key: tuple):
        _set(self, "_key", key)
        _set(self, "_hash", hash(key))


def letter(x) -> GaussianRational:
    """A decoration as a letter: a GaussianRational as it is, an exact
    literal string parsed, an int or Fraction coerced; floats are rejected."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, str):
        return parse_exact(x)
    return as_gaussian(x)


class Word(_Keyed):
    """Finite sequence of letters; the index set of moulds."""

    __slots__ = ("letters", "_key", "_hash")

    def __init__(self, letters: Iterable):
        _set(self, "letters", tuple(letter(a) for a in letters))
        self._store_key(tuple(a._key for a in self.letters))

    def __reduce__(self):
        # copy and pickle rebuild from the letters, since __setattr__ refuses
        return (Word, (self.letters,))

    @property
    def length(self) -> int:
        return len(self.letters)

    @property
    def norm(self) -> GaussianRational:
        return GaussianRational(sum(k[0] for k in self._key), sum(k[1] for k in self._key))

    def __len__(self):
        return len(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _word(self.letters[i], self._key[i])
        return self.letters[i]

    def __add__(self, other: "Word") -> "Word":
        return _word(self.letters + other.letters, self._key + other._key)

    def __iter__(self) -> Iterator[GaussianRational]:
        return iter(self.letters)

    def __str__(self):
        return "(" + ",".join(str(a) for a in self.letters) + ")"

    def __repr__(self):
        return f"Word{str(self)}"


def _word(letters: tuple, key: tuple) -> Word:
    """A Word on a tuple of GaussianRational letters and the tuple of their
    keys, both taken as they are."""
    w = object.__new__(Word)
    _set(w, "letters", letters)
    w._store_key(key)
    return w


EMPTY_WORD = Word(())


def word(*decorations) -> Word:
    if len(decorations) == 1 and isinstance(decorations[0], (list, tuple)):
        decorations = tuple(decorations[0])
    return Word(decorations)


def parse_word(text: str) -> Word:
    """Parse ``(a,b,c)`` with exact decoration literals."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"word must be parenthesised: {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return EMPTY_WORD
    return word(*[parse_exact(part) for part in _split_top(inner, ",")])


def _split_top(s: str, sep: str) -> list[str]:
    """Split s at each sep outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


# ---------------------------------------------------------------------------
# trees and forests
# ---------------------------------------------------------------------------


class Tree(_Keyed):
    """Decorated rooted tree; children form a Forest (canonically ordered)."""

    __slots__ = ("root", "children", "_key", "_hash")

    def __init__(self, root, children):
        _set(self, "root", letter(root))
        _set(self, "children", children if isinstance(children, Forest) else Forest(tuple(children)))
        self._store_key((self.root._key, self.children._key))

    def __reduce__(self):
        return (Tree, (self.root, self.children))

    @property
    def node_count(self) -> int:
        return 1 + self.children.node_count

    @property
    def norm(self) -> GaussianRational:
        return GaussianRational(*_key_norm((self._key,)))

    def __str__(self):
        if not self.children.trees:
            return str(self.root)
        return f"{self.root}({','.join(str(t) for t in self.children.trees)})"

    def __repr__(self):
        return f"Tree[{self}]"


class Forest(_Keyed):
    """Multiset of decorated trees, stored sorted so equal forests compare equal."""

    __slots__ = ("trees", "_key", "_hash")

    def __init__(self, trees: Iterable[Tree]):
        ordered = tuple(sorted(trees, key=_key_of))
        _set(self, "trees", ordered)
        self._store_key(tuple(t._key for t in ordered))

    def __reduce__(self):
        return (Forest, (self.trees,))

    @property
    def node_count(self) -> int:
        return sum(t.node_count for t in self.trees)

    @property
    def norm(self) -> GaussianRational:
        return GaussianRational(*_key_norm(self._key))

    def decorations(self) -> Counter:
        out: Counter = Counter()
        for t in self.trees:
            out[t.root] += 1
            out.update(t.children.decorations())
        return out

    def automorphism_count(self) -> int:
        """Order of the decorated-forest automorphism group."""
        n = 1
        for _, group in itertools.groupby(self.trees, key=_key_of):
            block = list(group)
            n *= math.factorial(len(block))
            for t in block:
                n *= t.children.automorphism_count()
        return n

    def __str__(self):
        if not self.trees:
            return "<empty>"
        return ";".join(str(t) for t in self.trees)

    def __repr__(self):
        return f"Forest[{self}]"


EMPTY_FOREST = Forest(())


def _key_norm(fk: tuple) -> tuple:
    """The summed (re, im) atoms of every node of a forest key."""
    re = im = 0
    stack = list(fk)
    while stack:
        (r, i), kids = stack.pop()
        re += r
        im += i
        stack.extend(kids)
    return re, im


def tree(root, children: Iterable = ()) -> Tree:
    return Tree(root, Forest(tuple(c if isinstance(c, Tree) else tree(c) for c in children)))


def forest(*trees_: Tree) -> Forest:
    if len(trees_) == 1 and isinstance(trees_[0], (list, tuple)):
        trees_ = tuple(trees_[0])
    return Forest(tuple(t if isinstance(t, Tree) else tree(t) for t in trees_))


def parse_forest(text: str) -> Forest:
    """Parse ``a(b,c);d``: trees joined by ';', children in parentheses."""
    s = text.strip()
    if not s or s == "<empty>":
        return EMPTY_FOREST
    return Forest(tuple(_parse_tree(p) for p in _split_top(s, ";")))


def _parse_tree(text: str) -> Tree:
    s = text.strip()
    if "(" not in s:
        return tree(parse_exact(s))
    head, rest = s.split("(", 1)
    if not rest.endswith(")"):
        raise ValueError(f"bad tree literal: {text!r}")
    inner = rest[:-1]
    children = [_parse_tree(p) for p in _split_top(inner, ",")] if inner.strip() else []
    return Tree(parse_exact(head), Forest(tuple(children)))


# ---------------------------------------------------------------------------
# order morphisms: words vs forests
# ---------------------------------------------------------------------------


def _fiber_step(fk: tuple, counting: str) -> Counter:
    """One step of the cover recursion on a canonical forest key.

    Every nonempty set of roots is a fiber; roots are pairwise incomparable,
    so every fiber is an antichain.  Returns (fiber decoration key, key of
    the canonical forest left after removing the fiber) -> summed weight,
    where a fiber of size k weighs k! for 'merges' and 1 for 'surjections';
    'extensions' takes singleton fibers only, weight 1.  Equal roots are
    distinct fibers.  A fiber's decoration key is its root key, or the
    summed atoms of its roots' keys, each an int when it is integral.
    """
    out: Counter = Counter()
    for i, (dec, kids) in enumerate(fk):
        rest = [*fk[:i], *fk[i + 1 :], *kids]
        rest.sort()
        out[dec, tuple(rest)] += 1
    n = len(fk)
    for size in range(2, (1 if counting == "extensions" else n) + 1):
        weight = math.factorial(size) if counting == "merges" else 1
        for combo in itertools.combinations(range(n), size):
            rest = [t for i, t in enumerate(fk) if i not in combo]
            re = im = 0
            for i in combo:
                (r, j), kids = fk[i]
                re += r
                im += j
                rest.extend(kids)
            rest.sort()
            out[(_atom(re), _atom(im)), tuple(rest)] += weight
    return out


@lru_cache(maxsize=1 << 14)
def _covers(fk: tuple, counting: str) -> Counter:
    """covers(F) = sum over fibers of weight * [(fiber sum) followed by each
    word of covers(rest)], as tuples of letter keys, memoised on the forest
    key.  Forests share residual forests, so the memo spans calls; it is
    bounded, and its Counters are read, never mutated."""
    if not fk:
        return Counter({(): 1})
    out: Counter = Counter()
    for (dec, rest), weight in _fiber_step(fk, counting).items():
        for tail, mult in _covers(rest, counting).items():
            out[(dec,) + tail] += weight * mult
    return out


@lru_cache(maxsize=1 << 12)
def _letter(key: tuple) -> GaussianRational:
    """The letter of a decoration key, shared by cover words and forest roots."""
    return GaussianRational(*key)


def _cover_words(covers: Counter) -> Counter:
    """Letter-key tuples as Words on the shared letters of :func:`_letter`."""
    return Counter({_word(tuple(map(_letter, w)), w): m for w, m in covers.items()})


def linear_extensions(f: Forest) -> Counter:
    """All words w <= F: order- and decoration-preserving bijections from the
    nodes of F to word positions, counted once per bijection.

    An antichain of r distinct decorations yields r! words.
    """
    return _cover_words(_covers(f._key, "extensions"))


def contracting_covers(f: Forest, counting: str = "merges") -> Counter:
    """All words w << F: strict-order-preserving surjections from nodes to
    positions, each position decorated by the sum of its preimages.

    counting='surjections': one count per distinct surjection.  This is the
    convention under which covers of a disjoint union are the contracting
    shuffle of the covers of the parts, so the contracted arborified of a
    symmetrel mould is separative.

    counting='merges' (default): each surjection is weighted by the number
    of linear extensions of its fibers, i.e. one count per (linear
    extension, adjacent-merge pattern) pair.  This reproduces the classical
    worked example giving the cover (a, b+c) of the tree a(b,c) with
    multiplicity 2.
    """
    if counting not in ("merges", "surjections"):
        raise ValueError(f"unknown counting {counting!r}")
    return _cover_words(_covers(f._key, counting))


def _two_chain_key(w1: Word, w2: Word) -> tuple:
    """The canonical key of the forest of two chains, one per word: each
    letter the only child of the letter before it, an empty word no tree.
    Built from the words' stored letter keys, with no Tree or Forest."""
    trees = []
    for w in (w1, w2):
        chain = ()
        for k in reversed(w._key):
            chain = ((k, chain),)
        trees.extend(chain)
    return tuple(sorted(trees))


def shuffle(w1: Word, w2: Word) -> Counter:
    """All interleavings of w1 and w2 preserving internal orders: the linear
    extensions of their two-chain forest.

    Returns a multiset; the total count is C(r1+r2, r1).
    """
    return _cover_words(_covers(_two_chain_key(w1, w2), "extensions"))


def contracting_shuffle(w1: Word, w2: Word) -> Counter:
    """Quasi-shuffle of w1 and w2: the covers of their two-chain forest,
    counted once per surjection.

    Each step places the next letter of w1, the next letter of w2, or their
    sum, so csh((a),(b)) = (a,b) + (b,a) + (a+b), one contraction term.
    """
    return _cover_words(_covers(_two_chain_key(w1, w2), "surjections"))


def _integer_values(letters: Sequence[GaussianRational]) -> list[int]:
    """The distinct values of positive-integer letters, ascending; any other
    letter is rejected."""
    if any(not a.is_positive_integer for a in letters):
        raise ValueError("norm and forest enumeration need positive integer letters")
    return sorted({int(a.re) for a in letters})


def words_over(alphabet: Sequence[GaussianRational], max_length: int) -> list[Word]:
    """All words (including the empty one) over the alphabet up to a length."""
    out = [EMPTY_WORD]
    layer = [EMPTY_WORD]
    for _ in range(max_length):
        nxt = [w + Word((a,)) for w in layer for a in alphabet]
        out.extend(nxt)
        layer = nxt
    return out


def words_of_norm_at_most(alphabet: Sequence[GaussianRational], max_norm: int) -> list[Word]:
    """All nonempty words over positive-integer letters with norm <= max_norm."""
    values = _integer_values(alphabet)
    found: list[tuple[int, int, tuple]] = []  # (norm, length, letters)

    def rec(prefix: tuple, budget: int):
        for v in values:
            if v <= budget:
                w = prefix + (v,)
                found.append((max_norm - budget + v, len(w), w))
                rec(w, budget - v)

    rec((), max_norm)
    # integer tuples sort as the words' keys do
    return [word(*w) for _, _, w in sorted(found)]


def forests_of_norm(letters: Sequence[GaussianRational], max_norm: int, max_nodes: int | None = None) -> list[Forest]:
    """All canonical forests with positive-integer decorations drawn from
    ``letters`` and norm <= max_norm (and, optionally, nodes <= max_nodes).

    Deterministic enumeration order: by (norm, node count, sort key).
    """
    # every decoration is >= 1, so the norm caps the node count
    stream = _forests(_integer_values(letters), max_norm, max_norm if max_nodes is None else max_nodes)
    trees: dict = {}
    return [_forest(fk, trees) for _, _, fk in sorted((n, k, fk) for k, n, fk in stream)]


def _forest(fk: tuple, trees: dict) -> Forest:
    """The Forest of a canonical forest key, taken as it is; each subtree
    key's Tree is built once and kept in ``trees``, its root a shared letter."""
    f = object.__new__(Forest)
    kept = []
    for tk in fk:
        t = trees.get(tk)
        if t is None:
            t = trees[tk] = Tree(_letter(tk[0]), _forest(tk[1], trees))
        kept.append(t)
    _set(f, "trees", tuple(kept))
    f._store_key(fk)
    return f


def _forests(values: Sequence[int], max_norm: int, max_nodes: int) -> Iterator[tuple[int, int, tuple]]:
    """Nonempty canonical forests decorated by ``values`` (positive integers)
    with norm <= max_norm and at most max_nodes nodes, as (nodes, norm,
    forest key), in increasing node count.  Only the pool of tree keys is
    kept, and no Tree or Forest is built."""
    pool: list[tuple[int, int, tuple]] = []  # (nodes, norm, tree key), by node count

    def multisets(nodes: int, budget: int, start: int) -> Iterator[tuple[int, tuple]]:
        # multisets of pool trees from index `start` on, with `nodes` nodes in
        # all and norm <= budget; non-decreasing indices make each one unique
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
                grown.append((nodes, v + n, ((v, 0), tuple(sorted(kids)))))
        pool.extend(grown)
        for n, trees in multisets(nodes, max_norm, 0):
            yield nodes, n, tuple(sorted(trees))


def count_forests(letters: Sequence[GaussianRational], max_norm: int, max_nodes: int | None = None) -> int:
    """How many forests :func:`forests_of_norm` lists, counted by norm and
    node count without building any."""
    values = _integer_values(letters)
    max_nodes = max_norm if max_nodes is None else max_nodes
    # counts[n][k]: forests (the empty one included) of norm n and k nodes
    # made of the trees of norm below the current one
    counts = [[0] * (max_nodes + 1) for _ in range(max_norm + 1)]
    counts[0][0] = 1
    for n in range(1, max_norm + 1):
        # trees of norm n: a root v over a forest of norm n - v < n, final by now
        trees = [0] + [sum(counts[n - v][k - 1] for v in values if v <= n) for k in range(1, max_nodes + 1)]
        for k, t in enumerate(trees):
            if not t:
                continue
            # admit any multiset of these t trees: j of them in C(t+j-1, j) ways;
            # descending (norm, nodes) so every term read is still the old count
            for big_n in range(max_norm, n - 1, -1):
                for big_k in range(max_nodes, k - 1, -1):
                    j, extra = 1, 0
                    while j * n <= big_n and j * k <= big_k:
                        extra += math.comb(t + j - 1, j) * counts[big_n - j * n][big_k - j * k]
                        j += 1
                    counts[big_n][big_k] += extra
    return sum(map(sum, counts)) - 1
