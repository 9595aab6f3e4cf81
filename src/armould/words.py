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

Words and forests are immutable and are their canonical keys alone: a
nested tuple of the letters' ``(re, im)`` keys (integer parts as ints).  A
word is the tuple of its letters' keys; a forest is the sorted tuple of its
trees' ``(root key, children's forest key)`` pairs, and a tree is a
one-tree forest.  A letter is read back from one bounded memo on letter
keys, shared by every word and forest root.  Equality compares keys,
``sort_key()`` returns the key, and a norm, a node count, an automorphism
count or a printed literal is one walk over the key.

The cover recursion and the forest enumerator run on bare forest keys: a
fiber step removes a set of root keys and sorts what is left into the
residual key, and its fiber sum is a key too.  No Forest or
GaussianRational is built inside them; cover words become Words and forest
keys Forests once, at the boundary, each key taken as it is.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .values import GaussianRational, _atom, _set, as_gaussian, parse_exact


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
    """Finite sequence of letters; the index set of moulds.  Held as its
    canonical key alone, the tuple of its letters' keys; a letter is read
    from the shared memo :func:`_letter`."""

    __slots__ = ("_key", "_hash")

    def __init__(self, letters: Iterable):
        self._store_key(tuple(letter(a)._key for a in letters))

    def __reduce__(self):
        # copy and pickle rebuild from the key, since __setattr__ refuses
        return (_word, (self._key,))

    @property
    def length(self) -> int:
        return len(self._key)

    @property
    def norm(self) -> GaussianRational:
        return GaussianRational(sum(k[0] for k in self._key), sum(k[1] for k in self._key))

    def __len__(self):
        return len(self._key)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _word(self._key[i])
        return _letter(self._key[i])

    def __add__(self, other: "Word") -> "Word":
        return _word(self._key + other._key)

    def __iter__(self) -> Iterator[GaussianRational]:
        return map(_letter, self._key)

    def __str__(self):
        return "(" + ",".join(map(str, self)) + ")"

    def __repr__(self):
        return f"Word{str(self)}"


def _word(key: tuple) -> Word:
    """The Word of a tuple of letter keys, taken as it is."""
    w = object.__new__(Word)
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
# forests
# ---------------------------------------------------------------------------


class Forest(_Keyed):
    """Multiset of decorated trees, held as its canonical key alone: the
    sorted tuple of its trees' keys, a tree's key being its root's letter key
    and its children's forest key.  ``Forest(parts)`` is the union of forests
    and of one-node trees given by their decorations."""

    __slots__ = ("_key", "_hash")

    def __init__(self, parts: Iterable):
        keys = [k for p in parts for k in (p._key if isinstance(p, Forest) else ((letter(p)._key, ()),))]
        self._store_key(tuple(sorted(keys)))

    def __reduce__(self):
        # copy and pickle rebuild from the key, since __setattr__ refuses
        return (_forest, (self._key,))

    @property
    def node_count(self) -> int:
        return sum(1 for _ in _nodes(self._key))

    @property
    def norm(self) -> GaussianRational:
        re = im = 0
        for r, i in _nodes(self._key):
            re += r
            im += i
        return GaussianRational(re, im)

    def automorphism_count(self) -> int:
        """Order of the decorated-forest automorphism group: m! for every
        block of m equal trees among the roots or among one node's children."""
        n, stack = 1, [self._key]
        while stack:
            fk = stack.pop()
            for (_, kids), block in itertools.groupby(fk):
                m = len(list(block))
                n *= math.factorial(m)
                stack += [kids] * m
        return n

    def __str__(self):
        return ";".join(map(_tree_str, self._key)) if self._key else "<empty>"

    def __repr__(self):
        return f"Forest[{self}]"


def _forest(fk: tuple) -> Forest:
    """The Forest of a canonical forest key, taken as it is."""
    f = object.__new__(Forest)
    f._store_key(fk)
    return f


EMPTY_FOREST = _forest(())


def _nodes(fk: tuple) -> Iterator[tuple]:
    """The letter key of every node of a forest key."""
    stack = list(fk)
    while stack:
        dec, kids = stack.pop()
        yield dec
        stack.extend(kids)


def _tree_str(tk: tuple) -> str:
    """The literal ``a(b,c)`` of a tree key."""
    dec, kids = tk
    root = str(_letter(dec))
    return f"{root}({','.join(map(_tree_str, kids))})" if kids else root


def tree(root, children: Iterable = ()) -> Forest:
    """The one-tree forest of a root decoration over children, each a forest
    or the decoration of a one-node tree."""
    return _forest(((letter(root)._key, Forest(children)._key),))


def forest(*parts) -> Forest:
    if len(parts) == 1 and isinstance(parts[0], (list, tuple)):
        parts = tuple(parts[0])
    return Forest(parts)


def parse_forest(text: str) -> Forest:
    """Parse ``a(b,c);d``: trees joined by ';', children in parentheses."""
    s = text.strip()
    if not s or s == "<empty>":
        return EMPTY_FOREST
    return Forest(_parse_tree(p) for p in _split_top(s, ";"))


def _parse_tree(text: str) -> Forest:
    s = text.strip()
    if "(" not in s:
        return tree(parse_exact(s))
    head, rest = s.split("(", 1)
    if not rest.endswith(")"):
        raise ValueError(f"bad tree literal: {text!r}")
    inner = rest[:-1]
    children = [_parse_tree(p) for p in _split_top(inner, ",")] if inner.strip() else []
    return tree(parse_exact(head), children)


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
    """The letter of a decoration key, shared by every word and forest root."""
    return GaussianRational(*key)


def _cover_words(covers: Counter) -> Counter:
    """Letter-key tuples as Words, each tuple taken as it is."""
    return Counter({_word(w): m for w, m in covers.items()})


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
    Built from the words' stored letter keys, with no Forest."""
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
    keys = [letter(a)._key for a in alphabet]
    out, layer = [()], [()]
    for _ in range(max_length):
        layer = [w + (k,) for w in layer for k in keys]
        out += layer
    return list(map(_word, out))


def words_of_norm_at_most(alphabet: Sequence[GaussianRational], max_norm: int) -> list[Word]:
    """All nonempty words over positive-integer letters with norm <= max_norm."""
    letters = [(v, (v, 0)) for v in _integer_values(alphabet)]
    found: list[tuple[int, int, tuple]] = []  # (norm, length, key)

    def rec(prefix: tuple, budget: int):
        for v, k in letters:
            if v <= budget:
                w = prefix + (k,)
                found.append((max_norm - budget + v, len(w), w))
                rec(w, budget - v)

    rec((), max_norm)
    return [_word(w) for _, _, w in sorted(found)]


def forests_of_norm(letters: Sequence[GaussianRational], max_norm: int, max_nodes: int | None = None) -> list[Forest]:
    """All canonical forests with positive-integer decorations drawn from
    ``letters`` and norm <= max_norm (and, optionally, nodes <= max_nodes).

    Deterministic enumeration order: by (norm, node count, sort key).
    """
    # every decoration is >= 1, so the norm caps the node count
    stream = _forests(_integer_values(letters), max_norm, max_norm if max_nodes is None else max_nodes)
    return [_forest(fk) for _, _, fk in sorted((n, k, fk) for k, n, fk in stream)]


def _forests(values: Sequence[int], max_norm: int, max_nodes: int) -> Iterator[tuple[int, int, tuple]]:
    """Nonempty canonical forests decorated by ``values`` (positive integers)
    with norm <= max_norm and at most max_nodes nodes, as (nodes, norm,
    forest key), in increasing node count.  Only the pool of tree keys is
    kept, and no Forest is built."""
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
