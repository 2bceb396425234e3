"""Straightening calculus on 2-words.

A left-normed word's tail is encoded as an associative word on antisymmetric
letter pairs; a pair flips sign when its letters swap.  Canonical pairs are
written smaller letter first, and pairs are ordered by (high letter, low
letter).  Words of equal length compare position by position, first pair
most significant.

Relation schemas (``cml3.schemas``, re-exported here) are formal GF(3)
combinations of pattern 2-words that vanish identically when mapped back
into the twisted algebra.  For a given multidegree case, every
instantiation of every schema in the active set is embedded as a
contiguous pair block at every offset, with all arrangements of the
remaining letters around it; echelon reduction of the resulting span
(largest word as leading monomial) yields the irregular words, and their
complement in the word universe bounds the dimension of the case from
above.  The span rows are built on flat int tuples, not ``Pair`` objects:
an instantiation is a tuple of case letters indexed by schema letter
position, its signed pair blocks are built once from the schema's
position-indexed terms, an instantiation whose blocks repeat an earlier
one's is skipped, each arrangement of the remaining letters is made once,
and then a row costs one word-index lookup per term.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache, total_ordering

from ._value import Value
from .gf3 import rank_only
from .schemas import CASE_SETS, RELATION_SETS, SCHEMAS, RelationSchema
from .words import LeftNormedWord, TypeVector, _as_type


@total_ordering
class Pair(Value):
    """An antisymmetric letter pair in canonical (lo < hi) form."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo >= hi:
            raise ValueError(f"pair must satisfy lo < hi: ({lo}, {hi})")
        self._init(lo, hi)

    def rank(self) -> tuple[int, int]:
        return (self.hi, self.lo)

    def __lt__(self, other: "Pair") -> bool:
        return self.rank() < other.rank()

    def __str__(self) -> str:
        if self.lo < 10 and self.hi < 10:
            return f"{self.lo}{self.hi}"
        return f"({self.lo},{self.hi})"


class TwoWord(Value):
    """A sequence of canonical pairs plus the sign from canonicalization."""

    __slots__ = _fields = ("pairs", "sign")

    def __init__(self, pairs: tuple[Pair, ...], sign: int = 1):
        self._init(pairs, sign)

    def monic(self) -> "TwoWord":
        return TwoWord(self.pairs, 1) if self.sign != 1 else self

    def __lt__(self, other: "TwoWord") -> bool:
        return lex_compare(self, other) < 0

    def __le__(self, other: "TwoWord") -> bool:
        return lex_compare(self, other) <= 0

    def __str__(self) -> str:
        return ".".join(str(p) for p in self.pairs)

    def letters(self) -> list[int]:
        out = []
        for p in self.pairs:
            out.extend((p.lo, p.hi))
        return out


def normalize(raw: Sequence[tuple[int, int]]) -> TwoWord:
    """Canonicalize raw (letter, letter) pairs, tracking the sign."""
    pairs = []
    sign = 1
    for a, b in raw:
        if a == b:
            raise ValueError(f"degenerate pair ({a}, {b})")
        if a < b:
            pairs.append(Pair(a, b))
        else:
            pairs.append(Pair(b, a))
            sign = (sign * 2) % 3
    return TwoWord(tuple(pairs), sign)


def lex_compare(u: TwoWord, v: TwoWord) -> int:
    """Position-wise comparison by the pair order; -1, 0 or 1."""
    if len(u.pairs) != len(v.pairs):
        raise ValueError("cannot compare 2-words of different lengths")
    for a, b in zip(u.pairs, v.pairs):
        if a.rank() != b.rank():
            return -1 if a.rank() < b.rank() else 1
    return 0


def to_left_normed(word: TwoWord, head: int) -> LeftNormedWord:
    """The left-normed word this 2-word encodes, under the given head."""
    return LeftNormedWord(head, tuple((p.lo, p.hi) for p in word.pairs))


# ---------------------------------------------------------------------------
# case universes
# ---------------------------------------------------------------------------

def case_letters(case: TypeVector) -> dict[int, int]:
    """Letter multiplicities of a case's 2-word tail.

    The head letter absorbs one of the once-occurring letters and is not
    part of the 2-word; single letters are numbered from 1, repeated
    letters get the following ids (so the doubled letters sort above every
    single one, matching the printed lists).
    """
    if not case.counts or case.counts[0] < 1:
        raise ValueError(f"case {case} has no head letter")
    if any(c for c in case.counts[2:]):
        raise ValueError("2-word cases use letters of multiplicity at most 2")
    counts: dict[int, int] = {}
    letter = 1
    for _ in range(case.counts[0] - 1):
        counts[letter] = 1
        letter += 1
    if len(case.counts) > 1:
        for _ in range(case.counts[1]):
            counts[letter] = 2
            letter += 1
    return counts


def _pairings(counts: dict[int, int]) -> Iterator[tuple[int, ...]]:
    """All canonical pair sequences exhausting a letter multiset.

    Each is a flat int tuple, lo and hi of each pair in turn (the
    ``_flat`` form).  Distinct pair choices at each slot make the emitted
    sequences unique.
    """
    total = sum(counts.values())
    if total % 2:
        raise ValueError("odd letter count cannot form pairs")

    letters = sorted(counts)

    def rec(rem: dict[int, int], depth: int):
        if depth == 0:
            yield ()
            return
        for i, a in enumerate(letters):
            if not rem[a]:
                continue
            for b in letters[i + 1 :]:
                if not rem[b]:
                    continue
                rem[a] -= 1
                rem[b] -= 1
                for rest in rec(rem, depth - 1):
                    yield (a, b) + rest
                rem[a] += 1
                rem[b] += 1

    yield from rec(dict(counts), total // 2)


def universe(case: TypeVector) -> list[TwoWord]:
    """All canonical 2-words of a case, ascending lexicographic order."""
    # each pair ranks by (hi, lo), as Pair.rank
    flats = sorted(_pairings(case_letters(case)),
                   key=lambda f: tuple(zip(f[1::2], f[::2])))
    return [
        TwoWord(tuple(Pair(f[i], f[i + 1]) for i in range(0, len(f), 2)))
        for f in flats
    ]


def catalog_order(words: Iterable[TwoWord]) -> list[TwoWord]:
    """Number a word universe the way the degree-3 list is printed:
    rightmost pair most significant, descending."""
    return sorted(
        words,
        key=lambda w: tuple(p.rank() for p in reversed(w.pairs)),
        reverse=True,
    )


# ---------------------------------------------------------------------------
# relation spans and regular words
# ---------------------------------------------------------------------------

def _instantiations(schema: RelationSchema, counts: dict[int, int]):
    """Letter maps (not necessarily injective) whose image fits the case.

    Each is a tuple giving the case letter of every schema letter, by the
    schema letter's position.
    """
    letters = sorted(counts)
    need = schema.pos_counts
    size = len(need)
    acc = [0] * size

    def rec(i: int, used: dict[int, int]):
        if i == size:
            yield tuple(acc)
            return
        for letter in letters:
            total = used.get(letter, 0) + need[i]
            if total > counts[letter]:
                continue
            used[letter] = total
            acc[i] = letter
            yield from rec(i + 1, used)
            used[letter] -= need[i]

    yield from rec(0, {})


def _flat(pairs: Iterable[Pair]) -> tuple[int, ...]:
    """Canonical pairs as one flat int tuple: lo, hi of each pair in turn."""
    return tuple(x for p in pairs for x in (p.lo, p.hi))


def _signed_blocks(schema: RelationSchema, assign: tuple[int, ...]):
    """An instantiation's terms as (sign mod 3, canonical pair block).

    A block is the ``_flat`` form of the term's canonical pairs; terms with
    a degenerate pair vanish and are left out.
    """
    blocks = []
    for coeff, pattern in schema.pos_terms:
        sign = coeff
        block = ()
        for a, b in pattern:
            la = assign[a]
            lb = assign[b]
            if la < lb:
                block += (la, lb)
            elif la > lb:
                block += (lb, la)
                sign = 3 - sign
            else:
                break
        else:
            blocks.append((sign, block))
    return blocks


def _span_rows_indexed(case: TypeVector, relation_set: str, words):
    """Span rows as dicts keyed by universe index, deduplicated up to scalar.

    Every instantiation of every schema in the set occupies a contiguous
    pair block at every offset, and the remaining case letters fill the
    other slots in every arrangement; terms whose pairs degenerate under
    the instantiation vanish.  ``words`` is ``universe(case)``, so index
    order is word order.

    Each instantiation's signed blocks are built once; a row is then one
    index lookup per term, of the fill's head, the block and the fill's
    tail, all in ``_flat`` form.  An instantiation whose schema length and
    signed blocks, as a multiset, repeat an earlier one's makes the same
    rows again, which are all in the list already, so it is skipped.
    """
    counts = case_letters(case)
    word_len = sum(counts.values()) // 2
    if word_len == 0:
        return []
    index = {_flat(w.pairs): i for i, w in enumerate(words)}
    rows: list[dict] = []
    seen: set = set()
    seen_blocks: set = set()
    fill_cache: dict = {}
    for name in RELATION_SETS[relation_set]:
        schema = SCHEMAS[name]
        if schema.length > word_len:
            raise ValueError(
                f"schema {name} needs {schema.length}-pair words; "
                f"case {case} has {word_len}"
            )
        need = schema.pos_counts
        # Every block holds the instantiation's whole letter multiset, so
        # the blocks fix the remaining letters too.  The length byte fixes
        # the block width, so a key's bytes parse one way only.
        length = bytes((schema.length,))
        for assign in _instantiations(schema, counts):
            blocks = _signed_blocks(schema, assign)
            if not blocks:
                continue
            key = length + b"".join(
                sorted([bytes((sign,) + block) for sign, block in blocks]))
            if key in seen_blocks:
                continue
            seen_blocks.add(key)
            rem = dict(counts)
            for p, letter in enumerate(assign):
                rem[letter] -= need[p]
            remaining = tuple((k, rem[k]) for k in sorted(rem) if rem[k])
            fills = fill_cache.get(remaining)
            if fills is None:
                fills = list(_pairings(dict(remaining)))
                fill_cache[remaining] = fills
            for offset in range(word_len - schema.length + 1):
                for fill in fills:
                    head, tail = fill[:2 * offset], fill[2 * offset:]
                    row: dict[int, int] = {}
                    for sign, block in blocks:
                        key = index[head + block + tail]
                        c = (row.get(key, 0) + sign) % 3
                        if c:
                            row[key] = c
                        else:
                            row.pop(key, None)
                    if not row:
                        continue
                    items = tuple(sorted(row.items()))
                    if items[0][1] == 2:
                        items = tuple((k, (2 * c) % 3) for k, c in items)
                    if items not in seen:
                        seen.add(items)
                        rows.append(dict(items))
    return rows


class RegularReport(Value):
    """Outcome of the span reduction for one case."""

    __slots__ = _fields = ("case", "relation_set", "universe", "irregular",
                           "regular", "bound")

    def __init__(self, case: TypeVector, relation_set: str,
                 universe: tuple[TwoWord, ...], irregular: tuple[TwoWord, ...],
                 regular: tuple[TwoWord, ...], bound: int):
        self._init(case, relation_set, universe, irregular, regular, bound)


def regular_words(
    case: TypeVector | str,
    relation_set: str | None = None,
) -> RegularReport:
    """Echelon-reduce the relation span; leading monomials are irregular.

    Pivoting prefers the lexicographically largest word, so a word is
    irregular exactly when some combination of relation instances has it as
    leading term.  The surviving regular words bound the case dimension.
    """
    case = _as_type(case)
    if relation_set is None:
        relation_set = CASE_SETS.get(str(case))
        if relation_set is None:
            raise ValueError(f"no default relation set for case {case}")
    return _regular_cached(case.counts, relation_set)


@lru_cache(maxsize=None)
def _regular_cached(counts: tuple[int, ...], relation_set: str) -> RegularReport:
    case = TypeVector(counts)
    words = universe(case)
    rows = _span_rows_indexed(case, relation_set, words)
    # Re-key by position in descending order so the smallest-key pivoting of
    # the eliminator picks the largest word first.
    top = len(words) - 1
    _, pivot_keys = rank_only([{top - i: c for i, c in row.items()} for row in rows])
    irregular = {words[top - i] for i in pivot_keys}
    regular = tuple(w for w in words if w not in irregular)
    return RegularReport(
        case=case,
        relation_set=relation_set,
        universe=tuple(words),
        irregular=tuple(w for w in words if w in irregular),
        regular=regular,
        bound=len(regular),
    )


# ---------------------------------------------------------------------------
# independent reduction patterns for the six-letter case
# ---------------------------------------------------------------------------

def _x_irregular(p1: Pair, p2: Pair) -> bool:
    # On four distinct letters w < x < y < z the irregular 2-pair words are
    # yz.wx and xz.wy.
    letters = sorted((p1.lo, p1.hi, p2.lo, p2.hi))
    if len(set(letters)) != 4:
        return False
    w, x, y, z = letters
    return (p1, p2) in (
        (Pair(y, z), Pair(w, x)),
        (Pair(x, z), Pair(w, y)),
    )


def pattern_predicates_case7(word: TwoWord) -> tuple[str, int | None]:
    """Classify a word of the all-distinct six-letter case by the three
    explicit reduction patterns; independent of the span computation.

    Returns ("regular", None) or ("irregular", step).
    """
    if len(word.pairs) != 3 or len(set(word.letters())) != 6:
        raise ValueError("predicates apply to three distinct pairs")
    for i in range(2):
        if _x_irregular(word.pairs[i], word.pairs[i + 1]):
            return ("irregular", 1)
    (p1, p2, p3) = word.pairs
    # one letter from each pair, strictly decreasing front to back
    for s in (p1.lo, p1.hi):
        for l in (p2.lo, p2.hi):
            for m in (p3.lo, p3.hi):
                if s > l > m:
                    return ("irregular", 2)
    # in-pair orderings (i,j), (p,q), (r,t) with i >= t, j >= p, q >= r
    for i, j in ((p1.lo, p1.hi), (p1.hi, p1.lo)):
        for p, q in ((p2.lo, p2.hi), (p2.hi, p2.lo)):
            for r, t in ((p3.lo, p3.hi), (p3.hi, p3.lo)):
                if i > t and j > p and q > r:
                    return ("irregular", 3)
    return ("regular", None)


# The seven candidate basis words of the (5,2) case, with doubled letters
# b = 5, c = 6 above the four single letters.
FIVE_TWO_WORDS = tuple(
    normalize(raw).monic()
    for raw in (
        [(1, 2), (3, 5), (4, 6), (5, 6)],
        [(1, 3), (2, 5), (4, 6), (5, 6)],
        [(2, 3), (1, 5), (4, 6), (5, 6)],
        [(1, 4), (2, 5), (3, 6), (5, 6)],
        [(1, 5), (2, 3), (4, 6), (5, 6)],
        [(1, 6), (2, 3), (4, 5), (5, 6)],
        [(1, 5), (2, 6), (3, 4), (5, 6)],
    )
)


def linearize(
    terms: Sequence[tuple[int, Sequence[tuple[str, str]]]],
    letter: str,
    fresh: Sequence[str],
) -> list[tuple[int, tuple[tuple[str, str], ...]]]:
    """Full linearization of a repeated pattern letter.

    Sums over all bijections from the letter's occurrences to the fresh
    letters, which is how the printed exchange relation arises from the
    skew/symmetry of the one-slot chain.
    """
    out = []
    for coeff, pairs in terms:
        slots = [
            (i, j)
            for i, pair in enumerate(pairs)
            for j, x in enumerate(pair)
            if x == letter
        ]
        if len(slots) != len(fresh):
            raise ValueError("occurrence count must match fresh letters")
        for perm in itertools.permutations(fresh):
            new_pairs = [list(p) for p in pairs]
            for (i, j), repl in zip(slots, perm):
                new_pairs[i][j] = repl
            out.append((coeff, tuple(tuple(p) for p in new_pairs)))
    return out
