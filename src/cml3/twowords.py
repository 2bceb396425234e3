"""Straightening calculus on 2-words.

A left-normed word's tail is encoded as an associative word on antisymmetric
letter pairs; a pair flips sign when its letters swap.  A 2-word is one flat
int tuple, the low and the high letter of each canonical pair in turn
(``(lo, hi, lo, hi, ...)``, lo < hi), and ``word_str`` prints it.  Pairs are
ordered by (high letter, low letter).  Words of equal length compare
position by position, first pair most significant.

Relation schemas (``cml3.schemas``, re-exported here) are formal GF(3)
combinations of pattern 2-words that vanish identically when mapped back
into the twisted algebra.  For a given multidegree case, every
instantiation of every schema in the active set is embedded as a
contiguous pair block at every offset, with all arrangements of the
remaining letters around it; echelon reduction of the resulting span
(largest word as leading monomial) yields the irregular words, and their
complement in the word universe bounds the dimension of the case from
above.  An instantiation is a tuple of case letters indexed by schema
letter position, its signed pair blocks are built once from the schema's
position-indexed terms, an instantiation whose blocks repeat an earlier
one's is skipped, each arrangement of the remaining letters is made once,
and then a row costs one word-index lookup per term.  Letters that a
schema treats alike form symmetry classes, derived once per schema from
its terms; permuting the letters of a class leaves an instantiation's
blocks unchanged, so only the instantiations that are non-decreasing
within each class are made.  The seven candidate basis words of the (5,2)
case, ``FIVE_TWO_WORDS``, are re-exported from ``cml3.schemas`` too.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

from ._kernel import pack_sym
from ._value import Value
from .gf3 import rank_only
from .schemas import (CASE_SETS, FIVE_TWO_WORDS,  # noqa: F401
                      RELATION_SETS, SCHEMAS, RelationSchema)
from .words import TypeVector, _as_type, _chain, _eval_tree


def word_str(word: tuple[int, ...]) -> str:
    """A 2-word's text: its pairs joined by dots, each written ``lohi``,
    or ``(lo,hi)`` when a letter is above 9."""
    return ".".join(
        f"{lo}{hi}" if hi < 10 else f"({lo},{hi})"
        for lo, hi in zip(word[::2], word[1::2]))


def normalize(raw: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """Canonicalize raw (letter, letter) pairs: the 2-word and the sign
    of the swaps it took."""
    flat = ()
    sign = 1
    for a, b in raw:
        if a == b:
            raise ValueError(f"degenerate pair ({a}, {b})")
        if a < b:
            flat += (a, b)
        else:
            flat += (b, a)
            sign = 3 - sign
    return flat, sign


def word_values(two_words: Iterable[tuple[int, ...]]) -> list[dict]:
    """The term dicts of 2-words under head letter 0, letter i read as
    generator i: each word's chain tree through ``words._eval_tree``, with
    one ``derivs`` memo."""
    two_words = list(two_words)
    syms = [pack_sym(i)
            for i in range(1 + max(itertools.chain((0,), *two_words)))]
    derivs: dict = {}
    return [_eval_tree(_chain(0, zip(w[::2], w[1::2])), syms, derivs)
            for w in two_words]


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

    Each is a 2-word, a flat int tuple.  Distinct pair choices at each
    slot make the emitted sequences unique.
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


def universe(case: TypeVector) -> list[tuple[int, ...]]:
    """All canonical 2-words of a case, ascending lexicographic order."""
    # each pair ranks by (hi, lo)
    return sorted(_pairings(case_letters(case)),
                  key=lambda w: tuple(zip(w[1::2], w[::2])))


def catalog_order(words: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Number a word universe the way the degree-3 list is printed:
    rightmost pair most significant, descending."""
    return sorted(words, key=lambda w: tuple(zip(w[::-2], w[-2::-2])),
                  reverse=True)


# ---------------------------------------------------------------------------
# relation spans and regular words
# ---------------------------------------------------------------------------

def _signed_blocks(schema: RelationSchema, assign: tuple[int, ...]):
    """An instantiation's terms as (sign mod 3, canonical pair block).

    A block is the term's canonical pairs as a flat tuple; terms with
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


@lru_cache(maxsize=None)
def _class_prev(schema: RelationSchema) -> tuple[int, ...]:
    """For each schema letter position, the one before it in its
    symmetry class, or -1.

    Two letters are interchangeable when they occur equally often and
    swapping them leaves the schema's signed blocks, as a multiset,
    unchanged; the classes are the connected components of those swaps.
    The swaps of a class generate every permutation of it, so they all
    leave the signed blocks of any instantiation unchanged too.
    """
    size = len(schema.pos_counts)
    ident = tuple(range(size))
    base = sorted(_signed_blocks(schema, ident))
    root = list(ident)
    for q in range(size):
        for p in range(q):
            if schema.pos_counts[p] != schema.pos_counts[q]:
                continue
            swap = list(ident)
            swap[p], swap[q] = q, p
            if sorted(_signed_blocks(schema, tuple(swap))) == base:
                rp, rq = root[p], root[q]
                root = [rp if r == rq else r for r in root]
    return tuple(max((p for p in range(q) if root[p] == root[q]), default=-1)
                 for q in range(size))


def _instantiations(schema: RelationSchema, counts: dict[int, int]):
    """Letter maps (not necessarily injective) whose image fits the case,
    one per orbit of the schema's symmetry classes, in lexicographic
    order.

    Each is a tuple giving the case letter of every schema letter, by the
    schema letter's position.  Within a symmetry class (``_class_prev``)
    the letters are non-decreasing in position order, which keeps of each
    orbit its lexicographically first member; the others have the same
    signed blocks.
    """
    letters = sorted(counts)
    need = schema.pos_counts
    prev = _class_prev(schema)
    size = len(need)
    acc = [0] * size

    def rec(i: int, used: dict[int, int]):
        if i == size:
            yield tuple(acc)
            return
        low = acc[prev[i]] if prev[i] >= 0 else letters[0]
        for letter in letters:
            if letter < low:
                continue
            total = used.get(letter, 0) + need[i]
            if total > counts[letter]:
                continue
            used[letter] = total
            acc[i] = letter
            yield from rec(i + 1, used)
            used[letter] -= need[i]

    yield from rec(0, {})


def _span_rows_indexed(case: TypeVector, relation_set: str, words):
    """Span rows as dicts keyed by descending position in ``words``, which
    is ``universe(case)``, so the eliminator pivots on the largest word.

    Every instantiation of every schema in the set occupies a contiguous
    pair block at every offset, and the remaining case letters fill the
    other slots in every arrangement; terms whose pairs degenerate under
    the instantiation vanish.  Rows are kept as built, repeats too: the
    pivots depend only on the span.

    Each instantiation's signed blocks are built once; a row is then one
    index lookup per term, of the fill's head, the block and the fill's
    tail, all flat tuples.  ``_instantiations`` makes one instantiation
    per orbit of the schema's symmetry classes, the orbit's first in
    lexicographic order; on the (5,2) case that is 173, 1,092, 828 and 12
    of the 606, 5,400, 5,400 and 48 letter maps of X, g1, g2 and g3.  An
    instantiation whose schema length and signed blocks, as a multiset,
    repeat an earlier one's makes the same rows again, so it is skipped:
    2,019 of those 2,105 build rows.  The walk reaches every signature the
    full walk does, first by the same instantiation, so the rows and their
    order are the full walk's.
    """
    counts = case_letters(case)
    word_len = sum(counts.values()) // 2
    if word_len == 0:
        return []
    top = len(words) - 1
    index = {w: top - i for i, w in enumerate(words)}
    rows: list[dict] = []
    seen_blocks: set = set()
    for name in RELATION_SETS[relation_set]:
        schema = SCHEMAS[name]
        if schema.length > word_len:
            raise ValueError(
                f"schema {name} needs {schema.length}-pair words; "
                f"case {case} has {word_len}"
            )
        need = schema.pos_counts
        for assign in _instantiations(schema, counts):
            blocks = _signed_blocks(schema, assign)
            if not blocks:
                continue
            # Every block holds the instantiation's whole letter multiset,
            # so the blocks fix the remaining letters too.
            signature = (schema.length, *sorted(blocks))
            if signature in seen_blocks:
                continue
            seen_blocks.add(signature)
            rem = dict(counts)
            for p, letter in enumerate(assign):
                rem[letter] -= need[p]
            fills = list(_pairings(rem))
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
                    if row:
                        rows.append(row)
    return rows


class RegularReport(Value):
    """Outcome of the span reduction for one case."""

    __slots__ = _fields = ("case", "relation_set", "universe", "irregular",
                           "regular", "bound")

    def __init__(self, case: TypeVector, relation_set: str,
                 universe: tuple[tuple[int, ...], ...],
                 irregular: tuple[tuple[int, ...], ...],
                 regular: tuple[tuple[int, ...], ...], bound: int):
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
    _, pivot_keys = rank_only(_span_rows_indexed(case, relation_set, words))
    top = len(words) - 1
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

def _x_irregular(p1: tuple[int, int], p2: tuple[int, int]) -> bool:
    # On four distinct letters w < x < y < z the irregular 2-pair words are
    # yz.wx and xz.wy.
    letters = sorted(p1 + p2)
    if len(set(letters)) != 4:
        return False
    w, x, y, z = letters
    return (p1, p2) in (((y, z), (w, x)), ((x, z), (w, y)))


def pattern_predicates_case7(word: tuple[int, ...]) -> tuple[str, int | None]:
    """Classify a word of the all-distinct six-letter case by the three
    explicit reduction patterns; independent of the span computation.

    Returns ("regular", None) or ("irregular", step).
    """
    if len(word) != 6 or len(set(word)) != 6:
        raise ValueError("predicates apply to three distinct pairs")
    p1, p2, p3 = word[:2], word[2:4], word[4:]
    if _x_irregular(p1, p2) or _x_irregular(p2, p3):
        return ("irregular", 1)
    # one letter from each pair, strictly decreasing front to back
    for s in p1:
        for l in p2:
            for m in p3:
                if s > l > m:
                    return ("irregular", 2)
    # in-pair orderings (i,j), (p,q), (r,t) with i >= t, j >= p, q >= r
    for i, j in (p1, p1[::-1]):
        for p, q in (p2, p2[::-1]):
            for r, t in (p3, p3[::-1]):
                if i > t and j > p and q > r:
                    return ("irregular", 3)
    return ("regular", None)


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
