"""Enumeration and evaluation of 3-words by multidegree type.

A 3-word is a full ternary tree built from generators by the associator of
the twisted algebra.  Because every node value is homogeneous odd, a node
(u, v, w) evaluates to the derivation of the plain exterior product
u ^ v ^ w, which is what makes exhaustive enumeration cheap.

The type vector of a word counts how many letters appear exactly once,
twice, three times, ...  The dimension of the span of all words of a given
type is computed by enumerating left-normed words with a fixed head letter
(any word can be rewritten in that shape), evaluating them exactly, and
taking the rank over GF(3).  Enumeration walks a prefix tree: states that
evaluate to zero are dropped, and states with proportional values and equal
remaining letter multisets are merged, neither of which can change the rank
of the final span.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from . import _kernel, gf3
# rank_and_kernel stays importable here: perfbench/tracer.py wraps the gf3
# names at each module that imports them
from .gf3 import SparseRow, rank_and_kernel  # noqa: F401
from .grassmann import GElement, Monomial
from ._kernel import key_from_syms, pack_sym

logger = logging.getLogger("cml3.words")

# Soft cap on the generator count; beyond it there is no ground truth and
# the enumeration cost explodes.
MAX_SAFE_N = 7
# Matching caps for a single type vector.
MAX_SAFE_LETTERS = 7
MAX_SAFE_WEIGHT = 2 * MAX_SAFE_N - 1


@dataclass(frozen=True)
class TypeVector:
    """Multidegree of a 3-word: counts[i-1] letters appear exactly i times."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("negative multiplicity count")
        if self.counts and self.counts[-1] == 0:
            raise ValueError("trailing zero in type vector")

    @classmethod
    def of(cls, counts: Iterable[int]) -> "TypeVector":
        counts = list(counts)
        while counts and counts[-1] == 0:
            counts.pop()
        return cls(tuple(counts))

    @classmethod
    def parse(cls, text: str) -> "TypeVector":
        parts = [p.strip() for p in text.split(",") if p.strip() != ""]
        if not parts:
            raise ValueError(f"empty type vector: {text!r}")
        return cls.of(int(p) for p in parts)

    @property
    def weight(self) -> int:
        """Total letter occurrences: the leaf count of a word of this type."""
        return sum((i + 1) * c for i, c in enumerate(self.counts))

    @property
    def letters(self) -> int:
        return sum(self.counts)

    def multiplicities(self) -> list[int]:
        """Per-letter multiplicity, lowest multiplicities first."""
        out = []
        for i, c in enumerate(self.counts):
            out.extend([i + 1] * c)
        return out

    def sort_key(self):
        return (self.weight, self.letters, self.counts)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.counts)


class Word3:
    """A full ternary tree whose leaves carry letter ids."""

    __slots__ = ("tree",)

    def __init__(self, tree):
        _check_tree(tree)
        self.tree = tree

    def leaves(self) -> list[int]:
        out: list[int] = []
        _collect_leaves(self.tree, out)
        return out

    def __eq__(self, other):
        return isinstance(other, Word3) and self.tree == other.tree

    def __hash__(self):
        return hash(self.tree)

    def __repr__(self):
        return f"Word3({self.tree!r})"


def _check_tree(tree):
    if isinstance(tree, int):
        return
    if isinstance(tree, tuple) and len(tree) == 3:
        for child in tree:
            _check_tree(child)
        return
    raise ValueError("word tree nodes need exactly three children")


def _collect_leaves(tree, out):
    if isinstance(tree, int):
        out.append(tree)
    else:
        for child in tree:
            _collect_leaves(child, out)


@dataclass(frozen=True)
class LeftNormedWord:
    """Word of shape ((..((head, a1, a2), a3, a4).."), one pair per step."""

    head: int
    tail: tuple[tuple[int, int], ...] = ()

    def to_word3(self) -> Word3:
        tree: Union[int, tuple] = self.head
        for a, b in self.tail:
            tree = (tree, a, b)
        return Word3(tree)

    def letters(self) -> list[int]:
        out = [self.head]
        for a, b in self.tail:
            out.extend((a, b))
        return out


@dataclass(frozen=True)
class DimReport:
    """Per-type dimensions of the 3-word span on n generators."""

    n: int
    per_type: tuple[tuple[TypeVector, int, int], ...]
    total: int

    def __post_init__(self):
        if self.total != sum(c for _, _, c in self.per_type):
            raise ValueError("total does not match per-type sum")


def eval_word(
    word: Union[Word3, LeftNormedWord],
    assign: Mapping[int, int],
) -> GElement:
    """Evaluate a word with leaves mapped to generators through ``assign``."""
    if isinstance(word, LeftNormedWord):
        try:
            head = assign[word.head]
            pairs = [(assign[a], assign[b]) for a, b in word.tail]
        except KeyError as exc:
            raise ValueError(f"letter {exc.args[0]} has no generator assigned")
        return GElement._wrap(_eval_left_normed(head, pairs))
    if isinstance(word, Word3):
        return GElement._wrap(_eval_tree(word.tree, assign))
    raise TypeError(f"cannot evaluate {type(word).__name__}")


def _eval_left_normed(head_gen: int, pair_gens: Sequence[tuple[int, int]]) -> dict:
    value = {key_from_syms((pack_sym(head_gen),)): 1}
    for a, b in pair_gens:
        if not value:
            return value
        value = _kernel.assoc_step(value, pack_sym(a), pack_sym(b))
    return value


def _eval_tree(tree, assign) -> dict:
    if isinstance(tree, int):
        try:
            gen = assign[tree]
        except KeyError:
            raise ValueError(f"letter {tree} has no generator assigned")
        return {key_from_syms((pack_sym(gen),)): 1}
    u, v, w = (_eval_tree(child, assign) for child in tree)
    product = _kernel.wedge_terms(_kernel.wedge_terms(u, v), w)
    return _kernel.derive_terms(product)


def _canonical_value_key(terms: dict) -> bytes:
    items = sorted(terms.items())
    if items[0][1] == 2:
        items = [(k, (2 * c) % 3) for k, c in items]
    return b"".join(k + bytes((c,)) for k, c in items)


def _type_word_values(counts: tuple[int, ...], gens: Sequence[int]) -> list[dict]:
    """Values of all canonical left-normed words of one type.

    Words share the fixed head letter 0 (lowest multiplicity under the
    canonical letter numbering); in-pair order is fixed ascending since a
    swap only flips the sign; equal-letter pairs evaluate to zero and are
    skipped.  Prefix states are deduplicated up to scalar.
    """
    tv = TypeVector(counts)
    mult = tv.multiplicities()
    nletters = len(mult)
    syms = [pack_sym(g) for g in gens]
    remaining = list(mult)
    remaining[0] -= 1
    npairs = (tv.weight - 1) // 2

    start_val = {key_from_syms((syms[0],)): 1}
    frontier = {
        (_canonical_value_key(start_val), tuple(remaining)): start_val
    }
    for _ in range(npairs):
        nxt: dict = {}
        for (_, rem), value in frontier.items():
            for a in range(nletters):
                if not rem[a]:
                    continue
                for b in range(a + 1, nletters):
                    if not rem[b]:
                        continue
                    stepped = _kernel.assoc_step(value, syms[a], syms[b])
                    if not stepped:
                        continue
                    rem2 = list(rem)
                    rem2[a] -= 1
                    rem2[b] -= 1
                    state = (_canonical_value_key(stepped), tuple(rem2))
                    if state not in nxt:
                        nxt[state] = stepped
        frontier = nxt
        if not frontier:
            return []
    return list(frontier.values())


def _span_rank(counts: tuple[int, ...], gens: Sequence[int]) -> int:
    values = _type_word_values(counts, gens)
    if not values:
        return 0
    # looked up on the module, so a wrapper installed on gf3.rank_only sees it
    return gf3.rank_only(values)[0]


@lru_cache(maxsize=None)
def _h_cached(counts: tuple[int, ...]) -> int:
    return _span_rank(counts, tuple(range(TypeVector(counts).letters)))


def h_of_type(
    a: Union[TypeVector, Iterable[int], str],
    assign: Optional[Callable[[int], int]] = None,
) -> int:
    """Dimension of the span of all 3-words of one type.

    The value depends only on the type, not on which generators realize the
    letters; ``assign`` overrides the canonical letter -> generator map and
    exists so tests can verify that independence.
    """
    tv = _as_type(a)
    if tv.weight % 2 == 0 or tv.letters == 0:
        return 0
    if assign is None:
        return _h_cached(tv.counts)
    return _span_rank(tv.counts, tuple(assign(i) for i in range(tv.letters)))


def _as_type(a) -> TypeVector:
    if isinstance(a, TypeVector):
        return a
    if isinstance(a, str):
        return TypeVector.parse(a)
    return TypeVector.of(a)


def c_n_of_type(n: int, a: Union[TypeVector, Iterable[int], str]) -> int:
    """Words of one type over n generators: multinomial choice times h."""
    tv = _as_type(a)
    if tv.letters > n:
        return 0
    h = h_of_type(tv)
    if h == 0:
        return 0
    denom = math.prod(math.factorial(c) for c in tv.counts)
    denom *= math.factorial(n - tv.letters)
    return (math.factorial(n) // denom) * h


def _partitions(m: int, max_part: int):
    """Partitions of m as descending part tuples."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, max_part), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def candidate_types(n: int) -> list[TypeVector]:
    """Every type that could carry a nonzero word on n generators.

    Words have an odd leaf count; the nilpotency class bound caps the leaf
    count at 2n - 1; a type needs at most n distinct letters.
    """
    out = []
    for m in range(1, 2 * n, 2):
        for parts in _partitions(m, m):
            if len(parts) > n:
                continue
            counts = [0] * parts[0]
            for p in parts:
                counts[p - 1] += 1
            out.append(TypeVector.of(counts))
    out.sort(key=TypeVector.sort_key)
    return out


def _check_n(n: int, unsafe: bool):
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_SAFE_N and not unsafe:
        raise ValueError(
            f"n={n} exceeds the supported range (max {MAX_SAFE_N}); "
            "pass unsafe=True / --unsafe-n to proceed anyway"
        )
    if n > MAX_SAFE_N:
        logger.warning("n=%d beyond verified range; expect long runtimes", n)


def enumerate_types(n: int, *, unsafe: bool = False) -> list[TypeVector]:
    """All types with a nonzero word span on n generators."""
    _check_n(n, unsafe)
    return [tv for tv in candidate_types(n) if h_of_type(tv) > 0]


def dim_Cn(n: int, *, unsafe: bool = False) -> DimReport:
    """Dimension of the span of all 3-words on n generators, by type."""
    _check_n(n, unsafe)
    per_type = []
    total = 0
    for tv in candidate_types(n):
        h = h_of_type(tv)
        if h == 0:
            logger.info("type %s has empty span", tv)
            continue
        c = c_n_of_type(n, tv)
        per_type.append((tv, h, c))
        total += c
    return DimReport(n, tuple(per_type), total)


def word_vectors(
    words: Sequence[Union[Word3, LeftNormedWord]],
    assign: Mapping[int, int],
) -> list[SparseRow]:
    """Evaluation vectors of words as sparse rows keyed by monomial."""
    rows = []
    for word in words:
        value = eval_word(word, assign)
        rows.append(SparseRow({Monomial(k): c for k, c in value.raw().items()}))
    return rows


def random_word3(rng, a: Union[TypeVector, Iterable[int], str]) -> Word3:
    """A random full ternary word of the given type (letters canonical)."""
    tv = _as_type(a)
    leaves = []
    for letter, m in enumerate(tv.multiplicities()):
        leaves.extend([letter] * m)
    if len(leaves) % 2 == 0:
        raise ValueError("even leaf count admits no word")
    rng.shuffle(leaves)
    return Word3(_random_tree(rng, leaves))


def _random_tree(rng, leaves):
    n = len(leaves)
    if n == 1:
        return leaves[0]
    a = rng.randrange(1, n, 2)
    b = rng.randrange(1, n - a, 2)
    parts = [leaves[:a], leaves[a : a + b], leaves[a + b :]]
    return tuple(_random_tree(rng, p) for p in parts)
