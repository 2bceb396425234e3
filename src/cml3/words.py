"""Enumeration and evaluation of 3-words by multidegree type.

A 3-word is a full ternary tree built from generators by the associator of
the twisted algebra.  Because every node value is homogeneous odd, a node
(u, v, w) evaluates to the derivation of the plain exterior product
u ^ v ^ w, which is what makes exhaustive enumeration cheap.

The type vector of a word counts how many letters appear exactly once,
twice, three times, ...  The dimension of the span of all words of a given
type is computed by enumerating left-normed words with a fixed head letter
(any word can be rewritten in that shape), evaluating them exactly, and
taking the rank over GF(3).  Enumeration walks a prefix tree one letter
pair per layer.  After each layer the states that share a remaining letter
multiset are replaced by an echelon basis of their span: every completion
of such a state applies the same GF(3)-linear maps, so the final span does
not change (the proof is in ``_type_word_values``).  Inside the walk a
monomial keeps the kernel's int form but a compact bit layout, at
``slot * W + der``: generator slots go in ascending generator order, and
each is ``W`` bits wide, room for every derivation order a word of the
type can reach plus a guard bit.  Bit order is still symbol order, so the
kernel's ``assoc_step`` steps it unchanged.

Types that the nilpotency class bound forces to zero (``_class_bound_zero``:
weight at least 3 on too few letters) are skipped before any enumeration;
``_span_rank`` stays the unpruned engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from . import _kernel, gf3
# rank_and_kernel stays importable here: perfbench/tracer.py wraps the gf3
# names at each module that imports them
from .gf3 import SparseRow, rank_and_kernel  # noqa: F401
from .grassmann import GElement, Monomial
from ._kernel import MAX_DER, pack_sym

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
    value = {1 << pack_sym(head_gen): 1}
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
        return {1 << pack_sym(gen): 1}
    u, v, w = (_eval_tree(child, assign) for child in tree)
    product = _kernel.wedge_terms(_kernel.wedge_terms(u, v), w)
    return _kernel.derive_terms(product)


def _type_word_values(counts: tuple[int, ...], gens: Sequence[int]) -> list[dict]:
    """A basis of the span of all canonical left-normed words of one type.

    Words share the fixed head letter 0 (lowest multiplicity under the
    canonical letter numbering); in-pair order is fixed ascending since a
    swap only flips the sign; equal-letter pairs evaluate to zero and are
    skipped.  Letter ``i`` is realised by generator ``gens[i]``.

    The enumeration walks the prefix tree one letter pair per layer.  After
    each layer the stepped states are grouped by their remaining letter
    multiset, and each group is replaced by an echelon basis of its span
    (``gf3.row_basis``).  This cannot change the final span: every
    completion of a state with remaining multiset ``rem`` applies the same
    sequence of maps ``v -> d(v ^ a ^ b)``, one per remaining pair, and each
    map is GF(3)-linear.  So the completions of a set S of states span the
    image of span(S) under those maps, and any basis of span(S) completes to
    the same final span.  Dropping zero states and merging states equal up
    to scalar are special cases.

    Inside the enumeration a monomial is a Python int with bit
    ``slot * W + der`` set for each symbol, where the slot of a generator
    is its rank among the distinct values of ``gens`` and
    ``W = npairs + 2``.  Bit order is then symbol order, so
    ``_kernel.assoc_step`` steps it with the bits of the two letters, the
    layout's ``last`` mask and a ``derivs`` memo shared by every step.  A
    state after k steps has derivation orders <= k <= npairs, so the top
    bit of a slot stays clear; ``last`` holds the bit below it (or order
    ``MAX_DER``, if lower), so a step would raise ``OverflowError`` before
    it spilled into the next slot.  The final basis is returned in the
    kernel's layout.
    """
    tv = TypeVector(counts)
    mult = tv.multiplicities()
    nletters = len(mult)
    for gen in gens:
        pack_sym(gen)  # range check, as the kernel would make it
    order = sorted(set(gens))
    npairs = (tv.weight - 1) // 2
    width = npairs + 2
    slot_bit = {gen: i * width for i, gen in enumerate(order)}
    bits = [slot_bit[gen] for gen in gens]
    last_der = min(width - 2, MAX_DER)
    last = sum(1 << (i * width + last_der) for i in range(len(order)))
    remaining = list(mult)
    remaining[0] -= 1

    frontier = {tuple(remaining): [{1 << bits[0]: 1}]}
    derivs: dict = {}
    for _ in range(npairs):
        nxt: dict = {}
        for rem, values in frontier.items():
            for a in range(nletters):
                if not rem[a]:
                    continue
                for b in range(a + 1, nletters):
                    if not rem[b]:
                        continue
                    stepped = [
                        _kernel.assoc_step(v, bits[a], bits[b], last, derivs)
                        for v in values
                    ]
                    stepped = [v for v in stepped if v]
                    if not stepped:
                        continue
                    rem2 = list(rem)
                    rem2[a] -= 1
                    rem2[b] -= 1
                    nxt.setdefault(tuple(rem2), []).extend(stepped)
        if not nxt:
            return []
        frontier = {
            rem: gf3.row_basis(vals) if len(vals) > 1 else vals
            for rem, vals in nxt.items()
        }
    return [
        _from_masks(value, order, width)
        for values in frontier.values()
        for value in values
    ]


def _from_masks(terms: dict, order: Sequence[int], width: int) -> dict:
    """The kernel's form of a compact-layout element (see _type_word_values)."""
    slot_mask = (1 << width) - 1
    shifts = [(i * width, pack_sym(gen)) for i, gen in enumerate(order)]
    out = {}
    for m, c in terms.items():
        key = 0
        for at, sym in shifts:
            key |= (m >> at & slot_mask) << sym
        out[key] = c
    return out


def _span_rank(counts: tuple[int, ...], gens: Sequence[int]) -> int:
    values = _type_word_values(counts, gens)
    if not values:
        return 0
    # looked up on the module, so a wrapper installed on gf3.rank_only sees it
    return gf3.rank_only(values)[0]


def _class_bound_zero(tv: TypeVector) -> bool:
    """True when the nilpotency class bound forces the span of ``tv`` to 0.

    That is when the weight w is at least 3 and the letter count L has
    2L < w + 3.  Proof: the span is that of the left-normed words
    ((..((x, a1, a2), a3, a4)..)) of the type, and such a word of weight
    w = 2k + 1 nests k associators.  Read as a loop word in the elements
    1 + x_i, it lies in L_k, the k-th term of the lower central series
    L_0 = G, L_(j+1) = (L_j, G, G) of the subloop G that its L letters
    generate, since each associator takes L_j into L_(j+1).  G is a
    commutative Moufang loop on at most L generators.  By Bruck-Slaby it
    has nilpotency class at most L - 1 when L >= 3, so L_(L-1) = 1 (R. H.
    Bruck, *A Survey of Binary Systems*, 1958, ch. VIII); when L <= 2 it is
    associative by Moufang's theorem.  Either way the loop word is 1
    whenever k >= L - 1, which is 2L < w + 3.

    The word value is the leading term of that loop word.  Filter the
    twisted algebra by monomial degree; the twisted product adds degrees,
    since d keeps them.  For homogeneous odd u, v, w the associator is
    (u*v)*w - u*(v*w) = du^v^w - 2 u^dv^w + u^v^dw = d(u^v^w) over GF(3),
    the value of the node (u, v, w).  The associator is trilinear and
    vanishes when an argument is the unit, so for loop elements
    U = 1 + u + (higher degree), V and W alike, A = (UV)W - U(VW) is
    d(u^v^w) + (higher degree), and the loop associator
    ((UV)W)(U(VW))^-1 = 1 + A (U(VW))^-1 is 1 + d(u^v^w) + (higher
    degree).  By induction from the generators 1 + x_i, the loop word is
    1 + (the 3-word value) + (higher degree), so the value is 0 when the
    loop word is 1.  The tests check every pruned type for n <= 8
    against ``_span_rank``.
    """
    return tv.weight >= 3 and 2 * tv.letters < tv.weight + 3


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
    if tv.weight % 2 == 0 or tv.letters == 0 or _class_bound_zero(tv):
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

    Words have an odd leaf count and a type needs at most n distinct
    letters.  The leaf count is enumerated up to 2n - 1; that cap only
    bounds the list.  ``_class_bound_zero`` gives the sharp bound: a
    nonzero type on L <= n letters has weight at most 2L - 3 <= 2n - 3
    (or is a single letter), and ``h_of_type`` returns 0 for the rest
    without enumerating any word.
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


def past_verified_range(scope: Union[int, TypeVector], unsafe: bool) -> bool:
    """Whether a run on n = ``scope`` generators, or of one type, is past the cap.

    The caps bound the range with ground truth: n <= MAX_SAFE_N, and a type
    that fits on that many generators.  Past them a run raises
    ``ValueError`` unless ``unsafe``; with it the run goes ahead and the
    result is a speed figure, not a fact about the free loop.  An n below 1
    raises ``ValueError`` either way.
    """
    if isinstance(scope, TypeVector):
        past = (scope.letters > MAX_SAFE_LETTERS
                or scope.weight > MAX_SAFE_WEIGHT)
        label = f"type {scope}"
    elif scope < 1:
        raise ValueError("n must be at least 1")
    else:
        past = scope > MAX_SAFE_N
        label = f"n={scope}"
    if past and not unsafe:
        raise ValueError(
            f"{label} is past the verified range (n <= {MAX_SAFE_N}, "
            f"letters <= {MAX_SAFE_LETTERS}, weight <= {MAX_SAFE_WEIGHT}); "
            "pass --unsafe-n (unsafe=True) to run it unverified"
        )
    return past


def enumerate_types(n: int, *, unsafe: bool = False) -> list[TypeVector]:
    """All types with a nonzero word span on n generators."""
    past_verified_range(n, unsafe)
    return [tv for tv in candidate_types(n) if h_of_type(tv) > 0]


def dim_Cn(n: int, *, unsafe: bool = False) -> DimReport:
    """Dimension of the span of all 3-words on n generators, by type."""
    past_verified_range(n, unsafe)
    per_type = []
    total = 0
    for tv in candidate_types(n):
        h = h_of_type(tv)
        if h == 0:
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
