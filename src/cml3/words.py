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
not change (the proof is in ``_type_word_values``).  The walk steps the
kernel's int monomials, letter ``i`` realised by generator ``i``.  A word
of weight w takes (w - 1) / 2 steps, each raising one derivation order;
``check_depth`` rejects a run that would need more than the kernel's
``MAX_DER``.

Types that the nilpotency class bound forces to zero (``_class_bound_zero``:
weight at least 3 on too few letters) are skipped before any enumeration;
``_type_word_values`` stays the unpruned engine.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache

from . import _kernel, gf3
# rank_and_kernel stays importable here: perfbench/tracer.py wraps the gf3
# names at each module that imports them
from .gf3 import rank_and_kernel  # noqa: F401
from ._kernel import MAX_DER, pack_sym
from ._value import Value

# Soft cap on the generator count; beyond it there is no ground truth and
# the enumeration cost explodes.
MAX_SAFE_N = 7
# Matching caps for a single type vector.
MAX_SAFE_LETTERS = 7
MAX_SAFE_WEIGHT = 2 * MAX_SAFE_N - 1


class TypeVector(Value):
    """Multidegree of a 3-word: counts[i-1] letters appear exactly i times."""

    __slots__ = _fields = ("counts",)

    def __init__(self, counts: tuple[int, ...]):
        if any(c < 0 for c in counts):
            raise ValueError("negative multiplicity count")
        if counts and counts[-1] == 0:
            raise ValueError("trailing zero in type vector")
        self._init(counts)

    @classmethod
    def of(cls, counts: Iterable[int]) -> "TypeVector":
        counts = list(counts)
        while counts and counts[-1] == 0:
            counts.pop()
        return cls(tuple(counts))

    @classmethod
    def parse(cls, text: str) -> "TypeVector":
        parts = [p.strip() for p in text.split(",")]
        tv = cls.of(int(p) if p else 0 for p in parts)
        if not tv.counts:
            # every part empty or 0: no letter at all
            raise ValueError(f"empty type vector: {text!r}")
        if "" in parts:
            # parts count by position, so an empty one cannot be dropped
            raise ValueError(f"empty part in type vector: {text!r}")
        return tv

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


class LeftNormedWord(Value):
    """Word of shape ((..((head, a1, a2), a3, a4).."), one pair per step."""

    __slots__ = _fields = ("head", "tail")

    def __init__(self, head: int, tail: tuple[tuple[int, int], ...] = ()):
        self._init(head, tail)


class DimReport(Value):
    """Per-type dimensions of the 3-word span on n generators."""

    __slots__ = _fields = ("n", "per_type", "total")

    def __init__(self, n: int,
                 per_type: tuple[tuple[TypeVector, int, int], ...],
                 total: int):
        if total != sum(c for _, _, c in per_type):
            raise ValueError("total does not match per-type sum")
        self._init(n, per_type, total)


def eval_word(word: Word3 | LeftNormedWord, assign: Mapping[int, int]):
    """Evaluate a word with leaves mapped to generators through ``assign``.

    Returns a ``cml3.grassmann.GElement``.  That module is imported here,
    not at the top, so the word-span commands never load it.
    """
    from .grassmann import GElement

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


def _type_word_values(counts: tuple[int, ...]) -> list[dict]:
    """A basis of the span of all canonical left-normed words of one type.

    Words share the fixed head letter 0 (lowest multiplicity under the
    canonical letter numbering); in-pair order is fixed ascending since a
    swap only flips the sign; equal-letter pairs evaluate to zero and are
    skipped.  Letter ``i`` is realised by generator ``i``.

    The enumeration walks the prefix tree one letter pair per layer.  After
    each layer the stepped states are grouped by their remaining letter
    multiset, and each group is replaced by an echelon basis of its span
    (``gf3.row_basis``).  This cannot change the final span: every
    completion of a state with remaining multiset ``rem`` applies the same
    sequence of maps ``v -> d(v ^ a ^ b)``, one per remaining pair, and each
    map is GF(3)-linear.  So the completions of a set S of states span the
    image of span(S) under those maps, and any basis of span(S) completes to
    the same final span.  Dropping zero states and merging states equal up
    to scalar are special cases.  The last layer consumes every letter, so
    the frontier ends in one group: a ``gf3.row_basis`` basis, or a single
    nonzero value.  h of the type is the size of that last basis.

    Every step is ``_kernel.assoc_step`` on the kernel's monomials, with
    the symbols of the two letters and a ``derivs`` memo shared by every
    step.  A state after k steps has derivation orders <= k, so the
    orders fit while ``npairs <= MAX_DER``; ``h_of_type`` checks that
    first (``check_depth``), and a step past it raises ``OverflowError``.
    """
    tv = TypeVector(counts)
    mult = tv.multiplicities()
    nletters = len(mult)
    npairs = (tv.weight - 1) // 2
    syms = [pack_sym(i) for i in range(nletters)]
    remaining = list(mult)
    remaining[0] -= 1

    frontier = {tuple(remaining): [{1 << syms[0]: 1}]}
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
                        _kernel.assoc_step(v, syms[a], syms[b], derivs)
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
    return [value for values in frontier.values() for value in values]


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
    against ``_type_word_values``.
    """
    return tv.weight >= 3 and 2 * tv.letters < tv.weight + 3


@lru_cache(maxsize=None)
def _h_cached(counts: tuple[int, ...]) -> int:
    # the size of the last basis the frontier keeps
    return len(_type_word_values(counts))


def h_of_type(a: TypeVector | Iterable[int] | str) -> int:
    """Dimension of the span of all 3-words of one type."""
    tv = _as_type(a)
    if tv.weight % 2 == 0 or tv.letters == 0 or _class_bound_zero(tv):
        return 0
    check_depth(tv)
    return _h_cached(tv.counts)


def _as_type(a) -> TypeVector:
    if isinstance(a, TypeVector):
        return a
    if isinstance(a, str):
        return TypeVector.parse(a)
    return TypeVector.of(a)


def c_n_of_type(n: int, a: TypeVector | Iterable[int] | str) -> int:
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


def past_verified_range(scope: int | TypeVector, unsafe: bool) -> bool:
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


def check_depth(scope: int | TypeVector) -> None:
    """Raise ``ValueError`` when a run on n = ``scope`` generators, or of
    one type, would step words past the top derivation order.

    A word of weight w takes (w - 1) / 2 steps, each raising one order,
    and a symbol holds orders up to ``MAX_DER``.  ``h_of_type`` evaluates
    no word of a type of even weight or one the class bound skips; on n
    generators the others have weight at most 2n - 3, so n - 2 steps.
    """
    if isinstance(scope, TypeVector):
        skipped = scope.weight % 2 == 0 or _class_bound_zero(scope)
        steps = 0 if skipped else (scope.weight - 1) // 2
        label = f"type {scope}"
    else:
        steps = scope - 2
        label = f"n={scope}"
    if steps > MAX_DER:
        raise ValueError(
            f"{label} needs words of {steps} derivation steps; symbols "
            f"hold orders up to {MAX_DER}, enough for n <= {MAX_DER + 2}")


def enumerate_types(n: int, *, unsafe: bool = False) -> list[TypeVector]:
    """All types with a nonzero word span on n generators."""
    past_verified_range(n, unsafe)
    check_depth(n)
    return [tv for tv in candidate_types(n) if h_of_type(tv) > 0]


def dim_Cn(n: int, *, unsafe: bool = False) -> DimReport:
    """Dimension of the span of all 3-words on n generators, by type."""
    past_verified_range(n, unsafe)
    check_depth(n)
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


def random_word3(rng, a: TypeVector | Iterable[int] | str) -> Word3:
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
