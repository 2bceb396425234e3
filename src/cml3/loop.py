"""The loop of unital elements 1 + a over the twisted algebra.

Elements with constant term 1 and nilpotent part in the subalgebra
generated by the underived generators form a commutative Moufang loop of
exponent 3 under the twisted product: squaring inverts, every associator
cubes to the identity, and the Moufang identity holds exactly.  The
verification suites below check those facts, the chain-symmetry identities
of the word calculus, and the alternative-model loop on pairs of odd
Grassmann elements.  A loop element is a ``LoopElement``.  A pair-model
element is a tuple ``(x1, x2)`` of odd components: ``malbos_mul`` takes
term dicts, and ``malbos_verify`` samples and multiplies GF(3) bit-planes
``(ones, twos)`` over the 64 monomials on at most six generators.

All checks run on exact arithmetic, and a failure carries its first
failing instantiation as a witness.  The loop is free on its generators,
so a permutation of them extends to an automorphism of the twisted
algebra that commutes with ``d``, and a check built from its operations
gives one verdict on a whole relabelling orbit of generator tuples.  So
the suites compute one tuple per orbit: ``_orbits`` lists the first tuple
of each orbit in product order, a walk that does not grow with the
number of generators, and a sampled identity keeps the first draw of each
``_orbit_key``.  A reported pass is a proof for every instantiation: the
orbit's computation, carried to the others by the automorphism.

Loop products are memoised by value in ``lmul`` (a bounded LRU cache), so
a product a run has already made costs a lookup.  ``lmul(u, v)`` and
``lmul(v, u)`` are separate entries, so commutativity still computes both
sides, and ``linv`` checks each distinct element it inverts the first
time; a repeat reuses that verdict.  The word-calculus identities are
data, ``IDENTITIES``: relations of word trees over tuple positions, the
form the relation schemas of ``cml3.schemas`` compile to, and one
routine, ``_vanishes``, checks them all.  One call of
``verify_identities`` packs each generator's symbol once, keeps one
``derivs`` memo of Leibniz summands for every step and draws the tuples
once per arity.  Every tree is evaluated by ``words._eval_tree``, the
evaluator of ``eval_word``, on raw term dicts, with no ``GElement`` or
``Word3`` per instantiation; each step and each wedge goes through
``cml3._kernel``.  Call ``lmul.cache_clear()`` before patching a kernel.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections.abc import Sequence

from . import _kernel
from ._kernel import pack_sym
from ._value import Value
from .grassmann import GElement, elem_mul
from .twisted import associator, cmul
from .words import (LeftNormedWord, _chain, _collect_leaves, _eval_tree,
                    eval_word)


class NonInvertible(Exception):
    """The exponent-3 contract failed; the element model is inconsistent."""


class LoopElement(Value):
    """A unital element 1 + a with nilpotent part a."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: GElement):
        if value.constant != 1:
            raise ValueError("loop elements have constant term exactly 1")
        self._init(value)

    @property
    def nilpotent(self) -> GElement:
        return self.value - GElement.one()

    def is_one(self) -> bool:
        return len(self.value.raw()) == 1

    def __str__(self) -> str:
        return str(self.value)


LOOP_ONE = LoopElement(GElement.one())

# Products kept by the lmul memo.  The suites remake the same small
# products many times over (repeated inverses, the factors mainid shares,
# the sampled loop words).  Short runs never fill 1024 entries: verify
# --suite cml3 --samples 6 makes 429 calls with 189 misses (n 6, seed 427)
# and 359 with 188 (n 7, seed 62), and mainid --mode loop --samples 1 399
# with 265, as many as with 16384 entries.  A long run outgrows 1024
# entries: verify_cml3(7, 500) has 10,348 hits in 20,733 calls, against
# 13,149 with 16384 entries.
LMUL_MEMO_SIZE = 1024


def loop_generator(i: int) -> LoopElement:
    return LoopElement(GElement.one() + GElement.generator(i))


@functools.lru_cache(maxsize=LMUL_MEMO_SIZE)
def lmul(u: LoopElement, v: LoopElement) -> LoopElement:
    """The loop product u*v, memoised on the values of u and v in order."""
    return LoopElement(cmul(u.value, v.value))


def linv(u: LoopElement) -> LoopElement:
    """Inverse by squaring; exponent 3 makes u*u the inverse.

    Raises NonInvertible when u * (u*u) is not the identity, which would
    falsify the construction rather than describe bad input.  Both
    products go through the ``lmul`` memo, so a repeated element costs two
    lookups; an element's first inversion always runs the check.
    """
    square = lmul(u, u)
    if not lmul(u, square).is_one():
        raise NonInvertible(f"element violates exponent 3: {u}")
    return square


def lassoc(u: LoopElement, v: LoopElement, w: LoopElement) -> LoopElement:
    """Loop associator ((u v) w) (u (v w))^-1."""
    left = lmul(lmul(u, v), w)
    right = lmul(u, lmul(v, w))
    return lmul(left, linv(right))


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------

def sample_loop_element(rng: random.Random, n: int, depth: int = 3) -> LoopElement:
    """A random loop word: products, inverses and associators of the
    elements 1 + generator, nesting at most ``depth`` operations."""
    if depth <= 0:
        u = loop_generator(rng.randrange(n))
        return linv(u) if rng.random() < 0.5 else u
    op = rng.randrange(4)
    if op == 0:
        u = loop_generator(rng.randrange(n))
        return linv(u) if rng.random() < 0.5 else u
    if op == 1:
        return lmul(
            sample_loop_element(rng, n, depth - 1),
            sample_loop_element(rng, n, depth - 1),
        )
    if op == 2:
        return linv(sample_loop_element(rng, n, depth - 1))
    return lassoc(
        sample_loop_element(rng, n, depth - 1),
        sample_loop_element(rng, n, depth - 1),
        sample_loop_element(rng, n, depth - 1),
    )


def sample_nilpotent(rng: random.Random, n: int, depth: int = 2) -> GElement:
    """A random element of the non-unital subalgebra on n generators."""
    if depth <= 0:
        return GElement.generator(rng.randrange(n)).scale(rng.choice((1, 2)))
    op = rng.randrange(3)
    if op == 0:
        return GElement.generator(rng.randrange(n)).scale(rng.choice((1, 2)))
    if op == 1:
        return sample_nilpotent(rng, n, depth - 1) + sample_nilpotent(
            rng, n, depth - 1
        )
    return cmul(sample_nilpotent(rng, n, depth - 1), sample_nilpotent(rng, n, depth - 1))


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

def _entry(identity: str, instantiations: int, witness: str | None) -> dict:
    entry = {
        "identity": identity,
        "instantiation": f"{instantiations} instantiation(s)",
        "pass": witness is None,
    }
    if witness is not None:
        entry["witness"] = witness
    return entry


def report_passed(report: Sequence[dict]) -> bool:
    return all(entry["pass"] for entry in report)


def _require_generators(n: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")


def _orbit_key(t: tuple) -> tuple:
    """The relabelling orbit of a generator tuple: its letters renumbered
    in order of first appearance, so ``(3, 5, 3)`` becomes ``(0, 1, 0)``."""
    first: dict = {}
    return tuple([first.setdefault(g, len(first)) for g in t])


def _orbits(n: int, k: int) -> list[tuple]:
    """The first tuple of each relabelling orbit of the k-tuples of n
    generators, in product order: the tuples that are their own
    ``_orbit_key``.  One holds at most k letters, so the walk over
    min(n, k) generators meets them all."""
    return [t for t in itertools.product(range(min(n, k)), repeat=k)
            if _orbit_key(t) == t]


def _first_failure(labeled, check):
    """The label of the first item failing ``check``, or None.  Every item
    is checked, so an exception a later one raises still propagates."""
    first = None
    for label, x in labeled:
        if not check(x) and first is None:
            first = label
    return first


def verify_cml3(n: int, samples: int = 100, seed: int = 0) -> list[dict]:
    """Check the loop axioms on generator triples plus seeded loop words.

    Covers commutativity, the Moufang identity, exponent 3, and the
    exponent 3 of associators.  The n^3 generator triples are checked
    once per relabelling orbit; exponent 3 counts every distinct element
    of all the triples, with generator 0 computed for all n generators.
    """
    _require_generators(n)
    rng = random.Random(seed)
    gens = [loop_generator(i) for i in range(n)]
    sampled = [
        (f"sample({s})", tuple(sample_loop_element(rng, n, rng.randrange(4))
                               for _ in range(3)))
        for s in range(samples)
    ]
    count = n**3 + samples
    labeled = [(f"gen({i},{j},{k})", (gens[i], gens[j], gens[k]))
               for i, j, k in _orbits(n, 3)] + sampled

    report = []

    def commutes(t):
        u, v, _ = t
        return lmul(u, v).value == lmul(v, u).value

    report.append(_entry(
        "commutativity", count, _first_failure(labeled, commutes),
    ))

    def moufang(t):
        # middle Moufang form: (uv)(wu) = (u(vw))u
        u, v, w = t
        left = lmul(lmul(u, v), lmul(w, u))
        right = lmul(lmul(u, lmul(v, w)), u)
        return left.value == right.value

    report.append(_entry(
        "moufang", count, _first_failure(labeled, moufang)
    ))

    # generator i first appears in the triple (0, 0, i)
    seen_elements = {u: f"gen(0,0,{i})" for i, u in enumerate(gens)}
    for label, triple in sampled:
        for u in triple:
            seen_elements.setdefault(u, label)
    elements = [(label, u) for u, label in seen_elements.items()]

    def cubes_to_one(u):
        return lmul(lmul(u, u), u).is_one()

    # the generators are one relabelling orbit, computed once
    computed = [elements[i] for (i,) in _orbits(n, 1)] + elements[n:]
    report.append(_entry(
        "exponent3", len(elements),
        _first_failure(computed, cubes_to_one),
    ))

    def assoc_cubes_to_one(t):
        a = lassoc(*t)
        return lmul(lmul(a, a), a).is_one()

    report.append(_entry(
        "associator_exponent3", count,
        _first_failure(labeled, assoc_cubes_to_one),
    ))

    return report


# Cap on exhaustive generator instantiations per identity; beyond it the
# check runs on seeded random tuples instead.
EXHAUSTIVE_CAP = 10_000


def _instantiation_tuples(n: int, arity: int, samples: int, seed: int):
    """The tuples an identity of ``arity`` letters is computed on, its
    mode, and the number of instantiations they stand for.  An exhaustive
    identity takes the first tuple of each relabelling orbit, a sampled
    one the first seeded draw of each."""
    if n**arity <= EXHAUSTIVE_CAP:
        return _orbits(n, arity), "exhaustive", n**arity
    if samples < 1:
        # a check over no tuple would pass vacuously
        raise ValueError(
            f"{arity}-letter identities on {n} generators are sampled; "
            f"samples must be at least 1, got {samples}")
    rng = random.Random(seed)
    firsts: dict = {}
    for _ in range(samples):
        t = tuple(rng.randrange(n) for _ in range(arity))
        firsts.setdefault(_orbit_key(t), t)
    return list(firsts.values()), "sampled", samples


def _add_into(total: dict, terms: dict, coeff: int = 1) -> dict:
    """Add ``coeff * terms`` to the term dict ``total`` in place; return it."""
    coeff %= 3
    if coeff:
        for key, c in terms.items():
            # a nonzero delta leaves 0 only on a key that was present
            c = (total.get(key, 0) + coeff * c) % 3
            if c:
                total[key] = c
            else:
                del total[key]
    return total


# The identities of the word calculus, as data.  An identity is a tuple
# of relations, all of which must vanish; a relation is a GF(3)
# combination of (coefficient, word tree), a tree's leaves read as
# positions in an instantiation tuple t, so ((0, 1, 2), 2, 3) is the chain
# ((t[0], t[1], t[2]), t[2], t[3]).  The relation schemas compile to one
# relation each: head position 0, schema letter i at position i + 1.
IDENTITIES = {
    # one-slot chain ((x,y,a),a,z): skew-symmetric in x, y, z; t = (x,y,a,z)
    "chain_skew_xyz": (
        ((1, ((0, 1, 2), 2, 3)), (1, ((1, 0, 2), 2, 3))),
        ((1, ((0, 1, 2), 2, 3)), (1, ((0, 3, 2), 2, 1))),
    ),
    # two-slot chain (((x,y,a),a,b),b,z): symmetric in the slot letters
    # a, b; t = (x,y,a,b,z)
    "chain_slot_symmetry": (
        ((1, (((0, 1, 2), 2, 3), 3, 4)), (2, (((0, 1, 3), 3, 2), 2, 4))),
    ),
    # ... and skew-symmetric in x, y, z
    "chain_skew_outer": (
        ((1, (((0, 1, 2), 2, 3), 3, 4)), (1, (((4, 1, 2), 2, 3), 3, 0))),
        ((1, (((0, 1, 2), 2, 3), 3, 4)), (1, (((1, 0, 2), 2, 3), 3, 4))),
    ),
    # ((x,y,z),a,b) = ((x,a,b),y,z) + (x,(y,a,b),z) + (x,y,(z,a,b));
    # t = (x,y,z,a,b)
    "associator_rewrite": (
        ((1, ((0, 1, 2), 3, 4)), (2, ((0, 3, 4), 1, 2)),
         (2, (0, (1, 3, 4), 2)), (2, (0, 1, (2, 3, 4)))),
    ),
    # ia.ja.pa = 0 on the chain head x; t = (x,i,j,p,a)
    "triple_slot_vanishes": (((1, (((0, 1, 4), 2, 4), 3, 4)),),),
    # its full linearization; t = (x,i,j,p,a,b,c)
    "triple_slot_linearized": (tuple(
        (1, (((0, 1, s1), 2, s2), 3, s3))
        for s1, s2, s3 in itertools.permutations((4, 5, 6))),),
}


def _arity(relations) -> int:
    """The length of the tuples a relation list reads: one past its
    highest position."""
    leaves: list[int] = []
    for relation in relations:
        for _, tree in relation:
            _collect_leaves(tree, leaves)
    return 1 + max(leaves)


def _vanishes(relations, syms: Sequence[int], derivs: dict) -> bool:
    """Whether every relation vanishes with position i at symbol ``syms[i]``.

    Each tree runs through ``words._eval_tree`` with ``derivs``, so a
    chain with a pair of equal letters is 0 with no step.
    """
    for relation in relations:
        total: dict = {}
        for coeff, tree in relation:
            _add_into(total, _eval_tree(tree, syms, derivs), coeff)
        if total:
            return False
    return True


def _schema_relations(schema) -> tuple:
    """A relation schema as an identity of one relation of chain trees:
    the head at position 0, schema letter i at position i + 1."""
    return (tuple((coeff, _chain(0, ((i + 1, j + 1) for i, j in pattern)))
                  for coeff, pattern in schema.pos_terms),)


def _shortcut_holds(t: tuple) -> bool:
    # the associator of odd elements is the derivation of their product
    x, y, z = (GElement.generator(i) for i in t)
    return associator(x, y, z) == elem_mul(elem_mul(x, y), z).derive()


def verify_identities(n: int, samples: int = 500, seed: int = 0) -> list[dict]:
    """Exact checks of the chain identities in the twisted algebra.

    Each identity is evaluated on every generator tuple when the count
    stays under the exhaustive cap, otherwise on seeded tuples; a failure
    reports the instantiation.  A sampled identity needs ``samples >= 1``:
    with none, ``ValueError`` is raised rather than a vacuous pass.  The
    identities of ``IDENTITIES`` and the relation schemas are checked by
    ``_vanishes``, once per relabelling orbit of the tuples.
    """
    from .schemas import SCHEMAS

    _require_generators(n)

    @functools.cache
    def draw(arity):
        return _instantiation_tuples(n, arity, samples, seed)

    derivs: dict = {}
    syms = [pack_sym(g) for g in range(n)]

    def failing(arity, holds, label=""):
        """The instantiation count of one check and its first failure."""
        tuples, mode, count = draw(arity)
        t = _first_failure(zip(tuples, tuples), holds)
        return count, None if t is None else f"{label}{mode}{t}"

    def vanishing(relations, label=""):
        return failing(_arity(relations), lambda t: _vanishes(
            relations, [syms[g] for g in t], derivs), label)

    report = [_entry(name, *vanishing(relations))
              for name, relations in IDENTITIES.items()]
    report.append(
        _entry("associator_derivation_shortcut", *failing(3, _shortcut_holds)))
    checked, witness = 0, None
    for name, schema in SCHEMAS.items():
        count, first = vanishing(_schema_relations(schema), f"{name}:")
        checked += count
        witness = witness or first
    report.append(_entry("relation_schema_soundness", checked, witness))
    return report


# ---------------------------------------------------------------------------
# named witnesses
# ---------------------------------------------------------------------------

def tah_witness() -> GElement:
    """The associator with one letter thrice that refuses to vanish.

    Evaluates ((((x,y,a),a,z),t,v),a,w) on seven distinct generators with
    (x,y,z,t,v,w,a) = (0,...,6); the loop-side claim follows because the
    word engine computes inside a quotient of the free loop's algebra.
    """
    word = LeftNormedWord(0, ((1, 6), (6, 2), (3, 4), (6, 5)))
    return eval_word(word, {i: i for i in range(7)})


def _mainid_relation() -> tuple:
    # cml3.schemas.FIVE_TWO_RELATION as chain trees under head letter 0
    from .schemas import FIVE_TWO_RELATION

    return tuple((coeff, _chain(0, zip(word[::2], word[1::2])))
                 for coeff, word in FIVE_TWO_RELATION)


def _mainid_loop_value(a, x, y, z, t, b, c) -> LoopElement:
    """The six-factor relation on loop elements, letter i read as argument
    i: each factor with a nonzero coefficient is its chain tree with one
    ``lassoc`` per node, and once all are made they are multiplied left to
    right, one with coefficient 2 inverted."""
    args = (a, x, y, z, t, b, c)

    def value(tree):
        if isinstance(tree, int):
            return args[tree]
        return lassoc(*map(value, tree))

    factors = [(coeff, value(tree))
               for coeff, tree in _mainid_relation() if coeff]
    return functools.reduce(
        lmul, (linv(f) if coeff == 2 else f for coeff, f in factors))


def mainid_check(mode: str, samples: int = 100, seed: int = 0) -> list[dict]:
    """The six-factor identity that decides the seven-generator case.

    Both modes read ``cml3.schemas.FIVE_TWO_RELATION``.  algebra mode:
    its chain trees, letter i at generator i, must vanish (``_vanishes``).
    loop mode: its associator product must be the identity element, on
    loop generators and on seeded loop words.
    """
    if mode == "algebra":
        relations = (_mainid_relation(),)
        syms = [pack_sym(g) for g in range(_arity(relations))]
        witness = (None if _vanishes(relations, syms, {})
                   else "canonical generators")
        return [_entry("mainid_algebra_combination", 1, witness)]
    if mode == "loop":
        rng = random.Random(seed)
        instantiations = [
            ("generators", tuple(loop_generator(i) for i in range(7)))
        ]
        instantiations += [
            (f"sample({s})", tuple(sample_loop_element(rng, 7, rng.randrange(3))
                                   for _ in range(7)))
            for s in range(samples)
        ]
        witness = _first_failure(
            instantiations, lambda args: _mainid_loop_value(*args).is_one())
        return [_entry("mainid_loop_product", len(instantiations), witness)]
    raise ValueError(f"unknown mode: {mode!r}")


# ---------------------------------------------------------------------------
# alternative loop model on pairs of odd elements
# ---------------------------------------------------------------------------

def _odd(terms: dict) -> dict:
    """``terms``, once every monomial in it is checked to be odd."""
    for key in terms:
        if not key.bit_count() & 1:
            raise ValueError("components must be homogeneous odd")
    return terms


def _malbos_half(x: dict, y: dict, u: dict, v: dict) -> dict:
    """x + y + (x ^ y) ^ (u - v) as a new term dict, checked odd."""
    out = _add_into(dict(x), y)
    xy = _kernel.wedge_terms(x, y)
    if xy:  # else the wedge with u - v is 0 too
        _add_into(out, _kernel.wedge_terms(xy, _add_into(dict(u), v, 2)))
    return _odd(out)


def malbos_mul(p: tuple, q: tuple) -> tuple:
    """The pair product of two pairs (x1, x2) of odd term dicts, the
    componentwise twisted sum over the plain exterior product:

        (x1, x2)(y1, y2) = (x1 + y1 + (x1 ^ y1) ^ (x2 - y2),
                            x2 + y2 + (x2 ^ y2) ^ (y1 - x1)).

    Raises ``ValueError`` unless every component is homogeneous odd.
    """
    for x in p + q:
        _odd(x)
    (x1, x2), (y1, y2) = p, q
    return _malbos_half(x1, y1, x2, y2), _malbos_half(x2, y2, y1, x1)


# The pair model is sampled on at most this many generators.
MALBOS_MAX_N = 6

# ``malbos_verify`` holds a component as two bit-planes ``(ones, twos)``,
# the row format of ``cml3.gf3``: bit i of a plane stands for the monomial
# whose generators are the set bits of i, generator g at bit g, as in the
# kernel's symbol order.  For each monomial m, ``free`` holds the monomials
# disjoint from m and ``neg`` those whose wedge after m takes a sign: one
# transposition for each generator of m above one of theirs.  Both fold,
# over the generators g of m, a mask of the monomials without g (AND) and
# one of those with an odd number of generators below g (XOR).
_MONOMIALS = range(1 << MALBOS_MAX_N)
_ALL = (1 << len(_MONOMIALS)) - 1
_WITHOUT = [sum(1 << i for i in _MONOMIALS if not i >> g & 1)
            for g in range(MALBOS_MAX_N)]
_ODD_BELOW = [sum(1 << i for i in _MONOMIALS
                  if (i & ((1 << g) - 1)).bit_count() & 1)
              for g in range(MALBOS_MAX_N)]
_EVEN = sum(1 << i for i in _MONOMIALS if not i.bit_count() & 1)


def _plane_entry(m: int) -> tuple:
    free, neg = _ALL, 0
    for g in range(MALBOS_MAX_N):
        if m >> g & 1:
            free &= _WITHOUT[g]
            neg ^= _ODD_BELOW[g]
    return m, free, neg


# (m, free, neg) keyed by the plane bit of m
_PLANE_TABLE = {1 << m: _plane_entry(m) for m in _MONOMIALS}


def _plane_wedge(x1: int, x2: int, y1: int, y2: int) -> tuple:
    """The planes of x ^ y: for each term m of x, the terms of y disjoint
    from m, swapped on the signed ones, shifted onto m | b, and swapped
    again when x holds 2 at m."""
    r1 = r2 = 0
    rest = x1 | x2
    while rest:
        low = rest & -rest
        rest ^= low
        m, free, neg = _PLANE_TABLE[low]
        a1 = y1 & free
        a2 = y2 & free
        if not (a1 | a2):
            continue
        t = (a1 ^ a2) & neg
        if x2 & low:
            a1, a2 = (a2 ^ t) << m, (a1 ^ t) << m
        else:
            a1, a2 = (a1 ^ t) << m, (a2 ^ t) << m
        t = (r1 | a2) ^ (r2 | a1)
        r1, r2 = (r2 | a2) ^ t, (r1 | a1) ^ t
    return r1, r2


def _plane_half(x: tuple, y: tuple, u: tuple, v: tuple) -> tuple:
    """x + y + (x ^ y) ^ (u - v) on planes, checked odd."""
    (x1, x2), (y1, y2) = x, y
    t = (x1 | y2) ^ (x2 | y1)
    o1, o2 = (x2 | y2) ^ t, (x1 | y1) ^ t
    w1, w2 = _plane_wedge(x1, x2, y1, y2)
    if w1 | w2:  # else the wedge with u - v is 0 too
        # u - v adds v with its planes swapped
        (u1, u2), (v2, v1) = u, v
        t = (u1 | v2) ^ (u2 | v1)
        w1, w2 = _plane_wedge(w1, w2, (u2 | v2) ^ t, (u1 | v1) ^ t)
        t = (o1 | w2) ^ (o2 | w1)
        o1, o2 = (o2 | w2) ^ t, (o1 | w1) ^ t
    if (o1 | o2) & _EVEN:
        raise ValueError("components must be homogeneous odd")
    return o1, o2


def _plane_mul(p: tuple, q: tuple) -> tuple:
    """The pair product of ``malbos_mul`` on pairs of plane components."""
    (x1, x2), (y1, y2) = p, q
    return _plane_half(x1, y1, x2, y2), _plane_half(x2, y2, y1, x1)


def _sample_odd(rng: random.Random, n: int) -> tuple:
    """Planes of a random odd element of the plain Grassmann algebra on
    underived generators 0..n-1, for n <= MALBOS_MAX_N."""
    ones = twos = 0
    for _ in range(rng.randrange(1, 4)):
        size = rng.choice((1, 3)) if n >= 3 else 1
        bit = 1 << sum(1 << g for g in rng.sample(range(n), size))
        b1, b2 = (bit, 0) if rng.choice((1, 2)) == 1 else (0, bit)
        t = (ones | b2) ^ (twos | b1)
        ones, twos = (twos | b2) ^ t, (ones | b1) ^ t
    return ones, twos


def malbos_verify(n: int, samples: int = 100, seed: int = 0) -> list[dict]:
    """Commutativity, Moufang and exponent 3 for the pair model.

    Runs on min(n, MALBOS_MAX_N) generators.  Moufang is checked on
    consecutive triples of the identity and the samples, so ``samples``
    below 2 would check none; that raises ``ValueError``.  Pairs are
    sampled and multiplied as plane components by ``_plane_mul``.
    """
    _require_generators(n)
    if samples < 2:
        raise ValueError(
            f"the malbos suite needs samples >= 2, got {samples}")
    n = min(n, MALBOS_MAX_N)
    rng = random.Random(seed)
    one = ((0, 0), (0, 0))
    pairs = [one]
    pairs.extend(
        (_sample_odd(rng, n), _sample_odd(rng, n)) for _ in range(samples)
    )
    mul = _plane_mul
    couples = [(f"pair({i},{i + 1})", pairs[i:i + 2])
               for i in range(0, len(pairs) - 1, 2)]
    triples = [(f"triple({i})", pairs[i:i + 3])
               for i in range(0, len(pairs) - 2, 3)]
    singles = [(f"pair({i})", p) for i, p in enumerate(pairs)]

    def commutes(t):
        p, q = t
        return mul(p, q) == mul(q, p)

    def moufang(t):
        p, q, r = t
        return mul(mul(p, q), mul(r, p)) == mul(mul(p, mul(q, r)), p)

    return [
        _entry("malbos_commutativity", max(0, (len(pairs) - 1) // 2),
               _first_failure(couples, commutes)),
        # reports (pairs-2)//3 of ceil((pairs-2)/3) triples, as
        # perfbench/oracle.py pins
        _entry("malbos_moufang", max(0, (len(pairs) - 2) // 3),
               _first_failure(triples, moufang)),
        _entry("malbos_exponent3", len(pairs),
               _first_failure(singles, lambda p: mul(mul(p, p), p) == one)),
        _entry("malbos_identity_element", min(10, len(pairs)),
               _first_failure(singles[:10], lambda p: mul(p, one) == p)),
    ]
