"""The span-basis frontier of ``words._type_word_values``.

The frontier steps int-bitmask monomials in a compact bit layout through
the kernel's ``assoc_step``, and keeps one echelon basis per remaining
letter multiset.  These tests check that step against the bytes oracle,
its h values against a rank over every word with no pruning, the n = 8
numbers that only the faster frontier reaches in test time, and the types
that ``h_of_type`` skips by the nilpotency class bound.
"""

import json
import os
import random

import pytest

import bytes_oracle as oracle
from bytes_oracle import key_from_syms, syms_from_key
from cml3 import _kernel, gf3, loop, words
from cml3._kernel import MAX_DER, pack_sym, sym_base, sym_der
from cml3.words import (
    LeftNormedWord,
    TypeVector,
    Word3,
    candidate_types,
    dim_Cn,
    eval_word,
    h_of_type,
)
from test_acceptance import H_TABLE

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _layout(nletters, npairs):
    """Slot width and ``last`` mask of the frontier's layout, where slot i
    holds generator i."""
    width = npairs + 2
    last = sum(1 << (i * width + min(width - 2, MAX_DER))
               for i in range(nletters))
    return width, last


def _to_masks(terms, width):
    out = {}
    for key, c in terms.items():
        m = 0
        for s in syms_from_key(key):
            m |= 1 << (sym_base(s) * width + sym_der(s))
        out[m] = c
    return out


def _random_odd(rng, gens, maxder, nterms):
    out = {}
    for _ in range(nterms):
        size = rng.choice((1, 3, 5))
        picks = rng.sample(gens, min(size, len(gens)))
        if len(picks) % 2 == 0:
            picks.pop()
        syms = sorted(pack_sym(g, rng.randrange(maxder + 1)) for g in picks)
        out[key_from_syms(syms)] = rng.choice((1, 2))
    return out


def _step(x, nletters, width, last, derivs, a, b):
    """One frontier step on a bytes-keyed element, back in the kernel's form."""
    return words._from_masks(
        _kernel.assoc_step(_to_masks(x, width), a * width, b * width, last,
                           derivs),
        nletters, width)


def test_mask_step_matches_kernels():
    rng = random.Random(4)
    between = 0
    for _ in range(300):
        # generator subsets with gaps: empty slots sit between used ones
        gens = rng.sample(range(14), rng.randrange(4, 11))
        nletters = max(gens) + 1
        npairs = rng.randrange(2, 7)
        width, last = _layout(nletters, npairs)
        derivs = {}
        for _ in range(4):
            # derived symbols below width - 2: one step stays under the
            # top bit of every slot
            x = _random_odd(rng, gens, width - 3, rng.randrange(1, 9))
            a, b = rng.sample(gens, 2)
            bases = {sym_base(s) for key in x for s in syms_from_key(key)}
            if min(bases) < a < max(bases):
                between += 1
            got = _step(x, nletters, width, last, derivs, a, b)
            want = oracle.assoc_step(x, pack_sym(a), pack_sym(b))
            assert got == oracle.int_terms(want)
    assert between > 200


def test_mask_step_overflow_raises():
    # a step that would set the top bit of a slot raises rather than spill
    # into the next slot, or out of the layout past the last one
    gens = (0, 1, 2)
    width, last = _layout(len(gens), 2)
    for gen in gens:
        a, b = (g for g in gens if g != gen)
        for der, overflows in ((width - 3, False), (width - 2, True)):
            x = {key_from_syms([pack_sym(gen, der)]): 1}
            if overflows:
                with pytest.raises(OverflowError):
                    _step(x, len(gens), width, last, {}, a, b)
            else:
                assert _step(x, len(gens), width, last, {}, a, b)


def _left_normed_words(tv):
    """Every canonical left-normed word of a type, with no pruning."""
    rem = tv.multiplicities()
    rem[0] -= 1
    tail = []

    def walk():
        if not any(rem):
            yield LeftNormedWord(0, tuple(tail))
            return
        for a in range(len(rem)):
            if not rem[a]:
                continue
            for b in range(a + 1, len(rem)):
                if not rem[b]:
                    continue
                rem[a] -= 1
                rem[b] -= 1
                tail.append((a, b))
                yield from walk()
                tail.pop()
                rem[a] += 1
                rem[b] += 1

    yield from walk()


def test_h_matches_unpruned_rank():
    # rank over the kernel's value of every word, against h: for every
    # candidate type on up to 6 generators, and every one on 7 that the
    # class bound does not skip, which the n = 7 column of the dimension
    # table rests on (the skipped ones hold 278,394 more words)
    types = set(candidate_types(6))
    types.update(tv for tv in candidate_types(7)
                 if not words._class_bound_zero(tv))
    nwords = 0
    for tv in sorted(types, key=TypeVector.sort_key):
        tv_words = list(_left_normed_words(tv))
        nwords += len(tv_words)
        letters = tv.letters
        identity = {i: i for i in range(letters)}
        reverse = {i: letters - 1 - i for i in range(letters)}
        h = h_of_type(tv)
        for assign in (identity, reverse):
            rows = [eval_word(w, assign).raw() for w in tv_words]
            assert gf3.rank_only(rows)[0] == h, (tv, assign)
    assert nwords == 7728 + 10368


def test_span_rank_is_the_last_basis_size():
    # the last layer consumes every letter, so the frontier ends in one
    # group, already a row_basis basis or one nonzero value: its size is
    # the rank, and h_of_type takes it with no final elimination
    types = [tv for tv in candidate_types(7)
             if tv.weight % 2 and not words._class_bound_zero(tv)]
    assert len(types) == 18
    for tv in types:
        values = words._type_word_values(tv.counts)
        assert len(values) == gf3.rank_only(values)[0] == h_of_type(tv), tv


def test_n8_scale_pins():
    assert h_of_type((5, 3)) == 7
    assert h_of_type((6, 1, 1)) == 1
    assert h_of_type((1, 7)) == 0  # the slowest n = 8 type
    assert dim_Cn(8, unsafe=True).total == 4760


def test_class_bound_pruned_types_are_zero():
    # the unpruned engine gives 0 on every candidate type for n <= 8 that
    # the class bound skips (candidate_types(8) contains those of smaller n)
    pruned = [tv for tv in candidate_types(8) if words._class_bound_zero(tv)]
    assert len(pruned) == 313
    for tv in pruned:
        assert words._type_word_values(tv.counts) == [], tv
        assert h_of_type(tv) == 0


def test_class_bound_keeps_known_nonzero_types():
    # the n <= 7 h table and every row of the dim --n 7 golden, written by
    # the unpruned code, are outside the bound
    with open(os.path.join(GOLDEN, "dim_n7.json")) as fh:
        rows = json.load(fh)["results"]["per_type"]
    types = [TypeVector.of(counts) for counts in H_TABLE]
    types += [TypeVector.parse(row["type"]) for row in rows]
    assert len(rows) == 11
    for tv in types:
        assert not words._class_bound_zero(tv), tv


def _loop_word(tree):
    if isinstance(tree, int):
        return loop.loop_generator(tree)
    return loop.lassoc(*(_loop_word(child) for child in tree))


def test_loop_associator_leading_term_is_word_value():
    # the step the class-bound proof rests on: the loop associator word of
    # the elements 1 + x_i is 1 + (the 3-word value) + higher degree
    assign = {i: i for i in range(5)}
    for tree in ((0, 1, 2), ((0, 1, 2), 3, 4), (0, (1, 2, 3), 4),
                 ((0, 1, 2), (1, 3, 4), 2), ((0, 1, 2), 0, 3)):
        weight = len(Word3(tree).leaves())
        value = _loop_word(tree).nilpotent.raw()
        degrees = {key.bit_count() for key in value}
        assert min(degrees) == weight, tree
        lead = {k: c for k, c in value.items() if k.bit_count() == weight}
        assert lead == eval_word(Word3(tree), assign).raw(), tree
