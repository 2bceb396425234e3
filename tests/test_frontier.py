"""The span-basis frontier of ``words._type_word_values``.

The frontier steps on int-bitmask monomials and keeps one echelon basis per
remaining letter multiset.  These tests check its step against the kernels,
its h values against a rank over every word with no pruning, and the n = 8
numbers that only the faster frontier reaches in test time.
"""

import random

import pytest

from cml3 import _purecore as pure
from cml3 import gf3, words
from cml3._purecore import key_from_syms, pack_sym, sym_base, sym_der, syms_from_key
from cml3.words import LeftNormedWord, candidate_types, dim_Cn, eval_word, h_of_type

try:
    from cml3 import _fastcore as fast
except ImportError:
    fast = None

KERNELS = [pure] + ([fast] if fast is not None else [])


def _layout(gens, npairs):
    """Slot order, slot width and top-bit mask of the frontier's layout."""
    order = sorted(set(gens))
    width = npairs + 2
    top = sum(1 << (i * width + width - 1) for i in range(len(order)))
    return order, width, top


def _to_masks(terms, order, width):
    slot = {gen: i for i, gen in enumerate(order)}
    out = {}
    for key, c in terms.items():
        m = 0
        for s in syms_from_key(key):
            m |= 1 << (slot[sym_base(s)] * width + sym_der(s))
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


def test_mask_step_matches_kernels():
    rng = random.Random(4)
    between = 0
    for _ in range(300):
        # permuted, shifted generator lists: slot order is generator order,
        # not letter order
        shift = rng.randrange(0, 40)
        gens = rng.sample(range(shift, shift + 14), rng.randrange(4, 11))
        npairs = rng.randrange(2, 7)
        order, width, top = _layout(gens, npairs)
        derivs = {}
        for _ in range(4):
            # derived symbols below width - 2: one step stays under the
            # top bit of every slot
            x = _random_odd(rng, gens, width - 3, rng.randrange(1, 9))
            a, b = rng.sample(gens, 2)
            bases = {sym_base(s) for key in x for s in syms_from_key(key)}
            if min(bases) < a < max(bases):
                between += 1
            got = words._from_masks(
                words._mask_step(
                    _to_masks(x, order, width),
                    order.index(a) * width,
                    order.index(b) * width,
                    top,
                    derivs,
                ),
                order,
                width,
            )
            for kernel in KERNELS:
                assert got == kernel.assoc_step(x, pack_sym(a), pack_sym(b))
    assert between > 200


def test_mask_step_overflow_raises():
    # a step that would set the top bit of a slot raises rather than spill
    # into the next slot, or out of the layout past the last one
    gens = (7, 3, 5)
    order, width, top = _layout(gens, 2)
    for gen in gens:
        a, b = (order.index(g) * width for g in gens if g != gen)
        for der, overflows in ((width - 3, False), (width - 2, True)):
            x = {key_from_syms([pack_sym(gen, der)]): 1}
            args = (_to_masks(x, order, width), a, b, top, {})
            if overflows:
                with pytest.raises(OverflowError):
                    words._mask_step(*args)
            else:
                assert words._mask_step(*args)


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
    # rank over the kernel's value of every word, against h
    nwords = 0
    for tv in candidate_types(6):
        tv_words = list(_left_normed_words(tv))
        nwords += len(tv_words)
        letters = tv.letters
        identity = {i: i for i in range(letters)}
        reverse = {i: letters - 1 - i for i in range(letters)}
        h = h_of_type(tv)
        for assign in (identity, reverse):
            rows = [eval_word(w, assign).raw() for w in tv_words]
            assert gf3.rank_only(rows)[0] == h, (tv, assign)
        assert h_of_type(tv, assign=reverse.__getitem__) == h, tv
    assert nwords == 7728


def test_n8_scale_pins():
    assert h_of_type((5, 3)) == 7
    assert h_of_type((6, 1, 1)) == 1
    assert h_of_type((1, 7)) == 0  # the slowest n = 8 type
    assert dim_Cn(8, unsafe=True).total == 4760
