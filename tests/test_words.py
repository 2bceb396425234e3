import random

import pytest

from cml3 import _kernel
from cml3._kernel import pack_sym
from cml3.gf3 import rank_and_kernel, rank_only
from cml3.grassmann import GElement, derive, elem_mul
from cml3.twisted import associator
from cml3.words import (
    LeftNormedWord,
    TypeVector,
    Word3,
    _chain,
    _eval_tree,
    c_n_of_type,
    candidate_types,
    dim_Cn,
    enumerate_types,
    eval_word,
    h_of_type,
    random_word3,
)

IDENT = {i: i for i in range(16)}


def g(i, j=0):
    return GElement.generator(i, j)


# ---------------------------------------------------------------------------
# type vectors
# ---------------------------------------------------------------------------

def test_typevector_parse_and_props():
    tv = TypeVector.parse("5,2")
    assert tv.counts == (5, 2)
    assert tv.weight == 9
    assert tv.letters == 7
    assert str(tv) == "5,2"
    assert TypeVector.of([3, 0, 0]).counts == (3,)
    assert TypeVector.parse("6,0,1").multiplicities() == [1] * 6 + [3]


def test_typevector_rejects_bad_input():
    with pytest.raises(ValueError):
        TypeVector((1, 0))
    with pytest.raises(ValueError):
        TypeVector((-1,))
    for text in ("", ",,", "0", "0,0", " 0 , 0 "):
        with pytest.raises(ValueError, match="empty type vector"):
            TypeVector.parse(text)
    assert TypeVector.parse("0,1").counts == (0, 1)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_bare_letter():
    assert eval_word(LeftNormedWord(0), {0: 0}) == g(0)


def test_eval_single_node():
    got = eval_word(LeftNormedWord(0, ((1, 2),)), IDENT)
    assert got == derive(elem_mul(elem_mul(g(0), g(1)), g(2)))
    assert got == associator(g(0), g(1), g(2))


def test_eval_matches_nested_associator():
    # ((i,j,k),i,p): two-level chain against the direct twisted associator
    word = LeftNormedWord(0, ((1, 2), (0, 3)))
    inner = associator(g(0), g(1), g(2))
    assert eval_word(word, IDENT) == associator(inner, g(0), g(3))


def test_eval_word3_tree():
    tree = Word3((0, (1, 2, 3), 4))
    inner = associator(g(1), g(2), g(3))
    assert eval_word(tree, IDENT) == associator(g(0), inner, g(4))


def test_eval_unassigned_letter():
    with pytest.raises(ValueError):
        eval_word(LeftNormedWord(0, ((1, 9),)), {0: 0, 1: 1})


def test_eval_tail_pair_swap_negates():
    rng = random.Random(0)
    for _ in range(10):
        pairs = [(rng.randrange(5), rng.randrange(5)) for _ in range(3)]
        pairs = [(a, b) for a, b in pairs if a != b]
        if not pairs:
            continue
        word = LeftNormedWord(0, tuple(pairs))
        i = rng.randrange(len(pairs))
        flipped = list(pairs)
        flipped[i] = (pairs[i][1], pairs[i][0])
        a = eval_word(word, IDENT)
        b = eval_word(LeftNormedWord(0, tuple(flipped)), IDENT)
        assert a + b == GElement.zero()


def test_eval_coherence_on_random_trees():
    # recursion through the derivation shortcut equals the direct
    # twisted-algebra associator evaluation
    rng = random.Random(1)

    def direct(tree):
        if isinstance(tree, int):
            return g(tree)
        u, v, w = (direct(c) for c in tree)
        return associator(u, v, w)

    for _ in range(20):
        word = random_word3(rng, TypeVector.parse(rng.choice(["3,1", "5", "3,2"])))
        assert eval_word(word, IDENT) == direct(word.tree)


def _counted_steps(monkeypatch):
    calls = []
    step = _kernel.assoc_step

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(_kernel, "assoc_step", counted)
    return calls


@pytest.mark.parametrize("tree", [
    # chains with the equal pair first, in the middle and last
    _chain(0, ((1, 1), (2, 3), (4, 5))),
    _chain(0, ((1, 2), (3, 3), (4, 5))),
    _chain(0, ((1, 2), (3, 4), (5, 5))),
    # Word3 trees with a node whose last two children are one letter
    (0, (1, 2, 2), 3),
    ((0, (1, 2, 3), 4), 5, 5),
    (0, ((1, 2, 3), 4, 4), 5),
    ((0, 1, (2, 3, 3)), 4, 5),
])
def test_equal_leaf_pair_is_zero_with_no_step(monkeypatch, tree):
    calls = _counted_steps(monkeypatch)
    syms = [pack_sym(i) for i in range(8)]
    assert _eval_tree(tree, syms, {}) == {}
    assert calls == []
    assert not eval_word(Word3(tree), IDENT)
    assert calls == []


def test_leaf_pair_step_matches_wedge_and_derive(monkeypatch):
    # random trees on random symbols, derived ones and shared ones among
    # them, with one derivs memo: each node with two leaf children is an
    # assoc_step, and equals d(u ^ a ^ b) as every other node is
    def reference(tree, syms):
        if isinstance(tree, int):
            return {1 << syms[tree]: 1}
        u, v, w = (reference(child, syms) for child in tree)
        return _kernel.derive_terms(
            _kernel.wedge_terms(_kernel.wedge_terms(u, v), w))

    calls = _counted_steps(monkeypatch)
    rng = random.Random(4)
    derivs = {}
    nonzero = 0
    for _ in range(60):
        word = random_word3(rng, rng.choice(["3,1", "5", "3,2", "5,1", "7"]))
        syms = [pack_sym(rng.randrange(6), rng.randrange(3))
                for _ in range(max(word.leaves()) + 1)]
        expected = reference(word.tree, syms)
        assert _eval_tree(word.tree, syms, derivs) == expected
        nonzero += bool(expected)
    assert nonzero > 10 and len(calls) > 60 and derivs


# ---------------------------------------------------------------------------
# h and c_n
# ---------------------------------------------------------------------------

H_TABLE = {
    (3,): 1, (3, 1): 1, (3, 2): 1, (3, 3): 1, (3, 4): 1,
    (5,): 4, (5, 1): 5, (5, 2): 6, (7,): 20, (6, 0, 1): 1,
    # eight letters, past the n <= 7 cap: its 810-row span is the largest
    # elimination h makes for n = 8 (the n = 8 table sums to c_8 = 4760)
    (7, 1): 28,
}


def test_h_table():
    for counts, expected in H_TABLE.items():
        assert h_of_type(counts) == expected, counts


def test_h_trivial_cases():
    assert h_of_type((1,)) == 1
    assert h_of_type((1, 1)) == 0  # (x,y,y) vanishes
    assert h_of_type((2,)) == 0  # even weight
    assert h_of_type((0, 0, 1)) == 0  # (x,x,x) vanishes


def test_h_omitted_types_vanish():
    for counts in ((2, 0, 1), (1, 2), (1, 3), (0, 1, 1), (1, 0, 2)):
        assert h_of_type(counts) == 0, counts


def test_c_n_examples():
    assert c_n_of_type(4, (3, 1)) == 4
    assert c_n_of_type(7, (3, 1)) == 140
    assert c_n_of_type(7, (5, 2)) == 126
    assert c_n_of_type(5, (1,)) == 5
    assert c_n_of_type(3, (3, 1)) == 0  # more letters than generators


def test_c_n_matches_the_factorial_multinomial(monkeypatch):
    # h stubbed to 2, so every candidate type is counted without its words
    import math

    from cml3 import words

    monkeypatch.setattr(words, "h_of_type", lambda tv: 2)
    for n in range(1, 10):
        for tv in candidate_types(n):
            denom = math.factorial(n - tv.letters)
            denom *= math.prod(math.factorial(c) for c in tv.counts)
            assert c_n_of_type(n, tv) == math.factorial(n) // denom * 2, (n, tv)


# ---------------------------------------------------------------------------
# type enumeration and dimensions
# ---------------------------------------------------------------------------

def test_enumerate_types_small():
    assert [str(t) for t in enumerate_types(1)] == ["1"]
    assert [str(t) for t in enumerate_types(3)] == ["1", "3"]


def test_enumerate_types_n7():
    got = {str(t) for t in enumerate_types(7)}
    assert got == {
        "1", "3", "5", "3,1", "7", "5,1", "3,2", "3,3", "6,0,1", "5,2", "3,4"
    }


def test_candidate_types_cover_weight_and_letters():
    for tv in candidate_types(4):
        assert tv.weight % 2 == 1
        assert tv.weight <= 7
        assert tv.letters <= 4


def test_dim_small():
    assert dim_Cn(1).total == 1
    assert dim_Cn(3).total == 4
    assert dim_Cn(4).total == 12


def test_dim_rejects_large_n():
    with pytest.raises(ValueError):
        dim_Cn(8)
    with pytest.raises(ValueError):
        enumerate_types(9)


def test_dim_report_total_invariant():
    report = dim_Cn(4)
    assert report.total == sum(c for _, _, c in report.per_type)


# ---------------------------------------------------------------------------
# word vectors
# ---------------------------------------------------------------------------

V_WORDS = [
    LeftNormedWord(0, ((1, 2), (3, 5), (4, 6), (5, 6))),
    LeftNormedWord(0, ((1, 3), (2, 5), (4, 6), (5, 6))),
    LeftNormedWord(0, ((2, 3), (1, 5), (4, 6), (5, 6))),
    LeftNormedWord(0, ((1, 4), (2, 5), (3, 6), (5, 6))),
    LeftNormedWord(0, ((1, 5), (2, 3), (4, 6), (5, 6))),
    LeftNormedWord(0, ((1, 6), (2, 3), (4, 5), (5, 6))),
    LeftNormedWord(0, ((1, 5), (2, 6), (3, 4), (5, 6))),
]


def _word_rows(words):
    return [eval_word(w, IDENT).raw() for w in words]


def test_word_vectors_v_system():
    res = rank_and_kernel(_word_rows(V_WORDS))
    assert res.rank == 6
    assert res.kernel_basis == ((1, 1, 0, 2, 1, 1, 1),)


def test_word_vectors_empty_and_duplicates():
    assert rank_and_kernel(_word_rows([])).rank == 0
    rows = _word_rows(V_WORDS + V_WORDS[:1])
    assert rank_and_kernel(rows).rank == 6


def test_spanning_random_trees_do_not_raise_rank():
    # arbitrary full ternary words stay inside the span of the left-normed
    # enumeration with a fixed head
    from cml3.words import _type_word_values

    rng = random.Random(2)
    for text, samples in (("3,1", 200), ("5", 200), ("3,2", 1000)):
        tv = TypeVector.parse(text)
        h = h_of_type(tv)
        values = _type_word_values(tv.counts)
        base_rows = [dict(v) for v in values]
        extra = []
        for _ in range(samples):
            word = random_word3(rng, tv)
            val = eval_word(word, IDENT)
            if val:
                extra.append(val.raw())
        rank_base, _ = rank_only(base_rows)
        rank_all, _ = rank_only(base_rows + extra)
        assert rank_base == h
        assert rank_all == rank_base
