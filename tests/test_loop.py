import random

import pytest
from helpers import random_homogeneous

from cml3 import _kernel, loop
from cml3.grassmann import GElement, elem_mul
from cml3.loop import (
    LOOP_ONE,
    MALBOS_ONE,
    LoopElement,
    MalbosPair,
    NonInvertible,
    lassoc,
    linv,
    lmul,
    loop_generator,
    mainid_check,
    malbos_mul,
    malbos_verify,
    report_passed,
    sample_loop_element,
    tah_witness,
    verify_cml3,
    verify_identities,
)
from cml3.twisted import associator, cmul


def g(i, j=0):
    return GElement.generator(i, j)


@pytest.fixture
def cold_memo():
    """An empty lmul memo, emptied again afterwards.

    A test that patches a kernel takes it: products from the real kernel
    would otherwise answer for the patched one, and the patched products
    must not outlive the test.
    """
    lmul.cache_clear()
    yield
    lmul.cache_clear()


# ---------------------------------------------------------------------------
# loop arithmetic
# ---------------------------------------------------------------------------

def test_loop_element_requires_unit_constant():
    with pytest.raises(ValueError):
        LoopElement(g(0))
    with pytest.raises(ValueError):
        LoopElement(GElement.one().scale(2))


def test_lmul_expansion():
    u, v = loop_generator(0), loop_generator(1)
    expected = GElement.one() + g(0) + g(1) + cmul(g(0), g(1))
    assert lmul(u, v).value == expected


def test_lmul_unit_and_commutative():
    rng = random.Random(0)
    for _ in range(25):
        u = sample_loop_element(rng, 4, rng.randrange(3))
        v = sample_loop_element(rng, 4, rng.randrange(3))
        assert lmul(u, LOOP_ONE).value == u.value
        assert lmul(u, v).value == lmul(v, u).value


def test_linv_example():
    got = linv(loop_generator(0))
    expected = GElement.one() + g(0).scale(2) + elem_mul(g(0), g(0, 1))
    assert got.value == expected
    assert linv(LOOP_ONE).value == GElement.one()


def test_linv_is_inverse_on_samples():
    rng = random.Random(1)
    for _ in range(100):
        u = sample_loop_element(rng, 5, rng.randrange(4))
        assert lmul(u, linv(u)).is_one()


def test_exponent_three_on_samples():
    rng = random.Random(2)
    for _ in range(100):
        u = sample_loop_element(rng, 7, rng.randrange(4))
        assert lmul(lmul(u, u), u).is_one()


def test_lassoc_unital_and_alternating():
    rng = random.Random(3)
    u = sample_loop_element(rng, 4, 2)
    v = sample_loop_element(rng, 4, 2)
    assert lassoc(LOOP_ONE, u, v).is_one()
    assert lassoc(u, u, v).is_one()
    assert lassoc(u, v, v).is_one()


def test_lassoc_swap_inverts():
    rng = random.Random(4)
    for _ in range(20):
        u, v, w = (sample_loop_element(rng, 5, rng.randrange(3)) for _ in range(3))
        assert lmul(lassoc(u, v, w), lassoc(v, u, w)).is_one()


def test_lassoc_lowest_degree_is_algebra_associator():
    a = lassoc(loop_generator(0), loop_generator(1), loop_generator(2))
    low = (a.value - GElement.one()).degree_part(3)
    assert low == associator(g(0), g(1), g(2))


# ---------------------------------------------------------------------------
# the lmul memo
# ---------------------------------------------------------------------------

def test_memo_keeps_products_ordered(cold_memo):
    u, v = loop_generator(0), loop_generator(1)
    assert lmul(u, v).value == lmul(v, u).value
    # both sides computed: commutativity is checked, not looked up
    assert lmul.cache_info().misses == 2
    assert lmul.cache_info().hits == 0


def test_linv_checks_each_element_once(cold_memo):
    u = loop_generator(0)
    first = linv(u)
    assert lmul.cache_info().misses == 2  # the square and u * square
    assert linv(LoopElement(u.value + GElement.zero())) is first
    assert lmul.cache_info().misses == 2
    assert lmul.cache_info().hits == 2


def test_linv_raises_on_a_corrupted_product(monkeypatch, cold_memo):
    def corrupted(x, y):
        # keeps the constant term 1, so the result is still a loop element
        return cmul(x, y) + g(9)

    monkeypatch.setattr(loop, "cmul", corrupted)
    with pytest.raises(NonInvertible):
        linv(loop_generator(0))


@pytest.mark.parametrize("suite,args", [
    (verify_cml3, (6, 6, 201)),
    (mainid_check, ("loop", 1, 152)),
])
def test_reports_equal_from_cold_and_warm_memo(suite, args, cold_memo):
    cold = suite(*args)
    misses = lmul.cache_info().misses
    warm = suite(*args)
    assert warm == cold
    assert report_passed(cold)
    # the warm run found products the cold run made
    assert lmul.cache_info().hits > 0
    assert lmul.cache_info().misses < 2 * misses


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def test_verify_cml3_small():
    report = verify_cml3(3, samples=25, seed=0)
    assert report_passed(report)
    names = [e["identity"] for e in report]
    assert names == ["commutativity", "moufang", "exponent3",
                     "associator_exponent3"]


def test_verify_cml3_vacuous():
    # the generator triples still run with no samples
    report = verify_cml3(1, samples=0, seed=0)
    assert report_passed(report)
    assert report[0]["instantiation"] == "1 instantiation(s)"


def test_sampled_checks_need_samples():
    # n = 7 samples every identity of five or more letters
    with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
        verify_identities(7, samples=0, seed=0)
    # on three generators every identity is exhaustive
    report = verify_identities(3, samples=0, seed=0)
    assert report_passed(report)
    assert all(not e["instantiation"].startswith("0 ") for e in report)


@pytest.mark.parametrize("samples", [0, 1])
def test_malbos_needs_two_samples(samples):
    # below two samples no Moufang triple is checked
    with pytest.raises(ValueError, match=f"samples >= 2, got {samples}$"):
        malbos_verify(6, samples=samples, seed=0)


@pytest.mark.parametrize("suite", [verify_cml3, verify_identities, malbos_verify])
@pytest.mark.parametrize("n", [0, -1])
def test_suites_reject_n_below_one(suite, n):
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        suite(n, 5, 0)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_chain_memo_matches_eval_word(n):
    from cml3.loop import _ChainMemo, _ident
    from cml3.words import LeftNormedWord, eval_word

    rng = random.Random(n)
    # two memos on one dict of Leibniz summands, as in one suite call
    derivs = {}
    chains = [_ChainMemo(derivs), _ChainMemo(derivs)]
    vanished = 0
    for _ in range(150):
        # few letters and repeated ones make shared and vanishing prefixes
        head = rng.randrange(n)
        pairs = tuple((rng.randrange(n), rng.randrange(n))
                      for _ in range(rng.randrange(5)))
        expected = eval_word(LeftNormedWord(head, pairs), _ident).raw()
        rng.shuffle(chains)
        for chain in chains:
            assert chain(head, pairs) == expected
            assert chain(head, list(pairs)) == expected
        vanished += not expected
    for chain in chains:
        for (head, prefix), terms in chain.prefixes.items():
            expected = eval_word(LeftNormedWord(head, prefix), _ident)
            assert GElement._wrap(terms) == expected
    assert vanished
    assert derivs or n == 1


def _flip_first_coefficient(op):
    """``op`` with the coefficient of the first term of each result flipped."""
    def flipped(*args):
        out = op(*args)
        for key in out:
            out[key] = 3 - out[key]
            break
        return out
    return flipped


def test_identities_fail_on_a_corrupted_step(monkeypatch):
    monkeypatch.setattr(_kernel, "assoc_step",
                        _flip_first_coefficient(_kernel.assoc_step))
    report = verify_identities(4, 20, 0)
    assert not report_passed(report)
    assert all("witness" in e for e in report if not e["pass"])


def test_identities_make_every_step(monkeypatch):
    # the memos save work per step, not steps: each instantiation steps
    # every chain past its longest prefix already stepped
    calls = 0
    step = _kernel.assoc_step

    def counted(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    monkeypatch.setattr(_kernel, "assoc_step", counted)
    assert report_passed(verify_identities(7, 1000, 5))
    assert calls == 40_432


def test_verify_identities_small():
    report = verify_identities(4, samples=60, seed=0)
    assert report_passed(report)
    names = {e["identity"] for e in report}
    assert "relation_schema_soundness" in names
    assert "associator_rewrite" in names


def _random_pair(rng, sample):
    return MalbosPair(GElement._wrap(sample(rng)), GElement._wrap(sample(rng)))


def test_malbos_identity_and_commutativity():
    rng = random.Random(5)
    from cml3.loop import _sample_odd

    for _ in range(20):
        p = _random_pair(rng, lambda r: _sample_odd(r, 5))
        q = _random_pair(rng, lambda r: _sample_odd(r, 5))
        assert malbos_mul(p, MALBOS_ONE) == p
        assert malbos_mul(p, q) == malbos_mul(q, p)
        cube = malbos_mul(malbos_mul(p, p), p)
        assert cube.is_identity()


def _malbos_oracle(p, q):
    """The pair product on GElements, as the formula reads."""
    x1, x2, y1, y2 = p.x1, p.x2, q.x1, q.x2
    return MalbosPair(x1 + y1 + elem_mul(elem_mul(x1, y1), x2 - y2),
                      x2 + y2 + elem_mul(elem_mul(x2, y2), y1 - x1))


def test_malbos_mul_matches_the_formula():
    rng = random.Random(6)
    pairs = [MALBOS_ONE] + [
        _random_pair(rng, lambda r: random_homogeneous(r, 1).raw())
        for _ in range(30)
    ]
    for p in pairs:
        for q in pairs:
            pq = malbos_mul(p, q)
            assert pq == _malbos_oracle(p, q)
            r = rng.choice(pairs)
            assert malbos_mul(pq, r) == _malbos_oracle(pq, r)


def test_malbos_rejects_even_components():
    with pytest.raises(ValueError):
        MalbosPair(elem_mul(g(0), g(1)), GElement.zero())


def test_malbos_verify_report():
    report = malbos_verify(6, samples=60, seed=0)
    assert report_passed(report)


def test_malbos_fails_on_a_corrupted_wedge(monkeypatch):
    monkeypatch.setattr(_kernel, "wedge_terms",
                        _flip_first_coefficient(_kernel.wedge_terms))
    report = malbos_verify(6, 20, 0)
    assert not report_passed(report)
    assert all("witness" in e for e in report if not e["pass"])


def test_malbos_rejects_an_even_product(monkeypatch):
    # the monomial 0.1 of degree 2
    even = {1 << _kernel.pack_sym(0) | 1 << _kernel.pack_sym(1): 1}
    monkeypatch.setattr(_kernel, "wedge_terms", lambda x, y: dict(even))
    with pytest.raises(ValueError, match="homogeneous odd"):
        malbos_verify(6, 20, 0)


# ---------------------------------------------------------------------------
# named witnesses
# ---------------------------------------------------------------------------

def test_tah_witness_nonzero_and_skew():
    from cml3.words import LeftNormedWord, eval_word

    witness = tah_witness()
    assert witness
    swapped = eval_word(
        LeftNormedWord(1, ((0, 6), (6, 2), (3, 4), (6, 5))),
        {i: i for i in range(7)},
    )
    assert witness + swapped == GElement.zero()


def test_mainid_algebra():
    assert report_passed(mainid_check("algebra"))


def test_mainid_loop_on_generators():
    report = mainid_check("loop", samples=2, seed=0)
    assert report_passed(report)


def test_mainid_loop_collapsed_slots():
    # with the two doubled slots equal the factors pair off
    from cml3.loop import _mainid_loop_value

    gens = [loop_generator(i) for i in range(6)]
    b = gens[5]
    value = _mainid_loop_value(gens[0], gens[1], gens[2], gens[3], gens[4], b, b)
    assert value.is_one()


def test_mainid_bad_mode():
    with pytest.raises(ValueError):
        mainid_check("nonsense")
