"""The disjoint-pair join must equal the bytes oracle term for term.

Random inputs on both sides of ``_kernel.JOIN_MIN_PAIRS`` and in every
parity mix, unit and empty elements, successors, squares, more than 64
symbols, and derivation overflow, each checked against the bytes oracle
(``bytes_oracle.py``), the dict kernel and the ``_kernel`` dispatch.
"""

import random

import pytest

import bytes_oracle as oracle
from bytes_oracle import bytes_terms, int_terms
from cml3 import _join, _kernel
from cml3._kernel import MAX_DER, pack_sym

PARITIES = [(0, 1), (0,), (1,)]


def _key(syms):
    return sum(1 << s for s in syms)


def _oracle_cmul(x, y):
    bx = bytes_terms(x)
    return int_terms(oracle.cmul_terms(bx, bx if x is y else bytes_terms(y)))


def _random_terms(rng, nterms, nbases=7, maxlen=8, maxder=4, parities=(0, 1)):
    # drawing symbols, not generators, puts s and s + 1 in one monomial
    symbols = [pack_sym(b, d) for b in range(nbases) for d in range(maxder + 1)]
    out = {}
    while len(out) < nterms:
        length = rng.randrange(0, maxlen)
        if length % 2 in parities:
            out[_key(rng.sample(symbols, length))] = rng.choice((1, 2))
    return out


def _assert_matches(x, y):
    got = _join.cmul_terms(x, y)
    assert got == _oracle_cmul(x, y)
    assert _kernel.product_terms(x, y) == got
    assert _kernel.cmul_terms(x, y) == got
    assert all(type(c) is int and c in (1, 2) for c in got.values())


def _assert_square(x):
    general = _oracle_cmul(x, dict(x))
    got = _join.square_terms(x)
    assert got == general
    assert _join.cmul_terms(x, dict(x)) == general
    assert _kernel.square_terms(x) == general
    assert _kernel.cmul_terms(x, x) == general
    assert all(type(c) is int and c in (1, 2) for c in got.values())


@pytest.mark.parametrize("px", PARITIES)
@pytest.mark.parametrize("py", PARITIES)
def test_random_inputs_on_both_sides_of_the_cut(px, py):
    rng = random.Random(f"{px}/{py}")
    cut = _kernel.JOIN_MIN_PAIRS
    for nx, ny in ((1, 1), (3, 5), (8, cut // 8), (8, cut // 8 + 1), (40, 60)):
        x = _random_terms(rng, nx, parities=px)
        y = _random_terms(rng, ny, parities=py)
        _assert_matches(x, y)
        _assert_matches(y, x)
    assert cut < 8 * (cut // 8 + 1) <= _kernel.MASK_MIN_PAIRS


def test_loop_elements():
    # loop elements have the form 1 + a; few bases and deep orders make
    # many successors and many disjoint pairs
    rng = random.Random(1)
    for _ in range(10):
        x = _random_terms(rng, 30, nbases=4, maxlen=5, maxder=5)
        y = _random_terms(rng, 30, nbases=4, maxlen=5, maxder=5)
        x[0] = y[0] = 1
        _assert_matches(x, y)
        _assert_square(x)


def test_unit_and_empty():
    one = {0: 1}
    x = _random_terms(random.Random(2), 30)
    for cmul in (_join.cmul_terms, _kernel.cmul_terms):
        assert cmul(one, x) == x
        assert cmul(x, one) == x
        assert cmul(one, one) == one
        assert cmul({}, x) == {}
        assert cmul(x, {}) == {}
    assert _join.square_terms(one) == one
    assert _join.square_terms({0: 2}) == one
    assert _join.square_terms({}) == {}


def test_successor_present():
    # s and s+1 together in one monomial: d must skip s, and d(x) ^ y must
    # see the collision on s+1 in the other factor
    s0, s1, s2 = pack_sym(0, 1), pack_sym(0, 2), pack_sym(1, 0)
    x = {_key([s0, s1, s2]): 1, _key([s0]): 2, _key([s2]): 1}
    y = {_key([s1]): 1, _key([s0, s2, pack_sym(1, 1)]): 2,
         _key([pack_sym(2, 0)]): 1}
    _assert_matches(x, y)
    _assert_square({**x, **y})
    rng = random.Random(3)
    for _ in range(20):
        x = _random_terms(rng, 20, nbases=3, maxder=2, parities=(1,))
        y = _random_terms(rng, 20, nbases=3, maxder=2, parities=(1,))
        _assert_matches(x, y)
        _assert_square(x)


@pytest.mark.parametrize("parities", PARITIES)
def test_square_on_both_sides_of_the_cut(parities):
    rng = random.Random(len(parities) * 10 + parities[0])
    for nterms in (1, 5, 16, 17, 60):
        x = _random_terms(rng, nterms, parities=parities)
        _assert_square(x)
        if parities == (0, 1):
            x[0] = 2
            _assert_square(x)
    assert 16 * 16 <= _kernel.JOIN_MIN_PAIRS < 17 * 17


def test_more_than_64_symbols():
    rng = random.Random(4)
    x = _random_terms(rng, 40, nbases=30, maxlen=6, maxder=3)
    y = _random_terms(rng, 40, nbases=30, maxlen=6, maxder=3)
    assert len({s for m in (*x, *y) for s in _kernel.positions(m)}) > 64
    _assert_matches(x, y)
    _assert_square(x)


def _top_odd(base):
    """An odd monomial holding base(MAX_DER)."""
    return _key([pack_sym(base, MAX_DER)])


def test_overflow_raises_exactly_when_the_dict_kernel_does():
    rng = random.Random(5)
    odd = _random_terms(rng, 30, nbases=4, maxder=3, parities=(1,))
    even = _random_terms(rng, 30, nbases=4, maxder=3, parities=(0,))
    # the top-order monomial holds every symbol the other factor uses, so
    # it has no disjoint partner and the fold never derives it
    crowded = _key([pack_sym(b, d) for b in range(4) for d in range(4)]
                   + [pack_sym(5, MAX_DER)])
    assert crowded.bit_count() % 2 == 1
    assert all(m & crowded for m in odd)
    for top in (_top_odd(5), crowded, _key([pack_sym(5, MAX_DER),
                                            pack_sym(6), pack_sym(6, 1)])):
        x = {**even, top: 1}
        for a, b in ((x, odd), (odd, x), (x, dict(x))):
            with pytest.raises(OverflowError):
                _kernel.product_terms(a, b)
            with pytest.raises(OverflowError):
                _join.cmul_terms(a, b)
            with pytest.raises(OverflowError):
                _kernel.cmul_terms(a, b)
        for sq in (x, {**x, **odd}):
            with pytest.raises(OverflowError):
                _join.square_terms(sq)
            with pytest.raises(OverflowError):
                _kernel.cmul_terms(sq, sq)
    # no odd-odd pair, or MAX_DER only in an even part: no derivation, no raise
    even_top = {**even, _key([pack_sym(5, MAX_DER), pack_sym(6)]): 2}
    for x, y in (({**even, _top_odd(5): 1}, even),
                 ({**odd, crowded: 1}, even), (even_top, odd),
                 (odd, even_top)):
        _assert_matches(x, y)
    _assert_square(even_top)
    _assert_square({**even_top, **odd})
