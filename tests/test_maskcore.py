"""The numpy bitmask kernel must equal the bytes oracle term for term.

Random inputs on both sides of ``_kernel.MASK_MIN_PAIRS``, unit and empty
elements, and derivation overflow, each checked against the bytes oracle
(``bytes_oracle.py``), the dict kernel and the ``_kernel`` dispatch.
Squares are checked the same way against the general product on a copy
of the input.  The dispatch runs with a load budget of 0 (the
``numpy_kernel`` fixture), so its large products take the numpy kernel.
"""

import random

import pytest

import bytes_oracle as oracle
from bytes_oracle import bytes_terms, int_terms
from cml3 import _join, _kernel, _maskcore, cli, loop
from cml3._kernel import MAX_DER, pack_sym

pytestmark = pytest.mark.usefixtures("numpy_kernel")


def _key(syms):
    return sum(1 << s for s in syms)


def _oracle_cmul(x, y):
    bx = bytes_terms(x)
    return int_terms(oracle.cmul_terms(bx, bx if x is y else bytes_terms(y)))


def _random_terms(rng, nterms, nbases=7, maxlen=8, maxder=4, parities=(0, 1)):
    out = {}
    while len(out) < nterms:
        length = rng.randrange(0, maxlen)
        if length % 2 not in parities:
            continue
        bases = sorted(rng.sample(range(nbases), min(length, nbases)))
        syms = [pack_sym(b, rng.randrange(maxder + 1)) for b in bases]
        out[_key(sorted(syms))] = rng.choice((1, 2))
    return out


def _assert_matches(x, y):
    got = _maskcore.cmul_terms(x, y)
    assert got is not None
    assert got == _oracle_cmul(x, y)
    assert _kernel.product_terms(x, y) == got
    assert _kernel.cmul_terms(x, y) == got
    assert all(type(c) is int and c in (1, 2) for c in got.values())


def test_random_inputs_on_both_sides_of_the_cut():
    rng = random.Random(0)
    cut = _kernel.MASK_MIN_PAIRS
    sizes = [(1, 1), (3, 5), (16, cut // 16), (16, cut // 16 + 1),
             (40, 40), (200, 90), (2, 3 * cut)]
    for nx, ny in sizes:
        for _ in range(3):
            x = _random_terms(rng, nx)
            y = _random_terms(rng, ny)
            _assert_matches(x, y)
            _assert_matches(y, x)


def test_blocked_accumulation_with_large_output():
    # more pairs than one block and more terms than one pending merge
    rng = random.Random(1)
    x = _random_terms(rng, 400, nbases=10, maxlen=6, maxder=2)
    y = _random_terms(rng, 400, nbases=10, maxlen=6, maxder=2)
    assert len(x) * len(y) > 2 * _maskcore.PENDING_TERMS
    assert len(_kernel.product_terms(x, y)) > _maskcore.PENDING_TERMS
    _assert_matches(x, y)


def test_unit_and_empty():
    one = {0: 1}
    rng = random.Random(2)
    # 30 pairs stay under the cut, 3000 go over it
    for x in (_random_terms(rng, 30), _random_terms(rng, 3000)):
        for cmul in (_kernel.product_terms, _maskcore.cmul_terms,
                     _kernel.cmul_terms):
            assert cmul(one, x) == x
            assert cmul(x, one) == x
            assert cmul(one, one) == one
            assert cmul({}, x) == {}
            assert cmul(x, {}) == {}
    assert 30 < _kernel.MASK_MIN_PAIRS < 3000


def test_mixed_parity_elements():
    rng = random.Random(3)
    for _ in range(20):
        x = _random_terms(rng, 25)
        y = _random_terms(rng, 25)
        x[0] = 1  # loop elements have the form 1 + a
        _assert_matches(x, y)


def test_odd_odd_with_successor_present():
    # s and s+1 together in one monomial: d must skip s, and products of
    # d(x) with y must see the collision on s+1
    s0, s1, s2 = pack_sym(0, 1), pack_sym(0, 2), pack_sym(1, 0)
    x = {_key([s0, s1, s2]): 1, _key([s0]): 2,
         _key([s2]): 1}
    y = {_key([s1]): 1, _key([s0, s2, pack_sym(1, 1)]): 2,
         _key([pack_sym(2, 0)]): 1}
    _assert_matches(x, y)
    rng = random.Random(4)
    for _ in range(20):
        x = _random_terms(rng, 20, nbases=3, maxder=2, parities=(1,))
        y = _random_terms(rng, 20, nbases=3, maxder=2, parities=(1,))
        _assert_matches(x, y)


def _join_calls(monkeypatch):
    """The names of the join's ops, appended as the dispatch calls them."""
    calls = []
    for name in ("cmul_terms", "square_terms"):
        def spy(*args, _op=getattr(_join, name), _name=name):
            calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(_join, name, spy)
    return calls


def test_more_than_64_symbols_falls_back(monkeypatch):
    monkeypatch.setattr(_kernel, "MASK_MIN_PAIRS", 0)
    calls = _join_calls(monkeypatch)
    # odd x times even y adds no successors: 64 symbols fit, 65 do not
    x = {_key([pack_sym(b)]): 1 for b in range(32)}
    y = {_key([pack_sym(b), pack_sym(b + 1)]): 2
         for b in range(32, 64, 2)}
    _assert_matches(x, y)
    assert calls == []
    x[_key([pack_sym(100)])] = 1
    assert _maskcore.cmul_terms(x, y) is None
    assert _kernel.cmul_terms(x, y) == _oracle_cmul(x, y)
    # odd-odd: 40 + 30 odd symbols and their successors
    x = {_key([pack_sym(b)]): 1 for b in range(40)}
    y = {_key([pack_sym(b, 1)]): 2 for b in range(40, 70)}
    assert _maskcore.cmul_terms(x, y) is None
    assert _kernel.cmul_terms(x, y) == _oracle_cmul(x, y)
    # a refused product goes to the join, as one over the join's cut
    assert len(x) * len(y) > _kernel.JOIN_MIN_PAIRS
    assert calls == ["cmul_terms", "cmul_terms"]
    # each fallback is per call: the kernel stays loaded, the tally empty
    assert _kernel._maskcore is _maskcore
    assert _kernel._join_pairs == 0


def test_derivation_overflow_raises_exactly_when_dict_kernels_do():
    top = pack_sym(0, MAX_DER)
    odd_top = {_key([top]): 1, _key([pack_sym(1)]): 1}
    odd = {_key([pack_sym(2)]): 1}
    even = {_key([pack_sym(2), pack_sym(3)]): 1}
    even_top = {_key([top, pack_sym(3)]): 2}
    for cmul in (_kernel.product_terms, _maskcore.cmul_terms, _kernel.cmul_terms):
        with pytest.raises(OverflowError):
            cmul(odd_top, odd)
        with pytest.raises(OverflowError):
            cmul(odd, odd_top)
    for x, y in ((odd_top, odd), (odd, odd_top)):
        with pytest.raises(OverflowError):
            oracle.cmul_terms(bytes_terms(x), bytes_terms(y))
    # no odd-odd pair, or MAX_DER only in an even part: no derivation, no raise
    for x, y in ((odd_top, even), (even, odd_top), (even_top, odd)):
        _assert_matches(x, y)


def _assert_square(x):
    """Both square routes equal the general product on a copy of x."""
    general = _oracle_cmul(x, dict(x))
    got = _maskcore.square_terms(x)
    assert got is not None
    assert got == general
    assert _kernel.square_terms(x) == general
    assert _kernel.cmul_terms(x, x) == general
    assert all(type(c) is int and c in (1, 2) for c in got.values())


@pytest.mark.parametrize("parities", [(0, 1), (0,), (1,)])
def test_square_on_both_sides_of_the_cut(parities):
    rng = random.Random(len(parities) * 10 + parities[0])
    cut = _kernel.MASK_MIN_PAIRS
    for nterms in (1, 5, 45, 46, 120):
        for _ in range(3):
            x = _random_terms(rng, nterms, parities=parities)
            _assert_square(x)
            if parities == (0, 1):
                x[0] = 1  # a loop element 1 + a
                _assert_square(x)
    assert 45 * 45 <= cut < 46 * 46


def test_square_with_blocked_accumulation():
    # the upper triangle spans several row blocks of BLOCK_PAIRS
    rng = random.Random(5)
    x = _random_terms(rng, 400, nbases=10, maxlen=6, maxder=2)
    assert len(x) ** 2 > 4 * _maskcore.BLOCK_PAIRS
    _assert_square(x)


def test_square_of_unit_and_empty():
    one = {0: 1}
    for kernel in (_kernel, _maskcore):
        assert kernel.square_terms(one) == one
        assert kernel.square_terms({0: 2}) == one
        assert kernel.square_terms({}) == {}
    assert _kernel.cmul_terms(one, one) == one
    assert _kernel.cmul_terms({}, {}) == {}


def test_square_with_successor_present():
    s0, s1, s2 = pack_sym(0, 1), pack_sym(0, 2), pack_sym(1, 0)
    x = {_key([s0, s1, s2]): 1, _key([s0]): 2,
         _key([s2]): 1, _key([s1, pack_sym(1, 1)]): 2}
    _assert_square(x)
    rng = random.Random(6)
    for _ in range(10):
        x = _random_terms(rng, 20, nbases=3, maxder=2, parities=(1,))
        _assert_square(x)


def test_square_past_64_symbols_falls_back(monkeypatch):
    monkeypatch.setattr(_kernel, "MASK_MIN_PAIRS", 0)
    calls = _join_calls(monkeypatch)
    # even-only squares add no successors: 64 symbols fit, 66 do not
    x = {_key([pack_sym(b), pack_sym(b + 1)]): 1
         for b in range(0, 64, 2)}
    _assert_square(x)
    x[_key([pack_sym(100), pack_sym(101)])] = 2
    assert _maskcore.square_terms(x) is None
    assert _kernel.cmul_terms(x, x) == _oracle_cmul(x, dict(x))
    # odd: 40 symbols and their 40 successors
    x = {_key([pack_sym(b)]): 1 for b in range(40)}
    assert _maskcore.square_terms(x) is None
    assert _kernel.cmul_terms(x, x) == _oracle_cmul(x, dict(x))
    assert calls == ["square_terms", "square_terms"]


def test_square_overflow_raises_exactly_when_the_general_product_does():
    top = pack_sym(0, MAX_DER)
    rng = random.Random(7)
    big = _random_terms(rng, 50, parities=(0,))
    odd_top = {_key([top]): 1, _key([pack_sym(1)]): 1}
    even_top = {_key([top, pack_sym(3)]): 2}
    # under and over the cut
    for x in (odd_top, {**odd_top, **big}):
        with pytest.raises(OverflowError):
            _kernel.product_terms(x, dict(x))
        for kernel in (_kernel, _maskcore):
            with pytest.raises(OverflowError):
                kernel.square_terms(x)
        with pytest.raises(OverflowError):
            _kernel.cmul_terms(x, x)
    # MAX_DER only in an even monomial: no derivation, no raise
    for x in (even_top, {**even_top, **big}, {**even_top, **big,
                                              _key([pack_sym(1)]): 1}):
        _assert_square(x)


def test_tally_stops_once_the_numpy_kernel_is_loaded(monkeypatch):
    # an unloaded kernel and a budget of three products just over the cut
    monkeypatch.setattr(_kernel, "_maskcore", None)
    rng = random.Random(8)
    cut = _kernel.MASK_MIN_PAIRS
    x = _random_terms(rng, 16)
    y = _random_terms(rng, cut // 16 + 1)
    pairs = len(x) * len(y)
    monkeypatch.setattr(_kernel, "MASK_LOAD_PAIRS", 3 * pairs)
    small = _random_terms(rng, 30)
    assert _kernel.cmul_terms(small, small) == _oracle_cmul(small, small)
    assert _kernel._join_pairs == 0
    expected = _oracle_cmul(x, y)
    for tally in (pairs, 2 * pairs, 2 * pairs, 2 * pairs):
        assert _kernel.cmul_terms(x, y) == expected
        assert _kernel._join_pairs == tally
    assert _kernel._maskcore is _maskcore


@pytest.mark.parametrize("args", [
    ["verify", "--suite", "cml3", "--n", "6", "--samples", "6", "--seed", "427"],
    ["mainid", "--mode", "loop", "--samples", "1", "--seed", "152"],
])
def test_output_is_the_same_on_either_kernel(args, monkeypatch, capsys):
    # budget 0 loads the numpy kernel on the first product above
    # MASK_MIN_PAIRS; an unreachable one keeps every large product on the
    # join, and an unreachable join cut keeps every product on the dict
    # kernel
    outputs = []
    cut = _kernel.JOIN_MIN_PAIRS
    for budget, join_cut, kernel in ((0, cut, "numpy"), (1 << 62, cut, "join"),
                                     (1 << 62, 1 << 62, "dict")):
        monkeypatch.setattr(_kernel, "_maskcore", None)
        monkeypatch.setattr(_kernel, "_join_pairs", 0)
        monkeypatch.setattr(_kernel, "MASK_LOAD_PAIRS", budget)
        monkeypatch.setattr(_kernel, "JOIN_MIN_PAIRS", join_cut)
        loop.lmul.cache_clear()
        assert cli.main([*args, "--json"]) == 0
        outputs.append(capsys.readouterr().out)
        assert (_kernel._maskcore is None) == (kernel != "numpy")
        assert (_kernel._join_pairs > 0) == (kernel == "join")
    loop.lmul.cache_clear()
    assert outputs[0] == outputs[1] == outputs[2]
