"""The pure kernel ops against an independent int-mask oracle.

The oracle keys a monomial by a Python int with one bit per packed symbol
(``base << 6 | der``), so bit order is symbol order:

- the wedge of two monomials is zero when they share a bit (AND) and is
  their OR otherwise, with sign ``(mx & odd_below(my)).bit_count() & 1``;
- ``d`` of a monomial is ``m + low`` for each set bit ``low`` whose
  successor bit is clear.

Squares below ``_kernel.MASK_MIN_PAIRS`` are checked here against the
general product; larger ones in ``test_maskcore.py``.
"""

import random
from array import array

import pytest

from cml3 import _kernel
from cml3 import _purecore as pure
from cml3._purecore import MAX_DER, pack_sym


def _to_masks(terms):
    return {sum(1 << s for s in array("H", key)): c for key, c in terms.items()}


def _from_masks(terms):
    out = {}
    for m, c in terms.items():
        syms = [i for i in range(m.bit_length()) if m >> i & 1]
        out[array("H", syms).tobytes()] = c
    return out


def _acc(out, m, delta):
    c = (out.get(m, 0) + delta) % 3
    if c:
        out[m] = c
    else:
        out.pop(m, None)


def _odd_below(m):
    """Bits with an odd number of m's set bits strictly below them."""
    out = 0
    while m:
        low = m & -m
        out ^= -(low << 1)
        m ^= low
    return out


def oracle_wedge(x, y):
    out = {}
    for mx, cx in x.items():
        for my, cy in y.items():
            if mx & my:
                continue
            sign = 2 if (mx & _odd_below(my)).bit_count() & 1 else 1
            _acc(out, mx | my, cx * cy * sign)
    return out


def oracle_derive(x):
    out = {}
    for m, c in x.items():
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            if (low.bit_length() - 1) & MAX_DER == MAX_DER:
                raise OverflowError("derivation order overflow")
            if not m & low << 1:
                _acc(out, m + low, c)
    return out


def oracle_cmul(x, y):
    """Plain wedge, except that odd times odd is d(x)^y - x^d(y)."""
    xo = {m: c for m, c in x.items() if m.bit_count() & 1}
    yo = {m: c for m, c in y.items() if m.bit_count() & 1}
    out = {}
    parts = (
        (1, {m: c for m, c in x.items() if m not in xo}, y),
        (1, xo, {m: c for m, c in y.items() if m not in yo}),
        (1, oracle_derive(xo), yo),
        (2, xo, oracle_derive(yo)),
    )
    for scale, a, b in parts:
        for m, c in oracle_wedge(a, b).items():
            _acc(out, m, scale * c)
    return out


def _random_terms(rng, nterms, nbases, maxder, maxlen=7):
    # drawing symbols, not generators, puts s and s + 1 in one monomial
    symbols = [pack_sym(b, d) for b in range(nbases) for d in range(maxder + 1)]
    out = {}
    for _ in range(nterms):
        syms = sorted(rng.sample(symbols, rng.randrange(0, maxlen)))
        out[array("H", syms).tobytes()] = rng.choice((1, 2))
    return out


@pytest.mark.parametrize("nbases,maxder", [(24, 4), (5, 3)])
def test_ops_match_the_oracle_on_random_inputs(nbases, maxder):
    rng = random.Random(nbases)
    for _ in range(300):
        x = _random_terms(rng, rng.randrange(1, 8), nbases, maxder)
        y = _random_terms(rng, rng.randrange(1, 8), nbases, maxder)
        mx, my = _to_masks(x), _to_masks(y)
        assert pure.wedge_terms(x, y) == _from_masks(oracle_wedge(mx, my))
        assert pure.derive_terms(x) == _from_masks(oracle_derive(mx))
        assert pure.cmul_terms(x, y) == _from_masks(oracle_cmul(mx, my))
        sa, sb = (pack_sym(rng.randrange(nbases)) for _ in range(2))
        step = oracle_derive(oracle_wedge(oracle_wedge(mx, {1 << sa: 1}),
                                          {1 << sb: 1}))
        assert pure.assoc_step(x, sa, sb) == _from_masks(step)


def test_unit_and_empty():
    one = {b"": 1}
    x = _random_terms(random.Random(1), 4, 24, 4)
    assert pure.wedge_terms(one, x) == pure.wedge_terms(x, one) == x
    assert pure.wedge_terms({}, x) == pure.wedge_terms(x, {}) == {}
    assert pure.derive_terms(one) == pure.derive_terms({}) == {}
    assert oracle_derive(_to_masks(one)) == {}
    assert pure.assoc_step({}, pack_sym(0), pack_sym(1)) == {}


def test_derivation_overflow_raises():
    top = array("H", [pack_sym(0, MAX_DER)]).tobytes()
    # the symbol after MAX_DER is generator 1's first one: with it present
    # the derivation still raises instead of skipping the summand
    beside = array("H", [pack_sym(0, MAX_DER), pack_sym(1)]).tobytes()
    for x in ({top: 1}, {beside: 2}):
        with pytest.raises(OverflowError):
            pure.derive_terms(x)
        with pytest.raises(OverflowError):
            oracle_derive(_to_masks(x))
        with pytest.raises(OverflowError):
            pure.assoc_step(x, pack_sym(2), pack_sym(3))
    below = array("H", [pack_sym(0, MAX_DER - 1)]).tobytes()
    assert pure.derive_terms({below: 1}) == {top: 1}


def _assert_square(x):
    """The square route equals the general product on a copy of x."""
    general = pure.cmul_terms(x, dict(x))
    assert pure.square_terms(x) == general
    assert _kernel.cmul_terms(x, x) == general
    assert _from_masks(oracle_cmul(_to_masks(x), _to_masks(x))) == general


@pytest.mark.parametrize("parity", ["mixed", "even", "odd"])
def test_square_matches_the_general_product(parity):
    # small inputs: the squares stay under the mask kernel's cut
    rng = random.Random(len(parity))
    keep = {"mixed": (0, 1), "even": (0,), "odd": (1,)}[parity]
    for _ in range(200):
        # few bases and deep orders put s and s + 1 in one odd monomial
        x = _random_terms(rng, rng.randrange(1, 12), 4, 3)
        x = {k: c for k, c in x.items() if len(k) // 2 % 2 in keep}
        assert len(x) ** 2 <= _kernel.MASK_MIN_PAIRS
        _assert_square(x)


def test_square_of_unit_and_empty():
    one = {b"": 1}
    assert pure.square_terms(one) == _kernel.cmul_terms(one, one) == one
    assert pure.square_terms({b"": 2}) == one
    assert pure.square_terms({}) == _kernel.cmul_terms({}, {}) == {}


def test_square_with_successor_in_one_odd_monomial():
    s0, s1, s2 = pack_sym(0, 1), pack_sym(0, 2), pack_sym(1, 0)
    key = array("H", [s0, s1, s2]).tobytes()
    x = {key: 1, array("H", [s0]).tobytes(): 2, array("H", [s2]).tobytes(): 1}
    _assert_square(x)
    _assert_square({**x, b"": 1})


def test_square_overflow_raises_exactly_when_the_general_product_does():
    top = array("H", [pack_sym(0, MAX_DER)]).tobytes()
    odd = array("H", [pack_sym(1)]).tobytes()
    even_top = array("H", [pack_sym(0, MAX_DER), pack_sym(1)]).tobytes()
    for x in ({top: 1}, {top: 1, b"": 1}, {odd: 2, top: 1}):
        with pytest.raises(OverflowError):
            pure.cmul_terms(x, dict(x))
        with pytest.raises(OverflowError):
            pure.square_terms(x)
        with pytest.raises(OverflowError):
            _kernel.cmul_terms(x, x)
    # MAX_DER only in the even part: no derivation, no raise
    for x in ({even_top: 1}, {even_top: 2, odd: 1, b"": 1}):
        _assert_square(x)
