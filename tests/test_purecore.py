"""The pure-Python dict kernel of ``cml3._kernel`` against the bytes oracle.

The kernel keys a monomial by a Python int with one bit per packed symbol
(``base << 6 | der``); the oracle, ``bytes_oracle.py``, keys it by a byte
string of sorted uint16 symbols and merges symbol tuples.  They share no
code, and every op is compared term for term through ``int_terms`` and
``bytes_terms``.

Squares up to ``_kernel.JOIN_MIN_PAIRS`` pairs, the dict kernel's range,
are checked here against the general product.  The join's range is
checked in ``test_join.py``, and only the range above
``_kernel.MASK_MIN_PAIRS`` in ``test_maskcore.py``.
"""

import random

import pytest

import bytes_oracle as oracle
from bytes_oracle import bytes_terms, int_terms
from cml3 import _kernel as kernel
from cml3 import _maskcore
from cml3._kernel import MAX_BASE, MAX_DER, pack_sym, positions, sym_base
from cml3.grassmann import GElement, _sort_key


def _key(*syms):
    return sum(1 << s for s in syms)


def _random_terms(rng, nterms, nbases, maxder, maxlen=7, base0=0):
    # drawing symbols, not generators, puts s and s + 1 in one monomial
    symbols = [pack_sym(b, d) for b in range(base0, base0 + nbases)
               for d in range(maxder + 1)]
    out = {}
    for _ in range(nterms):
        out[_key(*rng.sample(symbols, rng.randrange(0, maxlen)))] = rng.choice((1, 2))
    return out


def _assert_ops_match(x, y, sa, sb):
    bx, by = bytes_terms(x), bytes_terms(y)
    assert kernel.wedge_terms(x, y) == int_terms(oracle.wedge_terms(bx, by))
    assert kernel.derive_terms(x) == int_terms(oracle.derive_terms(bx))
    product = int_terms(oracle.cmul_terms(bx, by))
    assert kernel.product_terms(x, y) == product
    assert kernel.cmul_terms(x, y) == product
    assert kernel.assoc_step(x, sa, sb) == int_terms(oracle.assoc_step(bx, sa, sb))


@pytest.mark.parametrize("nbases,maxder", [(24, 4), (5, 3)])
def test_ops_match_the_oracle_on_random_inputs(nbases, maxder):
    rng = random.Random(nbases)
    for _ in range(300):
        x = _random_terms(rng, rng.randrange(1, 8), nbases, maxder)
        y = _random_terms(rng, rng.randrange(1, 8), nbases, maxder)
        sa, sb = (pack_sym(rng.randrange(nbases)) for _ in range(2))
        _assert_ops_match(x, y, sa, sb)


def test_unit_and_empty():
    one = {0: 1}
    x = _random_terms(random.Random(1), 4, 24, 4)
    assert kernel.wedge_terms(one, x) == kernel.wedge_terms(x, one) == x
    assert kernel.wedge_terms({}, x) == kernel.wedge_terms(x, {}) == {}
    assert kernel.derive_terms(one) == kernel.derive_terms({}) == {}
    assert kernel.assoc_step({}, pack_sym(0), pack_sym(1)) == {}
    assert kernel.product_terms(one, x) == kernel.product_terms(x, one) == x
    assert kernel.product_terms({}, x) == kernel.product_terms(x, {}) == {}


def test_derivation_overflow_raises():
    top = _key(pack_sym(0, MAX_DER))
    # the symbol after MAX_DER is generator 1's first one: with it present
    # the derivation still raises instead of skipping the summand
    beside = _key(pack_sym(0, MAX_DER), pack_sym(1))
    for x in ({top: 1}, {beside: 2}):
        with pytest.raises(OverflowError):
            kernel.derive_terms(x)
        with pytest.raises(OverflowError):
            oracle.derive_terms(bytes_terms(x))
        with pytest.raises(OverflowError):
            kernel.assoc_step(x, pack_sym(2), pack_sym(3))
    below = _key(pack_sym(0, MAX_DER - 1))
    assert kernel.derive_terms({below: 1}) == {top: 1}


def _odd_beside(base):
    """An odd monomial holding base(MAX_DER) and its bit's successor,
    (base + 1)(0)."""
    return _key(pack_sym(base, MAX_DER), pack_sym(base + 1), pack_sym(base + 2))


@pytest.mark.parametrize("pad", [0, 60])
def test_top_order_beside_next_generator_raises(pad, numpy_kernel):
    # the top order raises before the successor test could skip it, on
    # both sides of MASK_MIN_PAIRS
    rng = random.Random(pad)
    x = {_odd_beside(0): 1}
    x.update(_random_terms(rng, pad, 4, 3, base0=8))
    y = {_key(pack_sym(5)): 2}
    y.update(_random_terms(rng, pad, 4, 3, base0=12))
    assert (len(x) * len(y) > kernel.MASK_MIN_PAIRS) == bool(pad)
    bx, by = bytes_terms(x), bytes_terms(y)
    for op, args in (
        (kernel.derive_terms, (x,)),
        (kernel.assoc_step, (x, pack_sym(6), pack_sym(7))),
        (kernel.cmul_terms, (x, y)),
        (kernel.cmul_terms, (y, x)),
        (kernel.cmul_terms, (x, x)),
        (kernel.square_terms, (x,)),
        (kernel.product_terms, (x, y)),
        (oracle.derive_terms, (bx,)),
        (oracle.assoc_step, (bx, pack_sym(6), pack_sym(7))),
        (oracle.cmul_terms, (bx, by)),
    ):
        with pytest.raises(OverflowError):
            op(*args)


def test_max_base_monomial_through_text_order_and_ops():
    # generator MAX_BASE holds bits 65472..65535, the last there are; the
    # numpy kernel takes them too
    top = pack_sym(MAX_BASE, MAX_DER)
    assert top == 65535
    low, mid = pack_sym(0, 1), pack_sym(MAX_BASE, MAX_DER - 1)
    x = {_key(low, mid): 1, _key(top): 2, _key(pack_sym(MAX_BASE)): 1, 0: 1}
    text = str(GElement._wrap(x))
    assert text == (f"1*[1] + 1*[{MAX_BASE}] + 2*[{MAX_BASE}({MAX_DER})] + "
                    f"1*[0(1).{MAX_BASE}({MAX_DER - 1})]")
    assert GElement.parse(text).raw() == x
    # ordering is degree-major, then by symbols, as the oracle's tuples
    monomials = sorted(x, key=_sort_key)
    assert [oracle.syms_from_key(oracle.bytes_key(m)) for m in monomials] == [
        (), (pack_sym(MAX_BASE),), (top,), (low, mid)]
    assert sym_base(positions(_key(top))[0]) == MAX_BASE
    y = {_key(pack_sym(3)): 1, _key(pack_sym(MAX_BASE, 5), pack_sym(7)): 2}
    odd = {_key(mid): 1, _key(pack_sym(2), pack_sym(MAX_BASE, 3), low): 2}
    _assert_ops_match(odd, y, pack_sym(MAX_BASE, 9), pack_sym(4))
    _assert_ops_match(y, odd, pack_sym(1), pack_sym(MAX_BASE))
    even = {_key(pack_sym(MAX_BASE, 5), pack_sym(7)): 2}
    for a, b in ((x, even), (even, x), (odd, odd), (odd, even)):
        product = int_terms(oracle.cmul_terms(bytes_terms(a), bytes_terms(b)))
        assert kernel.product_terms(a, b) == product
        assert _maskcore.cmul_terms(a, b) == product
    # x holds the odd monomial [MAX_BASE(MAX_DER)]: times an odd y it
    # derives it and overflows
    for op in (kernel.derive_terms, kernel.square_terms):
        with pytest.raises(OverflowError):
            op(x)
    with pytest.raises(OverflowError):
        kernel.product_terms(x, y)
    for square in (odd, {**y, **odd}):
        _assert_square(square)
        assert _maskcore.square_terms(square) == kernel.square_terms(square)


def _assert_square(x):
    """The square route equals the general product on a copy of x."""
    general = kernel.product_terms(x, dict(x))
    assert kernel.square_terms(x) == general
    assert kernel.cmul_terms(x, x) == general
    bx = bytes_terms(x)
    assert int_terms(oracle.cmul_terms(bx, dict(bx))) == general


@pytest.mark.parametrize("parity", ["mixed", "even", "odd"])
def test_square_matches_the_general_product(parity):
    # small inputs: the squares stay on the dict kernel, under the join's cut
    rng = random.Random(len(parity))
    keep = {"mixed": (0, 1), "even": (0,), "odd": (1,)}[parity]
    for _ in range(200):
        # few bases and deep orders put s and s + 1 in one odd monomial
        x = _random_terms(rng, rng.randrange(1, 12), 4, 3)
        x = {k: c for k, c in x.items() if k.bit_count() % 2 in keep}
        assert len(x) ** 2 <= kernel.JOIN_MIN_PAIRS
        _assert_square(x)


def test_square_of_unit_and_empty():
    one = {0: 1}
    assert kernel.square_terms(one) == kernel.cmul_terms(one, one) == one
    assert kernel.square_terms({0: 2}) == one
    assert kernel.square_terms({}) == kernel.cmul_terms({}, {}) == {}


def test_square_with_successor_in_one_odd_monomial():
    s0, s1, s2 = pack_sym(0, 1), pack_sym(0, 2), pack_sym(1, 0)
    x = {_key(s0, s1, s2): 1, _key(s0): 2, _key(s2): 1}
    _assert_square(x)
    _assert_square({**x, 0: 1})


def test_square_overflow_raises_exactly_when_the_general_product_does():
    top = _key(pack_sym(0, MAX_DER))
    odd = _key(pack_sym(1))
    even_top = _key(pack_sym(0, MAX_DER), pack_sym(1))
    for x in ({top: 1}, {top: 1, 0: 1}, {odd: 2, top: 1}):
        with pytest.raises(OverflowError):
            kernel.product_terms(x, dict(x))
        with pytest.raises(OverflowError):
            kernel.square_terms(x)
        with pytest.raises(OverflowError):
            kernel.cmul_terms(x, x)
    # MAX_DER only in the even part: no derivation, no raise
    for x in ({even_top: 1}, {even_top: 2, odd: 1, 0: 1}):
        _assert_square(x)
