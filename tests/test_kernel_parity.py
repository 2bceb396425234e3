"""The compiled kernel and the pure fallback must agree bit for bit."""

import random

import pytest

from cml3 import _purecore as pure
from cml3._purecore import key_from_syms, pack_sym

fast = pytest.importorskip("cml3._fastcore")


def _random_terms(rng, nterms, nbases=24, maxlen=7, maxder=4):
    out = {}
    for _ in range(nterms):
        length = rng.randrange(1, maxlen)
        bases = sorted(rng.sample(range(nbases), length))
        syms = [pack_sym(b, rng.randrange(maxder + 1)) for b in bases]
        out[key_from_syms(sorted(syms))] = rng.choice((1, 2))
    return out


def test_backends_agree_on_random_inputs():
    rng = random.Random(0)
    for _ in range(400):
        x = _random_terms(rng, rng.randrange(1, 8))
        y = _random_terms(rng, rng.randrange(1, 8))
        assert pure.wedge_terms(x, y) == fast.wedge_terms(x, y)
        assert pure.derive_terms(x) == fast.derive_terms(x)
        assert pure.cmul_terms(x, y) == fast.cmul_terms(x, y)
        sa = pack_sym(rng.randrange(10))
        sb = pack_sym(rng.randrange(10))
        assert pure.assoc_step(x, sa, sb) == fast.assoc_step(x, sa, sb)


def test_backends_agree_on_unit_and_empty():
    one = {b"": 1}
    x = _random_terms(random.Random(1), 4)
    assert pure.wedge_terms(one, x) == fast.wedge_terms(one, x) == x
    assert pure.wedge_terms({}, x) == fast.wedge_terms({}, x) == {}
    assert pure.derive_terms(one) == fast.derive_terms(one) == {}
    assert pure.cmul_terms(one, x) == fast.cmul_terms(one, x) == x


def test_derivation_overflow_raises_in_both():
    key = key_from_syms([pack_sym(0, 63)])
    with pytest.raises(OverflowError):
        pure.derive_terms({key: 1})
    with pytest.raises(OverflowError):
        fast.derive_terms({key: 1})

