import random

import pytest

from cml3.grassmann import GElement, GenSym, Monomial, derive, elem_mul, mono_mul
from helpers import random_element, random_homogeneous


def M(*syms):
    return Monomial.from_syms(syms)


def test_mono_mul_antisymmetry():
    prod = mono_mul(M((0, 0)), M((1, 0)))
    assert prod == (M((0, 0), (1, 0)), 1)
    flipped = mono_mul(M((1, 0)), M((0, 0)))
    assert flipped == (M((0, 0), (1, 0)), 2)


def test_mono_mul_repeated_generator_is_zero():
    assert mono_mul(M((0, 0)), M((0, 0))) is None


def test_mono_mul_sign_normalization():
    # 0(1) wedge 0(0) sorts with one transposition
    assert mono_mul(M((0, 1)), M((0, 0))) == (M((0, 0), (0, 1)), 2)


def test_unit_element():
    x = GElement.generator(3) + GElement.generator(1).scale(2)
    assert elem_mul(GElement.one(), x) == x
    assert elem_mul(x, GElement.one()) == x


def test_bilinearity_seeded():
    rng = random.Random(0)
    for _ in range(30):
        a, b, c = (random_element(rng) for _ in range(3))
        assert elem_mul(a + b, c) == elem_mul(a, c) + elem_mul(b, c)
        assert elem_mul(c, a + b) == elem_mul(c, a) + elem_mul(c, b)


def test_odd_square_vanishes():
    x = GElement.generator(0) + GElement.generator(1)
    assert not elem_mul(x, x)


def test_derive_examples():
    assert derive(GElement.generator(0)) == GElement.generator(0, 1)
    x01 = elem_mul(GElement.generator(0), GElement.generator(1))
    expected = elem_mul(GElement.generator(0, 1), GElement.generator(1)) + elem_mul(
        GElement.generator(0), GElement.generator(1, 1)
    )
    assert derive(x01) == expected
    assert not derive(GElement.one())


def test_derive_leibniz_seeded():
    rng = random.Random(1)
    for _ in range(30):
        x, y = random_element(rng), random_element(rng)
        assert derive(elem_mul(x, y)) == elem_mul(derive(x), y) + elem_mul(x, derive(y))


def test_derive_preserves_parity():
    rng = random.Random(2)
    for parity in (0, 1):
        for _ in range(10):
            x = random_homogeneous(rng, parity)
            d = derive(x)
            if d:
                assert d.parity() == parity


def test_associativity_seeded():
    rng = random.Random(3)
    for _ in range(20):
        a, b, c = (random_element(rng) for _ in range(3))
        assert elem_mul(elem_mul(a, b), c) == elem_mul(a, elem_mul(b, c))


def test_supercommutativity():
    rng = random.Random(4)
    for px in (0, 1):
        for py in (0, 1):
            for _ in range(10):
                x = random_homogeneous(rng, px)
                y = random_homogeneous(rng, py)
                xy = elem_mul(x, y)
                yx = elem_mul(y, x)
                if px == 1 and py == 1:
                    assert xy == yx.scale(2)
                else:
                    assert xy == yx


def test_format_and_parse_roundtrip():
    rng = random.Random(5)
    for _ in range(40):
        x = random_element(rng)
        assert GElement.parse(str(x)) == x
    assert GElement.parse("0") == GElement.zero()
    assert GElement.parse("1*[1]") == GElement.one()
    # derivation order zero may be written explicitly on input
    assert GElement.parse("2*[0(0).1(2)]") == GElement.parse("2*[0.1(2)]")


def test_format_shapes():
    assert str(GElement.zero()) == "0"
    assert str(GElement.one()) == "1*[1]"
    assert str(GElement.generator(0, 1)) == "1*[0(1)]"
    e = elem_mul(GElement.generator(0), GElement.generator(1)).scale(2)
    assert str(e) == "2*[0.1]"


def test_gensym_ordering_and_str():
    assert GenSym(0, 1) < GenSym(1, 0)
    assert GenSym(1, 0) < GenSym(1, 1)
    assert str(GenSym(2, 0)) == "2"
    assert str(GenSym(2, 3)) == "2(3)"


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial.from_syms([(1, 0), (0, 0)])
    with pytest.raises(ValueError):
        Monomial.from_syms([(0, 0), (0, 0)])


def test_parity_queries():
    g = GElement.generator
    assert g(0).parity() == 1
    assert elem_mul(g(0), g(1)).parity() == 0
    mixed = g(0) + elem_mul(g(0), g(1))
    assert mixed.parity() is None
    assert mixed.even_part() + mixed.odd_part() == mixed


def test_hash_ignores_insertion_order():
    rng = random.Random(11)
    for _ in range(20):
        x = random_element(rng, nterms=6, nbases=5)
        items = list(x.raw().items())
        rng.shuffle(items)
        y = GElement(dict(items))
        assert y == x
        assert hash(y) == hash(x)
        # the cached hash is the one a fresh element computes
        assert hash(x) == hash(GElement(dict(reversed(items))))
    a = GElement.one() + GElement.generator(0) + GElement.generator(1)
    b = GElement.generator(1) + GElement.generator(0) + GElement.one()
    assert list(a.raw()) != list(b.raw())
    assert hash(a) == hash(b) and len({a, b}) == 1
