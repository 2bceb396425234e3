"""Shared seeded samplers and reference modes for the test suite."""

import itertools
import random

from cml3._kernel import pack_sym, positions, sym_base, sym_der
from cml3.grassmann import GElement, elem_mul


def random_element(rng: random.Random, nterms=4, nbases=4, maxlen=3, maxder=2):
    """Random GF(3) combination of exterior monomials."""
    out = GElement.zero()
    for _ in range(rng.randrange(1, nterms + 1)):
        length = rng.randrange(1, maxlen + 1)
        bases = rng.sample(range(nbases), min(length, nbases))
        mono = GElement.one()
        for b in sorted(bases):
            mono = elem_mul(mono, GElement.generator(b, rng.randrange(maxder + 1)))
        out = out + mono.scale(rng.choice((1, 2)))
    return out


def random_homogeneous(rng: random.Random, parity, nbases=5, maxder=2):
    """Random homogeneous element of the requested parity."""
    out = GElement.zero()
    for _ in range(rng.randrange(1, 4)):
        length = rng.choice((1, 3) if parity else (2, 4))
        if length > nbases:
            length = parity or 2
        bases = sorted(rng.sample(range(nbases), length))
        mono = GElement.one()
        for b in bases:
            mono = elem_mul(mono, GElement.generator(b, rng.randrange(maxder + 1)))
        if mono:
            out = out + mono.scale(rng.choice((1, 2)))
    return out


def dict_sample_odd(rng: random.Random, n: int) -> dict:
    """Term dict of a random odd element on underived generators 0..n-1,
    as ``cml3.loop._sample_odd`` drew it on term dicts: its reference."""
    out: dict = {}
    for _ in range(rng.randrange(1, 4)):
        size = rng.choice((1, 3)) if n >= 3 else 1
        if size > n:
            size = 1
        picks = sorted(rng.sample(range(n), size))
        key = sum(1 << pack_sym(g) for g in picks)
        c = (out.get(key, 0) + rng.choice((1, 2))) % 3
        if c:
            out[key] = c
        else:
            del out[key]
    return out


def plane_terms(plane) -> dict:
    """The term dict of a pair-model component ``(ones, twos)``: bit i of
    a plane is the monomial on the generators at the set bits of i."""
    out = {}
    for coeff, bits in zip((1, 2), plane):
        for i in range(bits.bit_length()):
            if bits >> i & 1:
                key = sum(1 << pack_sym(g) for g in range(i.bit_length())
                          if i >> g & 1)
                out[key] = coeff
    return out


def terms_plane(terms: dict) -> tuple:
    """The planes of a term dict on underived generators, inverse to
    ``plane_terms``."""
    planes = [0, 0]
    for key, coeff in terms.items():
        i = sum(1 << sym_base(s) for s in positions(key))
        planes[coeff - 1] |= 1 << i
    return tuple(planes)


def relabel(terms: dict, perm) -> dict:
    """``terms`` with generator g renamed ``perm[g]``: each symbol moves to
    its new generator at the same derivation order, the bits are sorted
    again, and a term changes sign when that sort is an odd permutation."""
    out = {}
    for key, c in terms.items():
        syms = [pack_sym(perm[sym_base(s)], sym_der(s)) for s in positions(key)]
        swaps = sum(a > b for i, a in enumerate(syms) for b in syms[i + 1:])
        out[sum(1 << s for s in syms)] = 3 - c if swaps & 1 else c
    return out


def flip_first_coefficient(op):
    """``op`` with the coefficient of the first term of each result flipped."""
    def flipped(*args):
        out = op(*args)
        for key in out:
            out[key] = 3 - out[key]
            break
        return out
    return flipped


def every_tuple(monkeypatch):
    """The reference mode of the loop suites: every generator tuple
    computed.  ``loop._orbits`` lists all n^k tuples in product order, and
    ``loop._orbit_key`` gives each sampled draw its own key."""
    from cml3 import loop

    monkeypatch.setattr(loop, "_orbits", lambda n, k: list(
        itertools.product(range(n), repeat=k)))
    monkeypatch.setattr(loop, "_orbit_key", lambda t: object())


def record_checks(monkeypatch):
    """A list that gets, for each ``loop._first_failure`` call, the
    ``(item, ok)`` verdicts of the items it checks, in order."""
    from cml3 import loop

    run = loop._first_failure
    calls = []

    def recorded(labeled, check):
        verdicts = []
        calls.append(verdicts)

        def noted(x):
            ok = check(x)
            verdicts.append((x, ok))
            return ok

        return run(labeled, noted)

    monkeypatch.setattr(loop, "_first_failure", recorded)
    return calls
