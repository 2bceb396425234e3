"""One verdict per relabelling orbit of generator tuples.

A permutation of the generators moves every symbol to its new generator
at the same derivation order.  On term dicts that is ``relabel``: the bits
are sorted again and a term takes the sign of that sort.  It is an
automorphism of the exterior algebra that commutes with ``d``, so every
kernel op commutes with it, and a suite check built from those ops gives
a tuple and its relabelling the same verdict.  The tests below check that
lemma on random inputs for each op and each product path, that the orbit
keys split the tuples into orbits of the right sizes, that ``_orbits``
lists the first tuple of each, and that the suites report the same with
one tuple computed per orbit as with every tuple computed.
"""

import itertools
import math
import random

import pytest
from helpers import every_tuple, flip_first_coefficient, record_checks, relabel

from cml3 import _join, _kernel, _maskcore, loop, schemas
from cml3._kernel import pack_sym, sym_base, sym_der

NBASES = 8
SYMBOLS = [pack_sym(b, d) for b in range(NBASES) for d in range(4)]


def _random_terms(rng, nterms, parities=(0, 1)):
    # drawing symbols, not generators, puts s and s + 1 in one monomial
    out = {}
    while len(out) < nterms:
        length = rng.randrange(0, 7)
        if length % 2 in parities:
            key = sum(1 << s for s in rng.sample(SYMBOLS, length))
            out[key] = rng.choice((1, 2))
    return out


def _random_perm(rng):
    """An injective relabelling of the generators, onto a shuffled range
    or into a larger one."""
    return rng.sample(range(NBASES + rng.choice((0, 4))), NBASES)


def _sym(s, perm):
    return pack_sym(perm[sym_base(s)], sym_der(s))


def test_relabel_is_a_signed_permutation():
    # x ^ y for one-symbol x and y: y ^ x is its negative, so a relabelling
    # that swaps their order changes the sign
    x, y = {1 << pack_sym(0): 1}, {1 << pack_sym(1): 1}
    xy = _kernel.wedge_terms(x, y)
    assert relabel(xy, [1, 0]) == _kernel.wedge_terms(y, x) == {
        key: 3 - c for key, c in xy.items()}
    rng = random.Random(0)
    for _ in range(50):
        x = _random_terms(rng, 6)
        perm = _random_perm(rng)
        inverse = {g: i for i, g in enumerate(perm)}
        assert relabel(relabel(x, perm), inverse) == x


def test_wedge_and_derive_commute_with_relabelling():
    rng = random.Random(1)
    for _ in range(300):
        x = _random_terms(rng, rng.randrange(1, 10))
        y = _random_terms(rng, rng.randrange(1, 10))
        perm = _random_perm(rng)
        rx, ry = relabel(x, perm), relabel(y, perm)
        assert relabel(_kernel.wedge_terms(x, y), perm) == _kernel.wedge_terms(rx, ry)
        assert relabel(_kernel.derive_terms(x), perm) == _kernel.derive_terms(rx)


def _steps_commute(step, cases=300, seed=2):
    """Whether ``step`` commutes with relabelling on every random case:
    odd elements, letters of any order, one ``derivs`` memo for both
    sides, as a suite shares it."""
    rng = random.Random(seed)
    derivs = {}
    for _ in range(cases):
        x = _random_terms(rng, rng.randrange(1, 12), parities=(1,))
        sa, sb = rng.sample(SYMBOLS, 2)
        perm = _random_perm(rng)
        got = step(relabel(x, perm), _sym(sa, perm), _sym(sb, perm), derivs)
        if relabel(step(x, sa, sb, derivs), perm) != got:
            return False
    return True


def test_assoc_step_commutes_with_relabelling():
    assert _steps_commute(_kernel.assoc_step)


def test_relabelling_catches_a_label_dependent_step():
    # which term comes first depends on the labels, so flipping it does
    # not commute with relabelling; tuples sharing one verdict would hide
    # such a fault, and this test shows it
    assert not _steps_commute(flip_first_coefficient(_kernel.assoc_step))


# (product, square, least and most terms per factor): the dict kernel up
# to JOIN_MIN_PAIRS monomial pairs, the join and the numpy kernel above
PATHS = {
    "dict": (_kernel.product_terms, _kernel.square_terms, 2, 16),
    "join": (_join.cmul_terms, _join.square_terms, 17, 45),
    "mask": (_maskcore.cmul_terms, _maskcore.square_terms, 46, 70),
}


@pytest.mark.parametrize("path", PATHS)
def test_cmul_commutes_with_relabelling(path):
    product, square, low, high = PATHS[path]
    rng = random.Random(path)
    for _ in range(12):
        x = _random_terms(rng, rng.randrange(low, high + 1))
        y = _random_terms(rng, rng.randrange(low, high + 1))
        perm = _random_perm(rng)
        rx, ry = relabel(x, perm), relabel(y, perm)
        got = product(rx, ry)
        assert got is not None
        assert relabel(product(x, y), perm) == got
        assert relabel(square(x), perm) == square(rx)
        # the dispatch sends products of this size down this path
        pairs = len(x) * len(y)
        assert (pairs <= _kernel.JOIN_MIN_PAIRS) == (path == "dict")
        assert (pairs > _kernel.MASK_MIN_PAIRS) == (path == "mask")


# ---------------------------------------------------------------------------
# orbit keys
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("k", range(1, 6))
def test_orbit_sizes_cover_every_tuple(n, k):
    orbits = {}
    for t in itertools.product(range(n), repeat=k):
        orbits.setdefault(loop._orbit_key(t), []).append(t)
    for key, members in orbits.items():
        # the first member in the exhaustive order is the key itself
        assert members[0] == key
        # b letters relabel injectively in n!/(n-b)! ways
        assert len(members) == math.perm(n, len(set(key)))
        assert all(len(set(zip(key, t))) == len(set(key)) for t in members)
    assert sum(map(len, orbits.values())) == n ** k
    # _orbits lists those keys in order of first appearance
    assert loop._orbits(n, k) == list(orbits)
    assert sum(math.perm(n, len(set(t))) for t in loop._orbits(n, k)) == n ** k


def test_orbits_do_not_grow_with_n():
    assert loop._orbits(4096, 3) == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]


def test_orbit_counts_at_seven_generators():
    # once n >= k the orbits are the set partitions: Bell numbers
    counts = [len({loop._orbit_key(t)
                   for t in itertools.product(range(7), repeat=k)})
              for k in (3, 4, 5)]
    assert counts == [5, 15, 52]
    assert loop._orbit_key((3, 5, 3)) == (0, 1, 0)


# ---------------------------------------------------------------------------
# the same reports with one tuple per orbit and with every tuple computed
# ---------------------------------------------------------------------------

def _shared_and_unshared(monkeypatch, suite, *args):
    """``suite(*args)`` with one tuple computed per orbit, then with every
    tuple computed: each run's report and, per check, the items failing
    it."""
    calls = record_checks(monkeypatch)

    def failing():
        out = [[x for x, ok in verdicts if not ok] for verdicts in calls]
        calls.clear()
        return out

    shared = suite(*args), failing()
    every_tuple(monkeypatch)
    return shared, (suite(*args), failing())


@pytest.mark.parametrize("n,samples,seed", [
    *((n, 60, n) for n in range(1, 6)),
    *((7, 200, seed) for seed in (1, 2, 3)),
])
def test_identity_reports_equal_with_and_without_sharing(monkeypatch, n,
                                                         samples, seed):
    shared, unshared = _shared_and_unshared(
        monkeypatch, loop.verify_identities, n, samples, seed)
    assert shared == unshared
    assert loop.report_passed(shared[0])


@pytest.mark.parametrize("n", range(1, 5))
def test_cml3_reports_equal_with_and_without_sharing(monkeypatch, n):
    shared, unshared = _shared_and_unshared(monkeypatch, loop.verify_cml3, n, 6, n)
    assert shared == unshared
    assert loop.report_passed(shared[0])


@pytest.mark.parametrize("n,samples", [(4, 20), (7, 200)])
def test_failures_equal_under_a_corrupted_schema(monkeypatch, n, samples):
    import copy

    bad = copy.copy(schemas.SCHEMAS["X"])
    (coeff, pairs), *rest = bad.pos_terms
    object.__setattr__(bad, "pos_terms", ((3 - coeff, pairs), *rest))
    monkeypatch.setitem(schemas.SCHEMAS, "X", bad)
    key = loop._orbit_key
    shared, unshared = _shared_and_unshared(
        monkeypatch, loop.verify_identities, n, samples, 0)
    assert shared[0] == unshared[0]
    (entry,) = [e for e in shared[0] if not e["pass"]]
    assert entry["witness"].startswith("X:")
    # one check fails, on the same orbits either way, and a failing orbit
    # stands for more than one failing tuple
    (i,) = [i for i, failed in enumerate(shared[1]) if failed]
    assert [bool(failed) for failed in unshared[1]] == [
        bool(failed) for failed in shared[1]]
    assert set(map(key, unshared[1][i])) == set(map(key, shared[1][i]))
    assert len(unshared[1][i]) > len(shared[1][i])
