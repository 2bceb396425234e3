import hashlib
import itertools
import math
import random

import bytes_oracle as oracle
from cml3 import gf3, words
from cml3.gf3 import RankResult, rank_and_kernel, rank_only, row_basis
from cml3.grassmann import mono_str
from cml3.twowords import _span_rows_indexed, universe, word_str


def test_unit_rows_independent():
    rows = [{"a": 1}, {"b": 1}]
    res = rank_and_kernel(rows)
    assert res.rank == 2
    assert res.kernel_basis == ()
    assert res.pivot_keys == ("a", "b")


def test_proportional_rows():
    r = {"a": 1, "c": 2}
    res = rank_and_kernel([r, {k: 2 * v for k, v in r.items()}])
    assert res.rank == 1
    assert res.kernel_basis == ((1, 1),)  # r + 2r = 0 mod 3


def test_empty_input():
    res = rank_and_kernel([])
    assert res == RankResult(0, (), ())


def test_zero_row_gets_unit_kernel_vector():
    res = rank_and_kernel([{"a": 1}, {}])
    assert res.rank == 1
    assert res.kernel_basis == ((0, 1),)


def test_dict_row_residues_normalize():
    # 3 = 0 is dropped, so "a" is no pivot; 5 = 2 leads the row at "b"
    row = {"b": 5, "a": 3, "c": 1}
    res = rank_and_kernel([row, {"b": 2, "c": 1}])
    assert res.rank == 1
    assert res.pivot_keys == ("b",)
    assert res.kernel_basis == ((1, 2),)
    assert rank_only([row]) == (1, ("b",))
    assert row_basis([row]) == [{"b": 1, "c": 2}]


def _random_rows(rng, nrows, ncols, density=0.5):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                row[c] = rng.choice((1, 2))
        rows.append(row)
    return rows


def test_rank_shuffle_invariant_and_kernel_exact():
    rng = random.Random(0)
    for _ in range(40):
        rows = _random_rows(rng, rng.randrange(1, 9), rng.randrange(1, 7))
        res = rank_and_kernel(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank_and_kernel(shuffled).rank == res.rank
        assert res.rank <= min(len(rows), len({k for r in rows for k in r}))
        assert res.rank + len(res.kernel_basis) == len(rows)
        for vec in res.kernel_basis:
            combo = {}
            for coeff, row in zip(vec, rows):
                for k, v in row.items():
                    combo[k] = (combo.get(k, 0) + coeff * v) % 3
            assert all(v == 0 for v in combo.values())


def _dependent_rows(rng, nrows, ncols, density=0.5):
    # random rows, then sometimes a combination of them, so that wide
    # systems also have a kernel
    rows = _random_rows(rng, nrows, ncols, density)
    if rows and rng.random() < 0.5:
        combo = {}
        for row in rows:
            coeff = rng.randrange(3)
            for k, v in row.items():
                combo[k] = (combo.get(k, 0) + coeff * v) % 3
        rows.insert(rng.randrange(len(rows) + 1), combo)
    return rows


# proportional rows, all-2 rows, empty rows and stored zeros; the last two
# span more than 64 and 128 columns, so a row is more than one int limb
EDGE_SYSTEMS = [
    [{"a": 1, "c": 2}, {"a": 2, "c": 1}, {"a": 1, "c": 2}],
    [{0: 2, 1: 2, 2: 2}, {1: 2, 3: 2}, {0: 2, 1: 2, 2: 2}, {0: 2, 2: 2, 3: 1}],
    [{}, {}, {5: 1}],
    [{}],
    [{"a": 3, "b": -1}, {"b": 2}],
    [{c: 2 for c in range(70)}, {c: 1 for c in range(0, 70, 2)},
     {c: 1 for c in range(70)}],
    [{c: 2 for c in range(65, 200)}, {}, {0: 1, 199: 2},
     {c: 1 for c in range(65, 200)}, {0: 2, 199: 1}],
]


def _check_against_brute_force(rows):
    # every coefficient vector is tried: the ones that recombine the rows to
    # zero are the kernel, and the ones that vanish on the columns up to c
    # count the rank of that column prefix, which rises exactly at the
    # pivot columns
    nrows = len(rows)
    cols = sorted({k for r in rows for k in r})
    res = rank_and_kernel(rows)

    scaled = [
        [[a * row.get(c, 0) % 3 for c in cols] for a in range(3)] for row in rows
    ]
    combos = {}
    for vec in itertools.product(range(3), repeat=nrows):
        parts = [scaled[i][a] for i, a in enumerate(vec)]
        combos[vec] = [sum(x) % 3 for x in zip(*parts)] if parts else []
    zero = {vec for vec, out in combos.items() if not any(out)}
    assert len(zero) == 3 ** (nrows - res.rank)

    span = set()
    for coeffs in itertools.product(range(3), repeat=len(res.kernel_basis)):
        span.add(tuple(
            sum(a * b[i] for a, b in zip(coeffs, res.kernel_basis)) % 3
            for i in range(nrows)
        ))
    assert zero <= span

    # the basis is the canonical one: reduced row echelon form
    leads = [next(i for i, v in enumerate(b) if v) for b in res.kernel_basis]
    assert leads == sorted(set(leads))
    for b, lead in zip(res.kernel_basis, leads):
        assert b[lead] == 1
        assert [o[lead] for o in res.kernel_basis].count(0) == len(leads) - 1

    # a combination vanishes on the prefix up to j iff its first nonzero
    # column is past j
    first = [
        next((j for j, v in enumerate(out) if v), len(cols))
        for out in combos.values()
    ]
    pivots = []
    prev_rank = 0
    for j, c in enumerate(cols):
        vanish = sum(1 for f in first if f > j)
        prefix_rank = nrows - round(math.log(vanish, 3))
        if prefix_rank > prev_rank:
            pivots.append(c)
        prev_rank = prefix_rank
    assert res.pivot_keys == tuple(pivots)
    assert rank_only(rows) == (res.rank, res.pivot_keys)

    # row_basis spans the row space, one row per pivot, led by a 1 there
    basis = row_basis(rows)
    assert [min(b) for b in basis] == list(res.pivot_keys)
    assert all(b[min(b)] == 1 for b in basis)
    basis_span = {
        tuple(
            sum(a * b.get(c, 0) for a, b in zip(coeffs, basis)) % 3
            for c in cols
        )
        for coeffs in itertools.product(range(3), repeat=len(basis))
    }
    assert basis_span == {tuple(out) for out in combos.values()}


def test_brute_force_oracle():
    rng = random.Random(1)
    for _ in range(30):
        _check_against_brute_force(
            _random_rows(rng, rng.randrange(1, 8), rng.randrange(1, 6)))
    # wider than one and two 64-bit limbs
    for ncols in (65, 100, 129, 200):
        for _ in range(3):
            _check_against_brute_force(_dependent_rows(
                rng, rng.randrange(1, 6), ncols, rng.choice((0.05, 0.5))))
    for rows in EDGE_SYSTEMS:
        _check_against_brute_force(rows)


def test_rank_only_matches_rank_and_kernel():
    rng = random.Random(2)
    for _ in range(25):
        rows = _random_rows(rng, rng.randrange(1, 10), rng.randrange(1, 7))
        full = rank_and_kernel(rows)
        rank, pivots = rank_only(rows)
        assert rank == full.rank
        assert pivots == full.pivot_keys


def test_one_pass_generator_rows():
    # each entry point reads its rows once, so a generator gives what the
    # list gives
    rng = random.Random(4)
    for _ in range(10):
        rows = _dependent_rows(rng, rng.randrange(1, 9), rng.randrange(1, 70))
        for op in (rank_and_kernel, rank_only, row_basis):
            assert op(row for row in rows) == op(rows), op.__name__


def test_key_types_share_one_order():
    # the eliminator sees only the order of the keys, so keys of any type
    # that sort the same way give the same rank, kernel and pivots
    ncols = 150
    key_lists = {
        "bytes": [i.to_bytes(2, "big") for i in range(ncols)],
        "2-word": sorted(universe(words.TypeVector.parse("5,2")))[:ncols],
    }
    rng = random.Random(3)
    for _ in range(10):
        rows = _dependent_rows(rng, rng.randrange(1, 12), ncols, 0.1)
        res = rank_and_kernel(rows)
        basis = row_basis(rows)
        for name, keys in key_lists.items():
            assert sorted(keys) == keys and len(set(keys)) == ncols, name
            mapped = [{keys[c]: v for c, v in row.items()} for row in rows]
            got = rank_and_kernel(mapped)
            assert got.rank == res.rank, name
            assert got.kernel_basis == res.kernel_basis, name
            assert got.pivot_keys == tuple(keys[c] for c in res.pivot_keys), name
            assert rank_only(mapped) == (got.rank, got.pivot_keys), name
            assert row_basis(mapped) == [
                {keys[c]: v for c, v in b.items()} for b in basis
            ], name


def test_pinned_relation_span_and_word_span():
    # the relation span of case 5,2 (3987 rows over its 468 words, keyed by
    # index in ascending word order): the seven columns without a pivot are
    # the case's regular words
    case = words.TypeVector.parse("5,2")
    case_words = universe(case)
    rows = _span_rows_indexed(case, "Z2", case_words)
    rank, pivots = rank_only(rows)
    cols = sorted({k for row in rows for k in row})
    assert (len(rows), len(cols), rank) == (3987, 468, 461)
    assert list(pivots) == sorted(pivots)
    free = set(cols) - set(pivots)
    assert [word_str(case_words[i]) for i in cols if i in free] == [
        "56.34.26.15", "56.45.23.16", "56.36.25.14", "56.46.23.15",
        "56.46.15.23", "56.46.25.13", "56.46.35.12",
    ]

    # h(7,1) = 28: its span basis has 28 values over 128 monomials; the
    # pivots depend only on the span, not on the basis the frontier kept.
    # Smallest-key pivots depend on the key order too, so they are pinned
    # on the oracle's bytes keys and on the kernel's int keys, both by the
    # pivots' text, which the width of a symbol's fields does not change
    values = words._type_word_values((7, 1))
    rank, pivots = rank_only([oracle.bytes_terms(v) for v in values])
    assert rank == 28
    assert len({k for v in values for k in v}) == 128
    text = [mono_str(oracle.int_key(p)) for p in pivots]
    assert text[0] == "[0.1.2.3.4.5.6.7.7(4)]"
    assert text[-1] == "[0.1(2).2.3.4.5.6.7.7(2)]"
    digest = hashlib.sha256(",".join(text).encode()).hexdigest()
    assert digest[:16] == "8bb900b574df953a"
    rank, pivots = rank_only(values)
    assert rank == 28
    text = [mono_str(p) for p in pivots]
    assert text[0] == "[0(3).1.2.3.4.5.6.7.7(1)]"
    assert text[-1] == "[0(1).1.2.3.4.5.6(1).7.7(2)]"
    digest = hashlib.sha256(",".join(text).encode()).hexdigest()
    assert digest[:16] == "d87f844b1e823243"


def test_row_basis_on_a_frontier_group(monkeypatch):
    # the largest group the frontier of h(5,2) reduces: 60 stepped states
    # over 84 int-bitmask monomials, of rank 20
    groups = []

    def record(rows):
        groups.append(list(rows))
        return row_basis(groups[-1])

    monkeypatch.setattr(gf3, "row_basis", record)
    words._type_word_values((5, 2))
    group = max(groups, key=len)
    assert (len(group), len({k for row in group for k in row})) == (60, 84)
    basis = row_basis(group)
    pivots = [min(b) for b in basis]
    assert [mono_str(p) for p in pivots] == [
        "[0(3).1.2.3.4.5.6]", "[0(2).1(1).2.3.4.5.6]", "[0(1).1(2).2.3.4.5.6]",
        "[0(2).1.2(1).3.4.5.6]", "[0(1).1(1).2(1).3.4.5.6]",
        "[0(1).1.2(2).3.4.5.6]", "[0(2).1.2.3(1).4.5.6]",
        "[0(1).1(1).2.3(1).4.5.6]", "[0(1).1.2(1).3(1).4.5.6]",
        "[0(1).1.2.3(2).4.5.6]", "[0(2).1.2.3.4(1).5.6]",
        "[0(1).1(1).2.3.4(1).5.6]", "[0(1).1.2(1).3.4(1).5.6]",
        "[0(1).1.2.3(1).4(1).5.6]", "[0(1).1.2.3.4(2).5.6]",
        "[0(2).1.2.3.4.5(1).6]", "[0(1).1(1).2.3.4.5(1).6]",
        "[0(1).1.2(1).3.4.5(1).6]", "[0(1).1.2.3(1).4.5(1).6]",
        "[0(1).1.2.3.4.5(2).6]",
    ]
    assert all(b[min(b)] == 1 for b in basis)
    assert rank_only(group) == (20, tuple(pivots))
    assert rank_and_kernel(group).pivot_keys == tuple(pivots)
    # the basis lies in the group's span and has its dimension
    assert rank_only(group + basis)[0] == 20
