import itertools
import math
import random

from cml3.gf3 import RankResult, SparseRow, rank_and_kernel, rank_only, row_basis


def test_unit_rows_independent():
    rows = [SparseRow({"a": 1}), SparseRow({"b": 1})]
    res = rank_and_kernel(rows)
    assert res.rank == 2
    assert res.kernel_basis == ()
    assert res.pivot_keys == ("a", "b")


def test_proportional_rows():
    r = {"a": 1, "c": 2}
    res = rank_and_kernel([SparseRow(r), SparseRow({k: 2 * v for k, v in r.items()})])
    assert res.rank == 1
    assert res.kernel_basis == ((1, 1),)  # r + 2r = 0 mod 3


def test_empty_input():
    res = rank_and_kernel([])
    assert res == RankResult(0, (), ())


def test_zero_row_gets_unit_kernel_vector():
    res = rank_and_kernel([SparseRow({"a": 1}), SparseRow({})])
    assert res.rank == 1
    assert res.kernel_basis == ((0, 1),)


def test_sparse_row_normalizes():
    row = SparseRow({"b": 5, "a": 3, "c": 1})
    assert row.keys() == ("b", "c")  # 3 = 0 dropped, 5 = 2 kept
    assert row["b"] == 2
    assert list(row) == ["b", "c"]


def test_sparse_row_rejects_nothing_but_orders():
    row = SparseRow([("z", 1), ("a", 2)])
    assert row.keys() == ("a", "z")


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


def test_brute_force_oracle():
    # every coefficient vector on <= 7 rows is tried: the ones that
    # recombine the rows to zero are the kernel, and the ones that vanish on
    # the columns up to c count the rank of that column prefix, which rises
    # exactly at the pivot columns
    rng = random.Random(1)
    for _ in range(30):
        rows = _random_rows(rng, rng.randrange(1, 8), rng.randrange(1, 6))
        nrows = len(rows)
        cols = sorted({k for r in rows for k in r})
        res = rank_and_kernel(rows)

        combos = {}
        for vec in itertools.product(range(3), repeat=nrows):
            combos[vec] = [
                sum(coeff * row.get(c, 0) for coeff, row in zip(vec, rows)) % 3
                for c in cols
            ]
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

        pivots = []
        prev_rank = 0
        for j, c in enumerate(cols):
            vanish = sum(1 for out in combos.values() if not any(out[: j + 1]))
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


def test_rank_only_matches_rank_and_kernel():
    rng = random.Random(2)
    for _ in range(25):
        rows = _random_rows(rng, rng.randrange(1, 10), rng.randrange(1, 7))
        full = rank_and_kernel(rows)
        rank, pivots = rank_only(rows)
        assert rank == full.rank
        assert pivots == full.pivot_keys
