"""Exact linear algebra over the three-element field.

Rows are sparse mappings from orderable column keys to residues mod 3.
Rank and kernel come from deterministic Gaussian elimination with
smallest-key pivoting and augmented bookkeeping, so every kernel vector is
an exact certificate: recombining the input rows with it gives zero.

The eliminator is bitsliced (Boothby & Bradshaw, "Bitslicing and the
method of four Russians over larger finite fields", arXiv:0901.1413).
Columns are numbered in ascending key order, and a row is a pair of Python
ints ``(a1, a2)``, its bit-planes: bit i of ``a1`` is set when column i
holds 1, bit i of ``a2`` when it holds 2.  The lowest set bit of
``a1 | a2`` is the row's smallest key, its lead.  Two rows add as

    t = (a1 | b2) ^ (a2 | b1)
    (a1, a2) + (b1, b2) = ((a2 | b2) ^ t, (a1 | b1) ^ t)

and a row times 2 is the row with its planes swapped, so subtracting a row
adds it swapped.  Python ints have no fixed width, so a row of any length
is one value and no column count needs a special case.

There is one eliminator, ``_echelon``; callers choose the order they feed
it.  ``rank_only`` feeds its rows in descending lead order, which cuts the
fill-in on the tall relation spans of ``twowords``.  ``row_basis`` keeps
its input order: on the frontier groups of ``words`` the same sort made
more reductions, not fewer.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ._value import Value


class RankResult(Value):
    """Rank plus an exact, canonical kernel description of a row system.

    kernel_basis holds one coefficient per input row; every vector
    recombines the rows to exactly zero, and rank + len(kernel_basis)
    equals the number of input rows.
    """

    __slots__ = _fields = ("rank", "kernel_basis", "pivot_keys")

    def __init__(self, rank: int, kernel_basis: tuple[tuple[int, ...], ...],
                 pivot_keys: tuple):
        self._init(rank, kernel_basis, pivot_keys)


def rank_and_kernel(rows: Iterable[Mapping]) -> RankResult:
    """Echelonize a sparse row system over GF(3).

    Args:
        rows: mappings from column key to residue, the keys of all rows
            sharing one total order.

    Returns:
        RankResult with deterministic pivot keys (columns processed in
        ascending key order) and the kernel basis in reduced row echelon
        form over the row-index coordinates.
    """
    keys, planes = _planes(rows)
    nrows = len(planes)
    if nrows == 0:
        return RankResult(0, (), ())
    ncols = len(keys)
    # bit ncols + i tags row i, as the identity block of [rows | I] would
    basis = _echelon(
        (a1 | 1 << (ncols + i), a2) for i, (a1, a2) in enumerate(planes)
    )
    pivots = sorted(lead for lead in basis if lead.bit_length() <= ncols)
    # basis rows that lead past the key columns are zero on them, so their
    # tags are kernel vectors; a second pass in descending lead order puts
    # them in the unique RREF
    kernel = _echelon(
        (a1 >> ncols, a2 >> ncols)
        for lead, (a1, a2) in sorted(basis.items(), reverse=True)
        if lead.bit_length() > ncols
    )
    return RankResult(
        len(pivots),
        tuple(_coefficients(kernel[lead], nrows) for lead in sorted(kernel)),
        tuple(keys[lead.bit_length() - 1] for lead in pivots),
    )


def rank_only(rows: Iterable[Mapping]) -> tuple[int, tuple]:
    """Rank and pivot keys without kernel bookkeeping.

    Same pivoting rule as rank_and_kernel, but skips the row tags, which
    matters when the row count is much larger than the column count.  The
    rows are fed to the eliminator in descending lead order, which the
    pivots do not depend on, as they depend only on the span: the (5,2)
    relation span of ``twowords`` then takes 17,097 row reductions,
    against 80,206 in the order it is built.
    """
    keys, planes = _planes(rows)
    planes.sort(key=_lead, reverse=True)
    leads = sorted(_echelon(planes))
    return len(leads), tuple(keys[lead.bit_length() - 1] for lead in leads)


def row_basis(rows: Iterable[Mapping]) -> list[dict]:
    """Echelon basis of the span of a sparse row system.

    One row per pivot, in pivot order: each leads with a 1 at its pivot
    key, and the pivots are the ones rank_only reports.
    """
    keys, planes = _planes(rows)
    basis = _echelon(planes)
    out = []
    for lead in sorted(basis):
        a1, a2 = basis[lead]
        row = {}
        rest = a1 | a2
        while rest:
            low = rest & -rest
            row[keys[low.bit_length() - 1]] = 1 if a1 & low else 2
            rest ^= low
        out.append(row)
    return out


def _planes(rows) -> tuple[list, list[tuple[int, int]]]:
    """Sorted column keys and the bit-planes of each row, in input order."""
    rows = list(rows)
    keys = sorted(set().union(*rows))
    bit = {k: 1 << i for i, k in enumerate(keys)}
    planes = []
    for row in rows:
        a1 = a2 = 0
        for k, v in row.items():
            v %= 3
            if v == 1:
                a1 |= bit[k]
            elif v:
                a2 |= bit[k]
        planes.append((a1, a2))
    return keys, planes


def _lead(row: tuple[int, int]) -> int:
    """The bit length of a row's lead: a small int, cheap to keep as a
    sort key."""
    held = row[0] | row[1]
    return (held & -held).bit_length()


def _coefficients(row: tuple[int, int], n: int) -> tuple[int, ...]:
    a1, a2 = row
    return tuple((a1 >> i & 1) | (a2 >> i & 1) << 1 for i in range(n))


def _echelon(rows: Iterable[tuple[int, int]]) -> dict:
    """Echelon basis of bit-plane rows, as {lead bit: row}.

    Each row in turn is reduced by every basis row whose lead it holds, in
    ascending lead order, and joins the basis, scaled to lead with a 1,
    unless it became zero.  The leads are then the columns where the rank
    of the column prefix rises, the smallest-key pivots.  Rows with
    distinct leads, fed in descending lead order, leave the basis in
    reduced row echelon form: each new lead lies below every earlier one,
    so no earlier row holds it.
    """
    basis = {}
    pivots = 0
    for a1, a2 in rows:
        held = a1 | a2
        hit = held & pivots
        while hit:
            low = hit & -hit
            b1, b2 = basis[low]
            if a1 & low:  # a holds 1 where b leads with 1: subtract b
                b1, b2 = b2, b1
            t = (a1 | b2) ^ (a2 | b1)
            a1, a2 = (a2 | b2) ^ t, (a1 | b1) ^ t
            held = a1 | a2
            hit = held & pivots
        if held:
            lead = held & -held
            basis[lead] = (a2, a1) if a2 & lead else (a1, a2)
            pivots |= lead
    return basis
