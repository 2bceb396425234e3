"""Exact linear algebra over the three-element field.

Rows are sparse mappings from orderable column keys to nonzero residues
mod 3.  Rank and kernel come from deterministic Gaussian elimination with
smallest-key pivoting and augmented bookkeeping, so every kernel vector is
an exact certificate: recombining the input rows with it gives zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np


class SparseRow:
    """A sparse row over GF(3): column key -> nonzero residue.

    Stored zeros are dropped at construction; iteration follows the column
    key order.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping | Iterable[tuple] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        cleaned = {}
        for key, value in items:
            v = value % 3
            if v:
                cleaned[key] = v
        self._entries = tuple(sorted(cleaned.items()))

    def items(self):
        return self._entries

    def keys(self):
        return tuple(k for k, _ in self._entries)

    def get(self, key, default=0):
        for k, v in self._entries:
            if k == key:
                return v
        return default

    def __getitem__(self, key):
        for k, v in self._entries:
            if k == key:
                return v
        raise KeyError(key)

    def __iter__(self):
        return iter(self.keys())

    def __len__(self):
        return len(self._entries)

    def __bool__(self):
        return bool(self._entries)

    def __eq__(self, other):
        if isinstance(other, SparseRow):
            return self._entries == other._entries
        return NotImplemented

    def __hash__(self):
        return hash(self._entries)

    def __repr__(self):
        return f"SparseRow({dict(self._entries)!r})"


@dataclass(frozen=True)
class RankResult:
    """Rank plus an exact, canonical kernel description of a row system.

    kernel_basis holds one coefficient per input row; every vector
    recombines the rows to exactly zero, and rank + len(kernel_basis)
    equals the number of input rows.
    """

    rank: int
    kernel_basis: tuple[tuple[int, ...], ...]
    pivot_keys: tuple




def rank_and_kernel(rows: Iterable[Mapping | SparseRow]) -> RankResult:
    """Echelonize a sparse row system over GF(3).

    Args:
        rows: sparse rows sharing one totally ordered column-key universe.

    Returns:
        RankResult with deterministic pivot keys (columns processed in
        ascending key order) and the kernel basis in reduced row echelon
        form over the row-index coordinates.
    """
    normalized = _normalize(rows)
    nrows = len(normalized)
    if nrows == 0:
        return RankResult(0, (), ())
    keys, aug = _dense(normalized, nrows)
    ncols = len(keys)
    aug[:, ncols:] = np.eye(nrows, dtype=np.uint8)
    rank, pivot_cols = _echelon(aug, ncols, full=False)
    # rows past the rank are zero on the key columns, so their identity
    # block holds kernel vectors; reduce them to the unique RREF basis
    kernel = aug[rank:, ncols:]
    _echelon(kernel, nrows, full=True)
    return RankResult(
        rank,
        tuple(map(tuple, kernel.tolist())),
        tuple(keys[c] for c in pivot_cols),
    )


def rank_only(rows: Iterable[Mapping | SparseRow]) -> tuple[int, tuple]:
    """Rank and pivot keys without kernel bookkeeping.

    Same pivoting rule as rank_and_kernel, but skips the augmented block,
    which matters when the row count is much larger than the column count.
    """
    normalized = [row for row in _normalize(rows) if row]
    if not normalized:
        return 0, ()
    keys, mat = _dense(normalized, 0)
    rank, pivot_cols = _echelon(mat, len(keys), full=False)
    return rank, tuple(keys[c] for c in pivot_cols)


def row_basis(rows: Iterable[Mapping | SparseRow]) -> list[dict]:
    """Echelon basis of the span of a sparse row system.

    The rows of a forward pass, in pivot order: each leads with a 1 at its
    pivot key, and the pivots are the ones rank_only reports.
    """
    normalized = [row for row in _normalize(rows) if row]
    if not normalized:
        return []
    keys, mat = _dense(normalized, 0)
    rank, _ = _echelon(mat, len(keys), full=False)
    return [
        {k: v for k, v in zip(keys, row) if v} for row in mat[:rank].tolist()
    ]


def _normalize(rows) -> list[dict]:
    normalized = []
    for row in rows:
        items = row.items() if hasattr(row, "items") else row
        cleaned = {}
        for key, value in items:
            v = value % 3
            if v:
                cleaned[key] = v
        normalized.append(cleaned)
    return normalized


def _dense(rows: list[dict], extra: int):
    """Sorted column keys and a uint8 matrix with ``extra`` zero columns."""
    keys = sorted({k for row in rows for k in row})
    col_of = {k: i for i, k in enumerate(keys)}
    mat = np.zeros((len(rows), len(keys) + extra), dtype=np.uint8)
    for i, row in enumerate(rows):
        for k, v in row.items():
            mat[i, col_of[k]] = v
    return keys, mat


def _echelon(mat: np.ndarray, ncols: int, full: bool) -> tuple[int, list[int]]:
    """Row-reduce ``mat`` in place, pivoting on its first ``ncols`` columns.

    Columns are scanned left to right; each pivot is the topmost remaining
    nonzero entry, swapped up and scaled to 1.  The forward pass clears the
    entries below each pivot, which is all the rank needs; ``full`` also
    clears those above, which yields reduced row echelon form.  Row
    operations act on whole rows, so columns past ``ncols`` record them.

    Returns the rank and the pivot columns.
    """
    nrows = mat.shape[0]
    rank = 0
    pivot_cols = []
    for col in range(ncols):
        if rank == nrows:
            break
        candidates = np.flatnonzero(mat[rank:, col])
        if candidates.size == 0:
            continue
        piv = rank + int(candidates[0])
        if piv != rank:
            mat[[rank, piv]] = mat[[piv, rank]]
        if mat[rank, col] == 2:
            mat[rank] = (mat[rank] * 2) % 3
        first = 0 if full else rank + 1
        others = first + np.flatnonzero(mat[first:, col])
        others = others[others != rank]
        if others.size:
            # the pivot row is zero left of col, so only col: changes
            factors = 3 - mat[others, col]
            mat[others, col:] = (
                mat[others, col:] + np.outer(factors, mat[rank, col:])
            ) % 3
        pivot_cols.append(col)
        rank += 1
    return rank, pivot_cols
