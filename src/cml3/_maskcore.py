"""Twisted products on uint64 bitmask monomials, vectorised with numpy.

Each call maps the bits its two inputs use (the symbols of
:mod:`cml3._kernel`'s int monomials) to the bits of one ``uint64``, in
order, so the exterior product of two monomials stays an AND (the
collision test), an OR (the product) and a popcount (the sign).  This is
the bitmap basis-blade method of Dorst, Fontijne & Mann, *Geometric
Algebra for Computer Science* (2007), specialised to an exterior algebra
over GF(3).

The results equal :func:`cml3._kernel.product_terms` and
:func:`cml3._kernel.square_terms` exactly; only the insertion order of the
returned dict differs.  The per-call numpy set-up costs more than the
other kernels spend on small inputs, and importing numpy more than the
disjoint-pair join (:mod:`cml3._join`) spends on the large products of
most commands, so :func:`cml3._kernel.cmul_terms` sends only products
above ``MASK_MIN_PAIRS`` here, and only once the join has taken
``MASK_LOAD_PAIRS`` of their pairs.  That happens in long loop-suite
runs, where this kernel takes the large products in 0.4-0.7 times the
join's time.  Products it refuses go to the join.
"""

import numpy as np

from ._kernel import DER_MASK

# Outer products run in blocks of about this many monomial pairs, and the
# pending terms are merged once more than PENDING_TERMS of them wait: both
# keep the temporaries, and with them the peak memory, small.
BLOCK_PAIRS = 8192
PENDING_TERMS = 32768

_ONE = np.uint64(1)


def _split(terms: dict, nbytes: int):
    """Key bytes (one little-endian row per monomial), parities and
    coefficients of an element."""
    keys = list(terms)
    buf = b"".join([k.to_bytes(nbytes, "little") for k in keys])
    rows = np.frombuffer(buf, dtype=np.uint8).reshape(len(keys), nbytes)
    odd = (np.bitwise_count(rows).sum(axis=1) & 1) == 1
    coeffs = np.fromiter(terms.values(), dtype=np.int64, count=len(keys))
    return rows, odd, coeffs


def _width(*elements) -> int:
    """Bytes for every key of the elements and one more bit, for a successor."""
    return (max(max(e) for e in elements).bit_length() + 8) // 8


def _bits(rows) -> np.ndarray:
    """Whether each bit is set in any of the rows, as a uint8 vector."""
    return np.unpackbits(np.bitwise_or.reduce(rows, axis=0), bitorder="little")


def _columns(used, odd_used):
    """The bits the masks need: those used, and the successors of odd ones.

    Raises ``OverflowError`` when an odd monomial holds a symbol at
    ``MAX_DER``.  Returns None past 64 bits.
    """
    if odd_used[DER_MASK::DER_MASK + 1].any():
        raise OverflowError("derivation order overflow")
    used[1:] |= odd_used[:-1]
    symbols = np.flatnonzero(used)
    return symbols if len(symbols) <= 64 else None


def _masks(rows, symbols):
    """One uint64 per row: bit i stands for ``symbols[i]``."""
    bits = (rows[:, symbols >> 3] >> (symbols & 7).astype(np.uint8)) & 1
    packed = np.packbits(bits, axis=1, bitorder="little")
    out = np.zeros((len(rows), 8), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    return out.view("<u8").ravel().astype(np.uint64, copy=False)


def _below_parity(masks):
    """Bit k of the result is the parity of the bits of ``masks`` below k."""
    t = masks << _ONE
    for shift in (1, 2, 4, 8, 16, 32):
        t ^= t << np.uint64(shift)
    return t


class _Accumulator:
    """Sum of (mask, coefficient) terms mod 3, merged as terms arrive.

    New terms wait until they outnumber both PENDING_TERMS and the merged
    terms, so a large result is not re-sorted for every block.
    """

    def __init__(self):
        self.masks = []
        self.coeffs = []
        self.pending = 0
        self.merged = 0

    def add(self, masks, coeffs):
        self.masks.append(masks)
        self.coeffs.append(coeffs)
        self.pending += len(masks)
        if self.pending > max(PENDING_TERMS, self.merged):
            masks, coeffs = self.reduce()
            self.masks, self.coeffs = [masks], [coeffs]
            self.pending, self.merged = 0, len(masks)

    def reduce(self):
        """The merged terms: sorted unique masks, coefficients in {1, 2}."""
        masks = np.concatenate(self.masks or [np.zeros(0, np.uint64)])
        if not len(masks):
            return masks, np.zeros(0, np.int64)
        order = np.argsort(masks)
        masks = masks[order]
        starts = np.flatnonzero(np.diff(masks, prepend=~masks[:1]))
        sums = np.add.reduceat(np.concatenate(self.coeffs)[order], starts) % 3
        keep = sums != 0
        return masks[starts][keep], sums[keep]


def _wedge_into(acc, am, ac, bm, bc, upper=False):
    """Add ``a ^ b`` to ``acc``, for elements given as arrays.

    With ``upper``, ``a`` and ``b`` are the same monomials and only the
    pairs (i, j) with i < j are added.
    """
    if not len(am) or not len(bm):
        return
    bq = _below_parity(bm)
    rows = max(1, BLOCK_PAIRS // len(bm))
    for lo in range(0, len(am), rows):
        a = am[lo:lo + rows, None]
        # the block's column j > row i starts at column lo + 1, and within
        # the block it is the upper triangle, diagonal included
        start = lo + 1 if upper else 0
        free = (a & bm[start:]) == 0
        ai, bi = np.nonzero(np.triu(free) if upper else free)
        if not len(ai):
            continue
        bi += start
        a = a[ai, 0]
        # each pair (bit of a above a bit of b) is one transposition
        odd = np.bitwise_count(a & bq[bi]) & 1
        acc.add(a | bm[bi], ac[lo + ai] * bc[bi] * (1 + odd.astype(np.int64)))


def _derive(masks, coeffs, succ):
    """Even derivation: move each bit b whose symbol's successor sits free
    at bit b+1 there.  No sign, as the successor directly follows it."""
    acc = _Accumulator()
    free = masks & succ & ~(masks >> _ONE)
    while True:
        live = free != 0
        if not live.any():
            break
        free, masks, coeffs = free[live], masks[live], coeffs[live]
        low = free & (~free + _ONE)
        acc.add(masks ^ (low | (low << _ONE)), coeffs)
        free = free ^ low
    return acc.reduce()


def _decode(masks, coeffs, symbols) -> dict:
    """Back to int monomials: one table of 256 keys per byte of a mask."""
    tables = []
    for lo in range(0, len(symbols), 8):
        # entry v is the OR of the symbol bits of v's set bits
        table = np.zeros(256, dtype=object)
        size = 1
        for sym in symbols[lo:lo + 8].tolist():
            table[size:2 * size] = table[:size] | (1 << sym)
            size *= 2
        tables.append(table)
    by_byte = masks.astype("<u8").view(np.uint8).reshape(-1, 8)
    keys = np.zeros(len(masks), dtype=object)
    for j, table in enumerate(tables):
        keys |= table[by_byte[:, j]]
    return dict(zip(keys.tolist(), coeffs.tolist()))


def _successor_bits(symbols):
    """Bit b is set when ``symbols[b + 1]`` is the successor of ``symbols[b]``."""
    succ_bits = np.flatnonzero(symbols[1:] == symbols[:-1] + 1)
    return np.bitwise_or.reduce(_ONE << succ_bits.astype(np.uint64),
                                initial=np.uint64(0))


def cmul_terms(x: dict, y: dict):
    """Twisted commutative product, as :func:`cml3._kernel.product_terms`.

    Returns ``None`` when the inputs and the successors of their odd
    parts use more than 64 distinct symbols; the caller then takes the
    join.  Raises ``OverflowError`` exactly when the dict kernel
    does.
    """
    if not x or not y:
        return {}
    nbytes = _width(x, y)
    rx, odd_x, cx = _split(x, nbytes)
    ry, odd_y, cy = _split(y, nbytes)
    both_odd = bool(odd_x.any() and odd_y.any())
    # no odd-odd pair, no derivation: no successors and no overflow
    odd_rows = np.vstack((rx[odd_x], ry[odd_y])) if both_odd else rx[:0]
    symbols = _columns(_bits(np.vstack((rx, ry))), _bits(odd_rows))
    if symbols is None:
        return None

    mx = _masks(rx, symbols)
    my = _masks(ry, symbols)
    acc = _Accumulator()
    # x^y = xe^y + xo^ye + (d(xo)^yo - xo^d(yo)), with -1 = 2 mod 3
    _wedge_into(acc, mx[~odd_x], cx[~odd_x], my, cy)
    _wedge_into(acc, mx[odd_x], cx[odd_x], my[~odd_y], cy[~odd_y])
    if both_odd:
        succ = _successor_bits(symbols)
        xo, cxo = mx[odd_x], cx[odd_x]
        yo, cyo = my[odd_y], cy[odd_y]
        _wedge_into(acc, *_derive(xo, cxo, succ), yo, cyo)
        _wedge_into(acc, xo, 2 * cxo, *_derive(yo, cyo, succ))
    return _decode(*acc.reduce(), symbols)


def square_terms(x: dict):
    """``cmul_terms(x, x)``, as :func:`cml3._kernel.square_terms`.

    x*x = c0^2 [1] + 2 sum_{i<j} ci cj ei^ej + 2 e^o + 2 d(o)^o for
    x = e + o, so every pair is taken once and o is derived once.  Returns
    ``None`` past 64 symbols and raises ``OverflowError`` as ``cmul_terms``.
    """
    if not x:
        return {}
    rows, odd, cx = _split(x, _width(x))
    symbols = _columns(_bits(rows), _bits(rows[odd]))
    if symbols is None:
        return None

    m = _masks(rows, symbols)
    me, ce = m[~odd], cx[~odd]
    mo, co = m[odd], cx[odd]
    acc = _Accumulator()
    unit = me == 0
    acc.add(me[unit], ce[unit] * ce[unit])
    _wedge_into(acc, me, 2 * ce, me, ce, upper=True)
    _wedge_into(acc, me, 2 * ce, mo, co)
    if len(mo):
        dm, dc = _derive(mo, co, _successor_bits(symbols))
        _wedge_into(acc, dm, 2 * dc, mo, co)
    return _decode(*acc.reduce(), symbols)
