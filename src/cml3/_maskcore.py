"""Twisted products on uint64 bitmask monomials, vectorised with numpy.

Each call maps the symbols its two inputs use to bit positions in
increasing symbol order, so every monomial becomes one ``uint64`` and the
exterior product of two monomials becomes an AND (the collision test), an
OR (the product) and a popcount (the sign).  This is the bitmap
basis-blade method of Dorst, Fontijne & Mann, *Geometric Algebra for
Computer Science* (2007), specialised to an exterior algebra over GF(3).

The results equal :func:`cml3._purecore.cmul_terms` and
:func:`cml3._purecore.square_terms` exactly; only the insertion order of
the returned dict differs.  The per-call numpy set-up costs more than the
dict kernel spends on small inputs, so :mod:`cml3._kernel` sends only
large products here.
"""

import numpy as np

from ._purecore import DER_MASK, MAX_DER

# Outer products run in blocks of about this many monomial pairs, and the
# pending terms are merged once more than PENDING_TERMS of them wait: both
# keep the temporaries, and with them the peak memory, small.
BLOCK_PAIRS = 8192
PENDING_TERMS = 32768

_ONE = np.uint64(1)


def _split(terms: dict):
    """Symbols, per-monomial lengths and coefficients of an element."""
    keys = list(terms)
    syms = np.frombuffer(b"".join(keys), dtype=np.uint16)
    lengths = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys)) // 2
    coeffs = np.fromiter(terms.values(), dtype=np.int64, count=len(keys))
    return syms, lengths, coeffs


def _masks(syms, lengths, symbols):
    """One bitmask per monomial: bit i stands for ``symbols[i]``."""
    bits = _ONE << np.searchsorted(symbols, syms).astype(np.uint64)
    # a monomial's bits are distinct, so their sum is their OR; the sums
    # are differences of a wrapping prefix sum, which also handles b""
    prefix = np.zeros(len(bits) + 1, dtype=np.uint64)
    np.cumsum(bits, out=prefix[1:])
    ends = np.cumsum(lengths)
    return prefix[ends] - prefix[ends - lengths]


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
    """Back to the dict form: keys of uint16 symbols in increasing order."""
    out = {}
    degrees = np.bitwise_count(masks)
    for degree in np.flatnonzero(np.bincount(degrees)).tolist():
        sel = degrees == degree
        m = masks[sel]
        width = 2 * degree
        if degree == 0:
            keys = [b""] * len(m)
        else:
            cols = np.empty((len(m), degree), dtype=np.intp)
            for j in range(degree):
                low = m & (~m + _ONE)
                cols[:, j] = np.bitwise_count(low - _ONE)
                m = m ^ low
            buf = symbols[cols].tobytes()
            keys = [buf[i:i + width] for i in range(0, len(buf), width)]
        out.update(zip(keys, coeffs[sel].tolist()))
    return out


def _odd_successors(syms, lengths, odd):
    """The successors of the symbols of the odd monomials.

    Raises ``OverflowError`` when one of those symbols is at ``MAX_DER``.
    """
    odd_syms = syms[np.repeat(odd, lengths)]
    if np.any((odd_syms & DER_MASK) == MAX_DER):
        raise OverflowError("derivation order overflow")
    return odd_syms + 1


def _symbols(used):
    """The distinct symbols of some uint16 arrays, in increasing order."""
    # a table over all uint16 symbols sorts and deduplicates them; unlike
    # np.unique it pulls in no further numpy modules (numpy.ma, ~1 MB)
    present = np.zeros(1 << 16, dtype=bool)
    for syms in used:
        present[syms] = True
    return np.flatnonzero(present).astype(np.uint16)


def _successor_bits(symbols):
    """Bit b is set when ``symbols[b + 1]`` is the successor of ``symbols[b]``."""
    succ_bits = np.flatnonzero(symbols[1:] == symbols[:-1] + 1)
    return np.bitwise_or.reduce(_ONE << succ_bits.astype(np.uint64),
                                initial=np.uint64(0))


def cmul_terms(x: dict, y: dict):
    """Twisted commutative product, as :func:`cml3._purecore.cmul_terms`.

    Returns ``None`` when the inputs and the successors of their odd
    parts use more than 64 distinct symbols; the caller then takes a dict
    kernel.  Raises ``OverflowError`` exactly when the dict kernels do.
    """
    if not x or not y:
        return {}
    sx, lx, cx = _split(x)
    sy, ly, cy = _split(y)
    odd_x = (lx & 1) == 1
    odd_y = (ly & 1) == 1
    both_odd = bool(odd_x.any() and odd_y.any())
    used = [sx, sy]
    if both_odd:
        used += [_odd_successors(sx, lx, odd_x), _odd_successors(sy, ly, odd_y)]
    symbols = _symbols(used)
    if len(symbols) > 64:
        return None

    mx = _masks(sx, lx, symbols)
    my = _masks(sy, ly, symbols)
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
    """``cmul_terms(x, x)``, as :func:`cml3._purecore.square_terms`.

    x*x = c0^2 [1] + 2 sum_{i<j} ci cj ei^ej + 2 e^o + 2 d(o)^o for
    x = e + o, so every pair is taken once and o is derived once.  Returns
    ``None`` past 64 symbols and raises ``OverflowError`` as ``cmul_terms``.
    """
    if not x:
        return {}
    sx, lx, cx = _split(x)
    odd = (lx & 1) == 1
    used = [sx]
    if odd.any():
        used.append(_odd_successors(sx, lx, odd))
    symbols = _symbols(used)
    if len(symbols) > 64:
        return None

    m = _masks(sx, lx, symbols)
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
