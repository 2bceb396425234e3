"""Twisted products of large elements that visit only disjoint monomial pairs.

Two monomials wedge to 0 unless they are disjoint, and in the twisted
products of the loop suites only 1-2% of the monomial pairs are.  So
instead of testing every pair, as the dict kernel of :mod:`cml3._kernel`
does, this kernel indexes the right factor once:

- for each symbol bit, an int bitset of the positions of the monomials
  that hold it;
- for each monomial, its below-parity mask: bit k is the parity of its
  bits below k, so the sign of a pair is ``(mx & q).bit_count() & 1``.

The OR of the bitsets of a left monomial's bits is the set of its
colliding partners, and its complement the disjoint ones: only those
pairs are visited (a join on the bit index, in the bitmap basis-blade
scheme of Dorst, Fontijne & Mann, *Geometric Algebra for Computer
Science*, 2007).

The odd-odd part of ``x*y`` is folded with the Leibniz rule
``d(xo^yo) = d(xo)^yo + xo^d(yo)``:

    d(xo)^yo - xo^d(yo) = 2 d(xo)^yo + 2 d(xo^yo)   (mod 3),

so ``xo^yo`` comes out of the same pass over the rows of x, and
``d(xo)^yo`` is taken row by row with no index of ``d(yo)``.  The
summand of ``d(mx)`` that moves bit b to b+1 collides with the partners
hit by one of the other bits of mx, or by b+1: with ``ones`` the
partners hit by at least one bit of mx and ``twos`` those hit by at
least two, those are ``twos | (ones & ~S[b]) | S[b+1]``.

The results equal :func:`cml3._kernel.product_terms` and
:func:`cml3._kernel.square_terms` exactly; only the insertion order of
the returned dict differs.  The fold derives only the monomials of
``xo^yo`` that survive, so the top-order check the dict kernel makes on
every odd monomial is made here explicitly: ``OverflowError`` is raised
exactly when the dict kernel raises it.
"""

from . import _kernel
from ._kernel import _LAST


def _index(terms: dict, width: int):
    """The right factor's monomials, coefficients, below-parity masks,
    bitsets by symbol bit, and the bitsets of its even and odd positions.

    ``width`` bounds the bits of every monomial a row can form, so a mask
    covers all of them.
    """
    keys = list(terms)
    below = []
    holders = {}
    get = holders.get
    odd = 0
    pos = 1
    for m in keys:
        # the parity is 1 from above each odd-numbered bit up to the next
        q = 0
        while m:
            low = m & -m
            m ^= low
            holders[low] = get(low, 0) | pos
            if not m:
                q |= width - (low << 1)
                odd |= pos
                break
            high = m & -m
            m ^= high
            holders[high] = get(high, 0) | pos
            q |= (high - low) << 1
        below.append(q)
        pos <<= 1
    return (keys, list(terms.values()), below, holders,
            (pos - 1) ^ odd, odd)


def _overflows(terms) -> bool:
    return any(m & _LAST for m in terms)


def _odd_keys(x: dict):
    return [m for m in x if m.bit_count() & 1]


def _hit(m: int, get) -> int:
    """The positions whose monomials share a bit with ``m``."""
    ones = 0
    while m:
        low = m & -m
        ones |= get(low, 0)
        m ^= low
    return ones


def _hit_twice(m: int, get):
    """The positions sharing a bit with ``m``, and those sharing two."""
    ones = twos = 0
    while m:
        low = m & -m
        s = get(low, 0)
        twos |= ones & s
        ones |= s
        m ^= low
    return ones, twos


def _visit(out: dict, m: int, c: int, free: int, keys, coeffs, below) -> None:
    """Add ``c * (m ^ keys[j])`` to ``out`` for each position j in ``free``.

    ``out`` sums coefficients as plain ints; :func:`_reduced` takes them
    mod 3 once at the end.
    """
    while free:
        low = free & -free
        j = low.bit_length() - 1
        key = m | keys[j]
        out[key] = (out.get(key, 0)
                    + c * coeffs[j] * (1 + ((m & below[j]).bit_count() & 1)))
        free ^= low


def _visit_derived(out: dict, m: int, c: int, ones: int, twos: int, get,
                   odd: int, keys, coeffs, below) -> None:
    """Add ``c * (d(m) ^ keys[j])`` to ``out`` over the odd positions j.

    The summand moving bit b to b+1 (for b with b+1 clear) collides with
    the positions hit by another bit of ``m`` or by b+1.
    """
    rest = m & ~(m >> 1)
    while rest:
        bit = rest & -rest
        rest ^= bit
        up = bit << 1
        free = odd & ~(twos | (ones & ~get(bit, 0)) | get(up, 0))
        if free:
            _visit(out, m ^ bit ^ up, c, free, keys, coeffs, below)


def _add_derived(out: dict, terms: dict) -> None:
    """Add ``2 d(terms)`` to ``out``.

    ``derive_terms`` is looked up on :mod:`cml3._kernel` at call time, as
    by every caller of the kernel ops, so a tracer can wrap it there.
    """
    for m, c in _kernel.derive_terms(terms).items():
        out[m] = out.get(m, 0) + 2 * c


def _reduced(out: dict) -> dict:
    return {m: v for m, v in ((m, v % 3) for m, v in out.items()) if v}


def cmul_terms(x: dict, y: dict) -> dict:
    """Twisted commutative product, as :func:`cml3._kernel.product_terms`.

    x*y = xe^y + xo^ye + 2 d(xo)^yo + 2 d(xo^yo), and -1 = 2 mod 3.
    """
    if not x or not y:
        return {}
    xo = _odd_keys(x)
    yo = _odd_keys(y)
    both_odd = bool(xo and yo)
    if both_odd and (_overflows(xo) or _overflows(yo)):
        raise OverflowError("derivation order overflow")
    width = 2 << max(max(x), max(y)).bit_length()
    keys, coeffs, below, holders, even, odd = _index(y, width)
    allpos = even | odd
    get = holders.get
    out = {}
    wedged = {}  # xo^yo
    for mx, cx in x.items():
        if not mx.bit_count() & 1:
            _visit(out, mx, cx, allpos ^ _hit(mx, get), keys, coeffs, below)
            continue
        ones, twos = _hit_twice(mx, get)
        _visit(out, mx, cx, even & ~ones, keys, coeffs, below)
        if both_odd:
            _visit(wedged, mx, cx, odd & ~ones, keys, coeffs, below)
            _visit_derived(out, mx, 2 * cx, ones, twos, get, odd,
                           keys, coeffs, below)
    if wedged:
        _add_derived(out, _reduced(wedged))
    return _reduced(out)


def square_terms(x: dict) -> dict:
    """``cmul_terms(x, x)``, as :func:`cml3._kernel.square_terms`.

    x*x = c0^2 [1] + 2 sum_{i<j} ci cj ei^ej + 2 e^o + 2 d(o)^o for
    x = e + o: the rows of x run against its own index, the even rows
    against the even positions above their own only.
    """
    if not x:
        return {}
    if _overflows(_odd_keys(x)):
        raise OverflowError("derivation order overflow")
    width = 2 << max(x).bit_length()
    keys, coeffs, below, holders, even, odd = _index(x, width)
    get = holders.get
    out = {0: 1} if 0 in x else {}  # c0^2 is 1 for c0 in {1, 2}
    for i, mx in enumerate(keys):
        cx = 2 * coeffs[i]
        if not mx.bit_count() & 1:
            free = ((even >> i + 1 << i + 1) | odd) & ~_hit(mx, get)
            _visit(out, mx, cx, free, keys, coeffs, below)
        else:
            ones, twos = _hit_twice(mx, get)
            _visit_derived(out, mx, cx, ones, twos, get, odd,
                           keys, coeffs, below)
    return _reduced(out)
