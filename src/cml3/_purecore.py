"""Pure-Python kernels for exterior-monomial arithmetic over GF(3).

A monomial is stored as a byte string of native-endian uint16 symbols in
strictly increasing order.  A symbol packs a generator index and its
derivation order as ``(base << 6) | order``.  An element is a dict mapping
monomial keys to coefficients in {1, 2}; absent keys have coefficient 0.

These are the package's kernel ops, re-exported by :mod:`cml3._kernel`;
twisted products and squares above its ``MASK_MIN_PAIRS`` go to
:mod:`cml3._maskcore` instead.  The tests use this module as the oracle
for that kernel.

``wedge_terms`` looks each monomial-pair product up in ``_wedge_keys``, an
LRU cache of ``WEDGE_MEMO_SIZE`` entries keyed by the two monomial keys in
order: the malbos suite makes the same few thousand pair products hundreds
of thousands of times.  The other ops are not memoised.
"""

from array import array
from functools import lru_cache

DER_BITS = 6
DER_MASK = (1 << DER_BITS) - 1
MAX_DER = DER_MASK
MAX_BASE = (1 << (16 - DER_BITS)) - 1


def pack_sym(base: int, der: int = 0) -> int:
    """Pack a (generator, derivation order) pair into one symbol."""
    if not 0 <= base <= MAX_BASE:
        raise ValueError(f"generator index out of range: {base}")
    if not 0 <= der <= MAX_DER:
        raise ValueError(f"derivation order out of range: {der}")
    return (base << DER_BITS) | der


def sym_base(sym: int) -> int:
    return sym >> DER_BITS


def sym_der(sym: int) -> int:
    return sym & DER_MASK


def key_from_syms(syms) -> bytes:
    return array("H", syms).tobytes()


def syms_from_key(key: bytes) -> tuple:
    return tuple(array("H", key))


def _merge(a, b):
    """Merge two strictly increasing symbol tuples.

    Returns (merged list, sign in {1, 2}), or (None, 0) when the factors
    share a symbol and the product vanishes.  The sign is the parity of the
    interleaving permutation.
    """
    la, lb = len(a), len(b)
    out = []
    i = j = 0
    crossings = 0
    while i < la and j < lb:
        x = a[i]
        y = b[j]
        if x < y:
            out.append(x)
            i += 1
        elif x > y:
            out.append(y)
            crossings += la - i
            j += 1
        else:
            return None, 0
    out.extend(a[i:])
    out.extend(b[j:])
    return out, (1 if crossings & 1 == 0 else 2)


def _insert(syms, s):
    """Wedge one symbol onto a sorted tuple: (new list, sign) or (None, 0)."""
    n = len(syms)
    lo = 0
    while lo < n and syms[lo] < s:
        lo += 1
    if lo < n and syms[lo] == s:
        return None, 0
    out = list(syms)
    out.insert(lo, s)
    return out, (1 if (n - lo) & 1 == 0 else 2)


def _acc(out, key, delta):
    c = (out.get(key, 0) + delta) % 3
    if c:
        out[key] = c
    elif key in out:
        del out[key]


# Monomial pairs kept by the wedge memo: an entry holds the two factor keys
# and the product, about 200 bytes, so a full memo stays under 1 MB.
WEDGE_MEMO_SIZE = 4096


@lru_cache(maxsize=WEDGE_MEMO_SIZE)
def _wedge_keys(kx: bytes, ky: bytes):
    """Product of two monomials: (key, sign in {1, 2}), or None when zero."""
    merged, sign = _merge(syms_from_key(kx), syms_from_key(ky))
    if merged is None:
        return None
    return key_from_syms(merged), sign


def wedge_terms(x: dict, y: dict) -> dict:
    """Exterior product of two elements."""
    out = {}
    for kx, cx in x.items():
        for ky, cy in y.items():
            product = _wedge_keys(kx, ky)
            if product is not None:
                _acc(out, product[0], cx * cy * product[1])
    return out


def derive_terms(x: dict) -> dict:
    """Even derivation: bump one derivation order per Leibniz summand."""
    out = {}
    for k, c in x.items():
        syms = list(syms_from_key(k))
        n = len(syms)
        for i in range(n):
            s = syms[i]
            if s & DER_MASK == MAX_DER:
                raise OverflowError("derivation order overflow")
            s1 = s + 1
            if i + 1 < n and syms[i + 1] == s1:
                continue
            saved = syms[i]
            syms[i] = s1
            _acc(out, key_from_syms(syms), c)
            syms[i] = saved
    return out


def assoc_step(terms: dict, sa: int, sb: int) -> dict:
    """One left-normed associator step on an odd element: d(v ^ a ^ b)."""
    out = {}
    for k, c in terms.items():
        syms = syms_from_key(k)
        m1, sg1 = _insert(syms, sa)
        if m1 is None:
            continue
        m2, sg2 = _insert(m1, sb)
        if m2 is None:
            continue
        base = c * sg1 * sg2
        n = len(m2)
        for i in range(n):
            s = m2[i]
            if s & DER_MASK == MAX_DER:
                raise OverflowError("derivation order overflow")
            s1 = s + 1
            if i + 1 < n and m2[i + 1] == s1:
                continue
            saved = m2[i]
            m2[i] = s1
            _acc(out, key_from_syms(m2), base)
            m2[i] = saved
    return out


def cmul_terms(x: dict, y: dict) -> dict:
    """Twisted commutative product: plain wedge unless both factors are odd,
    in which case a monomial pair contributes d(mx)^my - mx^d(my)."""
    out = {}
    if not x or not y:
        return out
    ys = [(syms_from_key(k), c) for k, c in y.items()]
    for kx, cx in x.items():
        sx = syms_from_key(kx)
        odd_x = len(sx) & 1
        for sy, cy in ys:
            if odd_x and len(sy) & 1:
                _acc_odd_odd(out, sx, sy, cx * cy)
            else:
                merged, sign = _merge(sx, sy)
                if merged is None:
                    continue
                _acc(out, key_from_syms(merged), cx * cy * sign)
    return out


def square_terms(x: dict) -> dict:
    """``cmul_terms(x, x)`` from half the monomial pairs.

    Write x = e + o with e even and o odd.  Even monomials commute and
    m ^ m = 0 unless m is the unit, even parts commute with everything,
    and m ^ d(m') = -d(m') ^ m for odd monomials, as d keeps the degree.
    So with c0 the coefficient of the unit

        x*x = c0^2 [1] + 2 sum_{i<j} ci cj ei^ej + 2 e^o + 2 d(o)^o.
    """
    out = {}
    even = []
    odd = {}
    for k, c in x.items():
        if len(k) & 2:
            odd[k] = c
        else:
            even.append((syms_from_key(k), c))
    odds = [(syms_from_key(k), c) for k, c in odd.items()]
    for i, (se, ce) in enumerate(even):
        if not se:
            _acc(out, b"", ce * ce)
        for partner in (even[i + 1:], odds):
            for sy, cy in partner:
                merged, sign = _merge(se, sy)
                if merged is None:
                    continue
                _acc(out, key_from_syms(merged), 2 * ce * cy * sign)
    for kd, cd in derive_terms(odd).items():
        sd = syms_from_key(kd)
        for so, co in odds:
            merged, sign = _merge(sd, so)
            if merged is None:
                continue
            _acc(out, key_from_syms(merged), 2 * cd * co * sign)
    return out


def _acc_odd_odd(out, sx, sy, c):
    n = len(sx)
    work = list(sx)
    for i in range(n):
        s = sx[i]
        if s & DER_MASK == MAX_DER:
            raise OverflowError("derivation order overflow")
        s1 = s + 1
        if i + 1 < n and sx[i + 1] == s1:
            continue
        work[i] = s1
        merged, sign = _merge(work, sy)
        work[i] = s
        if merged is None:
            continue
        _acc(out, key_from_syms(merged), c * sign)
    m = len(sy)
    work = list(sy)
    for j in range(m):
        s = sy[j]
        if s & DER_MASK == MAX_DER:
            raise OverflowError("derivation order overflow")
        s1 = s + 1
        if j + 1 < m and sy[j + 1] == s1:
            continue
        work[j] = s1
        merged, sign = _merge(sx, work)
        work[j] = s
        if merged is None:
            continue
        _acc(out, key_from_syms(merged), -c * sign)
