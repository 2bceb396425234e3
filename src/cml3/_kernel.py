"""The kernel ops: exterior-monomial arithmetic over GF(3) on int bitmasks.

A monomial is a Python int with bit ``base << 6 | der`` set for each of
its symbols, generator ``base`` differentiated ``der`` times.  Bit order
is symbol order, so the unit is 0 and the degree is ``bit_count()``.  An
element is a dict mapping monomials to coefficients in {1, 2}; absent
keys have coefficient 0.  This is the bitmap basis-blade method of Dorst,
Fontijne & Mann, *Geometric Algebra for Computer Science* (2007),
specialised to an exterior algebra over GF(3):

- two monomials wedge to 0 when they share a bit (AND) and to their OR
  otherwise, with one transposition for each bit of the left factor
  above a bit of the right one;
- the even derivation ``d`` takes a monomial to the sum of ``m + low``
  over its set bits ``low`` whose successor bit is clear: the Leibniz
  summand that moves one symbol up one order, with no sign, as the
  successor directly follows it.  A bit in ``last`` (the top order,
  ``MAX_DER``) raises ``OverflowError`` instead of spilling into the next
  generator.

Twisted products of more than ``MASK_MIN_PAIRS`` monomial pairs go to the
numpy kernel (``cml3._maskcore``) instead, which returns the same terms,
once that kernel is loaded.  Its per-call set-up and the map back to int
keys cost more than the dict kernel spends on small products: on the
twisted products of the loop suites the two break even between 1024 and
2048 pairs, and above that the numpy kernel is up to 7 times faster.

Loading it costs more than most commands spend on large products: a cold
import of numpy and ``_maskcore`` takes 0.18 s (median of 15, 0.11-0.21
s), while the dict kernel takes about 0.23 us per pair of a product above
the cut and the numpy kernel 1.1 ms + 0.018 us.  So the dispatch rents
before it buys (Karlin, Manasse, Rudolph & Sleator, *Competitive snoopy
caching*, 1988): the dict kernel takes the large products, and a
process-wide tally counts their pairs, until the tally plus the next
product reaches ``MASK_LOAD_PAIRS``.  That product loads the numpy kernel
and takes it, as does every large product after it; a single product at
or above the budget loads it before it is computed.  A command whose
large products never reach the budget never imports numpy.  The budget
comes from the pool of the benchmark's loop jobs (``verify --suite cml3
--samples 6`` and ``mainid --mode loop --samples 1``), modelled from the
pair counts of each job's products above the cut and the costs above.
Mean time of the large products and the import, per job:

    budget           0 (load at once)   100k    200k    400k
    455 light jobs   0.182 s            0.058   0.061   0.070
    78 heavy jobs    0.244 s            0.232   0.205   0.202

(light jobs are those the benchmark draws from; heavy ones every tenth
of the rest, 53k-15M large pairs).  At 100k the light jobs are at their
cheapest and the heavy ones no dearer than loading at once; larger
budgets trade light-job time for heavy-job time (measured on 2 vCPUs,
Python 3.11, numpy 2.4).

A square, ``cmul_terms(x, x)`` with the same dict passed twice, takes
``square_terms`` instead, on the same cut: it computes the same terms
from half the monomial pairs.  ``twisted.cmul(x, x)`` and
``twisted.cube`` pass the dict twice, so they square this way.

Callers look the ops up on this module at call time, so a tracer can wrap
them here.
"""

DER_BITS = 6
DER_MASK = (1 << DER_BITS) - 1
MAX_DER = DER_MASK
MAX_BASE = (1 << (16 - DER_BITS)) - 1

BACKEND = "pure"

MASK_MIN_PAIRS = 2048
MASK_LOAD_PAIRS = 100_000

# cml3._maskcore once loaded; until then, the pairs of the products above
# MASK_MIN_PAIRS that the dict kernel took instead
_maskcore = None
_dict_pairs = 0

# bit ``base << 6 | MAX_DER`` of every generator: 8 KB, and ``low & _LAST``
# costs only the length of ``low``
_LAST = (((1 << ((MAX_BASE + 1) << DER_BITS)) - 1)
         // ((1 << (1 << DER_BITS)) - 1) << MAX_DER)


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


def positions(m: int) -> list:
    """The set bits of a monomial, ascending: its symbols in order."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _summands(m: int, last: int) -> list:
    """The monomials of ``d(m)``, each with coefficient 1."""
    out = []
    rest = m
    while rest:
        low = rest & -rest
        if low & last:
            raise OverflowError("derivation order overflow")
        if not m & low << 1:
            out.append(m + low)
        rest ^= low
    return out


def _wedge_into(out: dict, x, y, scale: int = 1) -> None:
    """Add ``scale * (x ^ y)`` to ``out``.

    ``x`` and ``y`` hold (monomial, coefficient) pairs; ``y`` is read once
    per term of ``x``.
    """
    for mx, cx in x:
        cx *= scale
        for my, cy in y:
            if mx & my:
                continue
            # one transposition per bit of mx above a bit b of my; mx has
            # no bit b, so the bits above b are mx >> (b + 1)
            swaps = 0
            rest = my
            while rest:
                low = rest & -rest
                swaps += (mx >> low.bit_length()).bit_count()
                rest ^= low
            key = mx | my
            # a nonzero delta leaves 0 only on a key that was present
            c = (out.get(key, 0) + (2 if swaps & 1 else 1) * cx * cy) % 3
            if c:
                out[key] = c
            else:
                del out[key]


def wedge_terms(x: dict, y: dict) -> dict:
    """Exterior product of two elements."""
    out = {}
    _wedge_into(out, x.items(), y.items())
    return out


def derive_terms(x: dict) -> dict:
    """Even derivation: bump one derivation order per Leibniz summand."""
    out = {}
    for m, c in x.items():
        for s in _summands(m, _LAST):
            v = (out.get(s, 0) + c) % 3
            if v:
                out[s] = v
            else:
                del out[s]
    return out


def assoc_step(terms: dict, sa: int, sb: int, last: int = _LAST,
               derivs: dict | None = None) -> dict:
    """One left-normed associator step on an odd element: d(v ^ a ^ b).

    ``sa`` and ``sb`` are the bits of the two letters, which are their
    symbols in this module's layout.  A caller with its own layout passes
    its ``last`` mask, and may pass a ``derivs`` dict that keeps the
    summands of each monomial across calls.
    """
    out = {}
    if derivs is None:
        derivs = {}
    abit = 1 << sa
    bbit = 1 << sb
    for m, c in terms.items():
        if m & abit:
            continue
        m1 = m | abit
        if m1 & bbit:
            continue
        m2 = m1 | bbit
        # one transposition per symbol above an inserted one
        if ((m >> sa).bit_count() + (m1 >> sb).bit_count()) & 1:
            c = 3 - c
        summands = derivs.get(m2)
        if summands is None:
            summands = derivs[m2] = _summands(m2, last)
        for s in summands:
            v = (out.get(s, 0) + c) % 3
            if v:
                out[s] = v
            else:
                del out[s]
    return out


def _parts(x: dict):
    """The even and odd parts of an element, as lists of items."""
    even = []
    odd = []
    for item in x.items():
        (odd if item[0].bit_count() & 1 else even).append(item)
    return even, odd


def product_terms(x: dict, y: dict) -> dict:
    """Twisted commutative product on the dict kernel.

    With x = xe + xo and y = ye + yo split by parity,
    x*y = xe^y + xo^ye + d(xo)^yo - xo^d(yo), and -1 = 2 mod 3.
    """
    out = {}
    xe, xo = _parts(x)
    ye, yo = _parts(y)
    _wedge_into(out, xe, y.items())
    _wedge_into(out, xo, ye)
    if xo and yo:
        _wedge_into(out, derive_terms(dict(xo)).items(), yo)
        _wedge_into(out, xo, derive_terms(dict(yo)).items(), 2)
    return out


def square_terms(x: dict) -> dict:
    """``product_terms(x, x)`` from half the monomial pairs.

    Write x = e + o with e even and o odd.  Even monomials commute and
    m ^ m = 0 unless m is the unit, even parts commute with everything,
    and m ^ d(m') = -d(m') ^ m for odd monomials, as d keeps the degree.
    So with c0 the coefficient of the unit

        x*x = c0^2 [1] + 2 sum_{i<j} ci cj ei^ej + 2 e^o + 2 d(o)^o.
    """
    out = {}
    even, odd = _parts(x)
    if 0 in x:
        out[0] = 1  # c0^2 is 1 for c0 in {1, 2}
    for i, item in enumerate(even):
        _wedge_into(out, (item,), even[i + 1:], 2)
    if odd:
        _wedge_into(out, even, odd, 2)
        _wedge_into(out, derive_terms(dict(odd)).items(), odd, 2)
    return out


def cmul_terms(x: dict, y: dict) -> dict:
    """Twisted commutative product of two elements."""
    global _maskcore, _dict_pairs
    square = x is y
    pairs = len(x) * len(y)
    if pairs > MASK_MIN_PAIRS:
        if _maskcore is None:
            if _dict_pairs + pairs < MASK_LOAD_PAIRS:
                _dict_pairs += pairs
            else:
                from . import _maskcore
        if _maskcore is not None:
            out = _maskcore.square_terms(x) if square else _maskcore.cmul_terms(x, y)
            if out is not None:
                return out
    if square:
        return square_terms(x)
    return product_terms(x, y)
