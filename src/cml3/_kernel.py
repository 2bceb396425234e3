"""The kernel ops: exterior-monomial arithmetic over GF(3) on int bitmasks.

A monomial is a Python int with bit ``base << 4 | der`` set for each of
its symbols, generator ``base`` differentiated ``der`` times.  Bit order
is symbol order, so the unit is 0 and the degree is ``bit_count()``.  A
symbol is 16 bits wide: 4 for the order, up to ``MAX_DER`` = 15, and 12
for the generator, up to ``MAX_BASE`` = 4095.  The loop, identity and
witness suites reach order 4, and a word of the span frontier order
(weight - 1) / 2, so 15 covers every type on up to 17 generators
(``words.check_depth`` rejects deeper runs).  Narrow order fields keep
keys short: the loop suites' products reach generator 6 at order 4, bit
100.  An element is a dict mapping monomials to coefficients in {1, 2};
absent keys have coefficient 0.  This is the bitmap basis-blade method of
Dorst, Fontijne & Mann, *Geometric Algebra for Computer Science* (2007),
specialised to an exterior algebra over GF(3):

- two monomials wedge to 0 when they share a bit (AND) and to their OR
  otherwise, with one transposition for each bit of the left factor
  above a bit of the right one;
- the even derivation ``d`` takes a monomial to the sum of ``m + low``
  over its set bits ``low`` whose successor bit is clear: the Leibniz
  summand that moves one symbol up one order, with no sign, as the
  successor directly follows it.  A bit at the top order, ``MAX_DER``,
  raises ``OverflowError`` instead of spilling into the next generator.

Twisted products of more than ``JOIN_MIN_PAIRS`` monomial pairs go to
the disjoint-pair join (``cml3._join``) instead, which returns the same
terms: it indexes the right factor by symbol bit and visits only the
pairs that do not collide, 1-2% of those of the loop suites' large
products.  It is loaded on the first such product, so commands that make
none (``dim``, ``h`` and the certify commands) never compile it.  On the
2,557 products above 64 pairs of seven loop jobs, the dict kernel up to
the cut and the join above it took 0.66-0.67 s for cuts of 256-431 pairs,
against 0.81 s for cuts of 1024-2048: the join is 1.2-1.3 times slower on
most products up to 1024 pairs, but faster on the 432-pair products of
the cml3 suite, whose odd-odd part the dict kernel derives term by term.

Products of more than ``MASK_MIN_PAIRS`` pairs go to the numpy kernel
(``cml3._maskcore``) once it is loaded, which returns the same terms too;
a product it refuses (past 64 symbols) goes to the join.  On the captured
products it takes 0.95-1.05 times the join's time at 1024-4096 pairs and
0.47-0.78 times above.  But loading it costs a cold import of numpy
and ``_maskcore``, 0.145 s, while it saves about 17.8 ns per pair over
the join: 26.0 against 43.7 ns on the 15.1M pairs of the captured
products above the cut (medians of 10 rounds, each of three cold imports
and one pass of both kernels over the products).  So the dispatch rents
before it buys (Karlin, Manasse, Rudolph & Sleator, *Competitive snoopy
caching*, 1988): the join takes the large products, and a process-wide
tally counts their pairs, until the tally plus the next product reaches
``MASK_LOAD_PAIRS``.  That product loads the numpy kernel and takes it,
as does every product above the cut after it; a single product at or
above the budget loads it before it is computed.  A command whose large
products never reach the budget never imports numpy.  The budget is the
break-even of import and saving, 7.8M pairs (median of the 10 rounds,
6.4-10.9M), rounded to 8M.  Modelled on the benchmark's pool of loop
jobs (``verify --suite cml3 --samples 6`` and ``mainid --mode loop
--samples 1``) from the pair counts of each job's products above the cut
and the rates above, the mean time of the large products and the import,
per job, is:

    budget                 0 (load at once)   1M     4M     8M     16M    never
    455 light jobs         0.160 s            0.043  0.024  0.024  0.024  0.024
    79 heavy jobs          0.198 s            0.118  0.094  0.087  0.088  0.090
    mainid --mode loop     4.17 s             4.19   4.25   4.32   4.46   6.79
    verify --suite cml3
      --n 7 --samples 500  2.72 s             2.74   2.79   2.86   3.01   4.34

(light jobs are those the benchmark draws from, 0-3.1M large pairs;
heavy ones every tenth of the rest, 53k-33M; the two long runs make 155M
and 99M).  At 8M no light job and 2 of the heavy ones load numpy, and
the long runs pay 0.14 s for the rent; under the same model the rule this
replaced (the dict kernel up to a 100k-pair budget, at 0.23 us per pair)
costs 0.048 s, 0.204 s, 4.20 s and 2.74 s (measured on 2 vCPUs, Python
3.11, numpy 2.4).

A square, ``cmul_terms(x, x)`` with the same dict passed twice, takes
``square_terms`` instead, or the square of the join or the numpy kernel
above their cuts: each computes the same terms from half the monomial
pairs.  ``twisted.cmul(x, x)`` and ``twisted.cube`` pass the dict twice,
so they square this way.

Callers look the ops up on this module at call time, so a tracer can wrap
them here.
"""

DER_BITS = 4
DER_MASK = (1 << DER_BITS) - 1
MAX_DER = DER_MASK
MAX_BASE = (1 << (16 - DER_BITS)) - 1

# perfbench/run.py reads this to label its runs
BACKEND = "pure"

JOIN_MIN_PAIRS = 256
MASK_MIN_PAIRS = 2048
MASK_LOAD_PAIRS = 8_000_000

# cml3._join once loaded
_join = None
# cml3._maskcore once loaded; until then, the pairs of the products above
# MASK_MIN_PAIRS that the join took instead
_maskcore = None
_join_pairs = 0

# bit ``base << 4 | MAX_DER`` of every generator: 8 KB, and ``low & _LAST``
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


def _summands(m: int) -> list:
    """The monomials of ``d(m)``, each with coefficient 1."""
    out = []
    rest = m
    while rest:
        low = rest & -rest
        if low & _LAST:
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
        for s in _summands(m):
            v = (out.get(s, 0) + c) % 3
            if v:
                out[s] = v
            else:
                del out[s]
    return out


def assoc_step(terms: dict, sa: int, sb: int,
               derivs: dict | None = None) -> dict:
    """One left-normed associator step on an odd element: d(v ^ a ^ b).

    ``sa`` and ``sb`` are the symbols of the two letters.  A caller may
    pass a ``derivs`` dict that keeps the summands of each monomial
    across calls.
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
            summands = derivs[m2] = _summands(m2)
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
    global _join, _maskcore, _join_pairs
    square = x is y
    pairs = len(x) * len(y)
    if pairs <= JOIN_MIN_PAIRS:
        return square_terms(x) if square else product_terms(x, y)
    if pairs > MASK_MIN_PAIRS:
        if _maskcore is None:
            if _join_pairs + pairs < MASK_LOAD_PAIRS:
                _join_pairs += pairs
            else:
                from . import _maskcore
        if _maskcore is not None:
            out = _maskcore.square_terms(x) if square else _maskcore.cmul_terms(x, y)
            if out is not None:
                return out
    if _join is None:
        from . import _join
    return _join.square_terms(x) if square else _join.cmul_terms(x, y)
