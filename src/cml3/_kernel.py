"""The kernel ops the rest of the package calls.

Wedge, derivation and associator steps are those of the pure-Python kernel
``cml3._purecore``.  Twisted products of more than ``MASK_MIN_PAIRS``
monomial pairs go to the numpy bitmask kernel (``cml3._maskcore``) instead,
which returns the same terms.  Its numpy set-up costs 0.13-0.2 ms per call,
so on the twisted products of the loop suites it overtakes the dict kernel
from about 300 pairs on (measured on 2 vCPUs, Python 3.11, numpy 2.4).

A square, ``cmul_terms(x, x)`` with the same dict passed twice, takes the
kernels' ``square_terms`` instead, on the same cut: it computes the same
terms from half the monomial pairs.  ``twisted.cmul(x, x)`` and
``twisted.cube`` pass the dict twice, so they square this way.

Callers look the ops up on this module at call time, so a tracer can wrap
them here.
"""

from . import _purecore
from ._purecore import (  # noqa: F401  (re-exported)
    DER_BITS,
    DER_MASK,
    MAX_BASE,
    MAX_DER,
    assoc_step,
    derive_terms,
    key_from_syms,
    pack_sym,
    sym_base,
    sym_der,
    syms_from_key,
    wedge_terms,
)

BACKEND = "pure"

MASK_MIN_PAIRS = 256


def cmul_terms(x: dict, y: dict) -> dict:
    """Twisted commutative product of two elements."""
    square = x is y
    if len(x) * len(y) > MASK_MIN_PAIRS:
        # imported on first use: a cold start that makes no large product
        # (a dim or certify run) then never compiles or loads the module
        from . import _maskcore

        out = _maskcore.square_terms(x) if square else _maskcore.cmul_terms(x, y)
        if out is not None:
            return out
    if square:
        return _purecore.square_terms(x)
    return _purecore.cmul_terms(x, y)
