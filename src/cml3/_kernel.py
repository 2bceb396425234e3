"""Kernel backend selection.

The compiled extension (``cml3._fastcore``) is used when it was built;
otherwise the pure-Python reference (``cml3._purecore``) takes over.  Set
``CML3_BACKEND=pure`` or ``CML3_BACKEND=fast`` to force one of the two.
Both backends implement identical semantics on identical data.

Twisted products of more than ``MASK_MIN_PAIRS`` monomial pairs go to the
numpy bitmask kernel (``cml3._maskcore``) instead, which returns the same
terms.  Its numpy set-up costs 0.13-0.2 ms per call, so on the twisted
products of the loop suites it overtakes the pure backend from about 300
pairs on and the compiled one from about 16k pairs on (measured on 2
vCPUs, Python 3.11, numpy 2.4); the cut follows the backend in use.
"""

import os

from ._purecore import (  # noqa: F401  (shared helpers, backend independent)
    DER_BITS,
    DER_MASK,
    MAX_BASE,
    MAX_DER,
    key_from_syms,
    pack_sym,
    sym_base,
    sym_der,
    syms_from_key,
)

_requested = os.environ.get("CML3_BACKEND", "").strip().lower()
if _requested not in ("", "fast", "pure"):
    raise ImportError(f"unknown CML3_BACKEND: {_requested!r}")

if _requested == "pure":
    from . import _purecore as _impl

    BACKEND = "pure"
else:
    try:
        from . import _fastcore as _impl  # type: ignore[attr-defined]

        BACKEND = "fast"
    except ImportError:
        if _requested == "fast":
            raise
        from . import _purecore as _impl

        BACKEND = "pure"

wedge_terms = _impl.wedge_terms
derive_terms = _impl.derive_terms
assoc_step = _impl.assoc_step

MASK_MIN_PAIRS = 256 if BACKEND == "pure" else 16384


def cmul_terms(x: dict, y: dict) -> dict:
    """Twisted commutative product of two elements."""
    if len(x) * len(y) > MASK_MIN_PAIRS:
        # imported on first use: a cold start that makes no large product
        # (a dim or certify run) then never compiles or loads the module
        from . import _maskcore

        out = _maskcore.cmul_terms(x, y)
        if out is not None:
            return out
    return _impl.cmul_terms(x, y)
