"""Exact computation in free commutative Moufang loops of exponent 3.

The model: a Grassmann algebra over GF(3) on derived odd generators with a
shift derivation, twisted into a commutative alternative algebra whose
unital elements form the loop.  Everything downstream — dimension tables,
regular-word bounds, identity verification — is exact GF(3) arithmetic.

The public names below are loaded from their submodule on first access
(PEP 562), so importing the package, or one submodule such as ``cml3.cli``,
does not compile the rest.
"""

import importlib

# public name -> submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("gf3", ("RankResult", "rank_and_kernel")),
        ("grassmann", ("GElement", "derive", "elem_mul")),
        ("loop", ("LoopElement", "NonInvertible", "lassoc", "linv", "lmul",
                  "mainid_check", "malbos_mul", "malbos_verify",
                  "tah_witness", "verify_cml3", "verify_identities")),
        ("twisted", ("associator", "cmul", "cube")),
        ("twowords", ("RegularReport", "RelationSchema", "normalize",
                      "pattern_predicates_case7", "regular_words")),
        ("words", ("DimReport", "LeftNormedWord", "TypeVector", "Word3",
                   "c_n_of_type", "dim_Cn", "enumerate_types", "eval_word",
                   "h_of_type")),
    )
    for name in names
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
