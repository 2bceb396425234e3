"""Grassmann algebra over GF(3) on derived odd generators.

Generators are pairs (base, der): generator ``base`` differentiated ``der``
times, written ``base(der)`` with ``(0)`` omitted.  The algebra carries the
even derivation that shifts ``base(der)`` to ``base(der+1)`` and obeys the
Leibniz rule with no sign.  Even-length monomials span the even part, odd
lengths the odd part.

A monomial is one int, the kernel's key: bit ``base << 4 | der`` is set
for each of its symbols, so bit order is symbol order and the unit is 0.
``GElement`` maps these keys to coefficients, and ``mono_str`` prints one
key, as ``str`` and ``parse`` write and read it.  Terms print degree-major,
then by their symbol sequence.

Element values are immutable by convention: no operation mutates its
arguments and the term mapping handed to ``GElement`` is copied.
"""

from __future__ import annotations

import re
from collections.abc import Mapping

from . import _kernel
from ._kernel import pack_sym, positions, sym_base, sym_der


_SYM_RE = re.compile(r"^(\d+)(?:\((\d+)\))?$")


def _parse_sym(text: str) -> int:
    m = _SYM_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad generator symbol: {text!r}")
    return pack_sym(int(m.group(1)), int(m.group(2) or 0))


def _sort_key(key: int):
    """Degree, then the symbols in order: not the order of the ints."""
    return key.bit_count(), tuple(positions(key))


def mono_str(key: int) -> str:
    """The text of a monomial: its symbols in order, ``base`` or
    ``base(der)``, joined by dots in brackets; the unit is ``[1]``."""
    if not key:
        return "[1]"
    # the bare generator 1 writes its order so it cannot be read as
    # the unit monomial
    if key == 1 << pack_sym(1, 0):
        return "[1(0)]"
    return "[" + ".".join(
        f"{sym_base(s)}({sym_der(s)})" if sym_der(s) else str(sym_base(s))
        for s in positions(key)) + "]"


# An int hashes mod 2**61 - 1, where 1 << k repeats with period 61 in k,
# so GElement's hash reduces each key by this prime first.  It is the
# largest prime below 2**30, one digit of a Python int, so a key of any
# width reduces in one pass.
_HASH_PRIME = (1 << 30) - 35


class GElement:
    """A GF(3) linear combination of exterior monomials."""

    # _hash is filled on the first hash() call; the terms never change
    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, int] | None = None):
        cleaned = {}
        if terms:
            for key, coeff in terms.items():
                c = coeff % 3
                if c:
                    cleaned[key] = c
        self._terms = cleaned

    @classmethod
    def _wrap(cls, terms: dict) -> "GElement":
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls) -> "GElement":
        return cls._wrap({})

    @classmethod
    def one(cls) -> "GElement":
        return cls._wrap({0: 1})

    @classmethod
    def generator(cls, base: int, der: int = 0) -> "GElement":
        return cls._wrap({1 << pack_sym(base, der): 1})

    def raw(self) -> dict:
        """The internal term dict.  Callers must not mutate it."""
        return self._terms

    @property
    def constant(self) -> int:
        return self._terms.get(0, 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, GElement):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(zip(
                map(_HASH_PRIME.__rmod__, self._terms), self._terms.values())))
            return self._hash

    def __add__(self, other: "GElement") -> "GElement":
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            c = (out.get(key, 0) + coeff) % 3
            if c:
                out[key] = c
            elif key in out:
                del out[key]
        return GElement._wrap(out)

    def __neg__(self) -> "GElement":
        return self.scale(2)

    def __sub__(self, other: "GElement") -> "GElement":
        return self + other.scale(2)

    def scale(self, c: int) -> "GElement":
        c %= 3
        if c == 0:
            return GElement.zero()
        if c == 1:
            return GElement._wrap(dict(self._terms))
        return GElement._wrap({k: (v * 2) % 3 for k, v in self._terms.items()})

    def __mul__(self, other: "GElement") -> "GElement":
        return GElement._wrap(_kernel.wedge_terms(self._terms, other._terms))

    def derive(self) -> "GElement":
        return GElement._wrap(_kernel.derive_terms(self._terms))

    def parity(self) -> int | None:
        """0 or 1 for homogeneous elements, None for mixed or zero."""
        seen = {k.bit_count() & 1 for k in self._terms}
        if len(seen) == 1:
            return seen.pop()
        return None

    def even_part(self) -> "GElement":
        return GElement._wrap(
            {k: v for k, v in self._terms.items() if not k.bit_count() & 1}
        )

    def odd_part(self) -> "GElement":
        return GElement._wrap(
            {k: v for k, v in self._terms.items() if k.bit_count() & 1}
        )

    def degree_part(self, degree: int) -> "GElement":
        return GElement._wrap(
            {k: v for k, v in self._terms.items() if k.bit_count() == degree}
        )

    def __len__(self) -> int:
        return len(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        terms = self._terms
        return " + ".join(f"{terms[k]}*{mono_str(k)}"
                          for k in sorted(terms, key=_sort_key))

    def __repr__(self) -> str:
        return f"GElement({self})"

    @classmethod
    def parse(cls, text: str) -> "GElement":
        """Parse the textual element format produced by ``str``.

        A monomial's symbols may be written in any order; an odd
        permutation of its sorted symbols negates the term.
        """
        text = text.strip()
        if text == "0":
            return cls.zero()
        terms: dict = {}
        for chunk in text.split("+"):
            chunk = chunk.strip()
            if "*" in chunk:
                coeff_text, mono_text = chunk.split("*", 1)
                coeff = int(coeff_text.strip())
            else:
                coeff, mono_text = 1, chunk
            mono_text = mono_text.strip()
            if not (mono_text.startswith("[") and mono_text.endswith("]")):
                raise ValueError(f"bad monomial: {mono_text!r}")
            inner = mono_text[1:-1].strip()
            key = 0
            if inner != "1":
                # one transposition for each symbol read after a larger one
                swaps = 0
                for sym in map(_parse_sym, inner.split(".")):
                    if key >> sym & 1:
                        raise ValueError(f"repeated generator in {mono_text!r}")
                    swaps += (key >> sym).bit_count()
                    key |= 1 << sym
                if swaps & 1:
                    coeff = -coeff
            c = (terms.get(key, 0) + coeff) % 3
            if c:
                terms[key] = c
            elif key in terms:
                del terms[key]
        return cls._wrap(terms)


def elem_mul(x: GElement, y: GElement) -> GElement:
    """Bilinear extension of the exterior product."""
    return x * y


def derive(x: GElement) -> GElement:
    """The even derivation shifting every generator's order up by one."""
    return x.derive()
