"""Grassmann algebra over GF(3) on derived odd generators.

Generators are pairs (base, der): generator ``base`` differentiated ``der``
times, written ``base(der)`` with ``(0)`` omitted.  The algebra carries the
even derivation that shifts ``base(der)`` to ``base(der+1)`` and obeys the
Leibniz rule with no sign.  Even-length monomials span the even part, odd
lengths the odd part.

Element values are immutable by convention: no operation mutates its
arguments and the term mapping handed to ``GElement`` is copied.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping
from functools import total_ordering

from . import _kernel
from ._kernel import pack_sym, positions, sym_base, sym_der
from ._value import Value


@total_ordering
class GenSym(Value):
    """One odd generator: base index and derivation order, ordered by
    (base, der)."""

    __slots__ = _fields = ("base", "der")

    def __init__(self, base: int, der: int = 0):
        pack_sym(base, der)  # range check
        self._init(base, der)

    def __lt__(self, other: "GenSym") -> bool:
        if other.__class__ is self.__class__:
            return self._key < other._key
        return NotImplemented

    @property
    def packed(self) -> int:
        return pack_sym(self.base, self.der)

    def __str__(self) -> str:
        return f"{self.base}({self.der})" if self.der else str(self.base)


_SYM_RE = re.compile(r"^(\d+)(?:\((\d+)\))?$")


def _parse_sym(text: str) -> int:
    m = _SYM_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad generator symbol: {text!r}")
    return pack_sym(int(m.group(1)), int(m.group(2) or 0))


class Monomial(Value):
    """Exterior monomial: strictly increasing generator symbols.

    ``key`` is the kernel's int, with bit ``base << 6 | der`` per symbol.
    The empty monomial, key 0, is the algebra unit.  Ordering is
    degree-major, then lexicographic on the symbol sequence.
    """

    __slots__ = _fields = ("key",)

    def __init__(self, key: int = 0):
        self._init(key)

    @classmethod
    def from_syms(cls, syms: Iterable[GenSym | tuple[int, int]]) -> "Monomial":
        packed = []
        for s in syms:
            if isinstance(s, GenSym):
                packed.append(s.packed)
            else:
                packed.append(pack_sym(*s))
        for a, b in zip(packed, packed[1:]):
            if a >= b:
                raise ValueError("monomial symbols must strictly increase")
        return cls(sum(1 << s for s in packed))

    @property
    def syms(self) -> tuple[GenSym, ...]:
        return tuple(GenSym(sym_base(s), sym_der(s)) for s in positions(self.key))

    @property
    def degree(self) -> int:
        return self.key.bit_count()

    @property
    def parity(self) -> int:
        return self.degree & 1

    def sort_key(self):
        return _sort_key(self.key)

    def __lt__(self, other: "Monomial") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Monomial") -> bool:
        return self.sort_key() <= other.sort_key()

    def __str__(self) -> str:
        if not self.key:
            return "[1]"
        # the bare generator 1 writes its order so it cannot be read as
        # the unit monomial
        if self.key == 1 << pack_sym(1, 0):
            return "[1(0)]"
        return "[" + ".".join(str(s) for s in self.syms) + "]"


def _sort_key(key: int):
    """Degree, then the symbols in order: not the order of the ints."""
    return key.bit_count(), tuple(positions(key))


def mono_mul(x: Monomial, y: Monomial) -> tuple[Monomial, int] | None:
    """Exterior product of two monomials.

    Returns (product monomial, sign in {1, 2}), or None when a generator
    repeats and the product is zero.  The sign is the parity of the merge
    permutation.
    """
    product = _kernel.wedge_terms({x.key: 1}, {y.key: 1})
    if not product:
        return None
    ((key, sign),) = product.items()
    return Monomial(key), sign


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

    def monomials(self) -> Iterator[tuple[Monomial, int]]:
        for key in sorted(self._terms, key=_sort_key):
            yield Monomial(key), self._terms[key]

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
            self._hash = hash(frozenset(self._terms.items()))
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
        return " + ".join(f"{c}*{m}" for m, c in self.monomials())

    def __repr__(self) -> str:
        return f"GElement({self})"

    @classmethod
    def parse(cls, text: str) -> "GElement":
        """Parse the textual element format produced by ``str``."""
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
                for sym in map(_parse_sym, inner.split(".")):
                    if key >> sym & 1:
                        raise ValueError(f"repeated generator in {mono_text!r}")
                    key |= 1 << sym
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
