"""Relation schemas: vanishing GF(3) combinations of pattern 2-words.

A schema is written with placeholder letters, one string per pair
("ij.pq" is the word ij.pq).  Each schema also carries, computed once, its
terms with every letter replaced by its position in ``letters``, so an
instantiation is a tuple indexed by position: ``twowords`` builds relation
rows from such tuples and ``loop`` checks that each one vanishes in the
algebra, as it checks the six-factor relation of ``loop.mainid_check``.
This module imports only the value-class base from the package, so the
identity suite and ``mainid`` read it without loading ``twowords``.
"""

from __future__ import annotations

from ._value import Value


class RelationSchema(Value):
    """A vanishing GF(3) combination of pattern 2-words.

    Pattern letters are placeholder strings; every term uses the same
    letter multiset.  Instantiating a schema with concrete letters and
    evaluating it through the word engine gives exactly zero, which the
    soundness gate asserts.

    ``letters`` lists the pattern letters in order of first use, and
    ``pos_terms`` and ``pos_counts`` are ``terms`` (coefficients mod 3) and
    the term multiset with each letter replaced by its index in
    ``letters``.
    """

    _fields = ("name", "terms")
    __slots__ = _fields + ("letters", "pos_terms", "pos_counts")

    def __init__(self, name: str,
                 terms: tuple[tuple[int, tuple[tuple[str, str], ...]], ...]):
        self._init(name, terms)
        letters = tuple(dict.fromkeys(
            x for _, pairs in terms for pair in pairs for x in pair))
        pos = {x: i for i, x in enumerate(letters)}
        counts = [0] * len(letters)
        for pair in terms[0][1]:
            for x in pair:
                counts[pos[x]] += 1
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "pos_terms", tuple(
            (coeff % 3, tuple((pos[a], pos[b]) for a, b in pairs))
            for coeff, pairs in terms))
        object.__setattr__(self, "pos_counts", tuple(counts))

    @property
    def length(self) -> int:
        return len(self.terms[0][1])

    def term_multiset(self) -> dict[str, int]:
        return dict(zip(self.letters, self.pos_counts))


def _schema(name, *terms):
    parsed = []
    for coeff, text in terms:
        pairs = tuple(tuple(tok) for tok in text.split("."))
        parsed.append((coeff, pairs))
    return RelationSchema(name, tuple(parsed))


# Exchange of two pairs: linearization of the skew/symmetry of the
# one-slot chain ix.xq = -qx.xi.
SCHEMA_X = _schema("X", (1, "ij.pq"), (1, "ip.jq"), (1, "jq.ip"), (1, "pq.ij"))
# Partial linearization of ia.ja.pa = 0.
SCHEMA_F1 = _schema("f1", (1, "iq.ja.pa"), (1, "ia.jq.pa"), (1, "ia.ja.pq"))
SCHEMA_F2 = _schema(
    "f2", (1, "pi.ja.aq"), (1, "pj.ia.aq"), (1, "qi.ja.ap"), (1, "qj.ia.ap")
)
# Symmetry of the two-slot chain in its slot letters.
SCHEMA_F3 = _schema("f3", (1, "pa.ab.bq"), (1, "qa.ab.bp"))
# Full linearization of ia.ja.pa = 0.
SCHEMA_G1 = _schema(
    "g1",
    (1, "iq.ja.pb"), (1, "iq.jb.pa"), (1, "ia.jq.pb"),
    (1, "ib.jq.pa"), (1, "ia.jb.pq"), (1, "ib.ja.pq"),
)
# Full linearization of pi.ia.ap = 0.
SCHEMA_G2 = _schema(
    "g2",
    (1, "pi.ja.bq"), (1, "pi.jb.aq"), (1, "pj.ia.bq"), (1, "pj.ib.aq"),
    (1, "qi.ja.bp"), (1, "qi.jb.ap"), (1, "qj.ia.bp"), (1, "qj.ib.ap"),
)
# Linearization of xy.xb.yc.bc = 0 in its doubled word letters.
SCHEMA_G3 = _schema(
    "g3",
    (1, "24.1b.3c.bc"), (1, "23.1b.4c.bc"), (1, "14.2b.3c.bc"), (1, "13.2b.4c.bc"),
)
SCHEMA_S2 = _schema("s2", (1, "xy.xb.yc.bc"))

SCHEMAS = {
    s.name: s
    for s in (
        SCHEMA_X, SCHEMA_F1, SCHEMA_F2, SCHEMA_F3,
        SCHEMA_G1, SCHEMA_G2, SCHEMA_G3, SCHEMA_S2,
    )
}

RELATION_SETS = {
    "X": ("X",),
    "Y": ("X", "f1", "f2", "f3"),
    "Z1": ("X", "g1", "g2"),
    "Z2": ("X", "g1", "g2", "g3"),
}

# Default relation set per supported case.
CASE_SETS = {"5": "X", "5,1": "Y", "7": "Z1", "5,2": "Z2"}

# The six-factor relation: (coefficient, 2-word) on the seven candidate
# basis words of the (5,2) case, doubled letters b = 5, c = 6 above the
# four single letters, under head letter 0.
FIVE_TWO_RELATION = (
    (1, (1, 2, 3, 5, 4, 6, 5, 6)),
    (1, (1, 3, 2, 5, 4, 6, 5, 6)),
    (0, (2, 3, 1, 5, 4, 6, 5, 6)),
    (2, (1, 4, 2, 5, 3, 6, 5, 6)),
    (1, (1, 5, 2, 3, 4, 6, 5, 6)),
    (1, (1, 6, 2, 3, 4, 5, 5, 6)),
    (1, (1, 5, 2, 6, 3, 4, 5, 6)),
)
FIVE_TWO_WORDS = tuple(word for _, word in FIVE_TWO_RELATION)
