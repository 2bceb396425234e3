import random

import pytest

from cml3.grassmann import GElement
from cml3.twowords import (
    CASE_SETS,
    FIVE_TWO_WORDS,
    RELATION_SETS,
    SCHEMAS,
    _span_rows_indexed,
    catalog_order,
    case_letters,
    linearize,
    normalize,
    pattern_predicates_case7,
    regular_words,
    universe,
    word_str,
)
from cml3.words import TypeVector, eval_word

IDENT = {i: i for i in range(16)}


def W(text):
    return tuple(int(c) for c in text if c != ".")


# ---------------------------------------------------------------------------
# pairs and words
# ---------------------------------------------------------------------------

def test_normalize_examples():
    w, sign = normalize([(2, 1), (3, 4)])
    assert w == (1, 2, 3, 4) and word_str(w) == "12.34" and sign == 2
    w, sign = normalize([(1, 2), (3, 4)])
    assert word_str(w) == "12.34" and sign == 1
    w, sign = normalize([(4, 3), (2, 1)])
    assert word_str(w) == "34.12" and sign == 1


def test_normalize_degenerate_pair():
    with pytest.raises(ValueError):
        normalize([(1, 1)])


def _position(text):
    """Where a word of the four-letter or six-letter case sits in its
    ascending universe."""
    case = "5" if len(text) == 5 else "7"
    return universe(TypeVector.parse(case)).index(W(text))


def test_pair_order():
    # the one-pair prefixes order 12 < 13 < 23 < 14: high letter dominates
    assert (_position("12.34") < _position("13.24") < _position("23.14")
            < _position("14.23"))


def test_lex_compare_examples():
    assert _position("12.34.56") < _position("13.24.56")
    assert _position("23.14.56") < _position("14.23.56")
    # the first pair is the most significant
    assert _position("12.56.34") < _position("13.24.56")


def test_multidigit_letter_format():
    w, _ = normalize([(10, 11)])
    assert word_str(w) == "(10,11)"
    assert word_str((1, 9, 9, 10)) == "19.(9,10)"


# ---------------------------------------------------------------------------
# universes and the printed catalog
# ---------------------------------------------------------------------------

def test_case_letters():
    assert case_letters(TypeVector.parse("5")) == {1: 1, 2: 1, 3: 1, 4: 1}
    assert case_letters(TypeVector.parse("5,2")) == {
        1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2
    }
    with pytest.raises(ValueError):
        case_letters(TypeVector.parse("0,2"))


def test_universe_case5():
    words = {word_str(w) for w in universe(TypeVector.parse("5"))}
    assert words == {"12.34", "13.24", "14.23", "23.14", "24.13", "34.12"}


def test_universe_case7_size_and_catalog():
    words = universe(TypeVector.parse("7"))
    assert len(words) == 90
    cat = catalog_order(words)
    assert word_str(cat[0]) == "12.34.56"
    assert word_str(cat[1]) == "13.24.56"
    assert word_str(cat[2]) == "23.14.56"
    assert word_str(cat[3]) == "14.23.56"
    assert word_str(cat[15]) == "15.24.36"
    assert word_str(cat[38]) == "24.16.35"
    assert word_str(cat[54]) == "12.56.34"
    assert word_str(cat[57]) == "16.25.34"
    assert word_str(cat[89]) == "56.34.12"


def test_universe_excludes_degenerate_pairs():
    for w in universe(TypeVector.parse("5,2")):
        assert all(lo < hi for lo, hi in zip(w[::2], w[1::2]))


# ---------------------------------------------------------------------------
# relation schemas
# ---------------------------------------------------------------------------

def test_schema_shapes():
    assert SCHEMAS["X"].length == 2
    assert len(SCHEMAS["g1"].terms) == 6
    assert len(SCHEMAS["g2"].terms) == 8
    assert SCHEMAS["g3"].length == 4
    assert SCHEMAS["s2"].term_multiset() == {"x": 2, "y": 2, "b": 2, "c": 2}


def test_exchange_relation_from_linearization():
    # linearizing ix.xq + qx.xi = 0 reproduces the four-term exchange schema
    base = [(1, (("i", "x"), ("x", "q"))), (1, (("q", "x"), ("x", "i")))]
    linear = linearize(base, "x", ("j", "p"))
    got = {}
    for coeff, pattern in linear:
        key, sign = normalize([("ijpq".index(a) + 1, "ijpq".index(b) + 1)
                               for a, b in pattern])
        got[key] = (got.get(key, 0) + coeff * sign) % 3
    expected = {}
    for coeff, pattern in SCHEMAS["X"].terms:
        key, sign = normalize([("ijpq".index(a) + 1, "ijpq".index(b) + 1)
                               for a, b in pattern])
        expected[key] = (expected.get(key, 0) + coeff * sign) % 3
    assert got == expected


def test_schema_instances_vanish_in_algebra():
    # soundness gate on a seeded subset of instantiations per schema
    from cml3.words import LeftNormedWord

    rng = random.Random(0)
    for name, schema in SCHEMAS.items():
        letters = schema.letters
        for _ in range(30):
            head = rng.randrange(7)
            assign = {p: rng.randrange(7) for p in letters}
            total = GElement.zero()
            for coeff, pattern in schema.terms:
                pairs = [(assign[a], assign[b]) for a, b in pattern]
                if any(a == b for a, b in pairs):
                    continue
                val = eval_word(LeftNormedWord(head, tuple(pairs)), IDENT)
                total = total + val.scale(coeff)
            assert not total, (name, head, assign)


def test_relation_span_empty_letter_set():
    case = TypeVector.parse("1")
    assert _span_rows_indexed(case, "X", universe(case)) == []


def test_regular_result_independent_of_row_order():
    import random

    from cml3.gf3 import rank_only
    from cml3.twowords import _span_rows_indexed

    case = TypeVector.parse("5,1")
    rows = _span_rows_indexed(case, "Y", universe(case))
    base = rank_only(rows)
    rng = random.Random(0)
    for _ in range(5):
        rng.shuffle(rows)
        assert rank_only(rows) == base
    # nor on repeated rows, or rows times 2: the span rows are not
    # deduplicated
    doubled = [{k: 2 * c % 3 for k, c in row.items()} for row in rows]
    for extra in (rows, doubled, rng.sample(rows + doubled, 50)):
        mixed = rows + extra
        rng.shuffle(mixed)
        assert rank_only(mixed) == base
        assert rank_only(extra + rows) == base


# The span rows as built from the string patterns, with a letter dict per
# instantiation and no skipping of repeated instantiations: the oracle for
# the position-indexed rows.

def _string_multiset(schema):
    letters = [x for pair in schema.terms[0][1] for x in pair]
    return {x: letters.count(x) for x in letters}


def _oracle_instantiations(schema, counts):
    letters = sorted(counts)
    pattern = schema.letters
    need = _string_multiset(schema)

    def rec(i, used, acc):
        if i == len(pattern):
            yield dict(acc)
            return
        p = pattern[i]
        for letter in letters:
            total = used.get(letter, 0) + need[p]
            if total > counts[letter]:
                continue
            used[letter] = total
            acc[p] = letter
            yield from rec(i + 1, used, acc)
            used[letter] -= need[p]
        acc.pop(p, None)

    yield from rec(0, {}, {})


def _oracle_signed_blocks(schema, assign):
    blocks = []
    for coeff, pattern in schema.terms:
        sign = coeff
        block = []
        for a, b in pattern:
            la, lb = assign[a], assign[b]
            if la == lb:
                break
            if la > lb:
                la, lb = lb, la
                sign = -sign
            block += (la, lb)
        else:
            blocks.append((sign % 3, tuple(block)))
    return blocks


def _oracle_span_rows(case, relation_set, words):
    """For each instantiation with a nonzero term: its signature, the
    schema length and its signed blocks as a multiset, and its rows,
    keyed by descending word position."""
    from cml3.twowords import RELATION_SETS, _pairings

    counts = case_letters(case)
    word_len = sum(counts.values()) // 2
    index = {w: len(words) - 1 - i for i, w in enumerate(words)}
    for name in RELATION_SETS[relation_set]:
        schema = SCHEMAS[name]
        need = _string_multiset(schema)
        for assign in _oracle_instantiations(schema, counts):
            blocks = _oracle_signed_blocks(schema, assign)
            if not blocks:
                continue
            rem = dict(counts)
            for p, letter in assign.items():
                rem[letter] -= need[p]
            fills = list(_pairings(rem))
            rows = []
            for offset in range(word_len - schema.length + 1):
                for fill in fills:
                    head, tail = fill[:2 * offset], fill[2 * offset:]
                    row = {}
                    for sign, block in blocks:
                        key = index[head + block + tail]
                        c = (row.get(key, 0) + sign) % 3
                        if c:
                            row[key] = c
                        else:
                            row.pop(key, None)
                    if row:
                        rows.append(row)
            yield (schema.length, *sorted(blocks)), rows


def _assert_rows_match_the_oracle(tv, relation_set):
    words = universe(tv)
    first: dict = {}
    for signature, rows in _oracle_span_rows(tv, relation_set, words):
        # an instantiation whose signature repeats makes the same rows
        assert rows == first.setdefault(signature, rows)
    rows = _span_rows_indexed(tv, relation_set, words)
    # the first instantiation of each signature: the same rows in the same
    # order, each with its keys in the same order
    assert ([list(row.items()) for row in rows]
            == [list(row.items())
                for group in first.values() for row in group])


def _signature(schema, blocks):
    return (schema.length, *sorted(blocks))


@pytest.mark.parametrize("case", ["5", "5,1", "7", "5,2"])
def test_span_rows_match_the_string_patterns(case):
    from cml3.twowords import _instantiations, _signed_blocks

    tv = TypeVector.parse(case)
    relation_set = CASE_SETS[case]
    counts = case_letters(tv)
    for name in RELATION_SETS[relation_set]:
        schema = SCHEMAS[name]
        walk = []
        full = set()
        for assign in _oracle_instantiations(schema, counts):
            walk.append(tuple(assign[x] for x in schema.letters))
            blocks = _signed_blocks(schema, walk[-1])
            assert blocks == _oracle_signed_blocks(schema, assign)
            full.add(_signature(schema, blocks))
        # one instantiation per symmetry orbit, in the full walk's order,
        # reaches every signature the full walk does
        got = list(_instantiations(schema, counts))
        assert set(got) <= set(walk) and got == sorted(got)
        assert {_signature(schema, _signed_blocks(schema, assign))
                for assign in got} == full, name
    _assert_rows_match_the_oracle(tv, relation_set)


def test_a_broken_symmetry_leaves_no_classes(monkeypatch):
    # X with one coefficient flipped: no letter swap keeps its terms, so
    # every letter map is made, and the rows still follow the oracle
    from cml3.schemas import RelationSchema
    from cml3.twowords import _class_prev

    terms = list(SCHEMAS["X"].terms)
    terms[1] = (2, terms[1][1])
    flipped = RelationSchema("X'", tuple(terms))
    assert _class_prev(SCHEMAS["X"]) == (-1, -1, 1, 0)
    assert _class_prev(flipped) == (-1, -1, -1, -1)
    monkeypatch.setitem(SCHEMAS, "X'", flipped)
    monkeypatch.setitem(RELATION_SETS, "X'", ("X'",))
    for case in ("5", "5,2"):
        _assert_rows_match_the_oracle(TypeVector.parse(case), "X'")


def test_instantiation_and_signature_counts():
    # the work of the span rows, as counts: instantiations per schema, one
    # per symmetry orbit, and the signatures that build rows
    from cml3.twowords import _instantiations, _signed_blocks

    expected = {
        "7": {"X": 90, "g1": 120, "g2": 90},
        "5,2": {"X": 173, "g1": 1092, "g2": 828, "g3": 12},
    }
    signatures = {"7": 255, "5,2": 2019}
    for case, per_schema in expected.items():
        counts = case_letters(TypeVector.parse(case))
        seen = set()
        for name, count in per_schema.items():
            schema = SCHEMAS[name]
            got = list(_instantiations(schema, counts))
            assert len(got) == count, (case, name)
            seen.update(_signature(schema, _signed_blocks(schema, assign))
                        for assign in got
                        if _signed_blocks(schema, assign))
        assert tuple(per_schema) == RELATION_SETS[CASE_SETS[case]]
        assert len(seen) == signatures[case], case


def test_compiled_schemas_index_their_letters():
    for schema in SCHEMAS.values():
        assert all(
            tuple((schema.letters[i], schema.letters[j]) for i, j in pos)
            == pattern and coeff == pos_coeff
            for (coeff, pattern), (pos_coeff, pos)
            in zip(schema.terms, schema.pos_terms, strict=True)
        )
        # every term uses the letter multiset the instantiations count
        assert schema.term_multiset() == _string_multiset(schema)
        for _, pattern in schema.terms:
            letters = [x for pair in pattern for x in pair]
            assert {x: letters.count(x) for x in letters} == schema.term_multiset()


# ---------------------------------------------------------------------------
# regular words
# ---------------------------------------------------------------------------

def test_case5_regular():
    report = regular_words("5")
    assert {word_str(w) for w in report.regular} == {"12.34", "13.24", "14.23", "23.14"}
    assert {word_str(w) for w in report.irregular} == {"34.12", "24.13"}
    assert report.bound == 4


def test_case51_regular():
    report = regular_words("5,1")
    assert {word_str(w) for w in report.regular} == {
        "12.35.45", "13.25.45", "14.25.35", "23.15.45", "15.23.45"
    }
    assert report.bound == 5


CASE7_REGULAR_NUMBERS = {1, 2, 3, 4, 7, 8, 9, 10, 13, 14, 15,
                         19, 21, 25, 31, 32, 33, 34, 38, 56}


def test_case7_regular_numbers():
    report = regular_words("7")
    assert report.bound == 20
    cat = catalog_order(report.universe)
    numbers = {i + 1 for i, w in enumerate(cat) if w in set(report.regular)}
    assert numbers == CASE7_REGULAR_NUMBERS


def test_case7_predicates_agree_with_span():
    report = regular_words("7")
    regular = set(report.regular)
    for w in report.universe:
        verdict, step = pattern_predicates_case7(w)
        assert (verdict == "regular") == (w in regular), word_str(w)
        if verdict == "irregular":
            assert step in (1, 2, 3)


def test_case7_predicate_examples():
    cat = catalog_order(universe(TypeVector.parse("7")))
    assert pattern_predicates_case7(cat[15]) == ("irregular", 2)  # 15.24.36
    assert pattern_predicates_case7(cat[38]) == ("irregular", 3)  # 24.16.35
    assert pattern_predicates_case7(cat[57]) == ("irregular", 2)  # 16.25.34
    assert pattern_predicates_case7(cat[0]) == ("regular", None)  # 12.34.56


def test_case52_regular_is_the_v_list():
    report = regular_words("5,2")
    assert report.bound == 7
    assert set(report.regular) == set(FIVE_TWO_WORDS)


def test_regular_bound_dominates_h():
    from cml3.words import h_of_type

    for case in ("5", "5,1", "7", "5,2"):
        report = regular_words(case)
        assert report.bound >= h_of_type(TypeVector.parse(case))


def test_squeeze_bounds_meet_dimensions():
    # the upper bounds from word straightening coincide with the exact
    # span dimensions, except the one case whose surplus is the unique
    # relation among the seven candidate words
    from cml3.words import h_of_type

    for case in ("5", "5,1", "7"):
        assert regular_words(case).bound == h_of_type(TypeVector.parse(case))
    assert regular_words("5,2").bound == h_of_type(TypeVector.parse("5,2")) + 1


def test_default_sets():
    assert CASE_SETS == {"5": "X", "5,1": "Y", "7": "Z1", "5,2": "Z2"}
