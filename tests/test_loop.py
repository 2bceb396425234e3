import random

import pytest
from helpers import (
    dict_sample_odd,
    every_tuple,
    flip_first_coefficient,
    plane_terms,
    random_homogeneous,
    record_checks,
    terms_plane,
)

from cml3 import _kernel, loop
from cml3.grassmann import GElement, elem_mul
from cml3.loop import (
    LOOP_ONE,
    MALBOS_MAX_N,
    LoopElement,
    NonInvertible,
    lassoc,
    linv,
    lmul,
    loop_generator,
    mainid_check,
    malbos_mul,
    malbos_verify,
    report_passed,
    sample_loop_element,
    tah_witness,
    verify_cml3,
    verify_identities,
)
from cml3.twisted import associator, cmul


def g(i, j=0):
    return GElement.generator(i, j)


@pytest.fixture
def cold_memo():
    """An empty lmul memo, emptied again afterwards.

    A test that patches a kernel takes it: products from the real kernel
    would otherwise answer for the patched one, and the patched products
    must not outlive the test.
    """
    lmul.cache_clear()
    yield
    lmul.cache_clear()


# ---------------------------------------------------------------------------
# loop arithmetic
# ---------------------------------------------------------------------------

def test_loop_element_requires_unit_constant():
    with pytest.raises(ValueError):
        LoopElement(g(0))
    with pytest.raises(ValueError):
        LoopElement(GElement.one().scale(2))


def test_lmul_expansion():
    u, v = loop_generator(0), loop_generator(1)
    expected = GElement.one() + g(0) + g(1) + cmul(g(0), g(1))
    assert lmul(u, v).value == expected


def test_lmul_unit_and_commutative():
    rng = random.Random(0)
    for _ in range(25):
        u = sample_loop_element(rng, 4, rng.randrange(3))
        v = sample_loop_element(rng, 4, rng.randrange(3))
        assert lmul(u, LOOP_ONE).value == u.value
        assert lmul(u, v).value == lmul(v, u).value


def test_linv_example():
    got = linv(loop_generator(0))
    expected = GElement.one() + g(0).scale(2) + elem_mul(g(0), g(0, 1))
    assert got.value == expected
    assert linv(LOOP_ONE).value == GElement.one()


def test_linv_is_inverse_on_samples():
    rng = random.Random(1)
    for _ in range(100):
        u = sample_loop_element(rng, 5, rng.randrange(4))
        assert lmul(u, linv(u)).is_one()


def test_exponent_three_on_samples():
    rng = random.Random(2)
    for _ in range(100):
        u = sample_loop_element(rng, 7, rng.randrange(4))
        assert lmul(lmul(u, u), u).is_one()


def test_lassoc_unital_and_alternating():
    rng = random.Random(3)
    u = sample_loop_element(rng, 4, 2)
    v = sample_loop_element(rng, 4, 2)
    assert lassoc(LOOP_ONE, u, v).is_one()
    assert lassoc(u, u, v).is_one()
    assert lassoc(u, v, v).is_one()


def test_lassoc_swap_inverts():
    rng = random.Random(4)
    for _ in range(20):
        u, v, w = (sample_loop_element(rng, 5, rng.randrange(3)) for _ in range(3))
        assert lmul(lassoc(u, v, w), lassoc(v, u, w)).is_one()


def test_lassoc_lowest_degree_is_algebra_associator():
    a = lassoc(loop_generator(0), loop_generator(1), loop_generator(2))
    low = (a.value - GElement.one()).degree_part(3)
    assert low == associator(g(0), g(1), g(2))


# ---------------------------------------------------------------------------
# the lmul memo
# ---------------------------------------------------------------------------

def test_memo_keeps_products_ordered(cold_memo):
    u, v = loop_generator(0), loop_generator(1)
    assert lmul(u, v).value == lmul(v, u).value
    # both sides computed: commutativity is checked, not looked up
    assert lmul.cache_info().misses == 2
    assert lmul.cache_info().hits == 0


def test_linv_checks_each_element_once(cold_memo):
    u = loop_generator(0)
    first = linv(u)
    assert lmul.cache_info().misses == 2  # the square and u * square
    assert linv(LoopElement(u.value + GElement.zero())) is first
    assert lmul.cache_info().misses == 2
    assert lmul.cache_info().hits == 2


def test_linv_raises_on_a_corrupted_product(monkeypatch, cold_memo):
    def corrupted(x, y):
        # keeps the constant term 1, so the result is still a loop element
        return cmul(x, y) + g(9)

    monkeypatch.setattr(loop, "cmul", corrupted)
    with pytest.raises(NonInvertible):
        linv(loop_generator(0))


@pytest.mark.parametrize("suite,args", [
    (verify_cml3, (6, 6, 201)),
    (mainid_check, ("loop", 1, 152)),
])
def test_reports_equal_from_cold_and_warm_memo(suite, args, cold_memo):
    cold = suite(*args)
    misses = lmul.cache_info().misses
    warm = suite(*args)
    assert warm == cold
    assert report_passed(cold)
    # the warm run found products the cold run made
    assert lmul.cache_info().hits > 0
    assert lmul.cache_info().misses < 2 * misses


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def test_verify_cml3_small():
    report = verify_cml3(3, samples=25, seed=0)
    assert report_passed(report)
    names = [e["identity"] for e in report]
    assert names == ["commutativity", "moufang", "exponent3",
                     "associator_exponent3"]


def test_verify_cml3_vacuous():
    # the generator triples still run with no samples
    report = verify_cml3(1, samples=0, seed=0)
    assert report_passed(report)
    assert report[0]["instantiation"] == "1 instantiation(s)"


def test_sampled_checks_need_samples():
    # n = 7 samples every identity of five or more letters
    with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
        verify_identities(7, samples=0, seed=0)
    # on three generators every identity is exhaustive
    report = verify_identities(3, samples=0, seed=0)
    assert report_passed(report)
    assert all(not e["instantiation"].startswith("0 ") for e in report)


@pytest.mark.parametrize("samples", [0, 1])
def test_malbos_needs_two_samples(samples):
    # below two samples no Moufang triple is checked
    with pytest.raises(ValueError, match=f"samples >= 2, got {samples}$"):
        malbos_verify(6, samples=samples, seed=0)


@pytest.mark.parametrize("suite", [verify_cml3, verify_identities, malbos_verify])
@pytest.mark.parametrize("n", [0, -1])
def test_suites_reject_n_below_one(suite, n):
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        suite(n, 5, 0)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_chain_memo_matches_eval_word(n):
    # the suite's evaluator on chain trees, on one dict of Leibniz summands
    # as in one suite call, against eval_word and the twisted associator
    from cml3.words import LeftNormedWord, _chain, _eval_tree, eval_word

    rng = random.Random(n)
    derivs = {}
    syms = [_kernel.pack_sym(g) for g in range(n)]
    vanished = 0
    for _ in range(150):
        # few letters and repeated ones make vanishing chains
        head = rng.randrange(n)
        pairs = tuple((rng.randrange(n), rng.randrange(n))
                      for _ in range(rng.randrange(5)))
        expected = eval_word(LeftNormedWord(head, pairs),
                             {g: g for g in range(n)})
        got = _eval_tree(_chain(head, pairs), syms, derivs)
        assert GElement._wrap(got) == expected
        value = g(head)
        for a, b in pairs:
            value = associator(value, g(a), g(b))
        assert value == expected
        vanished += not expected
    assert vanished
    assert derivs or n == 1


def _negated_on_a_repeated_letter(step):
    """``step`` negated when its first letter's generator is already in
    the chain: a fault that depends on no label, so a relabelling shows
    it as well as the tuple itself does."""
    def negated(terms, sa, sb, derivs=None):
        out = step(terms, sa, sb, derivs)
        base = _kernel.sym_base(sa)
        if any(_kernel.sym_base(s) == base
               for key in terms for s in _kernel.positions(key)):
            out = {key: 3 - c for key, c in out.items()}
        return out
    return negated


def test_identities_fail_on_a_corrupted_step(monkeypatch):
    # flipping the first coefficient of a step depends on the labels,
    # which the orbits' first tuples at n = 4 never expose; test_orbits
    # shows it fails the relabelling lemma instead
    monkeypatch.setattr(_kernel, "assoc_step",
                        _negated_on_a_repeated_letter(_kernel.assoc_step))
    report = verify_identities(4, 20, 0)
    assert not report_passed(report)
    assert all("witness" in e for e in report if not e["pass"])
    every_tuple(monkeypatch)
    assert verify_identities(4, 20, 0) == report


def test_identities_make_every_step(monkeypatch):
    # each orbit's first tuple steps each of its chains up to the first
    # vanishing prefix, and each node of the rewrite's trees whose last two
    # children are distinct letters; in the every-tuple reference mode,
    # every tuple does
    calls = 0
    step = _kernel.assoc_step

    def counted(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    monkeypatch.setattr(_kernel, "assoc_step", counted)
    assert report_passed(verify_identities(7, 1000, 5))
    assert calls == 14_602
    calls = 0
    every_tuple(monkeypatch)
    assert report_passed(verify_identities(7, 1000, 5))
    assert calls == 80_763


def _entries(report):
    return {e["identity"]: e for e in report}


def test_schema_soundness_fails_on_a_corrupted_term(monkeypatch):
    import copy

    from cml3 import schemas

    bad = copy.copy(schemas.SCHEMAS["X"])
    (coeff, pairs), *rest = bad.pos_terms
    object.__setattr__(bad, "pos_terms", ((3 - coeff, pairs), *rest))
    monkeypatch.setitem(schemas.SCHEMAS, "X", bad)
    entry = _entries(verify_identities(4, 20, 0))["relation_schema_soundness"]
    assert not entry["pass"]
    assert entry["witness"].startswith("X:exhaustive(")


def test_associator_rewrite_fails_on_a_corrupted_wedge(monkeypatch):
    # the trees are evaluated by words._eval_tree, from the patched kernel
    monkeypatch.setattr(_kernel, "wedge_terms",
                        flip_first_coefficient(_kernel.wedge_terms))
    entry = _entries(verify_identities(4, 20, 0))["associator_rewrite"]
    assert not entry["pass"]
    assert "witness" in entry


@pytest.mark.parametrize("identity,r,k,term,mode", [
    # coefficient 2 flipped to 1: the two chains add instead of cancelling
    ("chain_slot_symmetry", 0, 1, (1, (((0, 1, 3), 3, 2), 2, 4)),
     "sampled"),
    # the pair (i, a) swapped: one of the six terms changes sign
    ("triple_slot_linearized", 0, 0, (1, (((0, 4, 1), 2, 5), 3, 6)),
     "sampled"),
    # a flipped coefficient in a second relation, checked after the first
    ("chain_skew_xyz", 1, 1, (2, ((0, 3, 2), 2, 1)), "exhaustive"),
])
def test_identity_table_fails_on_a_corrupted_entry(monkeypatch, identity, r,
                                                   k, term, mode):
    relations = list(loop.IDENTITIES[identity])
    assert term != relations[r][k]
    relations[r] = relations[r][:k] + (term,) + relations[r][k + 1:]
    monkeypatch.setitem(loop.IDENTITIES, identity, tuple(relations))
    report = verify_identities(7, 60, 0)
    assert [e["identity"] for e in report if not e["pass"]] == [identity]
    assert _entries(report)[identity]["witness"].startswith(f"{mode}(")


def test_compiled_schemas_match_the_string_patterns(monkeypatch):
    # each schema on 200 seeded tuples over 3 generators, so letters
    # repeat; the suite's checker on each, recording every tree it
    # evaluates, on generators, and every value it adds
    from cml3.schemas import SCHEMAS
    from cml3.words import LeftNormedWord, _chain, eval_word

    rng = random.Random(11)
    tuples = {
        arity: [tuple(rng.randrange(3) for _ in range(arity))
                for _ in range(200)]
        for arity in sorted({len(s.letters) + 1 for s in SCHEMAS.values()})
    }
    recorded = []
    eval_tree = loop._eval_tree
    add_into = loop._add_into

    def on_generators(tree, syms):
        if isinstance(tree, int):
            return _kernel.sym_base(syms[tree])
        return tuple(on_generators(child, syms) for child in tree)

    def evaluated(tree, syms, derivs=None):
        recorded.append(on_generators(tree, syms))
        return eval_tree(tree, syms, derivs)

    def added(total, terms, coeff=1):
        recorded.append((coeff, dict(terms)))
        return add_into(total, terms, coeff)

    monkeypatch.setattr(loop, "_eval_tree", evaluated)
    monkeypatch.setattr(loop, "_add_into", added)
    syms = [_kernel.pack_sym(g) for g in range(3)]
    derivs = {}
    for schema in SCHEMAS.values():
        relations = loop._schema_relations(schema)
        assert loop._arity(relations) == len(schema.letters) + 1
        for t in tuples[len(schema.letters) + 1]:
            assert loop._vanishes(relations, [syms[g] for g in t], derivs)
    # the string patterns: a letter dict per tuple, every chain by eval_word
    identity = {g: g for g in range(3)}
    expected = []
    degenerate = 0
    for schema in SCHEMAS.values():
        for t in tuples[len(schema.letters) + 1]:
            assign = dict(zip(schema.letters, t[1:]))
            total = GElement.zero()
            for coeff, pattern in schema.terms:
                pairs = tuple((assign[a], assign[b]) for a, b in pattern)
                value = eval_word(LeftNormedWord(t[0], pairs), identity)
                if any(a == b for a, b in pairs):
                    degenerate += 1
                    assert not value
                expected += [_chain(t[0], pairs), (coeff, value.raw())]
                total = total + value.scale(coeff)
            assert not total
    assert degenerate and len(expected) > 2000
    assert recorded == expected


def test_verify_identities_small():
    report = verify_identities(4, samples=60, seed=0)
    assert report_passed(report)
    names = {e["identity"] for e in report}
    assert "relation_schema_soundness" in names
    assert "associator_rewrite" in names


def test_failures_over_keys_no_item(monkeypatch):
    # malbos_verify checks list slices of its pairs, which cannot key a
    # dict: the runner keys no item, checks every one and returns the
    # first failing label
    labeled = [("p", [1, 2]), ("q", [3]), ("r", [4, 5]), ("s", [6])]
    checked = []

    def check(x):
        checked.append(x)
        return len(x) == 2

    assert loop._first_failure(labeled, check) == "q"
    assert checked == [x for _, x in labeled]
    assert loop._first_failure(labeled[:1], check) is None

    # on the orbits' first tuples, a check that depends on no label fails
    # first where it does over every tuple
    def first_distinct(n, k):
        tuples = loop._orbits(n, k)
        return loop._first_failure(zip(tuples, tuples),
                                   lambda t: len(set(t)) < k)

    cases = [(2, 3), (4, 3), (5, 4), (3, 5)]
    shared = [first_distinct(n, k) for n, k in cases]
    assert shared == [None, (0, 1, 2), (0, 1, 2, 3), None]
    every_tuple(monkeypatch)
    assert [first_distinct(n, k) for n, k in cases] == shared


def test_exponent3_counts_the_elements_of_every_triple():
    # the orbits' first triples hold generators 0, 1 and 2 only; exponent 3
    # runs on each distinct element of all the triples
    assert _entries(verify_cml3(7, 0, 0))["exponent3"]["instantiation"] == (
        "7 instantiation(s)")
    assert _entries(verify_cml3(7, 6, 62))["exponent3"]["instantiation"] == (
        "20 instantiation(s)")


def test_cml3_walks_the_generator_triples(monkeypatch, cold_memo):
    # only the orbits' first triples are built: a warm run at n = 24
    # peaks far below the 5 MiB a list of all n^3 triples took
    import tracemalloc

    verify_cml3(24, 0, 0)
    tracemalloc.start()
    try:
        report = verify_cml3(24, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report_passed(report)
    assert peak < 2**20
    # a corrupted square of generator 2 alone breaks the relabelling
    # symmetry: generator 0 computes exponent 3 for every generator, so the
    # orbit run passes, and the every-tuple reference names generator 2 by
    # the triple (0, 0, i) where generator i first appears
    gen2 = loop_generator(2).value

    def corrupted(x, y):
        out = cmul(x, y)
        return out + g(9) if x == y == gen2 else out

    monkeypatch.setattr(loop, "cmul", corrupted)
    lmul.cache_clear()
    assert report_passed(verify_cml3(5, 0, 0))
    every_tuple(monkeypatch)
    lmul.cache_clear()
    assert _entries(verify_cml3(5, 0, 0))["exponent3"] == {
        "identity": "exponent3", "instantiation": "5 instantiation(s)",
        "pass": False, "witness": "gen(0,0,2)"}


@pytest.mark.parametrize("n", [7, 60, 4096])
def test_generator_half_does_not_grow_with_n(monkeypatch, cold_memo, n):
    # one triple per orbit: 5 at any n >= 3; exponent 3 on generator 0
    # alone, the generators being one orbit too.  So the loop products
    # made, 34, do not grow with n either
    calls = record_checks(monkeypatch)
    report = verify_cml3(n, 0, 0)
    assert report_passed(report)
    assert [len(verdicts) for verdicts in calls] == [5, 5, 1, 5]
    assert report[0]["instantiation"] == f"{n ** 3} instantiation(s)"
    assert report[2]["instantiation"] == f"{n} instantiation(s)"
    assert lmul.cache_info().misses == 34


MALBOS_ONE = ({}, {})


def _random_pair(rng, sample):
    return sample(rng), sample(rng)


def test_malbos_identity_and_commutativity():
    rng = random.Random(5)
    for _ in range(20):
        p = _random_pair(rng, lambda r: dict_sample_odd(r, 5))
        q = _random_pair(rng, lambda r: dict_sample_odd(r, 5))
        assert malbos_mul(p, MALBOS_ONE) == p
        assert malbos_mul(p, q) == malbos_mul(q, p)
        cube = malbos_mul(malbos_mul(p, p), p)
        assert cube == MALBOS_ONE


def _malbos_oracle(p, q):
    """The pair product on GElements, as the formula reads."""
    x1, x2, y1, y2 = (GElement(x) for x in p + q)
    return ((x1 + y1 + elem_mul(elem_mul(x1, y1), x2 - y2)).raw(),
            (x2 + y2 + elem_mul(elem_mul(x2, y2), y1 - x1)).raw())


def test_malbos_mul_matches_the_formula():
    rng = random.Random(6)
    pairs = [MALBOS_ONE] + [
        _random_pair(rng, lambda r: random_homogeneous(r, 1).raw())
        for _ in range(30)
    ]
    for p in pairs:
        for q in pairs:
            pq = malbos_mul(p, q)
            assert pq == _malbos_oracle(p, q)
            r = rng.choice(pairs)
            assert malbos_mul(pq, r) == _malbos_oracle(pq, r)


def test_malbos_rejects_even_components():
    even = elem_mul(g(0), g(1)).raw()
    odd = g(2).raw()
    for p, q in (((even, {}), MALBOS_ONE), (MALBOS_ONE, ({}, even)),
                 ((odd, g(0).raw() | even), (odd, odd)),
                 ((GElement.one().raw(), {}), MALBOS_ONE)):
        with pytest.raises(ValueError, match="homogeneous odd"):
            malbos_mul(p, q)
        # the suite's product checks its output, so an even input shows
        with pytest.raises(ValueError, match="homogeneous odd"):
            loop._plane_mul(tuple(map(terms_plane, p)),
                            tuple(map(terms_plane, q)))


def test_malbos_verify_report():
    report = malbos_verify(6, samples=60, seed=0)
    assert report_passed(report)


PLANE_ONE = ((0, 0), (0, 0))


def _pair_terms(p):
    return tuple(plane_terms(x) for x in p)


def test_plane_sampler_draws_the_dict_samplers_elements():
    # the same elements from the same stream, so a seed checks the same pairs
    for n in range(1, MALBOS_MAX_N + 1):
        for seed in range(150):
            planes, dicts = random.Random(seed), random.Random(seed)
            for _ in range(6):
                x = loop._sample_odd(planes, n)
                assert plane_terms(x) == dict_sample_odd(dicts, n)
                assert terms_plane(plane_terms(x)) == x
            assert planes.random() == dicts.random()


def test_plane_products_match_malbos_mul():
    rng = random.Random(8)
    mul = loop._plane_mul
    for n in range(1, MALBOS_MAX_N + 1):
        pairs = [PLANE_ONE] + [
            (loop._sample_odd(rng, n), loop._sample_odd(rng, n))
            for _ in range(40)
        ]
        for i, p in enumerate(pairs):
            q, r = pairs[i - 1], rng.choice(pairs)
            tp, tq, tr = map(_pair_terms, (p, q, r))
            assert _pair_terms(mul(p, q)) == malbos_mul(tp, tq)
            assert _pair_terms(mul(p, PLANE_ONE)) == malbos_mul(tp, MALBOS_ONE)
            assert _pair_terms(mul(PLANE_ONE, p)) == malbos_mul(MALBOS_ONE, tp)
            # products of products: the Moufang sides as the suite builds them
            assert _pair_terms(mul(mul(p, q), mul(r, p))) == malbos_mul(
                malbos_mul(tp, tq), malbos_mul(tr, tp))
            assert _pair_terms(mul(mul(p, mul(q, r)), p)) == malbos_mul(
                malbos_mul(tp, malbos_mul(tq, tr)), tp)


def test_plane_table_matches_the_exterior_product():
    # entry m against the wedge of one-term elements: which monomials
    # survive after m, and which take a sign
    for low, (m, free, neg) in loop._PLANE_TABLE.items():
        assert low == 1 << m
        left = plane_terms((low, 0))
        for b in range(64):
            got = elem_mul(GElement(left), GElement(plane_terms((1 << b, 0))))
            assert bool(got) == bool(free >> b & 1)
            if got:
                assert got.raw() == plane_terms(
                    (0, 1 << (m | b)) if neg >> b & 1 else (1 << (m | b), 0))


def test_malbos_fails_on_a_corrupted_wedge(monkeypatch):
    # one bit of one plane-table mask: generator 0 times generator 1
    # dropped (free), or with its sign flipped (neg)
    low = 1 << 0b1
    m, free, neg = loop._PLANE_TABLE[low]
    for entry in ((m, free ^ 1 << 0b10, neg), (m, free, neg ^ 1 << 0b10)):
        monkeypatch.setitem(loop._PLANE_TABLE, low, entry)
        report = malbos_verify(6, 20, 0)
        assert not report_passed(report)
        assert all("witness" in e for e in report if not e["pass"])


def test_malbos_rejects_an_even_product(monkeypatch):
    # every wedge the monomial 0.1 of degree 2
    monkeypatch.setattr(loop, "_plane_wedge", lambda *planes: (1 << 0b11, 0))
    with pytest.raises(ValueError, match="homogeneous odd"):
        malbos_verify(6, 20, 0)


# ---------------------------------------------------------------------------
# named witnesses
# ---------------------------------------------------------------------------

def test_tah_witness_nonzero_and_skew():
    from cml3.words import LeftNormedWord, eval_word

    witness = tah_witness()
    assert witness
    swapped = eval_word(
        LeftNormedWord(1, ((0, 6), (6, 2), (3, 4), (6, 5))),
        {i: i for i in range(7)},
    )
    assert witness + swapped == GElement.zero()


def test_mainid_algebra():
    assert report_passed(mainid_check("algebra"))


def test_mainid_loop_on_generators():
    report = mainid_check("loop", samples=2, seed=0)
    assert report_passed(report)


def test_mainid_loop_collapsed_slots():
    # with the two doubled slots equal the factors pair off
    from cml3.loop import _mainid_loop_value

    gens = [loop_generator(i) for i in range(6)]
    b = gens[5]
    value = _mainid_loop_value(gens[0], gens[1], gens[2], gens[3], gens[4], b, b)
    assert value.is_one()


@pytest.mark.parametrize("corrupt", [
    lambda c, w: (1 if c == 2 else c, w),
    lambda c, w: (c or 1, w),
], ids=["coefficient_2_as_1", "coefficient_0_as_1"])
def test_mainid_fails_on_a_corrupted_relation(monkeypatch, corrupt):
    # both modes read the one relation: coefficient 2 read as 1, or
    # coefficient 0 as 1
    from cml3 import schemas

    monkeypatch.setattr(schemas, "FIVE_TWO_RELATION", tuple(
        corrupt(c, w) for c, w in schemas.FIVE_TWO_RELATION))
    assert mainid_check("algebra") == [{
        "identity": "mainid_algebra_combination",
        "instantiation": "1 instantiation(s)", "pass": False,
        "witness": "canonical generators"}]
    assert mainid_check("loop", 1, 0)[0]["witness"] == "generators"


def test_mainid_bad_mode():
    with pytest.raises(ValueError):
        mainid_check("nonsense")
