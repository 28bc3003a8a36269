"""Tests for the braids-and-ties algebra model and its braid-image subalgebra."""

import random
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from braidties import closure
from braidties.btalg import (
    BTElement,
    bar,
    bt_mul,
    c_simple_bt,
    e_element,
    g_element,
    g_inverse,
    kl_lift,
    kl_lift_via,
    lmul_g,
    lmul_g_word,
    verify_presentation,
    word_element,
)
from braidties.closure import basis_index, c_dimension_report, tie_action
from braidties.coxeter import (
    all_perms,
    dim_recurrence,
    all_set_partitions,
    discrete_partition,
    identity_perm,
    pair_partition,
    partition_from_blocks,
    partition_join,
    perm_inv,
    perm_length,
    perm_mul,
    reduced_word,
    right_descents,
    simple_perm,
    w_action,
)
from braidties.linalg import Echelon, _acc
from braidties.scalars import LaurentPoly
from qv_oracle import (RF, _partition_products, jr_decomposition, jr_span,
                       qv, qv_closure)
from word_oracle import word_combo

V = LaurentPoly.V
Q = V * V
ONE = LaurentPoly.one()


@lru_cache(maxsize=None)
def _sorted_pairs(m):
    """The basis pairs (P, w) of the model, sorted: pair j is e_P g_w, the
    element at basis index j, written out here as the reference for the
    keys of `BTElement`."""
    return tuple(sorted((P, w) for P in all_set_partitions(m)
                        for w in all_perms(m)))


def _pair_terms(x):
    """The terms of x keyed by their pairs (P, w)."""
    pairs = _sorted_pairs(x.m)
    return {pairs[b]: c for b, c in x.terms.items()}


def _element(m, pair_terms):
    """The element with the given terms keyed by pairs (P, w)."""
    index = {k: j for j, k in enumerate(_sorted_pairs(m))}
    return BTElement(m, {index[k]: c for k, c in pair_terms.items()})


def random_element(m, rng, nterms=2):
    pairs = _sorted_pairs(m)
    x = BTElement.zero(m)
    for _ in range(nterms):
        P, w = pairs[rng.randrange(len(pairs))]
        num = rng.randint(-3, 3)
        x = x + BTElement.basis(P, w).scale(LaurentPoly.const(Fraction(num)) * V ** rng.randint(-1, 1))
    return x


# ---------------------------------------------------------------------------
# model size and defining relations
# ---------------------------------------------------------------------------

# The g_s action written out per term, without the cached table: the
# reference for the table-driven `lmul_g`.

def _ref_lmul_g(i, x):
    s = simple_perm(i, x.m)
    pair = pair_partition(i, i + 1, x.m)
    out = {}
    for (P, w), c in _pair_terms(x).items():
        sP = w_action(s, P)
        sw = perm_mul(s, w)
        _acc(out, (sP, sw), c)
        if perm_length(sw) < perm_length(w):
            joined = partition_join(sP, pair)
            cc = c * (Q - 1)
            _acc(out, (joined, sw), cc)
            _acc(out, (joined, w), cc)
    return _element(x.m, out)


def _ref_lmul_g_inv(i, x):
    s = simple_perm(i, x.m)
    pair = pair_partition(i, i + 1, x.m)
    out = {}
    for (P, w), c in _pair_terms(x).items():
        sP = w_action(s, P)
        sw = perm_mul(s, w)
        _acc(out, (sP, sw), c)
        if perm_length(sw) > perm_length(w):
            joined = partition_join(sP, pair)
            cc = c * (V ** -2 - 1)
            _acc(out, (joined, sw), cc)
            _acc(out, (joined, w), cc)
    return _element(x.m, out)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_lmul_g_matches_reference_rule(m):
    rng = random.Random(m)
    for _ in range(20):
        x = random_element(m, rng, nterms=4)
        for i in range(1, m):
            assert lmul_g(i, x) == _ref_lmul_g(i, x)
            assert lmul_g(i, x, inverse=True) == _ref_lmul_g_inv(i, x)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_tie_action_matches_reference_rule(m):
    """The partition half `tie_action(m, i)` of the g_s rule, which
    `closure.g_action` reads on ranks, sends every set partition P, in
    sorted order, to s(P) and to the join of s(P) with the block
    {i, i+1} that the quadratic relation adds."""
    for i in range(1, m):
        s = simple_perm(i, m)
        pair = pair_partition(i, i + 1, m)
        table = tie_action(m, i)
        assert list(table) == sorted(all_set_partitions(m))
        for P, (sP, joined) in table.items():
            assert sP == w_action(s, P)
            assert joined == partition_join(w_action(s, P), pair)


def test_index_tables_at_n5_hold_bell_plus_factorial_entries():
    """At n = 5 the walk's tables of each generator hold Bell(6) + 6!
    entries, 203 + 720, not one per basis pair."""
    tables = closure._index_tables(6)
    assert len(tables) == 5
    assert all(len(ties) == 203 and len(perms) == 720 and f == 720
               for ties, perms, f in tables)


class _RecordingEchelon(Echelon):
    """An `Echelon` that logs every insert with the pivot it returned and,
    when it gained one, the row stored for it then with its pivot entry 1:
    the row the closure walk carries on."""

    def __init__(self, modulus=None):
        super().__init__(modulus)
        self.log = []

    def insert(self, vec, tag=None):
        pivot = super().insert(vec, tag)
        carried = None if pivot is None else {**self.rows[pivot], pivot: 1}
        self.log.append((vec, pivot, carried))
        return pivot


def _mod_p(c, v0, p):
    """The Laurent scalar c at v = v0, reduced mod p."""
    x = c(v0)
    return x.numerator * pow(x.denominator, -1, p) % p


@pytest.mark.parametrize("m", [2, 3, 4])
def test_modp_candidates_match_reference_rule(m, monkeypatch):
    """Replays the walk of the mod-p closure at the three points of seed
    0: each candidate g_s x it inserts equals the reference rule
    `_ref_lmul_g` over the Laurent ring, every coefficient specialized at v0 and
    reduced mod p, where x is a carried row (the stored row of an earlier
    candidate that gained a pivot, with its pivot entry 1), and the ranks
    are the paper's dim C(v)."""
    echelons = []

    def recording(modulus):
        echelons.append(_RecordingEchelon(modulus))
        return echelons[-1]

    monkeypatch.setattr(closure, "Echelon", recording)
    for v0, p in closure._specialization_points(0, 3):
        assert closure._closure_modp(m, v0, p).rank == {2: 3, 3: 20, 4: 217}[m]
        assert echelons[-1].p == p
        (unit, _, carried), *log = echelons[-1].log
        assert unit == carried == {0: 1}
        assert BTElement.unit(m).terms == {0: ONE}
        log = iter(log)
        frontier = [carried]
        while frontier:
            new = []
            for x in frontier:
                lifted = BTElement(m, {b: LaurentPoly.const(int(c))
                                       for b, c in x.items()})
                for i in range(1, m):
                    y, pivot, carried = next(log)
                    want = {b: _mod_p(c, v0, p)
                            for b, c in _ref_lmul_g(i, lifted).terms.items()}
                    assert all(type(c) is int for c in y.values())
                    assert ({b: c % p for b, c in y.items() if c % p}
                            == {b: c for b, c in want.items() if c})
                    if pivot is not None:
                        new.append(carried)
            frontier = new
        assert next(log, None) is None


def _reference_tables(m):
    """Per generator g_{s_i}, for each pair (P, w) of `_sorted_pairs`: the
    indices of (s(P), s w), of (J, s w) and of (J, w) with J the join of
    s(P) and {i, i+1}, and whether l(s w) < l(w); from the reference rule
    alone, pair by pair."""
    pairs = _sorted_pairs(m)
    idx = {k: j for j, k in enumerate(pairs)}
    tables = []
    for i in range(1, m):
        s = simple_perm(i, m)
        pair = pair_partition(i, i + 1, m)
        table = []
        for P, w in pairs:
            sP = w_action(s, P)
            sw = perm_mul(s, w)
            joined = partition_join(sP, pair)
            table.append((idx[(sP, sw)], perm_length(sw) < perm_length(w),
                          idx[(joined, sw)], idx[(joined, w)]))
        tables.append(table)
    return tables, idx[(discrete_partition(m), identity_perm(m))]


def _raw_closure_echelon(m, c2, one, modulus=None):
    """The closure walk on `_reference_tables`, with the frontier keeping
    each raw candidate g_s x that gained a pivot, rather than its reduced
    row: the oracle for `closure._closure_modp`."""
    tables, unit_index = _reference_tables(m)
    unit = {unit_index: one}
    ech = Echelon(modulus)
    ech.insert(unit)
    frontier = [unit]
    while frontier:
        new = []
        for x in frontier:
            for table in tables:
                y = {}
                for b, c in x.items():
                    moved, down, joined_sw, joined_w = table[b]
                    _acc(y, moved, c)
                    if down:
                        _acc(y, joined_sw, c * c2)
                        _acc(y, joined_w, c * c2)
                if ech.insert(y) is not None:
                    new.append(y)
        frontier = new
    return ech


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_exact_closure_rows_match_raw_candidate_walk(n):
    """The Q(v) oracle `qv_closure`, which walks with `btalg.lmul_g`, ends
    at the reduced row echelon form over Q(v) of the raw-candidate walk
    on the reference tables."""
    raw = _raw_closure_echelon(n + 1, RF.V * RF.V - 1, RF.ONE)
    assert qv_closure(n).rows == raw.rows
    assert raw.rank == (1, 3, 20, 217)[n]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_modp_closure_matches_raw_candidate_walk(m):
    """At the points of seeds 0-9 the mod-p closure keeps the rows, and so
    the rank, of the raw-candidate walk."""
    for seed in range(10):
        for v0, p in closure._specialization_points(seed, 3):
            v = v0.numerator * pow(v0.denominator, -1, p) % p
            c2 = (v * v - 1) % p
            ech = closure._closure_modp(m, v0, p)
            raw = _raw_closure_echelon(m, c2, 1, p)
            assert ech.rows == raw.rows, (seed, v0, p)
            assert ech.rank == raw.rank


@pytest.mark.parametrize("m", [2, 3, 4])
def test_modp_closure_at_v_squared_one_spans_the_group_algebra(m):
    """At v0^2 = 1 mod p the weight v^2 - 1 vanishes, each g_s^2 = 1, and
    the closure of 1 is spanned by the g_w: rank (n+1)!."""
    for p in closure._SPECIALIZE_PRIMES:
        for v0 in (Fraction(p + 1), Fraction(1, p - 1)):
            assert closure._closure_modp(m, v0, p).rank == factorial(m)


def test_model_dimension_formula():
    """e_P g_w is keyed by index rank(P)·m! + rank(w): its position among
    the pairs (P, w) sorted, for m = 1..5.  So the indices fill
    range(m!·Bell(m)), and the unit is index 0."""
    for m in range(1, 6):
        pairs = _sorted_pairs(m)
        assert len(pairs) == factorial(m) * len(all_set_partitions(m))
        for j, (P, w) in enumerate(pairs):
            assert BTElement.basis(P, w).terms == {j: ONE}
        assert BTElement.unit(m).terms == {0: ONE}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_presentation_holds(n):
    results = verify_presentation(n)
    failures = [label for label, ok in results if not ok]
    assert failures == []
    assert len(results) > 5


def test_quadratic_relation_example():
    m = 2
    g = g_element(simple_perm(1, m))
    es = e_element(pair_partition(1, 2, m))
    rhs = BTElement.unit(m) + bt_mul(es, BTElement.unit(m) + g).scale(Q - ONE)
    assert bt_mul(g, g) == rhs


def test_e_product_is_join():
    m = 4
    P = partition_from_blocks([(1, 2), (3,), (4,)])
    Qp = partition_from_blocks([(2, 3), (1,), (4,)])
    assert bt_mul(e_element(P), e_element(Qp)) == e_element(partition_join(P, Qp))


def test_g_e_conjugation():
    m = 3
    g1 = g_element(simple_perm(1, m))
    r = pair_partition(2, 3, m)
    srs = pair_partition(1, 3, m)
    assert bt_mul(g1, e_element(r)) == bt_mul(e_element(srs), g1)


def test_associativity_random_triples():
    rng = random.Random(11)
    m = 3
    for _ in range(200):
        a, b, c = (random_element(m, rng) for _ in range(3))
        assert bt_mul(bt_mul(a, b), c) == bt_mul(a, bt_mul(b, c))


def _term_product(P, w, b):
    """e_P g_w b, formed on its own: g_w peeled letter by letter, then
    every partition joined with P."""
    x = b
    for i in reversed(reduced_word(w)):
        x = lmul_g(i, x)
    out = {}
    for (Q, u), d in _pair_terms(x).items():
        _acc(out, (partition_join(P, Q), u), d)
    return _element(b.m, out)


def test_bt_mul_matches_the_term_by_term_product():
    # bt_mul forms g_w b once per w of the left factor; the reference
    # forms e_P g_w b anew for every term.  The left factors hold several
    # partitions on one w and several w on one partition.
    rng = random.Random(5)
    for m in (3, 4):
        perms, parts = all_perms(m), all_set_partitions(m)
        P, w = rng.choice(parts[1:]), rng.choice(perms[1:])
        lefts = [random_element(m, rng, nterms=12) for _ in range(4)]
        lefts.append(_element(m, {(P, u): ONE for u in perms}))
        lefts.append(_element(m, {(Q, w): ONE for Q in parts}))
        for a in lefts:
            b = random_element(m, rng, nterms=3)
            want = BTElement.zero(m)
            for (Q, u), c in _pair_terms(a).items():
                want = want + _term_product(Q, u, b).scale(c)
            assert bt_mul(a, b) == want


# ---------------------------------------------------------------------------
# inverses and the bar involution
# ---------------------------------------------------------------------------

def test_simple_inverse_closed_form():
    for m in (2, 3, 4):
        for i in range(1, m):
            g = g_element(simple_perm(i, m))
            gi = g_inverse(i, m)
            assert bt_mul(g, gi) == BTElement.unit(m)
            assert bt_mul(gi, g) == BTElement.unit(m)


def test_signed_inverse_identity():
    # a_s^{-1} = v^{-2} (a_s^2 + v^2 a_s - 1) for a_s = -g_s
    m = 3
    for i in (1, 2):
        g = g_element(simple_perm(i, m))
        lhs = -g_inverse(i, m)
        rhs = (bt_mul(g, g) - g.scale(Q) - BTElement.unit(m)).scale(Q ** -1)
        assert lhs == rhs


def _word_inverse(w):
    """g_w^{-1} as the reversed product of the simple inverses g_inverse(i)
    along a reduced word of w."""
    m = len(w)
    x = BTElement.unit(m)
    for i in reduced_word(w):
        x = bt_mul(g_inverse(i, m), x)
    return x


def test_word_inverse_all_s3_s4():
    for m in (3, 4):
        for w in all_perms(m):
            gw = g_element(w)
            gwi = _word_inverse(w)
            assert bt_mul(gw, gwi) == BTElement.unit(m)
            assert bt_mul(gwi, gw) == BTElement.unit(m)


def test_bar_fixes_e_and_inverts_g():
    m = 3
    for w in all_perms(m):
        assert bar(g_element(w)) == _word_inverse(perm_inv(w))
    for P in all_set_partitions(m):
        assert bar(e_element(P)) == e_element(P)


def test_bar_involutive_and_multiplicative():
    rng = random.Random(23)
    m = 3
    for _ in range(25):
        a, b = random_element(m, rng), random_element(m, rng)
        assert bar(bar(a)) == a
        assert bar(bt_mul(a, b)) == bt_mul(bar(a), bar(b))


# ---------------------------------------------------------------------------
# dimension of the braid-image subalgebra C(v)
# ---------------------------------------------------------------------------

def test_c_dimension_exact_small():
    assert c_dimension_report(0)["dimension"] == 1
    assert c_dimension_report(1)["dimension"] == 3
    assert c_dimension_report(2)["dimension"] == 20
    assert c_dimension_report(3)["dimension"] == 217


def test_c_dimension_specialized_matches_exact():
    rep = c_dimension_report(3, mode="specialized", seed=5)
    assert rep["dimension"] == 217
    assert rep["agree"] is True
    assert len(rep["points"]) >= 3


def test_c_dimension_specialized_n4():
    rep = c_dimension_report(4, mode="specialized", seed=7)
    assert rep["dimension"] == 3364
    assert rep["agree"] is True


# ---------------------------------------------------------------------------
# the exact certificate of dim C(v)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_certificate_bounds_meet_at_the_closed_form(n):
    """Lower bound (the rank over F_p at v0) = upper bound (the rank of
    the certified +-1 basis) = the paper's dim C(v)."""
    lower, basis = closure.certificate(n)
    assert basis is not None
    assert lower == basis.rank == dim_recurrence(n)
    assert all(x in (1, -1) for row in basis.rows.values() for x in row.values())
    assert c_dimension_report(n) == {"n": n, "mode": "exact",
                                     "dimension": lower, "agree": True}


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_certified_basis_is_the_qv_echelon(n):
    """The lifted basis is the reduced echelon basis over Q(v), row for
    row, entry for entry."""
    assert closure.certificate(n)[1].rows == qv_closure(n).rows


def _certified_rows(n):
    return {p: dict(row) for p, row in closure.certificate(n)[1].rows.items()}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_certificate_refuses_a_dropped_row(n):
    rows = _certified_rows(n)
    assert closure._certified(n + 1, rows) is not None
    for pivot in sorted(rows)[::1 if n < 3 else 9]:
        dropped = {p: row for p, row in rows.items() if p != pivot}
        assert closure._certified(n + 1, dropped) is None, pivot


@pytest.mark.parametrize("n", [1, 2, 3])
def test_certificate_refuses_a_flipped_sign(n):
    rows = _certified_rows(n)
    entries = [(p, c) for p, row in sorted(rows.items()) for c in row]
    assert entries
    for p, c in entries[::1 if n < 3 else 11]:
        flipped = {q: dict(row) for q, row in rows.items()}
        flipped[p][c] = -flipped[p][c]
        assert closure._certified(n + 1, flipped) is None, (p, c)


def test_certificate_refuses_rows_that_hold_other_pivots():
    """At n = 1 the basis 1, g_s, e_12 + e_12 g_s with the same third row
    again under the pivot of e_12 g_s spans the same g-stable space, but
    its four rows are dependent: refused, as is any row holding another
    row's pivot."""
    rows = _certified_rows(1)
    assert rows == {0: {}, 1: {}, 2: {3: 1}}
    assert closure._certified(2, {**rows, 3: {2: 1}}) is None


@pytest.mark.parametrize("m", [2, 3, 4])
def test_certificate_checks_both_parts_of_every_image(m):
    """The span of the g_w holds 1 and the part A of every g_s g_w, but
    not the part B that v^2 - 1 multiplies: it is refused."""
    rows = {basis_index(discrete_partition(m), w): {} for w in all_perms(m)}
    assert 0 in rows
    assert closure._certified(m, rows) is None


def test_certificate_checks_the_unit():
    """The line of e_{12}(1 + g_s) at n = 1 is g-stable (g_s maps it to
    v^2 times itself) but does not hold 1, and neither does the zero
    space: both are refused."""
    P = pair_partition(1, 2, 2)
    x = e_element(P) + bt_mul(e_element(P), g_element(simple_perm(1, 2)))
    assert lmul_g(1, x) == x.scale(Q)
    (pivot, _), (col, _) = sorted(x.terms.items())
    assert closure._certified(2, {pivot: {col: 1}}) is None
    assert closure._certified(2, {}) is None


def test_certificate_needs_a_plus_minus_one_basis(monkeypatch):
    """A mod-p echelon with an entry other than 1 or p - 1 gives no
    certificate: the lower bound stays, the basis is None, and the exact
    report then reads agree false."""
    walk = closure._closure_modp

    def scaled(m, v0, q):
        ech = walk(m, v0, q)
        pivot = max(p0 for p0, row in ech.rows.items() if row)
        col = min(ech.rows[pivot])
        ech.rows[pivot][col] = 2
        return ech

    monkeypatch.setattr(closure, "_closure_modp", scaled)
    assert closure.certificate.__wrapped__(2) == (20, None)
    monkeypatch.setattr(closure, "certificate", closure.certificate.__wrapped__)
    assert c_dimension_report(2)["agree"] is False


# ---------------------------------------------------------------------------
# the J_R e_R decomposition
# ---------------------------------------------------------------------------

def test_jr_span_dims_n2():
    dims = {R: len(jr_span(2, R)) for R in all_set_partitions(3)}
    assert dims[discrete_partition(3)] == 6
    assert dims[partition_from_blocks([(1, 2), (3,)])] == 3
    assert dims[partition_from_blocks([(2, 3), (1,)])] == 3
    assert dims[partition_from_blocks([(1, 3), (2,)])] == 3
    assert dims[partition_from_blocks([(1, 2, 3)])] == 5


def _jr_literal_dimension(n, R):
    """Dimension of the literal span of g_w (1+g_{r_1})...(1+g_{r_l}) e_R
    with the reflections r_j drawn from the blocks of R itself."""
    m = n + 1
    ech = Echelon()
    for x in _partition_products(R, m):
        for w in all_perms(m):
            ech.insert(qv(lmul_g_word(reduced_word(w), x).terms))
    return ech.rank


def test_jr_literal_span_is_larger_off_intervals():
    # why jr_span conjugates: off interval partitions the literal span is
    # larger than the summand
    R = partition_from_blocks([(1, 3), (2,)])
    assert _jr_literal_dimension(2, R) == 6
    assert len(jr_span(2, R)) == 3
    # on interval partitions the literal span IS the summand
    for P in (partition_from_blocks([(1, 2), (3,)]),
              partition_from_blocks([(1, 2, 3)])):
        assert _jr_literal_dimension(2, P) == len(jr_span(2, P))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jr_decomposition_direct_and_spanning(n):
    dec = jr_decomposition(n)
    assert dec["direct"] is True
    assert dec["spans_closure"] is True
    assert (dec["sum"] == dec["closure_dimension"]
            == c_dimension_report(n)["dimension"])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jr_summands_lie_in_c(n):
    # J_R e_R is inside C(v): jr_decomposition compares dimensions only
    ech = qv_closure(n)
    for R in all_set_partitions(n + 1):
        for x in jr_span(n, R):
            assert ech.contains(qv(x.terms)), (n, R)


def _jr_sum(n: int) -> Echelon:
    """Echelon of the span of every J_R e_R."""
    total = Echelon()
    for R in all_set_partitions(n + 1):
        for x in jr_span(n, R):
            total.insert(qv(x.terms))
    return total


def test_membership_of_braid_words():
    rng = random.Random(3)
    for n in (1, 2):
        m = n + 1
        total = _jr_sum(n)
        for _ in range(10):
            word = tuple(rng.choice([1, -1]) * rng.randint(1, n) for _ in range(4))
            x = word_element(word, m)
            assert total.contains(qv(x.terms))


# ---------------------------------------------------------------------------
# the Kazhdan-Lusztig lift
# ---------------------------------------------------------------------------

def test_c_simple_pinned_form():
    m = 2
    c = c_simple_bt(1, m)
    P = pair_partition(1, 2, m)
    e, s = identity_perm(m), simple_perm(1, m)
    assert _pair_terms(c) == {(P, e): -(V ** -1), (P, s): -(V ** -1)}
    assert kl_lift((2, 1)) == c


def test_kl_lift_bar_invariant_s3():
    for w in all_perms(3):
        if w == identity_perm(3):
            continue
        c = kl_lift(w)
        assert bar(c) == c


def test_kl_lift_bar_invariant_s4():
    for w in all_perms(4):
        if w == identity_perm(4):
            continue
        c = kl_lift(w)
        assert bar(c) == c


def test_kl_lift_linearly_independent_s4():
    ech = Echelon()
    for w in all_perms(4):
        assert ech.insert(qv(kl_lift(w).terms)) is not None
    assert ech.rank == 24


def test_kl_lift_single_tie_block():
    # every term of c_w carries the same partition: the support blocks of w
    from braidties.coxeter import support_partition

    for w in all_perms(4):
        parts = {P for (P, u) in _pair_terms(kl_lift(w))}
        assert parts == {support_partition(w)}


def test_kl_lift_recursion_agrees_at_short_lengths():
    # at l(w) <= 2 no kernel correction can arise: every descent recovers c_w
    for w in all_perms(4):
        if not 1 <= perm_length(w) <= 2:
            continue
        for s in right_descents(perm_inv(w)):  # left descents of w
            assert kl_lift_via(w, s) == kl_lift(w)


def test_kl_lift_recursion_is_descent_dependent():
    # the measured defect: for the long element of S_3 the two descents give
    # different (both bar-invariant) outputs, neither equal to kl_lift
    w0 = (3, 2, 1)
    a, b = kl_lift_via(w0, 1), kl_lift_via(w0, 2)
    assert a != b
    for cand in (a, b):
        assert bar(cand) == cand
        defect = cand - kl_lift(w0)
        assert defect.terms
        assert bar(defect) == defect


def test_word_element_is_the_product_letter_by_letter():
    # every signed word of length <= 4 at n = 2, with a_i = -g_i and
    # a_i^{-1} = -g_i^{-1} multiplied in one at a time
    m = 3
    letters = {}
    for i in (1, 2):
        letters[i] = -g_element(simple_perm(i, m))
        letters[-i] = -g_inverse(i, m)
    products = {(): BTElement.unit(m)}
    words = [()]
    for _ in range(4):
        words = [(a,) + word for a in letters for word in words]
        for word in words:
            products[word] = bt_mul(letters[word[0]], products[word[1:]])
    assert len(products) == 341
    for word, x in products.items():
        assert word_element(word, m) == x, word


def test_kl_lift_combo_reproduces_element():
    for w in all_perms(3):
        combo = word_combo(kl_lift(w))
        m = len(w)
        acc = BTElement.zero(m)
        for word, coeff in combo.items():
            acc = acc + word_element(word, m).scale(coeff)
        assert acc == kl_lift(w)


def test_kl_lift_path_rejects_elements_outside_c():
    # e_{12} at n = 1 is not in C(v): the word oracle and the image that
    # kl-lift computes refuse it alike, and the command exits 2 with it
    from braidties import cli

    x = e_element(pair_partition(1, 2, 2))
    with pytest.raises(ValueError, match=r"^element is not in C\(v\)$"):
        word_combo(x)
    with pytest.raises(ValueError, match=r"^element is not in C\(v\)$"):
        cli._pi_image(x)


def test_kl_lift_words_land_in_c_subalgebra():
    total = _jr_sum(2)
    for w in all_perms(3):
        assert total.contains(qv(kl_lift(w).terms))
