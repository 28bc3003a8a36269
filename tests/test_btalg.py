"""Tests for the braids-and-ties algebra model and its braid-image subalgebra."""

import random
from fractions import Fraction
from math import factorial

import pytest

from braidties import btalg
from braidties.btalg import (
    BTElement,
    bar,
    bt_mul,
    c_dimension,
    c_dimension_report,
    c_simple_bt,
    e_element,
    g_element,
    g_inverse,
    basis_pairs,
    jr_decomposition,
    jr_literal_dimension,
    jr_span,
    kl_lift,
    kl_lift_via,
    lmul_g,
    to_vector,
    verify_presentation,
    word_combo,
    word_element,
)
from braidties.coxeter import (
    all_perms,
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
from braidties.scalars import ModP, RationalFunctionScalar as RF

V = RF.V
Q = V * V


def random_element(m, rng, nterms=2):
    pairs = basis_pairs(m)
    x = BTElement.zero(m)
    for _ in range(nterms):
        P, w = pairs[rng.randrange(len(pairs))]
        num = rng.randint(-3, 3)
        x = x + BTElement.basis(P, w).scale(RF.const(Fraction(num)) * V ** rng.randint(-1, 1))
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
    for (P, w), c in x.terms.items():
        sP = w_action(s, P)
        sw = perm_mul(s, w)
        _acc(out, (sP, sw), c)
        if perm_length(sw) < perm_length(w):
            joined = partition_join(sP, pair)
            cc = c * (Q - 1)
            _acc(out, (joined, sw), cc)
            _acc(out, (joined, w), cc)
    return BTElement(x.m, out)


def _ref_lmul_g_inv(i, x):
    s = simple_perm(i, x.m)
    pair = pair_partition(i, i + 1, x.m)
    out = {}
    for (P, w), c in x.terms.items():
        sP = w_action(s, P)
        sw = perm_mul(s, w)
        _acc(out, (sP, sw), c)
        if perm_length(sw) > perm_length(w):
            joined = partition_join(sP, pair)
            cc = c * (RF.VI * RF.VI - 1)
            _acc(out, (joined, sw), cc)
            _acc(out, (joined, w), cc)
    return BTElement(x.m, out)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_lmul_g_matches_reference_rule(m):
    rng = random.Random(m)
    for _ in range(20):
        x = random_element(m, rng, nterms=4)
        for i in range(1, m):
            assert lmul_g(i, x) == _ref_lmul_g(i, x)
            assert lmul_g(i, x, inverse=True) == _ref_lmul_g_inv(i, x)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_structure_tables_match_reference_rule(m):
    """The per-generator table `_action(m, i)` that `lmul_g` and the mod-p
    closure read lists every basis pair in `basis_pairs` order with the
    reference edges of g_{s_i}: the moved pair, the descent, and the two
    joined pairs the quadratic relation adds."""
    for i in range(1, m):
        s = simple_perm(i, m)
        pair = pair_partition(i, i + 1, m)
        table = btalg._action(m, i)
        assert tuple(table) == basis_pairs(m)
        for (P, w), (moved, down, joined_sw, joined_w) in table.items():
            sP = w_action(s, P)
            sw = perm_mul(s, w)
            joined = partition_join(sP, pair)
            assert moved == (sP, sw)
            assert down == (perm_length(sw) < perm_length(w))
            assert joined_sw == (joined, sw) and joined_w == (joined, w)


class _RecordingEchelon(Echelon):
    """An `Echelon` that logs every insert with the pivot it returned and,
    when it gained one, the row stored for it then with its pivot entry 1:
    the row the closure walk carries on."""

    def __init__(self):
        super().__init__()
        self.log = []

    def insert(self, vec, tag=None):
        pivot = super().insert(vec, tag)
        carried = None if pivot is None else {**self.rows[pivot], pivot: 1}
        self.log.append((vec, pivot, carried))
        return pivot


def _mod_p(c, v0, p):
    """The Q(v) scalar c at v = v0, reduced mod p."""
    x = c.specialize(v0)
    return x.numerator * pow(x.denominator, -1, p) % p


@pytest.mark.parametrize("m", [2, 3, 4])
def test_modp_candidates_match_reference_rule(m, monkeypatch):
    """Replays the walk of the mod-p closure at the three points of seed
    0: each candidate g_s x it inserts equals lmul_g(s, x) over Q(v),
    every coefficient specialized at v0 and reduced mod p, where x is a
    carried row (the stored row of an earlier candidate that gained a
    pivot, with its pivot entry 1), and the ranks are the paper's
    dim C(v)."""
    echelons = []

    def recording():
        echelons.append(_RecordingEchelon())
        return echelons[-1]

    monkeypatch.setattr(btalg, "Echelon", recording)
    pairs = basis_pairs(m)
    for v0, p in btalg._specialization_points(0, 3):
        assert btalg._closure_rank_modp(m, v0, p) == {2: 3, 3: 20, 4: 217}[m]
        (unit, _, carried), *log = echelons[-1].log
        assert unit == carried == to_vector(BTElement.unit(m))
        log = iter(log)
        frontier = [carried]
        while frontier:
            new = []
            for x in frontier:
                lifted = BTElement(m, {pairs[b]: RF.const(int(c))
                                       for b, c in x.items()})
                for i in range(1, m):
                    y, pivot, carried = next(log)
                    want = {b: _mod_p(c, v0, p)
                            for b, c in to_vector(lmul_g(i, lifted)).items()}
                    assert y == {b: c for b, c in want.items() if c}
                    if pivot is not None:
                        new.append(carried)
            frontier = new
        assert next(log, None) is None


def _raw_closure_echelon(m, c2, one):
    """The closure walk with the frontier keeping each raw candidate g_s x
    that gained a pivot, rather than its reduced row: the oracle for
    `btalg._closure_echelon`."""
    idx = btalg._pair_index(m)
    tables = [[(idx[moved], down, idx[joined_sw], idx[joined_w])
               for moved, down, joined_sw, joined_w
               in btalg._action(m, i).values()]
              for i in range(1, m)]
    unit = {idx[(discrete_partition(m), identity_perm(m))]: one}
    ech = Echelon()
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
    """Carrying reduced rows ends at the same space as carrying the raw
    candidates, so the reduced row echelon form over Q(v) is the same."""
    raw = _raw_closure_echelon(n + 1, Q - 1, RF.ONE)
    assert btalg._closure(n).rows == raw.rows
    assert raw.rank == (1, 3, 20, 217)[n]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_modp_closure_matches_raw_candidate_walk(m):
    """At the points of seeds 0-9 the mod-p closure keeps the rows, and so
    the rank, of the raw-candidate walk."""
    for seed in range(10):
        for v0, p in btalg._specialization_points(seed, 3):
            F = ModP.field(p)
            v = F(v0.numerator) / F(v0.denominator)
            c2, one = v * v - F(1), F(1)
            ech = btalg._closure_echelon(m, c2, one)
            raw = _raw_closure_echelon(m, c2, one)
            assert ech.rows == raw.rows, (seed, v0, p)
            assert btalg._closure_rank_modp(m, v0, p) == raw.rank


@pytest.mark.parametrize("m", [2, 3, 4])
def test_modp_closure_at_v_squared_one_spans_the_group_algebra(m):
    """At v0^2 = 1 mod p the weight v^2 - 1 vanishes, each g_s^2 = 1, and
    the closure of 1 is spanned by the g_w: rank (n+1)!."""
    for p in btalg._SPECIALIZE_PRIMES:
        for v0 in (Fraction(p + 1), Fraction(1, p - 1)):
            assert btalg._closure_rank_modp(m, v0, p) == factorial(m)


def test_model_dimension_formula():
    for m in (2, 3, 4):
        assert len(basis_pairs(m)) == factorial(m) * len(all_set_partitions(m))


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
    rhs = BTElement.unit(m) + bt_mul(es, BTElement.unit(m) + g).scale(Q - RF.ONE)
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
    assert c_dimension(0) == 1
    assert c_dimension(1) == 3
    assert c_dimension(2) == 20
    assert c_dimension(3) == 217


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
# the J_R e_R decomposition
# ---------------------------------------------------------------------------

def test_jr_span_dims_n2():
    dims = {R: len(jr_span(2, R)) for R in all_set_partitions(3)}
    assert dims[discrete_partition(3)] == 6
    assert dims[partition_from_blocks([(1, 2), (3,)])] == 3
    assert dims[partition_from_blocks([(2, 3), (1,)])] == 3
    assert dims[partition_from_blocks([(1, 3), (2,)])] == 3
    assert dims[partition_from_blocks([(1, 2, 3)])] == 5


def test_jr_literal_span_is_larger_off_intervals():
    R = partition_from_blocks([(1, 3), (2,)])
    assert jr_literal_dimension(2, R) == 6
    assert len(jr_span(2, R)) == 3
    # on interval partitions the literal span IS the summand
    for P in (partition_from_blocks([(1, 2), (3,)]),
              partition_from_blocks([(1, 2, 3)])):
        assert jr_literal_dimension(2, P) == len(jr_span(2, P))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jr_decomposition_direct_and_spanning(n):
    dec = jr_decomposition(n)
    assert dec["direct"] is True
    assert dec["spans_closure"] is True
    assert dec["sum"] == dec["closure_dimension"] == c_dimension(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jr_summands_lie_in_c(n):
    # J_R e_R is inside C(v): jr_decomposition compares dimensions only
    closure = btalg._closure(n)
    for R in all_set_partitions(n + 1):
        for x in jr_span(n, R):
            assert closure.contains(to_vector(x)), (n, R)


def _jr_sum(n: int) -> Echelon:
    """Echelon of the span of every J_R e_R."""
    total = Echelon()
    for R in all_set_partitions(n + 1):
        for x in jr_span(n, R):
            total.insert(to_vector(x))
    return total


def test_membership_of_braid_words():
    rng = random.Random(3)
    for n in (1, 2):
        m = n + 1
        total = _jr_sum(n)
        for _ in range(10):
            word = tuple(rng.choice([1, -1]) * rng.randint(1, n) for _ in range(4))
            x = word_element(word, m)
            assert total.contains(to_vector(x))


# ---------------------------------------------------------------------------
# the Kazhdan-Lusztig lift
# ---------------------------------------------------------------------------

def test_c_simple_pinned_form():
    m = 2
    c = c_simple_bt(1, m)
    P = pair_partition(1, 2, m)
    e, s = identity_perm(m), simple_perm(1, m)
    assert c.coeff((P, e)) == -(V ** -1)
    assert c.coeff((P, s)) == -(V ** -1)
    assert len(c.terms) == 2
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
        assert ech.insert(to_vector(kl_lift(w))) is not None
    assert ech.rank == 24


def test_kl_lift_single_tie_block():
    # every term of c_w carries the same partition: the support blocks of w
    from braidties.coxeter import support_partition

    for w in all_perms(4):
        parts = {P for (P, u) in kl_lift(w).terms}
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


def test_kl_lift_combo_reproduces_element():
    for w in all_perms(3):
        combo = word_combo(kl_lift(w))
        m = len(w)
        acc = BTElement.zero(m)
        for word, coeff in combo.items():
            acc = acc + word_element(word, m).scale(coeff)
        assert acc == kl_lift(w)


def test_word_combo_rejects_elements_outside_c():
    with pytest.raises(ValueError):
        word_combo(e_element(pair_partition(1, 2, 2)))


def test_kl_lift_words_land_in_c_subalgebra():
    total = _jr_sum(2)
    for w in all_perms(3):
        assert total.contains(to_vector(kl_lift(w)))
