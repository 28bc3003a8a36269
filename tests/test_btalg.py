"""Tests for the braids-and-ties algebra model and its braid-image subalgebra."""

import random
from fractions import Fraction
from math import factorial

import pytest

from braidties.btalg import (
    BTElement,
    bar,
    bt_mul,
    c_dimension,
    c_dimension_report,
    c_simple_bt,
    combo_element,
    e_element,
    g_element,
    g_inverse,
    g_word_inverse,
    basis_pairs,
    jr_decomposition,
    jr_literal_dimension,
    jr_span,
    kl_lift,
    kl_lift_combo,
    kl_lift_via,
    membership_in_jr_sum,
    verify_presentation,
    word_element,
)
from braidties.coxeter import (
    all_perms,
    all_set_partitions,
    bell_number,
    discrete_partition,
    identity_perm,
    pair_partition,
    partition_from_blocks,
    partition_join,
    perm_inv,
    perm_length,
    right_descents,
    simple_perm,
    transposition_perm,
)
from braidties.scalars import RationalFunctionScalar as RF

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

def test_model_dimension_formula():
    for m in (2, 3, 4):
        assert len(basis_pairs(m)) == factorial(m) * bell_number(m)


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


def test_word_inverse_all_s3_s4():
    for m in (3, 4):
        for w in all_perms(m):
            gw = g_element(w)
            gwi = g_word_inverse(w)
            assert bt_mul(gw, gwi) == BTElement.unit(m)
            assert bt_mul(gwi, gw) == BTElement.unit(m)


def test_bar_fixes_e_and_inverts_g():
    m = 3
    for w in all_perms(m):
        assert bar(g_element(w)) == g_word_inverse(perm_inv(w))
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


@pytest.mark.slow
def test_c_dimension_specialized_n4():
    rep = c_dimension_report(4, mode="specialized", seed=7)
    assert rep["dimension"] == 3364
    assert rep["agree"] is True


# ---------------------------------------------------------------------------
# the J_R e_R decomposition
# ---------------------------------------------------------------------------

def test_jr_span_dims_n2():
    dims = {R: jr_span(2, R).dim for R in all_set_partitions(3)}
    assert dims[discrete_partition(3)] == 6
    assert dims[partition_from_blocks([(1, 2), (3,)])] == 3
    assert dims[partition_from_blocks([(2, 3), (1,)])] == 3
    assert dims[partition_from_blocks([(1, 3), (2,)])] == 3
    assert dims[partition_from_blocks([(1, 2, 3)])] == 5


def test_jr_literal_span_is_larger_off_intervals():
    R = partition_from_blocks([(1, 3), (2,)])
    assert jr_literal_dimension(2, R) == 6
    assert jr_span(2, R).dim == 3
    # on interval partitions the literal span IS the summand
    for P in (partition_from_blocks([(1, 2), (3,)]),
              partition_from_blocks([(1, 2, 3)])):
        assert jr_literal_dimension(2, P) == jr_span(2, P).dim


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jr_decomposition_direct_and_spanning(n):
    dec = jr_decomposition(n)
    assert dec["direct"] is True
    assert dec["spans_closure"] is True
    assert dec["sum"] == dec["closure_dimension"] == c_dimension(n)


def test_membership_of_braid_words():
    rng = random.Random(3)
    for n in (1, 2):
        m = n + 1
        for _ in range(10):
            word = tuple(rng.choice([1, -1]) * rng.randint(1, n) for _ in range(4))
            x = word_element(word, m)
            assert membership_in_jr_sum(n, x)


def test_jr_span_specialized_agrees():
    for R in all_set_partitions(3):
        assert jr_span(2, R, mode="specialized").dim == jr_span(2, R).dim


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
    from braidties.btalg import to_vector
    from braidties.linalg import Echelon

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
        combo = kl_lift_combo(w)
        m = len(w)
        acc = BTElement.zero(m)
        for word, coeff in combo.items():
            acc = acc + word_element(word, m).scale(coeff)
        assert acc == kl_lift(w)


def test_word_combo_rejects_elements_outside_c():
    from braidties.btalg import word_combo

    with pytest.raises(ValueError):
        word_combo(e_element(pair_partition(1, 2, 2)))


def test_kl_lift_words_land_in_c_subalgebra():
    for w in all_perms(3):
        assert membership_in_jr_sum(2, kl_lift(w))
