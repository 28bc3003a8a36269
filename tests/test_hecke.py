"""Hecke algebra: defining relations, bar involution, Kazhdan-Lusztig basis."""

import random

import pytest

from braidties.coxeter import (
    Perm,
    all_perms,
    all_reflections,
    all_set_partitions,
    perm_inv,
    perm_length,
    perm_mul,
    simple_perm,
)
from braidties.hecke import (
    HeckeElement,
    QPoly,
    a_tilde,
    bar_involution,
    basis_inverse,
    c_expansion,
    c_simple,
    canonical_basis,
    canonical_by_bar,
    hecke_mul,
    kl_table,
    quotient_image,
    tilde_inverse,
)
from braidties.scalars import LaurentPoly

V = LaurentPoly.V
ONE = LaurentPoly.one()


def A(w):
    return HeckeElement.basis(w)


# the recursion-free reference for the Kazhdan-Lusztig table

def kl_from_bar_oracle(x: Perm, w: Perm) -> QPoly:
    """Read P_{x,w} off the oracle element: the Ã_x-coefficient of C_w is
    (-1)^{l(w)-l(x)} v^{l(w)-l(x)} P_{x,w}(v^{-2})."""
    f = canonical_by_bar(w).coeff_tilde(x)
    gap = perm_length(w) - perm_length(x)
    sign = -1 if gap % 2 else 1
    out: QPoly = {}
    for e, c in f.coeffs().items():
        # e = gap - 2k for the q^k term
        k2 = gap - e
        assert k2 >= 0 and k2 % 2 == 0, (x, w, f)
        assert c.denominator == 1
        out[k2 // 2] = sign * int(c)
    return out


def test_quadratic_relation():
    for m in (2, 3, 4):
        for i in range(1, m):
            s = simple_perm(i, m)
            lhs = hecke_mul(A(s), A(s))
            rhs = A(s).scale(V * V - 1) + HeckeElement.unit(m).scale(V * V)
            assert lhs == rhs


def test_braid_relations():
    m = 4
    for i, j in [(1, 2), (2, 3)]:
        si, sj = A(simple_perm(i, m)), A(simple_perm(j, m))
        assert hecke_mul(hecke_mul(si, sj), si) == hecke_mul(hecke_mul(sj, si), sj)
    s1, s3 = A(simple_perm(1, m)), A(simple_perm(3, m))
    assert hecke_mul(s1, s3) == hecke_mul(s3, s1)


def test_basis_product_when_lengths_add():
    m = 4
    for w in all_perms(m):
        for i in range(1, m):
            s = simple_perm(i, m)
            sw = perm_mul(s, w)
            if perm_length(sw) == perm_length(w) + 1:
                assert hecke_mul(A(s), A(w)) == A(sw)


def test_associativity_sampled():
    rng = random.Random(7)
    perms = all_perms(4)
    for _ in range(25):
        a, b, c = (A(rng.choice(perms)) for _ in range(3))
        assert hecke_mul(hecke_mul(a, b), c) == hecke_mul(a, hecke_mul(b, c))


def test_basis_inverse_all_s3_s4():
    for m in (3, 4):
        one = HeckeElement.unit(m)
        for w in all_perms(m):
            assert hecke_mul(A(w), basis_inverse(w)) == one
            assert hecke_mul(basis_inverse(w), A(w)) == one


def test_tilde_inverse_formula_for_simple():
    # Ã_s^{-1} = Ã_s - v + v^{-1}
    m = 3
    for i in (1, 2):
        s = simple_perm(i, m)
        expect = a_tilde(s) + HeckeElement.unit(m).scale(V.inv() - V)
        assert tilde_inverse(s) == expect


def test_bar_is_involution_and_semilinear():
    rng = random.Random(11)
    perms = all_perms(4)
    for _ in range(10):
        x = HeckeElement(4, {rng.choice(perms): LaurentPoly(
            {rng.randint(-3, 3): rng.randint(1, 5)})
            for _ in range(3)})
        y = HeckeElement(4, {rng.choice(perms): ONE + V for _ in range(2)})
        assert bar_involution(bar_involution(x)) == x
        assert bar_involution(x + y) == bar_involution(x) + bar_involution(y)
        assert bar_involution(hecke_mul(x, y)) == hecke_mul(
            bar_involution(x), bar_involution(y))
        a = V * V - 1
        assert bar_involution(x.scale(a)) == bar_involution(x).scale(a.bar())


def test_kl_s3_all_trivial():
    t = kl_table(3)
    assert all(p == {0: 1} for p in t.entries.values())
    # every Bruhat-comparable pair appears
    from braidties.coxeter import bruhat_leq
    n_pairs = sum(1 for w in all_perms(3) for x in all_perms(3)
                  if bruhat_leq(x, w))
    assert len(t.entries) == n_pairs


def test_kl_s4_pinned_values():
    t = kl_table(4)
    x = (1, 3, 2, 4)  # s_2
    w = (3, 4, 1, 2)  # s_2 s_1 s_3 s_2
    assert t.poly(x, w) == {0: 1, 1: 1}
    # the only singular classes in S_4: 3412 and 4231, each with P = 1 + q
    nontriv = {k for k, p in t.entries.items() if p != {0: 1}}
    assert {w_ for _, w_ in nontriv} == {(3, 4, 1, 2), (4, 2, 3, 1)}
    assert len(nontriv) == 6
    assert all(t.entries[k] == {0: 1, 1: 1} for k in nontriv)


def test_kl_degree_bound_and_constant_term():
    t = kl_table(4)
    for (x, w), p in t.entries.items():
        assert p.get(0) == 1  # constant term 1 whenever x <= w
        if x != w:
            assert max(p) <= (perm_length(w) - perm_length(x) - 1) // 2


def test_c_simple_shape():
    m = 3
    for i in (1, 2):
        assert c_simple(i, m) == a_tilde(simple_perm(i, m)) - \
            HeckeElement.unit(m).scale(V)


def test_canonical_bar_invariant_all_s4():
    for w in all_perms(4):
        cw = canonical_basis(w)
        assert bar_involution(cw) == cw
        # coefficient of Ã_w is 1, all lower Ã-coefficients in v*Z[v]
        assert cw.coeff_tilde(w) == ONE
        for y in cw.terms:
            if y == w:
                continue
            f = cw.coeff_tilde(y)
            assert all(e > 0 and c.denominator == 1 for e, c in f.coeffs().items())


def test_canonical_formula_matches_bar_oracle_all_s4():
    for w in all_perms(4):
        assert canonical_basis(w) == canonical_by_bar(w)


def test_bar_oracle_reproduces_recursion_table():
    t = kl_table(4)
    for w in all_perms(4):
        for x in all_perms(4):
            assert kl_from_bar_oracle(x, w) == t.poly(x, w)


def test_c_expansion_integral_and_classical_shape():
    t = kl_table(4)
    seen = 0
    for u in all_perms(4):
        for s in (1, 2, 3):
            sp = simple_perm(s, 4)
            su = perm_mul(sp, u)
            if perm_length(su) <= perm_length(u):
                continue
            gam = c_expansion(s, u)
            assert gam.pop(su) == 1
            for y, g in gam.items():
                # surviving terms have s as a left descent and weight mu(y, u)
                assert perm_length(perm_mul(sp, y)) < perm_length(y)
                assert g == t.mu(y, u)
            seen += 1
    assert seen == 36


def test_mu_symmetry_under_inverse():
    t = kl_table(4)
    for w in all_perms(4):
        for x in all_perms(4):
            assert t.poly(x, w) == t.poly(perm_inv(x), perm_inv(w))


@pytest.mark.slow
def test_kl_s5_degree_bound_and_oracle_sample():
    t = kl_table(5)
    rng = random.Random(3)
    perms = all_perms(5)
    for (x, w), p in t.entries.items():
        assert p.get(0) == 1
        if x != w:
            assert max(p) <= (perm_length(w) - perm_length(x) - 1) // 2
    for _ in range(8):
        w = rng.choice(perms)
        x = rng.choice(perms)
        assert kl_from_bar_oracle(x, w) == t.poly(x, w)


# --- the quotient map E(v) -> H ------------------------------------------

def _quotient_generators(m):
    """The images of g_s (by s), of g_s^{-1} (by -s) and of e_r (by r)."""
    from braidties import btalg
    from braidties.coxeter import pair_partition

    gens = {}
    for i in range(1, m):
        gens[i] = quotient_image(btalg.g_element(simple_perm(i, m)))
        gens[-i] = quotient_image(btalg.g_inverse(i, m))
    for r in all_reflections(m):
        gens[r] = quotient_image(btalg.e_element(pair_partition(*r, m)))
    return gens


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quotient_map_respects_the_presentation(n):
    # every relation `btalg.verify_presentation` checks, evaluated in H on
    # the images of the generators
    from braidties import btalg
    from braidties.coxeter import transposition_perm

    m = n + 1
    one = HeckeElement.unit(m)
    img = _quotient_generators(m)

    def mul(*xs):
        out = one
        for x in xs:
            out = hecke_mul(out, x)
        return out

    def conj(s, r):
        t = perm_mul(perm_mul(s, transposition_perm(*r, m)), s)
        return tuple(sorted(j + 1 for j in range(m) if t[j] != j + 1))

    for i in range(1, m):
        for j in range(i + 1, m):
            gi, gj = img[i], img[j]
            if j == i + 1:
                assert mul(gi, gj, gi) == mul(gj, gi, gj)
            else:
                assert mul(gi, gj) == mul(gj, gi)
    for r1 in all_reflections(m):
        assert mul(img[r1], img[r1]) == img[r1]
        for r2 in all_reflections(m):
            r3 = conj(transposition_perm(*r1, m), r2)
            assert (mul(img[r1], img[r2]) == mul(img[r2], img[r1])
                    == mul(img[r1], img[r3]))
    for i in range(1, m):
        gi, ei = img[i], img[(i, i + 1)]
        for r in all_reflections(m):
            assert mul(gi, img[r]) == mul(img[conj(simple_perm(i, m), r)], gi)
        assert mul(gi, gi) == one + mul(ei, one + gi).scale(V * V - 1)
        a = -gi
        assert not mul(mul(a, a) - one, a + one.scale(V * V))
        assert mul(gi, img[-i]) == one == mul(img[-i], gi)
        assert bar_involution(gi) == img[-i]
    rng = random.Random(2)
    size = len(all_set_partitions(m)) * len(all_perms(m))
    samples = [btalg.BTElement(m, {rng.randrange(size): ONE + V ** k
                                   for k in (-2, 0, 1)}) for _ in range(6)]
    for x in samples:
        assert quotient_image(btalg.bar(x)) == bar_involution(quotient_image(x))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quotient_map_is_multiplicative(n):
    # pi(X b) = pi(X) pi(b) for every generator X (g_s and e_r) and every
    # basis element b = e_P g_w: so the map is an algebra map of E(v)
    from braidties import btalg
    from braidties.coxeter import pair_partition

    m = n + 1
    img = _quotient_generators(m)
    gens = [(btalg.g_element(simple_perm(i, m)), img[i]) for i in range(1, m)]
    gens += [(btalg.e_element(pair_partition(*r, m)), img[r])
             for r in all_reflections(m)]
    assert quotient_image(btalg.BTElement.unit(m)) == HeckeElement.unit(m)
    for P in all_set_partitions(m):
        for w in all_perms(m):
            b = btalg.BTElement.basis(P, w)
            pb = quotient_image(b)
            for x, px in gens:
                assert quotient_image(btalg.bt_mul(x, b)) == hecke_mul(px, pb)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quotient_map_agrees_with_the_word_oracle(n):
    # on every lift c_w and every descent recursion, the image kl-lift
    # reads (membership checked, then the quotient map) equals the word
    # oracle's: the tagged closure's words sent through pi at the trivial
    # character
    from braidties import btalg, cli
    from braidties.coxeter import left_action
    from word_oracle import word_image

    m = n + 1
    seen = 0
    for w in all_perms(m):
        elems = [btalg.kl_lift(w)]
        if perm_length(w) >= 2:
            elems += [btalg.kl_lift_via(w, s) for s in range(1, m)
                      if left_action(m, s)[w][1]]
        for x in elems:
            want = word_image(x)
            assert quotient_image(x) == want
            assert cli._pi_image(x) == want
            seen += 1
    assert seen == {1: 2, 2: 10, 3: 57}[n]
