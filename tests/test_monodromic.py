"""Tests for the orbit algebra of torus characters and the word-level
surjections out of the braid-image subalgebra."""

import random
from fractions import Fraction

import pytest

from braidties import btalg, hecke, monodromic as mono
from braidties.coxeter import all_perms, perm_length, perm_mul, simple_perm
from braidties.linalg import Echelon, _acc
from braidties.monodromic import TorusCharacter, orbit_of, pi_L
from braidties.scalars import RationalFunctionScalar as RF

V = RF.V
Q = V * V


# --- characters and their orbit ---------------------------------------

def test_character_normalization():
    t = mono.torus_character(5, (7, 3, 2))
    assert t.exponents == (0, 1, 0)
    assert t.modulus == 5
    assert mono.torus_character(5, (2, 1, 0)) == mono.torus_character(5, (7, 6, 5))


def test_w_act_is_a_left_action():
    rng = random.Random(3)
    m = 4
    perms = all_perms(m)
    for _ in range(40):
        theta = mono.torus_character(4, tuple(rng.randrange(4) for _ in range(m)))
        w1, w2 = rng.choice(perms), rng.choice(perms)
        assert mono.w_act(w1, mono.w_act(w2, theta)) == \
            mono.w_act(perm_mul(w1, w2), theta)


def test_w_circle_trivial_is_all_reflections():
    t = mono.torus_character(3, (0, 0, 0, 0))
    assert mono.w_circle(t) == frozenset(
        (i, j) for i in range(1, 5) for j in range(i + 1, 5))


def test_w_circle_example():
    t = mono.torus_character(3, (1, 1, 0))
    assert mono.w_circle(t) == frozenset({(1, 2)})
    assert mono.simple_in_circle(1, t)
    assert not mono.simple_in_circle(2, t)


def test_w_circle_transport():
    rng = random.Random(9)
    m = 3
    for _ in range(30):
        theta = mono.torus_character(3, tuple(rng.randrange(3) for _ in range(m)))
        w = rng.choice(all_perms(m))
        moved = mono.w_circle(mono.w_act(w, theta))
        expect = frozenset(tuple(sorted((w[i - 1], w[j - 1])))
                           for (i, j) in mono.w_circle(theta))
        assert moved == expect


def test_orbits_partition_all_characters():
    chars = mono.all_characters(3, 3)
    assert len(chars) == 9
    seen = set()
    for t in chars:
        if t in seen:
            continue
        orb = mono.orbit_of(t)
        assert not seen.intersection(orb)
        seen.update(orb)
    assert len(seen) == 9
    orbits = mono.all_orbits(3, 3)
    assert sum(len(orb) for orb in orbits) == 9
    assert {t for orb in orbits for t in orb} == set(chars)


# --- orbit algebra relations ------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_ho_relations(n):
    checks = mono.verify_ho_relations(n, 3)
    bad = [label for label, ok in checks if not ok]
    assert bad == []


def test_idempotents_annihilate_across_corners():
    L = mono.torus_character(3, (1, 0))
    M = mono.torus_character(3, (2, 0))
    assert mono.ho_mul(mono.corner_unit(L), mono.corner_unit(M)).terms == {}
    assert mono.ho_mul(mono.corner_unit(L), mono.corner_unit(L)) == \
        mono.corner_unit(L)


def test_quadratic_outside_circle_squares_to_scalar():
    L = mono.torus_character(3, (1, 0))
    assert not mono.simple_in_circle(1, L)
    x = mono.lmul_As(1, mono.lmul_As(1, mono.corner_unit(L)))
    assert x == mono.corner_unit(L).scale(V * V)


def test_trivial_orbit_matches_hecke():
    assert mono.verify_hecke_comparison(2)


# A_s and the letters written out per term, without the weight tables:
# the reference for the one table-driven loop `_lmul`.

def _ref_lmul_As(i, x):
    s = simple_perm(i, x.m)
    out = {}
    for (w, L), c in x.terms.items():
        sw = perm_mul(s, w)
        if perm_length(sw) > perm_length(w):
            _acc(out, (sw, L), c)
        else:
            _acc(out, (sw, L), c * Q)
            if mono.simple_in_circle(i, mono.w_act(w, L)):
                _acc(out, (w, L), c * (Q - 1))
    return mono.MonodromicElement(x.m, out)


def _ref_letter_action(i, inverse, x):
    inside, outside = {}, {}
    for (w, L), c in x.terms.items():
        if mono.simple_in_circle(i, mono.w_act(w, L)):
            inside[(w, L)] = c
        else:
            outside[(w, L)] = c
    xin = mono.MonodromicElement(x.m, inside)
    xout = mono.MonodromicElement(x.m, outside)
    if inverse:
        part_in = _ref_lmul_As(i, xin).scale(V ** -2)
    else:
        part_in = _ref_lmul_As(i, xin) + xin.scale(RF.ONE - Q)
    part_out = _ref_lmul_As(i, xout).scale(V ** -1)
    return part_in + part_out


@pytest.mark.parametrize("m", [2, 3])
def test_lmul_matches_reference_rule(m):
    rng = random.Random(11 + m)
    perms = all_perms(m)
    for orb in mono.all_orbits(m, 3):
        for _ in range(6):
            x = mono.MonodromicElement(m, {
                (rng.choice(perms), rng.choice(orb)):
                    RF.const(Fraction(rng.randint(-3, 3)))
                    * V ** rng.randint(-2, 2)
                for _ in range(4)})
            for i in range(1, m):
                assert mono.lmul_As(i, x) == _ref_lmul_As(i, x)
                assert mono._lmul(mono._LETTER, i, x) == \
                    _ref_letter_action(i, False, x)
                assert mono._lmul(mono._LETTER_INV, i, x) == \
                    _ref_letter_action(i, True, x)


# --- pi_L on signed generator words ------------------------------------

def test_pi_empty_word_is_corner_unit():
    L = mono.torus_character(3, (2, 1, 0))
    assert mono.pi_L((), L) == mono.corner_unit(L)


def test_pi_inverse_pairs_give_corner_idempotent():
    L0 = mono.torus_character(3, (1, 0, 0))
    for L in mono.orbit_of(L0):
        for i in (1, 2):
            assert mono.pi_L((i, -i), L) == mono.corner_unit(L)
            assert mono.pi_L((-i, i), L) == mono.corner_unit(L)


def test_pi_braid_relation():
    L0 = mono.torus_character(3, (1, 2, 0))
    for L in mono.orbit_of(L0):
        assert mono.pi_L((1, 2, 1), L) == mono.pi_L((2, 1, 2), L)


def test_pi_cubic_relation():
    Q = V * V
    combo = {(1,): RF.ONE, (): Q, (1, 1): -Q}
    for exps in [(0, 0, 0), (1, 0, 0), (1, 2, 0)]:
        L0 = mono.torus_character(3, exps)
        for L in mono.orbit_of(L0):
            assert mono.pi_L((1, 1, 1), L) == mono.pi_of_combo(combo, L)


def test_pi_consistency_small():
    rep = mono.pi_consistency(1, 40, seed=5)
    assert rep["failures"] == 0
    rep = mono.pi_consistency(2, 40, seed=6)
    assert rep["failures"] == 0


def test_pi_trivial_sends_lifts_to_canonical_basis_s3():
    triv = mono.trivial_character(3)
    for w in all_perms(3):
        combo = btalg.word_combo(btalg.kl_lift(w))
        img = mono.hecke_image(mono.pi_of_combo(combo, triv))
        assert img == hecke.canonical_basis(w)


@pytest.mark.slow
def test_pi_trivial_sends_lifts_to_canonical_basis_s4():
    triv = mono.trivial_character(4)
    for w in all_perms(4):
        combo = btalg.word_combo(btalg.kl_lift(w))
        img = mono.hecke_image(mono.pi_of_combo(combo, triv))
        assert img == hecke.canonical_basis(w)


def pi_image_rank(theta: TorusCharacter, max_length: int = 6) -> int:
    """Measured rank of the span of pi_L images of all positive words up
    to the given length (an observation about how much of the orbit
    algebra the braid generators reach)."""
    m = len(theta.exponents)
    orbit = orbit_of(theta)
    index = {(w, L): k for k, (w, L) in enumerate(
        (w, L) for w in all_perms(m) for L in orbit)}
    ech = Echelon()
    words = [()]
    for _ in range(max_length):
        words = [wd + (i,) for wd in words for i in range(1, m)]
        for wd in words:
            vec = {index[k]: c for k, c in pi_L(wd, theta).terms.items()}
            ech.insert(vec)
    return ech.rank


def test_pi_image_rank_fills_corner_column():
    # measured: words reach the whole column H_o 1_L at small rank
    assert pi_image_rank(mono.trivial_character(2), 4) == 2
    assert pi_image_rank(mono.trivial_character(3), 5) == 6
    assert pi_image_rank(mono.torus_character(3, (1, 0, 0)), 5) == 6


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
