"""Tests for the sparse-combination core and the exact echelon."""

import random
from fractions import Fraction

import pytest

from braidties.btalg import (BTElement, bt_mul, g_element, kl_lift, lmul_g,
                             to_vector)
from braidties.coxeter import all_perms, simple_perm
from braidties.finite_model import SparseOperator, build_model
from braidties.hecke import HeckeElement, canonical_basis
from braidties.linalg import Echelon, solve
from braidties.monodromic import MonodromicElement, pi_L, torus_character
from braidties.scalars import Cyclotomic, RationalFunctionScalar as RF


def _samples():
    """One nonzero element of each sparse type, a second one of the same
    space, and the zero scalars to scale by."""
    g1, g2 = g_element(simple_perm(1, 3)), g_element(simple_perm(2, 3))
    L = torus_character(3, (1, 0, 0))
    model = build_model(1, 2, 2)
    return [
        (bt_mul(g1, g1), bt_mul(g1, g2), [RF.ZERO]),
        (canonical_basis((2, 3, 1)), canonical_basis((3, 1, 2)), [RF.ZERO]),
        (pi_L((1, 2, -1), L), pi_L((2, 1), L), [RF.ZERO]),
        (model.L_s(1), model.E_s(1),
         [0, Fraction(0), Cyclotomic.zero(model.N)]),
    ]


@pytest.mark.parametrize("x, y, zeros", _samples(),
                         ids=["BTElement", "HeckeElement", "MonodromicElement",
                              "SparseOperator"])
def test_cancellation_stores_no_zeros(x, y, zeros):
    cls = type(x)
    zero = cls.zero(getattr(x, cls._ambient))
    assert x and x.terms and not zero
    for z in (x + (-x), x - x, (x + y) - y - x, -(y - x) + y - x):
        assert not z
        assert z.terms == {}
        assert z == zero
    assert (x + y) - y == x and x - (x - y) == y
    for a in zeros:
        scaled = x.scale(a)
        assert scaled.terms == {} and scaled == zero


def test_element_types_do_not_compare_across_spaces():
    assert HeckeElement.zero(2) != HeckeElement.zero(3)
    assert BTElement.unit(2) != HeckeElement.unit(2)
    assert MonodromicElement.zero(2) == MonodromicElement(2, {})
    one = Cyclotomic.one(1)
    assert SparseOperator.identity(1, 2) == SparseOperator(
        1, {0: {0: one}, 1: {1: one}})


def _closure_vectors(m):
    """Every vector the closure of span{1} under the g_s offers to the
    echelon, in the order offered."""
    ech = Echelon()
    unit = BTElement.unit(m)
    offered = [unit]
    ech.insert(to_vector(unit))
    frontier = [unit]
    while frontier:
        new = []
        for x in frontier:
            for i in range(1, m):
                y = lmul_g(i, x)
                offered.append(y)
                if ech.insert(to_vector(y)) is not None:
                    new.append(y)
        frontier = new
    return offered


def test_tagged_echelon_matches_untagged_on_s3_closure():
    elems = _closure_vectors(3)
    plain, tagged = Echelon(), Echelon()
    pivots = [plain.insert(to_vector(x)) for x in elems]
    tagged_pivots = [tagged.insert(to_vector(x), {j: RF.ONE})
                     for j, x in enumerate(elems)]
    assert pivots == tagged_pivots
    assert plain.rank == tagged.rank == 20
    assert plain.rows == tagged.rows


def test_combination_reconstructs_the_vector():
    elems = _closure_vectors(3)
    ech = Echelon()
    for j, x in enumerate(elems):
        ech.insert(to_vector(x), {j: RF.ONE})
    for w in all_perms(3):
        target = kl_lift(w)
        combo = ech.combination(to_vector(target))
        assert combo is not None
        total = BTElement.zero(3)
        for j, c in combo.items():
            total = total + elems[j].scale(c)
        assert total == target
    assert ech.combination({10 ** 6: RF.ONE}) is None


def test_echelon_ignores_zero_entries():
    e = Echelon()
    assert e.insert({0: Fraction(0), 1: Fraction(3)}) == 1
    assert e.insert({0: Fraction(0)}) is None
    assert e.contains({1: Fraction(5), 2: Fraction(0)})
    assert e.rows == {1: {}}


def _rand_cyc(rng, N):
    phi = len(Cyclotomic.one(N).num)
    return Cyclotomic(N, [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5)))
                          for _ in range(phi)])


def test_solve_random_nonsingular_cyclotomic_system():
    rng = random.Random(7)
    N, n = 5, 4
    one, zero = Cyclotomic.one(N), Cyclotomic.zero(N)
    for _ in range(3):
        # A = lower unitriangular times upper with nonzero diagonal
        low = [[one if i == j else (_rand_cyc(rng, N) if j < i else zero)
                for j in range(n)] for i in range(n)]
        up = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                c = _rand_cyc(rng, N)
                while i == j and not c:
                    c = _rand_cyc(rng, N)
                up[i][j] = c
        A = [[sum((low[i][t] * up[t][j] for t in range(n)), zero)
              for j in range(n)] for i in range(n)]
        b = [_rand_cyc(rng, N) for _ in range(n)]
        columns = [{i: A[i][j] for i in range(n)} for j in range(n)]
        x = solve(columns, {i: b[i] for i in range(n)}, one)
        for i in range(n):
            assert sum((A[i][j] * x[j] for j in range(n)), zero) == b[i]


def test_solve_rejects_singular_and_inconsistent_systems():
    F = Fraction
    a, b = {0: F(1), 1: F(2), 2: F(0)}, {0: F(0), 1: F(1), 2: F(1)}
    with pytest.raises(ValueError, match="singular"):
        solve([a, b, {0: F(1), 1: F(3), 2: F(1)}], {0: F(1)}, F(1))
    with pytest.raises(ValueError, match="inconsistent"):
        solve([a, b], {2: F(1), 0: F(1)}, F(1))
    assert solve([a, b], {0: F(2), 1: F(5), 2: F(1)}, F(1)) == [F(2), F(1)]
