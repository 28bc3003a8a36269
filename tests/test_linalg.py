"""Tests for the sparse-combination core, the exact echelon and the mod-p
echelon."""

import random
from fractions import Fraction

import pytest

from braidties.btalg import (_SPECIALIZE_PRIMES, BTElement, bt_mul,
                             g_element, kl_lift, lmul_g, to_vector)
from braidties.coxeter import all_perms, simple_perm
from braidties.finite_model import SparseOperator, build_model
from braidties.hecke import HeckeElement, canonical_basis
from braidties.linalg import Echelon, ModPEchelon, solve
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


# ---------------------------------------------------------------------------
# ModPEchelon against a pure-Python elimination over F_p
# ---------------------------------------------------------------------------

def _rref_mod_p(rows, ncols, p):
    """(pivot columns, nonzero rows) of the reduced row echelon form of
    integer rows over F_p, by Gauss-Jordan elimination on Python ints."""
    rows = [[x % p for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots, rows[:len(pivots)]


def _planted_rank_rows(rng, nrows, ncols, rank, p):
    """nrows random rows over F_p spanning a space of dimension at most
    rank: products of random nrows x rank and rank x ncols factors, with
    zero columns, repeated rows and zero rows mixed in."""
    basis = [[rng.randrange(p) if rng.random() < 0.8 else 0
              for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.1:
            rows.append(list(rng.choice(rows)))
            continue
        coef = [rng.randrange(p) for _ in range(rank)]
        rows.append([sum(a * b[j] for a, b in zip(coef, basis)) % p
                     for j in range(ncols)])
    return rows


@pytest.mark.parametrize("p", _SPECIALIZE_PRIMES)
def test_modp_echelon_matches_integer_elimination(p):
    import numpy as np

    rng = random.Random(p)
    for trial in range(12):
        ncols = rng.randint(1, 30)
        rank = rng.randint(0, min(ncols, 12))
        nrows = rng.randint(0, 25)
        rows = _planted_rank_rows(rng, nrows, ncols, rank, p)
        ech = ModPEchelon(ncols, p)
        start, gained = 0, 0
        while start < nrows:
            stop = rng.randint(start + 1, nrows)
            gained += ech.add_batch(np.array(rows[start:stop], dtype=float))
            start = stop
        pivots, ref_rows = _rref_mod_p(rows, ncols, p)
        assert ech.rank == gained == len(pivots), trial
        assert sorted(ech.pivots) == pivots, trial
        E = ech.E
        assert E.shape == (len(pivots), ncols)
        assert np.array_equal(E[:, ech.pivots], np.eye(len(pivots)))
        stored = [[int(x) for x in row] for row in E]
        assert all(0 <= x < p for row in stored for x in row)
        # the same row space: equal reduced row echelon forms
        assert _rref_mod_p(stored, ncols, p) == (pivots, ref_rows), trial


@pytest.mark.parametrize("p", _SPECIALIZE_PRIMES)
def test_modp_echelon_refuses_inexact_widths(p):
    widest = (2 ** 53 - 1) // (p - 1) ** 2
    assert ModPEchelon(widest, p).ncols == widest
    with pytest.raises(ValueError):
        ModPEchelon(widest + 1, p)
