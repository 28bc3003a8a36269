"""Tests for the sparse-combination core and the exact echelon, over the
rationals, Q(v), cyclotomic fields and F_p, with a Gauss-Jordan
elimination on Python ints as the F_p oracle."""

import random
from fractions import Fraction

import pytest

from braidties.btalg import (_SPECIALIZE_PRIMES, BTElement, bt_mul,
                             g_element, kl_lift, lmul_g, to_vector)
from braidties.coxeter import all_perms, simple_perm
from braidties.finite_model import SparseOperator, build_model
from braidties.hecke import HeckeElement, canonical_basis
from braidties.linalg import Echelon, _axpy, solve
from braidties.monodromic import MonodromicElement, pi_L, torus_character
from braidties.scalars import Cyclotomic, ModP, RationalFunctionScalar as RF


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
    # an operator's space is its model: F_4 as 4^1 and as 2^2 give equal
    # base rows in two models
    a, b = build_model(1, 4, 1), build_model(1, 2, 2)
    one = Cyclotomic.one(a.N)
    assert a.identity_op() == SparseOperator(a, {a.orbit_of[a.x0]: one})
    assert a.identity_op().terms == b.identity_op().terms
    assert a.identity_op() != b.identity_op()


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
# Echelon over F_p against a pure-Python elimination over F_p
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


@pytest.mark.parametrize("p", _SPECIALIZE_PRIMES + (7,))
def test_modp_echelon_matches_integer_elimination(p):
    """`Echelon` over `ModP.field(p)` keeps the one reduced row echelon
    form of the rows inserted, every stored entry a nonzero F_p value."""
    F = ModP.field(p)
    rng = random.Random(p)
    for trial in range(12):
        ncols = rng.randint(1, 30)
        rank = rng.randint(0, min(ncols, 12))
        nrows = rng.randint(0, 25)
        rows = _planted_rank_rows(rng, nrows, ncols, rank, p)
        ech = Echelon()
        gained = sum(ech.insert({j: F(x) for j, x in enumerate(row)})
                     is not None for row in rows)
        pivots, ref_rows = _rref_mod_p(rows, ncols, p)
        assert ech.rank == gained == len(pivots), trial
        assert sorted(ech.rows) == pivots, trial
        stored = [x for row in ech.rows.values() for x in row.values()]
        assert all(type(x) is F and 0 < x < p for x in stored), trial
        dense = [[1 if j == c else int(ech.rows[c].get(j, 0))
                  for j in range(ncols)] for c in pivots]
        assert dense == ref_rows, trial


class _RowAtATimeModP:
    """A semi-echelon basis of integer rows over F_p, built one row at a
    time: each stored row is keyed by its lowest column, and an incoming
    row is cleared at its lowest stored column until none is left.  The
    pivot columns of a row space do not depend on how it is reduced, so
    each row's new pivot must be the one `Echelon` reports."""

    def __init__(self, p):
        self.p, self.rows = p, {}

    def reduce(self, vec):
        p = self.p
        row = {c: x % p for c, x in vec.items() if x % p}
        while hit := [c for c in row if c in self.rows]:
            c = min(hit)
            f = row[c]
            for j, y in self.rows[c].items():
                x = (row.get(j, 0) - f * y) % p
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
        return row

    def insert(self, vec):
        row = self.reduce(vec)
        if not row:
            return None
        pivot = min(row)
        inv = pow(row[pivot], -1, self.p)
        self.rows[pivot] = {j: x * inv % self.p for j, x in row.items()}
        return pivot


@pytest.mark.parametrize("p", _SPECIALIZE_PRIMES)
def test_blocked_echelon_matches_row_at_a_time(p):
    """Planted ranks 20..40 in 30..60 columns, inserted into `Echelon`
    over F_p in blocks of rows: each insert reports the pivot of the
    row-at-a-time elimination, and after each block the pivots and rows
    are the Gauss-Jordan form of every row so far."""
    F = ModP.field(p)
    rng = random.Random(p)
    for trial in range(4):
        ncols = rng.randint(30, 60)
        rank = rng.randint(20, min(ncols, 40))
        nrows = rng.randint(40, 90)
        rows = _planted_rank_rows(rng, nrows, ncols, rank, p)
        ech, ref, ref_rows = Echelon(), _RowAtATimeModP(p), []
        cuts = sorted({0, nrows, *(rng.randint(1, nrows) for _ in range(3))})
        for lo, hi in zip(cuts, cuts[1:]):
            for row in rows[lo:hi]:
                vec = dict(enumerate(row))
                assert (ech.insert({j: F(x) for j, x in vec.items()})
                        == ref.insert(vec)), trial
            pivots, ref_rows = _rref_mod_p(ref_rows + rows[lo:hi], ncols, p)
            assert sorted(ech.rows) == sorted(ref.rows) == pivots, trial
            dense = [[1 if j == c else int(ech.rows[c].get(j, 0))
                      for j in range(ncols)] for c in pivots]
            assert dense == ref_rows, trial
        assert ech.rank >= 20, trial


@pytest.mark.parametrize("n, rank", [(1, 3), (2, 20), (3, 217)])
def test_closure_batches_match_row_at_a_time(n, rank, monkeypatch):
    """Every row the mod-p closure inserts, at the three points of seed 0
    (one per specialization prime), against the row-at-a-time elimination
    on Python ints: the same pivot or the same dependence at each insert,
    and the same row space at the end; the ranks are the paper's dim C(v)."""
    from braidties import btalg

    class Checked(Echelon):
        def __init__(self, p):
            super().__init__()
            self.ref = _RowAtATimeModP(p)

        def insert(self, vec, tag=None):
            pivot = super().insert(vec, tag)
            assert pivot == self.ref.insert({c: int(x) for c, x in vec.items()})
            return pivot

    points = btalg._specialization_points(0, 3)
    assert sorted(p for _, p in points) == sorted(_SPECIALIZE_PRIMES)
    for v0, p in points:
        made = []
        monkeypatch.setattr(btalg, "Echelon",
                            lambda: made.append(Checked(p)) or made[-1])
        assert btalg._closure_rank_modp(n + 1, v0, p) == rank
        (ech,) = made
        assert sorted(ech.rows) == sorted(ech.ref.rows)
        for c, row in ech.rows.items():
            vec = {j: int(x) for j, x in row.items()}
            assert not ech.ref.reduce({**vec, c: 1})


def _holders_by_scan(ech):
    """Column -> set of pivots whose stored row holds that column."""
    out = {}
    for pivot, row in ech.rows.items():
        for c in row:
            out.setdefault(c, set()).add(pivot)
    return out


def _cancelling_rows(rng, nrows, ncols):
    """Integer rows with entries in -2..2, a third of them sums or
    differences of two earlier rows with one entry changed, so that
    entries cancel both in reduction and in back-substitution."""
    rows = []
    for _ in range(nrows):
        if len(rows) > 1 and rng.random() < 0.35:
            a, b = rng.sample(rows, 2)
            sign = rng.choice((1, -1))
            row = [x + sign * y for x, y in zip(a, b)]
            row[rng.randrange(ncols)] += rng.choice((1, -1))
        else:
            row = [rng.choice((-2, -1, 0, 0, 0, 1, 2)) for _ in range(ncols)]
        rows.append(row)
    return rows


def _as_mod_p(x, p):
    return x.numerator * pow(x.denominator, -1, p) % p


@pytest.mark.parametrize("field", ["Fraction", "F7", "F1048573"])
@pytest.mark.parametrize("tagged", [False, True], ids=["untagged", "tagged"])
def test_holder_index_tracks_stored_rows(field, tagged):
    """After every insert, `holders[c]` is exactly the set of stored rows
    holding column c (an empty set where none does), no pivot column has
    holders, entries do cancel along the way, and the rows are the
    Gauss-Jordan form over F_p (for Fraction, of its image mod p); tagged
    rows are the combination of inserted vectors their tags name."""
    p = 1048573 if field == "Fraction" else int(field[1:])
    F = Fraction if field == "Fraction" else ModP.field(p)
    rng = random.Random(f"{field} {tagged}")
    dropped = 0
    for trial in range(15):
        ncols = rng.randint(4, 16)
        rows = _cancelling_rows(rng, rng.randint(3, 30), ncols)
        vecs = [{j: F(x) for j, x in enumerate(row)} for row in rows]
        ech = Echelon()
        for k, vec in enumerate(vecs):
            before = {c: set(s) for c, s in ech.holders.items()}
            pivot = ech.insert(vec, {k: F(1)} if tagged else None)
            want = _holders_by_scan(ech)
            assert not set(ech.holders) & set(ech.rows), trial
            for c in set(want) | set(ech.holders):
                assert ech.holders.get(c, set()) == want.get(c, set()), trial
            dropped += sum(bool(s - ech.holders.get(c, set()))
                           for c, s in before.items() if c != pivot)
        pivots, ref_rows = _rref_mod_p(rows, ncols, p)
        assert sorted(ech.rows) == pivots, trial
        dense = [[1 if j == c else _as_mod_p(F(ech.rows[c].get(j, 0)), p)
                  for j in range(ncols)] for c in pivots]
        assert dense == ref_rows, trial
        for c, tag in (ech.tags.items() if tagged else ()):
            total = {}
            for k, a in tag.items():
                _axpy(total, {j: x for j, x in vecs[k].items() if x}, a)
            assert total == {**ech.rows[c], c: F(1)}, trial
    assert dropped > 0
