"""Tests for the sparse-combination core, the exact echelon and the mod-p
echelon, with the row-at-a-time mod-p engine kept here as its oracle."""

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


# ---------------------------------------------------------------------------
# the exact float64 reduction mod p, and the bounds that keep it exact
# ---------------------------------------------------------------------------

# With 1/p rounded as it is for 1048571, the float quotient can come out one
# too small, which no tried input does at the specialization primes: this
# prime exercises the second correction of the reduction.
_REDUCTION_PRIMES = _SPECIALIZE_PRIMES + (1048571,)


def _reduction_inputs(p):
    """Every k*p + {-1, 0, 1} of either sign within the bound
    |x| <= 2^53 - 2p, for the 200 smallest and the 200 largest k and for
    20 000 random k, plus 20 000 random integers and the bound itself.
    (Past the bound the reduction is not exact: at p = 1048573 it takes
    -(2^53 - 1) to 974845, not 974846.)"""
    rng = random.Random(p)
    top = 2 ** 53 - 2 * p
    kmax = top // p
    ks = [*range(200), *range(kmax - 200, kmax + 1),
          *(rng.randint(1, kmax) for _ in range(20000))]
    vals = {s * (k * p + d) for k in ks for d in (-1, 0, 1) for s in (1, -1)}
    vals.update(rng.randint(-top, top) for _ in range(20000))
    vals.update((top, -top))
    return sorted(v for v in vals if abs(v) <= top)


def _as_rows(vals):
    import numpy as np

    vals = vals + [0] * (-len(vals) % 512)
    A = np.array(vals, dtype=float).reshape(-1, 512)
    assert [int(x) for x in A.ravel()] == vals  # every input exact in float
    return A, vals


@pytest.mark.parametrize("p", _REDUCTION_PRIMES)
def test_float_reduction_matches_integer_mod(p):
    A, vals = _as_rows(_reduction_inputs(p))
    ModPEchelon(512, p)._update(A)
    assert [int(x) for x in A.ravel()] == [v % p for v in vals]


def test_float_reduction_inputs_need_both_corrections():
    """The raw x - p * floor(x * (1/p)) falls below 0 for some inputs and
    reaches p for others, so each correction step is tested."""
    import numpy as np

    low = high = False
    for p in _REDUCTION_PRIMES:
        A, _ = _as_rows(_reduction_inputs(p))
        raw = A - np.floor(A * (1.0 / p)) * p
        low, high = low or bool((raw < 0).any()), high or bool((raw >= p).any())
    assert low and high


@pytest.mark.parametrize("p", _SPECIALIZE_PRIMES)
def test_modp_echelon_refuses_entries_past_the_float_bound(p):
    import numpy as np

    bound = 2 ** 53 - 2 * p
    ech = ModPEchelon(3, p)
    assert ech.add_batch(np.array([[bound, 1.0, -bound]])) == 1
    a = bound % p
    row = [1, pow(a, p - 2, p), (-bound) * pow(a, p - 2, p) % p]
    assert ech.pivots == [0] and ech.E.tolist() == [row]
    for bad in (bound + 1, -bound - 1, 2.0 ** 53, -2.0 ** 53, 2.0 ** 60):
        with pytest.raises(ValueError):
            ech.add_batch(np.array([[0.0, 0.0, float(bad)]]))
        assert ech.pivots == [0] and ech.E.tolist() == [row]
    # an inner dimension past (p-1)^2 * k <= 2^53 - 2p
    k = bound // (p - 1) ** 2 + 1
    with pytest.raises(ValueError):
        ech._update(np.zeros((1, 3)), np.ones((1, k)), np.ones((k, 3)))


# ---------------------------------------------------------------------------
# ModPEchelon against the row-at-a-time engine it replaced
# ---------------------------------------------------------------------------

class _RowAtATimeEchelon:
    """The former `ModPEchelon.add_batch`: each candidate row is reduced
    against E by one product and then, in order, against the rows found
    before it by one masked outer update per row.  A row space has one
    reduced echelon form, and both engines list pivots in the order the
    rows reveal them, so the blocked engine must match it exactly."""

    def __init__(self, ncols, p):
        import numpy as np

        self.p, self.E, self.pivots = p, np.zeros((0, ncols)), []

    def add_batch(self, C):
        import numpy as np

        p = self.p
        C = np.mod(C, p)
        if self.pivots:
            C = np.mod(C - C[:, self.pivots] @ self.E, p)
        new_rows, new_pivs = [], []
        for idx in range(C.shape[0]):
            row = C[idx]
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                continue
            c = int(nz[0])
            row = np.mod(row * pow(int(row[c]), p - 2, p), p)
            rest = C[idx + 1:]
            if rest.shape[0]:
                col = rest[:, c]
                mask = col != 0
                if mask.any():
                    rest[mask] = np.mod(rest[mask] - np.outer(col[mask], row), p)
            new_rows.append(row)
            new_pivs.append(c)
        if not new_rows:
            return 0
        N = np.vstack(new_rows)
        for j in range(1, len(new_pivs)):
            col = N[:j, new_pivs[j]]
            mask = col != 0
            if mask.any():
                N[:j][mask] = np.mod(N[:j][mask] - np.outer(col[mask], N[j]), p)
        if self.pivots:
            coef = self.E[:, new_pivs]
            if np.any(coef):
                self.E = np.mod(self.E - coef @ N, p)
        self.E = np.vstack([self.E, N])
        self.pivots.extend(new_pivs)
        return len(new_pivs)


def _planted_rank_array(rng, nrows, ncols, rank, p):
    """`_planted_rank_rows` in numpy, for batches too large for Python
    loops: a random nrows x rank times rank x ncols product over F_p, with
    zero columns, repeated rows and zero rows mixed in."""
    import numpy as np

    basis = rng.integers(0, p, (rank, ncols)) * (rng.random((rank, ncols)) < 0.8)
    rows = rng.integers(0, p, (nrows, rank)) @ basis % p
    rows[rng.random(nrows) < 0.05] = 0
    repeat = np.flatnonzero(rng.random(nrows) < 0.1)
    rows[repeat] = rows[rng.integers(0, nrows, repeat.size)]
    return rows.astype(float)


@pytest.mark.parametrize("p", _SPECIALIZE_PRIMES)
def test_blocked_echelon_matches_row_at_a_time(p):
    """Planted ranks 40..100 in 60..150 columns, the first batch at least
    64 rows so that the row splitting recurses six levels or more."""
    import numpy as np

    rng = np.random.default_rng(p)
    for trial in range(6):
        ncols = int(rng.integers(60, 151))
        rank = int(rng.integers(40, min(ncols, 100) + 1))
        nrows = int(rng.integers(100, 241))
        rows = _planted_rank_array(rng, nrows, ncols, rank, p)
        ech, ref = ModPEchelon(ncols, p), _RowAtATimeEchelon(ncols, p)
        cuts = [0, int(rng.integers(64, nrows)), nrows]
        cuts[2:2] = sorted(rng.integers(cuts[1], nrows, 3).tolist())
        for lo, hi in zip(cuts, cuts[1:]):
            want = ref.add_batch(rows[lo:hi].copy())
            assert ech.add_batch(rows[lo:hi].copy()) == want, trial
            assert ech.pivots == ref.pivots, trial
            assert np.array_equal(ech.E, ref.E), trial
        assert ech.rank >= 40, trial


@pytest.mark.parametrize("n, rank", [(1, 3), (2, 20), (3, 217)])
def test_closure_batches_match_row_at_a_time(n, rank, monkeypatch):
    """Every batch the mod-p closure submits, at the three points of seed
    0 (one per specialization prime), against the row-at-a-time engine;
    the ranks are the paper's dim C(v)."""
    import numpy as np

    from braidties.btalg import _closure_rank_modp, _specialization_points

    blocked = ModPEchelon.add_batch
    refs = {}

    def checked(self, C):
        ref = refs.setdefault(self, _RowAtATimeEchelon(self.ncols, self.p))
        want = ref.add_batch(C.copy())
        assert blocked(self, C) == want
        assert self.pivots == ref.pivots and np.array_equal(self.E, ref.E)
        return want

    monkeypatch.setattr(ModPEchelon, "add_batch", checked)
    points = _specialization_points(0, 3)
    assert sorted(p for _, p in points) == sorted(_SPECIALIZE_PRIMES)
    for v0, p in points:
        assert _closure_rank_modp(n + 1, v0, p) == rank
    assert len(refs) == 3
