"""Tests for the finite basic affine space and its operator algebras."""

import doctest
import itertools
import math
import random
from fractions import Fraction

import pytest

import braidties.finite_model as FM
from braidties.coxeter import all_perms
from braidties.finite_model import (
    SmallField, build_model, delta_in_epsilon_span, expected_size_x,
    mat_identity, mat_mul, monodromic_crosscheck, op_es_equals_E,
    op_ks_equals_L, verify_case_values, verify_main_identity)
from braidties.linalg import solve
from braidties.monodromic import torus_character
from braidties.scalars import Cyclotomic


def _assert_report_ok(rep):
    bad = [label for label, ok in rep["checks"] if not ok]
    assert not bad, f"failed checks: {bad}"
    assert rep["ok"]


def test_module_doctests():
    results = doctest.testmod(FM)
    assert results.failed == 0
    assert results.attempted > 0


def test_small_field_gf4():
    F = SmallField(2, 2)
    assert F.size == 4
    for a in range(4):
        for b in range(4):
            assert F.add_t[a][b] == F.add_t[b][a]
            assert F.mul_t[a][b] == F.mul_t[b][a]
    for a in range(1, 4):
        assert F.mul_t[a][F.inv_t[a]] == 1
    assert sorted(F.log[a] for a in range(1, 4)) == [0, 1, 2]
    # Frobenius-invariant trace: over GF(4) inversion is squaring.
    assert all(F.trace[a] == F.trace[F.inv_t[a]] for a in range(1, 4))


def test_small_field_gf8_trace_not_inversion_invariant():
    F = SmallField(2, 3)
    assert any(F.trace[a] != F.trace[F.inv_t[a]] for a in range(1, 8))


def test_small_field_gf9():
    F = SmallField(3, 2)
    assert F.size == 9
    for a in range(1, 9):
        assert F.mul_t[a][F.inv_t[a]] == 1
        assert F.add_t[a][F.neg_t[a]] == 0
    assert all(F.trace[a] in (0, 1, 2) for a in range(9))


@pytest.mark.parametrize("p, m, tail", [
    (2, 2, [1, 1]), (2, 3, [1, 0, 1]), (3, 2, [1, 0]), (2, 4, [1, 0, 0, 1]),
])
def test_field_modulus_is_pinned(p, m, tail):
    # the first monic irreducible x^m + tail, as chosen at commit 3702aad
    # (low degree first); it fixes the encoding of every field element
    F = SmallField.__new__(SmallField)
    F.p, F.m = p, m
    assert F._find_irreducible() == tail


def mat_det(F, A):
    """The Leibniz determinant, a sum over the m! permutations: the
    oracle of the matrix scan."""
    m = len(A)
    mul, add, neg = F.mul_t, F.add_t, F.neg_t
    total = 0
    for perm in itertools.permutations(range(m)):
        term = 1
        for i, j in enumerate(perm):
            term = mul[term][A[i][j]]
            if term == 0:
                break
        if term == 0:
            continue
        inv = sum(1 for i in range(m) for j in range(i + 1, m)
                  if perm[i] > perm[j])
        if inv % 2:
            term = neg[term]
        total = add[total][term]
    return total


def test_matrix_helpers():
    F = SmallField(2, 1)
    I = mat_identity(2)
    a = ((1, 1), (0, 1))
    assert mat_mul(F, a, I) == a
    assert mat_det(F, a) == 1
    b = ((0, 1), (1, 0))
    assert mat_det(F, b) == 1  # -1 = 1 in characteristic 2


# The full-matrix oracle: operators as rows by point, {x: {z: c}} with no
# zero entry and no empty row, multiplied entry by entry.  This is the
# product the model formed before it held operators as base-point rows.

def _sparse_product(N, rows_a, rows_b):
    """The rows of the product of two row-sparse matrices over Q(zeta_N),
    holding the entries whose terms do not cancel.

    Each row of A, and all of B, are brought to one denominator (the lcm
    of their entries'), so that an output entry is a plain sum of integer
    convolutions of numerator vectors, reduced mod Phi_N and
    gcd-normalized once."""
    if any(c.order != N for rows in (rows_a, rows_b)
           for row in rows.values() for c in row.values()):
        raise ValueError("mixing cyclotomic fields of different orders")
    if not rows_a or not rows_b:
        return {}
    width = 2 * len(Cyclotomic.one(N).num) - 1
    den_b = math.lcm(*(c.den for row in rows_b.values()
                       for c in row.values()))
    # per entry of B: its nonzero (index, numerator) pairs over den_b
    scaled_b = {y: [(z, [(j, n * (den_b // c.den))
                         for j, n in enumerate(c.num) if n])
                    for z, c in row.items()]
                for y, row in rows_b.items()}
    out = {}
    for x, row in rows_a.items():
        den_a = math.lcm(*(c.den for c in row.values()))
        acc = {}
        for y, a in row.items():
            brow = scaled_b.get(y)
            if not brow:
                continue
            m = den_a // a.den
            na = [(i, n * m) for i, n in enumerate(a.num) if n]
            for z, nb in brow:
                conv = acc.get(z)
                if conv is None:
                    conv = acc[z] = [0] * width
                for i, p in na:
                    for j, q in nb:
                        conv[i + j] += p * q
        den = den_a * den_b
        out_row = {}
        for z, conv in acc.items():
            c = Cyclotomic.from_convolution(N, conv, den)
            if c:
                out_row[z] = c
        if out_row:
            out[x] = out_row
    return out


def _full_apply(N, rows, vec):
    column = {y: {0: c} for y, c in vec.items()}
    return {x: row[0] for x, row in _sparse_product(N, rows, column).items()}


def _full_sum(N, terms):
    """The rows of the sum of c * A over the pairs (A, c) of terms, for
    rational or cyclotomic c."""
    out = {}
    for rows, c in terms:
        for x, row in rows.items():
            dst = out.setdefault(x, {})
            for z, a in row.items():
                s = dst.get(z, Cyclotomic.zero(N)) + (
                    a * c if isinstance(c, Cyclotomic) else a.scale(c))
                if s:
                    dst[z] = s
                else:
                    dst.pop(z, None)
    return {x: row for x, row in out.items() if row}


def _rand_sparse(rng, N, npoints, density):
    """Random rows by point whose entries mix denominators."""
    phi = len(Cyclotomic.one(N).num)
    rows = {}
    for x in range(npoints):
        for y in range(npoints):
            if rng.random() < density:
                coords = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 12)))
                          if rng.random() < 0.6 else 0 for _ in range(phi)]
                c = Cyclotomic(N, coords)
                if c:
                    rows.setdefault(x, {})[y] = c
    return rows


def _entrywise_product(A, B, N, npoints):
    zero = Cyclotomic.zero(N)
    want = {}
    for x, row in A.items():
        for z in range(npoints):
            acc = zero
            for y, a in row.items():
                b = B.get(y, {}).get(z)
                if b is not None:
                    acc = acc + a * b
            if acc:
                want.setdefault(x, {})[z] = acc
    return want


@pytest.mark.parametrize("N", [1, 3, 4, 8, 20])
def test_sparse_product_and_apply_match_entrywise_definition(N):
    # the oracle's own check: its product and application against the
    # entrywise definition
    rng = random.Random(N)
    zero = Cyclotomic.zero(N)
    for _ in range(8):
        npoints = rng.randint(2, 7)
        A = _rand_sparse(rng, N, npoints, 0.5)
        B = _rand_sparse(rng, N, npoints, 0.5)
        # column y1 of A cancels column y0 against equal rows of B
        y0, y1 = rng.sample(range(npoints), 2)
        if y0 in B:
            B[y1] = dict(B[y0])
        for row in A.values():
            if y0 in row:
                row[y1] = -row[y0]
        assert _sparse_product(N, A, B) == _entrywise_product(A, B, N, npoints)
        vec = dict(_rand_sparse(rng, N, npoints, 0.5).get(0, {}))
        want = {}
        for x, row in A.items():
            acc = zero
            for y, a in row.items():
                if y in vec:
                    acc = acc + a * vec[y]
            if acc:
                want[x] = acc
        assert _full_apply(N, A, vec) == want
    c, d = Cyclotomic.root(N, 1).scale(Fraction(1, 3)), Cyclotomic.root(N, 2)
    A = {0: {0: c, 1: -c}}
    B = {0: {0: d}, 1: {0: d}}
    assert not _sparse_product(N, A, B) and _full_apply(N, A, {0: d, 1: d}) == {}
    with pytest.raises(ValueError):
        _sparse_product(N, A, {0: {0: Cyclotomic.one(N + 1)}})


_TABLES = {}


def _hinv_orbits(model):
    """table[x][z]: the orbit index of the point h_x^-1 z, h_x = x_reps[x],
    by one matrix product per pair."""
    key = (model.n, model.q, model.k)
    if key not in _TABLES:
        F, orbit_of, index = model.F, model.orbit_of, model.coset_index
        _TABLES[key] = [
            [orbit_of[index[mat_mul(F, model.group_inverse(h), g)]]
             for g in model.x_reps] for h in model.x_reps]
    return _TABLES[key]


def _expand(model, A):
    """The rows by point of an element: A[x, z] = A[x0, h_x^-1 z]."""
    rows = {}
    for x, orbits in enumerate(_hinv_orbits(model)):
        row = {z: A.terms[o] for z, o in enumerate(orbits) if o in A.terms}
        if row:
            rows[x] = row
    return rows


def _nonempty(rows):
    return {x: row for x, row in enumerate(rows) if row}


def _u_orbits(model):
    """The left U-orbits of X, by letting every u act on every point."""
    F = model.F
    seen, orbits = set(), []
    for z, g in enumerate(model.x_reps):
        if z not in seen:
            orbit = frozenset(model.coset_index[mat_mul(F, u, g)]
                              for u in model.U_list)
            seen |= orbit
            orbits.append(orbit)
    return orbits


def test_model_sizes():
    assert expected_size_x(1, 2) == 3
    assert expected_size_x(1, 4) == 15
    assert expected_size_x(2, 2) == 21
    assert expected_size_x(2, 4) == 945
    m = build_model(1, 2, 1)
    assert len(m.x_reps) == 3 and len(m.coset_index) == 6
    m = build_model(2, 2, 1)
    assert len(m.x_reps) == 21 and len(m.coset_index) == 168


def test_size_ceiling_enforced():
    with pytest.raises(ValueError):
        build_model(2, 2, 3)  # SL_3(F_8): |X| = 32193


def test_degree_ceiling_keeps_every_tested_configuration():
    # every configuration tier-1 and the benchmark run, and the larger
    # fields of small degree, are built; the others are refused
    for n, q, k in [(1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 2, 2), (1, 5, 1),
                    (1, 7, 1), (1, 8, 1), (1, 2, 3), (1, 9, 1), (1, 3, 2),
                    (1, 11, 1), (1, 13, 1), (1, 16, 1), (1, 2, 4),
                    (1, 25, 1), (1, 27, 1), (2, 2, 1), (2, 3, 1), (2, 2, 2),
                    (2, 4, 1), (3, 2, 1)]:
        FM._refuse_oversized(n, q, k)
    for q in (17, 19, 23, 29, 31):
        with pytest.raises(ValueError, match="degree ceiling"):
            FM._refuse_oversized(1, q, 1)


def test_finite_model_job_builds_one_model(tmp_path):
    from braidties import cli

    build_model.cache_clear()
    out = str(tmp_path / "report.json")
    assert cli.main(["finite-model", "--n", "1", "--q", "4", "--out", out]) == 0
    assert build_model.cache_info().misses == 1


def test_prime_power_q():
    # q = 4, k = 1 builds the same field as q = 2, k = 2
    m = build_model(1, 4, 1)
    assert m.qk == 4 and len(m.x_reps) == 15


def test_main_identity_sl2_f2():
    _assert_report_ok(verify_main_identity(1, 2, 1))


def test_main_identity_sl2_f4():
    _assert_report_ok(verify_main_identity(1, 2, 2))


def test_main_identity_sl3_f2():
    _assert_report_ok(verify_main_identity(2, 2, 1))


def test_main_identity_odd_characteristic():
    # chi(-r) differs from chi(r) here: pins the sign conventions.
    _assert_report_ok(verify_main_identity(1, 3, 1))


def test_op_ks_is_L_s_directly():
    for cfg in [(1, 2, 1), (1, 2, 2), (2, 2, 1)]:
        m = build_model(*cfg)
        assert op_ks_equals_L(m)
        assert op_es_equals_E(m)


def test_delta_in_epsilon_span():
    rep = delta_in_epsilon_span(1, 2, 1)
    assert rep["solved"] and rep["coefficients"] == [1]
    rep = delta_in_epsilon_span(1, 2, 2)
    assert rep["solved"]
    from fractions import Fraction
    assert rep["coefficients"] == [Fraction(1, 3)] * 3
    rep = delta_in_epsilon_span(2, 2, 1)
    assert rep["solved"] and rep["count"] == 1


def _crosscheck(n, q, k, exps):
    """The crosscheck at one character, on the base columns of
    op_ks(i) E_theta that `verify_case_values` forms, as the
    finite-model command hands them over."""
    model = build_model(n, q, k)
    columns = verify_case_values(model)[1]
    return monodromic_crosscheck(
        n, q, k, exps, columns[torus_character(model.qk - 1, exps)])


def test_crosscheck_forms_no_operator_product(monkeypatch):
    """The crosscheck reads the base columns handed to it and multiplies
    no operators itself."""
    model = build_model(1, 2, 2)
    columns = verify_case_values(model)[1]
    calls = []
    mul = FM.SparseOperator.__mul__
    monkeypatch.setattr(FM.SparseOperator, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    for theta, cols in columns.items():
        assert monodromic_crosscheck(1, 2, 2, theta.exponents, cols)["ok"]
    assert calls == []


def test_crosscheck_all_characters_rank_one():
    for exps in [(0, 0), (1, 0), (2, 0)]:
        rep = _crosscheck(1, 2, 2, exps)
        assert rep["ok"], rep
        letter = rep["letters"][0]
        assert letter["inside_circle"] == (exps[0] == exps[1])


def test_crosscheck_kappa_is_real_at_f4():
    # The Gauss sum of the quadratic-free cubic character over GF(4)
    # equals 2, so the per-corner phase is exactly -1.
    rep = _crosscheck(1, 2, 2, (1, 0))
    assert rep["letters"][0]["kappa"] == "-1"
    m = build_model(1, 2, 2)
    G = m.gauss_sum(1, torus_character(3, (1, 0)))
    assert G == Cyclotomic.from_rational(m.N, 2)


def test_crosscheck_requires_square_field():
    with pytest.raises(ValueError):
        monodromic_crosscheck(1, 2, 1, (0, 0), [])


def test_gauss_sum_trivial_character():
    # With the trivial character the Gauss sum collapses to -1.
    for cfg in [(1, 2, 1), (1, 2, 2), (2, 2, 1)]:
        m = build_model(*cfg)
        theta = torus_character(max(m.qk - 1, 1), (0,) * m.m)
        for i in range(1, m.m):
            assert m.gauss_sum(i, theta) == Cyclotomic.from_rational(m.N, -1)


# Reference builders that do not read the model's cached translation table:
# each computes coset_index[rep * g] on its own, the Q_s/U representatives
# and inverses come from a scan of the whole group (the keys of
# coset_index), and the scatter sums add whole operators, as rows by
# point, one at a time.  The model's tables, and the expansions of its
# operators, must equal them.

def _ref_group_inverse(model, g):
    ident = mat_identity(model.m)
    return next(h for h in model.coset_index
                if mat_mul(model.F, g, h) == ident)


def _ref_perm(model, g):
    return tuple(model.coset_index[mat_mul(model.F, rep, g)]
                 for rep in model.x_reps)


def _ref_psi(model):
    F = model.F
    if F.p == 2:
        return [Cyclotomic.from_rational(model.N, (-1) ** F.trace[x])
                for x in range(F.size)]
    step = model.N // F.p
    return [Cyclotomic.root(model.N, step * F.trace[x] % model.N)
            for x in range(F.size)]


def _ref_qs_reps(model, i):
    F, m = model.F, model.m
    seen, reps = set(), []
    for g in model.coset_index:
        ok = all(g[r][c] == 0 for r in range(m) for c in range(r)
                 if not (r == i and c == i - 1))
        if not ok:
            continue
        if any(g[r][r] != 1 for r in range(m) if r not in (i - 1, i)):
            continue
        levi_det = F.add_t[F.mul_t[g[i - 1][i - 1]][g[i][i]]][
            F.neg_t[F.mul_t[g[i - 1][i]][g[i][i - 1]]]]
        if levi_det != 1:
            continue
        x = model.coset_index[g]
        if x in seen:
            continue
        seen.add(x)
        reps.append((g, g[i][i - 1]))
    return reps


def _ref_cell_of(model, i):
    F, ns = model.F, model.simple_n(i)
    found = {}
    for t in model.T_list:
        for u in model.U_list:
            found.setdefault(
                model.coset_index[mat_mul(F, mat_mul(F, t, u), ns)], t)
    return found


def _ref_s_cell_targets(model, i):
    F = model.F
    ns = _ref_group_inverse(model, model.simple_n(i))
    return tuple(frozenset(model.coset_index[mat_mul(F, mat_mul(F, g, u), ns)]
                           for u in model.U_list)
                 for g in model.x_reps)


def _ref_right_translation(model, t):
    one = Cyclotomic.one(model.N)
    perm = _ref_perm(model, t)
    return {perm[x]: {x: one} for x in range(model.size_x)}


def _ref_E_reflection(model, i, j):
    return _full_sum(model.N, [
        (_ref_right_translation(model, model.coroot_torus(i, j, r)), 1)
        for r in range(1, model.F.size)])


def _ref_Psi_s(model, i):
    psi = _ref_psi(model)
    return _full_sum(model.N, [
        (_ref_right_translation(model, model.h_s(i, r)), psi[model.F.inv_t[r]])
        for r in range(1, model.F.size)])


def _ref_R_s(model, i):
    one = Cyclotomic.one(model.N)
    return {x: {y: one for y in targets}
            for x, targets in enumerate(_ref_s_cell_targets(model, i))}


def _ref_op_ks(model, i):
    psi, w = _ref_psi(model), Fraction(1, model.qk)
    rows = {}
    for x, g in enumerate(model.x_reps):
        rows[x] = {model.coset_index[mat_mul(model.F, g, qmat)]:
                   psi[c].scale(w) for qmat, c in _ref_qs_reps(model, i)}
    return rows


def _ref_op_es(model, i):
    one = Cyclotomic.one(model.N)
    rows = {}
    for x, g in enumerate(model.x_reps):
        row = {}
        for r in range(1, model.F.size):
            y = model.coset_index[mat_mul(model.F, g, model.h_s(i, r))]
            row[y] = row[y] + one if y in row else one
        rows[x] = row
    return rows


def _ref_pi_s_projector(model, i):
    from braidties import monodromic

    inside = [theta for theta in model.all_characters()
              if monodromic.simple_in_circle(i, theta)]
    scale = Fraction(1, len(model.T_list))
    one = Cyclotomic.one(model.N)
    terms = []
    for t in model.T_list:
        coeff = Cyclotomic.zero(model.N)
        for theta in inside:
            coeff = coeff + model.theta_value(theta, t).inv()
        perm = _ref_perm(model, t)
        terms.append(({x: {perm[x]: one} for x in range(model.size_x)},
                      coeff.scale(scale)))
    return _full_sum(model.N, terms)


_SMALL = [(1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 2, 2), (1, 5, 1), (1, 7, 1),
          (1, 8, 1), (1, 9, 1), (2, 2, 1)]
_SLOW = [pytest.param((2, 3, 1), marks=pytest.mark.slow)]


def _cfg_id(cfg):
    return "SL%d(F%d^%d)" % (cfg[0] + 1, cfg[1], cfg[2])


@pytest.mark.parametrize("cfg", _SMALL + _SLOW, ids=_cfg_id)
def test_operators_match_reference_builders(cfg):
    model = build_model(*cfg)
    assert [model.psi(a) for a in range(model.qk)] == _ref_psi(model)
    sample = random.Random(0).sample(list(model.coset_index), 5)
    for g in sample + [model.simple_n(i) for i in range(1, model.m)]:
        assert model.group_inverse(g) == _ref_group_inverse(model, g)
    one = Cyclotomic.one(model.N)
    assert _expand(model, model.identity_op()) == {
        x: {x: one} for x in range(model.size_x)}
    for i in range(1, model.m):
        reps, ref = model.qs_reps(i), _ref_qs_reps(model, i)
        assert len(reps) == len(ref) == model.qk ** 2 - 1
        assert ({(model.coset_index[g], c) for g, c in reps}
                == {(model.coset_index[g], c) for g, c in ref})
        ks = _ref_op_ks(model, i)
        assert _nonempty(model.op_ks_rows(i)) == ks
        assert _expand(model, model.op_ks(i)) == ks
        assert _expand(model, model.R_s(i)) == _ref_R_s(model, i)
        assert _expand(model, model.op_es(i)) == _ref_op_es(model, i)
        assert _expand(model, model.Psi_s(i)) == _ref_Psi_s(model, i)
        assert (_expand(model, model.pi_s_projector(i))
                == _ref_pi_s_projector(model, i))
        for r in range(1, model.qk):
            assert _expand(model, model.H_s(i, r)) == _ref_right_translation(
                model, model.h_s(i, r))
        for j in range(i + 1, model.m + 1):
            assert (_expand(model, model.E_reflection(i, j))
                    == _ref_E_reflection(model, i, j))


def _scan_model(model):
    """x_reps and coset_index as a scan of all q^{k m^2} matrices finds
    them: each matrix of determinant one not in a coset met before starts
    the next coset, whose least member is the first one met."""
    F, m = model.F, model.m
    coset_index, x_reps = {}, []
    for flat in itertools.product(range(F.size), repeat=m * m):
        g = tuple(tuple(row) for row in zip(*[iter(flat)] * m))
        if g in coset_index or mat_det(F, g) != 1:
            continue
        coset = {mat_mul(F, g, u) for u in model.U_list}
        x_reps.append(min(coset))
        for member in coset:
            coset_index[member] = len(x_reps) - 1
    return x_reps, coset_index


_LARGER = [pytest.param((2, 3, 1), marks=pytest.mark.slow),
           pytest.param((3, 2, 1), marks=pytest.mark.slow)]


@pytest.mark.parametrize("cfg", _SMALL + _LARGER, ids=_cfg_id)
def test_cells_match_reference_scans(cfg):
    # the cells read off the build, and the root-subgroup gather of R_s
    # (U s^-1 U = U_alpha s^-1 U), against the scans over T x U and U
    model = build_model(*cfg)
    for i in range(1, model.m):
        assert model.cell_of(i) == _ref_cell_of(model, i)
        assert model.s_cell_targets(i) == _ref_s_cell_targets(model, i)


@pytest.mark.parametrize("cfg", _SMALL + _LARGER, ids=_cfg_id)
def test_bruhat_cells_give_the_scanned_cosets(cfg):
    model = build_model(*cfg)
    x_reps, coset_index = _scan_model(model)
    assert model.x_reps == x_reps
    assert model.coset_index == coset_index


@pytest.mark.parametrize("cfg", _SMALL + _LARGER, ids=_cfg_id)
def test_orbits_are_the_left_u_orbits(cfg):
    model = build_model(*cfg)
    orbits = _u_orbits(model)
    assert len(orbits) == len(model.orbit_reps) == (
        math.factorial(model.m) * len(model.T_list))
    assert sorted(map(sorted, orbits)) == sorted(model.orbit_members)
    for o, z in enumerate(model.orbit_reps):
        assert model.orbit_of[z] == o
    assert model.orbit_members[model.orbit_of[model.x0]] == [model.x0]
    for x, t in model.torus_of.items():
        assert model.orbit_members[model.orbit_of[x]] == [x]


_RECORDS = {}


def _recorded_operations(cfg):
    """Every product and permutation product that
    verify_main_identity forms on a fresh model, without repeats, each
    with its result as the model computed it."""
    if cfg in _RECORDS:
        return _RECORDS[cfg]
    seen, records = set(), []

    def key(x):
        if isinstance(x, FM.SparseOperator):
            return frozenset(x.terms.items())
        return tuple(x)

    def record(kind, fn):
        def traced(a, b):
            out = fn(a, b)
            k = (kind, key(a), key(b))
            if k not in seen:
                seen.add(k)
                records.append((kind, a, b, out))
            return out
        return traced

    saved = (FM.SparseOperator.__mul__, FM.perm_then_op, FM.op_then_perm)
    FM.SparseOperator.__mul__ = record("mul", saved[0])
    FM.perm_then_op = record("perm_op", saved[1])
    FM.op_then_perm = record("op_perm", saved[2])
    try:
        build_model.cache_clear()
        assert verify_main_identity(*cfg)["ok"]
    finally:
        FM.SparseOperator.__mul__, FM.perm_then_op, FM.op_then_perm = saved
    model = build_model(*cfg)
    out = []
    for kind, a, b, result in records:
        if kind == "mul":
            full = _sparse_product(model.N, _expand(model, a),
                                   _expand(model, b))
        elif kind == "perm_op":
            rows = _expand(model, b)
            full = {x: rows[y] for x, y in enumerate(a) if y in rows}
        else:
            full = {x: {b[y]: c for y, c in row.items()}
                    for x, row in _expand(model, a).items()}
        out.append((kind, full, result))
    _RECORDS[cfg] = (model, out)
    return _RECORDS[cfg]


_ORACLE = _SMALL + [pytest.param((2, 3, 1), marks=pytest.mark.slow),
                    pytest.param((3, 2, 1), marks=pytest.mark.slow)]


@pytest.mark.parametrize("cfg", _ORACLE, ids=_cfg_id)
def test_row_algebra_equals_full_products(cfg):
    model, records = _recorded_operations(cfg)
    kinds = {kind for kind, _, _ in records}
    assert kinds == {"mul", "perm_op", "op_perm"}
    for kind, full, result in records:
        assert _expand(model, result) == full, kind


@pytest.mark.parametrize("cfg", _ORACLE, ids=_cfg_id)
def test_full_products_are_constant_on_u_orbits(cfg):
    model, records = _recorded_operations(cfg)
    orbits = _u_orbits(model)
    for kind, full, _ in records:
        base = full.get(model.x0, {})
        for orbit in orbits:
            assert len({base.get(z) for z in orbit}) == 1, kind


@pytest.mark.parametrize("cfg", [(2, 2, 1), pytest.param(
    (3, 2, 1), marks=pytest.mark.slow)], ids=_cfg_id)
def test_word_products_are_checked_by_the_oracle(cfg):
    # every word product of verify_word_independence is a recorded one
    model, records = _recorded_operations(cfg)
    results = [result for kind, _, result in records if kind == "mul"]
    checked = 0
    for u in all_perms(model.m):
        words = FM._all_reduced_words(u)
        if len(words) > 1:
            for word in words:
                assert any(FM._word_op(model, word) == r for r in results)
                checked += 1
    assert checked > 0


def _eps(model, theta):
    """eps_theta as a function on points: theta(t) at the point t."""
    return {model.coset_index[t]: model.theta_value(theta, t)
            for t in model.T_list}


@pytest.mark.parametrize("cfg", _SMALL, ids=_cfg_id)
def test_e_theta_is_the_torus_character_sum(cfg):
    model = build_model(*cfg)
    for theta in model.all_characters():
        E = model.E_theta(theta)
        assert _expand(model, E) == _full_sum(model.N, [
            (_ref_right_translation(model, t), model.theta_value(theta, t))
            for t in model.T_list])
        assert model.base_column(E) == _eps(model, theta)


@pytest.mark.parametrize("cfg", _ORACLE, ids=_cfg_id)
def test_read_off_equals_full_application(cfg):
    # (A E_theta) delta_x0, read through the inverse orbits, is A applied
    # to the function eps_theta by the full matrix of A
    model = build_model(*cfg)
    for theta in model.all_characters():
        eps = _eps(model, theta)
        for i in range(1, model.m):
            for A in (model.op_es(i), model.op_ks(i)):
                assert (model.base_column(A * model.E_theta(theta))
                        == _full_apply(model.N, _expand(model, A), eps))


@pytest.mark.parametrize("cfg", _SMALL, ids=_cfg_id)
def test_delta_solve_matches_the_solve_on_points(cfg):
    # the solve on base rows against the solve of sum c_theta eps_theta =
    # delta_x0 on points
    model = build_model(*cfg)
    one = Cyclotomic.one(model.N)
    coeffs = solve([_eps(model, theta) for theta in model.all_characters()],
                   {model.x0: one}, one)
    rep = delta_in_epsilon_span(*cfg)
    assert rep["solved"] and rep["count"] == len(coeffs)
    assert rep["coefficients"] == [
        c.rational_value() if c.is_rational() else c for c in coeffs]


def _swap_first_weyl_reps(monkeypatch):
    """Make the build label the cells of e with the matrix of s_1 and back:
    every coset is still found, but the cell sizes no longer fit l(w)."""
    weyl_rep = FM._weyl_rep

    def swapped(F, w):
        e = tuple(range(len(w)))
        s1 = (1, 0) + e[2:]
        return weyl_rep(F, {e: s1, s1: e}.get(w, w))
    monkeypatch.setattr(FM, "_weyl_rep", swapped)


@pytest.mark.parametrize("cfg", [(1, 3, 1), (2, 2, 1)], ids=_cfg_id)
def test_cell_size_check_catches_a_mislabelled_cell(monkeypatch, cfg):
    _swap_first_weyl_reps(monkeypatch)
    with pytest.raises(ArithmeticError, match="cell sizes"):
        FM.FiniteModel(*cfg)


def test_mislabelled_cell_exits_3_without_output(tmp_path, monkeypatch,
                                                 capsys):
    from braidties import cli

    build_model.cache_clear()
    _swap_first_weyl_reps(monkeypatch)
    out = tmp_path / "report.json"
    try:
        code = cli.main(["finite-model", "--n", "1", "--q", "3",
                         "--out", str(out)])
    finally:
        build_model.cache_clear()
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and "cell sizes" in err
    assert list(tmp_path.iterdir()) == []


def _left_translation_rows(model, g):
    one = Cyclotomic.one(model.N)
    return [{y: one} for y in model.left_translation_perm(g)]


@pytest.mark.parametrize("cfg", [(1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1),
                                 (2, 2, 1)], ids=_cfg_id)
def test_non_equivariant_operators_are_refused(cfg):
    model = build_model(*cfg)
    refused = 0
    for i in range(1, model.m):
        for g in (model.simple_n(i), model.h_s(i, model.F.gen)):
            rows = _left_translation_rows(model, g)
            if model.left_translation_perm(g) == model.translation_perm(
                    model.group_inverse(g)):
                continue  # g is central: x -> g^-1 x is x -> x g^-1
            refused += 1
            with pytest.raises(ArithmeticError):
                model._element(rows)
            with pytest.raises(ArithmeticError):
                FM.perm_then_op(model.left_translation_perm(g),
                                model.op_ks(i))
            with pytest.raises(ArithmeticError):
                FM.op_then_perm(model.op_ks(i),
                                model.left_translation_perm(g))
    assert refused > 0
    # rows that are the base row moved by h_x, f -> f(h_x z) for z outside
    # B/U, but a base row that is not constant on the U-orbit of z
    z = next(z for z in model.orbit_reps
             if len(model.orbit_members[model.orbit_of[z]]) > 1)
    one = Cyclotomic.one(model.N)
    with pytest.raises(ArithmeticError):
        model._element([{y: one} for y in
                        model.translation_perm(model.x_reps[z])])


def test_refused_generator_exits_3_without_output(tmp_path, monkeypatch,
                                                  capsys):
    from braidties import cli

    build_model.cache_clear()
    monkeypatch.setattr(
        FM.FiniteModel, "op_ks_rows",
        lambda self, i: _left_translation_rows(self, self.simple_n(i)))
    out = tmp_path / "report.json"
    try:
        code = cli.main(["finite-model", "--n", "1", "--q", "3",
                         "--out", str(out)])
    finally:
        build_model.cache_clear()
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and "left translations" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.slow
def test_main_identity_sl2_f8():
    _assert_report_ok(verify_main_identity(1, 2, 3))


@pytest.mark.slow
def test_main_identity_sl2_f5():
    _assert_report_ok(verify_main_identity(1, 5, 1))


@pytest.mark.slow
def test_main_identity_sl3_f4():
    _assert_report_ok(verify_main_identity(2, 2, 2))


@pytest.mark.slow
def test_crosscheck_rank_two():
    for exps in [(0, 0, 0), (1, 1, 0), (1, 2, 0)]:
        rep = _crosscheck(2, 2, 2, exps)
        assert rep["ok"], rep


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
