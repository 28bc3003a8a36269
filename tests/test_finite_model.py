"""Tests for the finite basic affine space and its operator algebras."""

import doctest
import random
from fractions import Fraction

import pytest

import braidties.finite_model as FM
from braidties.finite_model import (
    SmallField, build_model, delta_in_epsilon_span, expected_size_x,
    mat_det, mat_identity, mat_mul, monodromic_crosscheck, op_es_equals_E,
    op_ks_equals_L, verify_main_identity)
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


def test_matrix_helpers():
    F = SmallField(2, 1)
    I = mat_identity(2)
    a = ((1, 1), (0, 1))
    assert mat_mul(F, a, I) == a
    assert mat_det(F, a) == 1
    b = ((0, 1), (1, 0))
    assert mat_det(F, b) == 1  # -1 = 1 in characteristic 2


def _rand_sparse(rng, N, npoints, density):
    """Random row-sparse operator whose entries mix denominators."""
    phi = len(Cyclotomic.one(N).num)
    rows = {}
    for x in range(npoints):
        for y in range(npoints):
            if rng.random() < density:
                coords = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 12)))
                          if rng.random() < 0.6 else 0 for _ in range(phi)]
                rows.setdefault(x, {})[y] = Cyclotomic(N, coords)
    return FM.SparseOperator(N, rows)


def _entrywise_product(A, B, npoints):
    zero = Cyclotomic.zero(A.N)
    want = {}
    for x, row in A.rows.items():
        for z in range(npoints):
            acc = zero
            for y, a in row.items():
                b = B.rows.get(y, {}).get(z)
                if b is not None:
                    acc = acc + a * b
            if acc:
                want.setdefault(x, {})[z] = acc
    return want


@pytest.mark.parametrize("N", [1, 3, 4, 8, 20])
def test_sparse_product_and_apply_match_entrywise_definition(N):
    rng = random.Random(N)
    zero = Cyclotomic.zero(N)
    for _ in range(8):
        npoints = rng.randint(2, 7)
        A = _rand_sparse(rng, N, npoints, 0.5)
        B = _rand_sparse(rng, N, npoints, 0.5)
        # column y1 of A cancels column y0 against equal rows of B
        y0, y1 = rng.sample(range(npoints), 2)
        if y0 in B.rows:
            B.rows[y1] = dict(B.rows[y0])
        for row in A.rows.values():
            if y0 in row:
                row[y1] = -row[y0]
        assert (A * B).rows == _entrywise_product(A, B, npoints)
        vec = {y: c for y, c in _rand_sparse(rng, N, npoints, 0.5).rows.get(
            0, {}).items()}
        want = {}
        for x, row in A.rows.items():
            acc = zero
            for y, a in row.items():
                if y in vec:
                    acc = acc + a * vec[y]
            if acc:
                want[x] = acc
        assert A.apply(vec) == want
    c, d = Cyclotomic.root(N, 1).scale(Fraction(1, 3)), Cyclotomic.root(N, 2)
    A = FM.SparseOperator(N, {0: {0: c, 1: -c}})
    B = FM.SparseOperator(N, {0: {0: d}, 1: {0: d}})
    assert not (A * B) and A.apply({0: d, 1: d}) == {}
    with pytest.raises(ValueError):
        A * FM.SparseOperator(N, {0: {0: Cyclotomic.one(N + 1)}})

def test_model_sizes():
    assert expected_size_x(1, 2) == 3
    assert expected_size_x(1, 4) == 15
    assert expected_size_x(2, 2) == 21
    assert expected_size_x(2, 4) == 945
    m = build_model(1, 2, 1)
    assert len(m.x_reps) == 3 and len(m.group) == 6
    m = build_model(2, 2, 1)
    assert len(m.x_reps) == 21 and len(m.group) == 168


def test_size_ceiling_enforced():
    with pytest.raises(ValueError):
        build_model(2, 2, 3)  # SL_3(F_8): |X| = 32193


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


def test_crosscheck_all_characters_rank_one():
    for exps in [(0, 0), (1, 0), (2, 0)]:
        rep = monodromic_crosscheck(1, 2, 2, exps)
        assert rep["ok"], rep
        letter = rep["letters"][0]
        assert letter["inside_circle"] == (exps[0] == exps[1])


def test_crosscheck_kappa_is_real_at_f4():
    # The Gauss sum of the quadratic-free cubic character over GF(4)
    # equals 2, so the per-corner phase is exactly -1.
    rep = monodromic_crosscheck(1, 2, 2, (1, 0))
    assert rep["letters"][0]["kappa"] == "-1"
    m = build_model(1, 2, 2)
    from braidties.monodromic import torus_character
    G = m.gauss_sum(1, torus_character(3, (1, 0)))
    assert G == Cyclotomic.from_rational(m.N, 2)


def test_crosscheck_requires_square_field():
    with pytest.raises(ValueError):
        monodromic_crosscheck(1, 2, 1, (0, 0))


def test_gauss_sum_trivial_character():
    # With the trivial character the Gauss sum collapses to -1.
    for cfg in [(1, 2, 1), (1, 2, 2), (2, 2, 1)]:
        m = build_model(*cfg)
        from braidties.monodromic import trivial_character
        theta = trivial_character(m.m, max(m.qk - 1, 1))
        for i in range(1, m.m):
            assert m.gauss_sum(i, theta) == Cyclotomic.from_rational(m.N, -1)


# Reference builders that do not read the model's cached translation table:
# each computes coset_index[rep * g] on its own, the Q_s/U representatives
# come from a scan of the whole group, and the scatter sums add whole
# operators one at a time.  The model's tables and operators must equal them.

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
    for g in model.group:
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
    ns = model.group_inverse(model.simple_n(i))
    return tuple(frozenset(model.coset_index[mat_mul(F, mat_mul(F, g, u), ns)]
                           for u in model.U_list)
                 for g in model.x_reps)


def _ref_right_translation(model, t):
    one = Cyclotomic.one(model.N)
    perm = _ref_perm(model, t)
    return FM.SparseOperator(model.N,
                             {perm[x]: {x: one} for x in range(model.size_x)})


def _ref_E_reflection(model, i, j):
    out = FM.SparseOperator.zero(model.N)
    for r in range(1, model.F.size):
        out = out + _ref_right_translation(model, model.coroot_torus(i, j, r))
    return out


def _ref_Psi_s(model, i):
    psi = _ref_psi(model)
    out = FM.SparseOperator.zero(model.N)
    for r in range(1, model.F.size):
        out = out + _ref_right_translation(model, model.h_s(i, r)).scale(
            psi[model.F.inv_t[r]])
    return out


def _ref_op_ks(model, i):
    psi, w = _ref_psi(model), Fraction(1, model.qk)
    rows = {}
    for x, g in enumerate(model.x_reps):
        rows[x] = {model.coset_index[mat_mul(model.F, g, qmat)]:
                   psi[c].scale(w) for qmat, c in _ref_qs_reps(model, i)}
    return FM.SparseOperator(model.N, rows)


def _ref_op_es(model, i):
    one = Cyclotomic.one(model.N)
    rows = {}
    for x, g in enumerate(model.x_reps):
        row = {}
        for r in range(1, model.F.size):
            y = model.coset_index[mat_mul(model.F, g, model.h_s(i, r))]
            row[y] = row[y] + one if y in row else one
        rows[x] = row
    return FM.SparseOperator(model.N, rows)


def _ref_pi_s_projector(model, i):
    from braidties import monodromic

    inside = [theta for theta in model.all_characters()
              if monodromic.simple_in_circle(i, theta)]
    scale = Fraction(1, len(model.T_list))
    out = FM.SparseOperator.zero(model.N)
    for t in model.T_list:
        coeff = Cyclotomic.zero(model.N)
        for theta in inside:
            coeff = coeff + model.theta_value(theta, t).inv()
        perm = _ref_perm(model, t)
        out = out + FM.SparseOperator(
            model.N, {x: {perm[x]: coeff.scale(scale)}
                      for x in range(model.size_x)})
    return out


@pytest.mark.parametrize("cfg", [
    (1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 2, 2), (1, 5, 1), (1, 7, 1),
    (1, 8, 1), (1, 9, 1), (2, 2, 1),
    pytest.param((2, 3, 1), marks=pytest.mark.slow),
], ids=lambda cfg: "SL%d(F%d^%d)" % (cfg[0] + 1, cfg[1], cfg[2]))
def test_operators_match_reference_builders(cfg):
    model = build_model(*cfg)
    assert [model.psi(a) for a in range(model.qk)] == _ref_psi(model)
    for i in range(1, model.m):
        reps, ref = model.qs_reps(i), _ref_qs_reps(model, i)
        assert len(reps) == len(ref) == model.qk ** 2 - 1
        assert ({(model.coset_index[g], c) for g, c in reps}
                == {(model.coset_index[g], c) for g, c in ref})
        assert model.cell_of(i) == _ref_cell_of(model, i)
        assert model.s_cell_targets(i) == _ref_s_cell_targets(model, i)
        assert model.op_ks(i) == _ref_op_ks(model, i)
        assert model.op_es(i) == _ref_op_es(model, i)
        assert model.Psi_s(i) == _ref_Psi_s(model, i)
        assert model.pi_s_projector(i) == _ref_pi_s_projector(model, i)
        for r in range(1, model.qk):
            assert model.H_s(i, r) == _ref_right_translation(
                model, model.h_s(i, r))
        for j in range(i + 1, model.m + 1):
            assert model.E_reflection(i, j) == _ref_E_reflection(model, i, j)


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
        rep = monodromic_crosscheck(2, 2, 2, exps)
        assert rep["ok"], rep


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
