"""Acceptance suite: one test, and one printed pass/fail line, per
criterion.  Each test measures its own runtime against the stated
budget and pins exact expected values; nothing here is approximate."""

import json
import time

import pytest

from braidties import btalg, cli, hecke, monodromic
from braidties.coxeter import (all_perms, dim_C, dimension_rows,
                               perm_length, perm_mul, simple_perm)
from braidties.finite_model import (delta_in_epsilon_span,
                                    monodromic_crosscheck,
                                    verify_main_identity)
from braidties.monodromic import trivial_character

DIMENSION_SEQUENCE = (1, 3, 20, 217, 3364, 71098, 1960867, 67886033,
                      2871659468, 145498348666, 8683447971439,
                      601843453126056, 47875219836485209)

# published per-class tables: subset -> (N_I, R_I, D_I); the n = 2 row
# for I = {1} is printed there as (3, 2, 3), while the closed forms give
# (2, 3, 3) -- the sole row where the two disagree
FIGURE_TABLES = {
    2: {(1, 2): (6, 1, 5), (1,): (3, 2, 3), (): (6, 1, 6)},
    3: {(1, 2, 3): (24, 1, 23), (1, 2): (6, 4, 20), (1, 3): (8, 3, 6),
        (1,): (4, 6, 12), (): (24, 1, 24)},
    4: {(1, 2, 3, 4): (120, 1, 119), (1, 2, 3): (24, 5, 115),
        (1, 2, 4): (12, 10, 50), (1, 2): (12, 10, 100),
        (1, 3): (8, 15, 30), (1,): (12, 10, 60), (): (120, 1, 120)},
}


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _pi_image(x: btalg.BTElement) -> hecke.HeckeElement:
    combo = btalg.word_combo(x)
    return monodromic.hecke_image(
        monodromic.pi_of_combo(combo, trivial_character(x.m)))


def test_criterion_1_dimension_sequence(tmp_path):
    t0 = time.perf_counter()
    totals = []
    for n in range(13):
        out = tmp_path / f"dim{n}.json"
        code = cli.main(["dim", "--n", str(n), "--out", str(out)])
        assert code == 0
        totals.append(json.loads(out.read_text())["total"])
    elapsed = time.perf_counter() - t0
    ok = tuple(totals) == DIMENSION_SEQUENCE and elapsed < 10.0
    _report(1, ok, f"dim n = 0..12 sequence exact, {elapsed:.2f}s < 10s")


def test_criterion_2_per_row_tables():
    t0 = time.perf_counter()
    mismatches = []
    emitted = {}
    for n, figure in FIGURE_TABLES.items():
        rows = dimension_rows(n)
        assert [r.subset for r in rows] == list(figure), \
            f"row order differs from the published table at n = {n}"
        for r in rows:
            fig_n, fig_r, fig_d = figure[r.subset]
            got = (r.normalizer_order, r.subgroup_count, r.descent_count)
            emitted[(n, r.subset)] = got
            if got != (fig_n, fig_r, fig_d):
                mismatches.append((n, r.subset, got, (fig_n, fig_r, fig_d)))
    elapsed = time.perf_counter() - t0
    unique = mismatches == [(2, (1,), (2, 3, 3), (3, 2, 3))]
    d_all_match = all(got[2] == FIGURE_TABLES[n][sub][2]
                      for (n, sub), got in emitted.items())
    ok = unique and d_all_match and elapsed < 1.0
    _report(2, ok, "tables n = 2, 3, 4 match; unique mismatch is the "
                   f"printed n = 2 row I = (1,), {elapsed:.2f}s < 1s")


def test_criterion_3_rank_crosscheck_exact():
    t0 = time.perf_counter()
    values = [btalg.c_dimension(n, "exact") for n in (1, 2, 3)]
    formulas = [dim_C(n) for n in (1, 2, 3)]
    elapsed = time.perf_counter() - t0
    ok = values == formulas == [3, 20, 217] and elapsed < 120.0
    _report(3, ok, f"closure rank n = 1..3 exact {values}, "
                   f"{elapsed:.1f}s < 120s")


@pytest.mark.slow
def test_criterion_3_rank_crosscheck_specialized():
    t0 = time.perf_counter()
    rep = btalg.c_dimension_report(4, "specialized", seed=0)
    elapsed = time.perf_counter() - t0
    ok = (rep["dimension"] == 3364 == dim_C(4) and rep["agree"]
          and len(rep["points"]) >= 3 and elapsed < 20.0)
    _report(3, ok, f"specialized rank n = 4 is {rep['dimension']} at "
                   f"{len(rep['points'])} points, {elapsed:.0f}s < 20s")


def test_criterion_4_presentation_suite():
    t0 = time.perf_counter()
    failed = []
    count = 0
    for n in (1, 2, 3):
        for label, flag in btalg.verify_presentation(n):
            count += 1
            if not flag:
                failed.append((n, label))
    elapsed = time.perf_counter() - t0
    _report(4, not failed,
            f"all {count} presentation checks n <= 3 exact, "
            f"{elapsed:.1f}s{'' if not failed else f'; failed: {failed}'}")


def test_criterion_5_hecke_kl_suite():
    t0 = time.perf_counter()
    m = 4
    perms = all_perms(m)
    bar_ok = rec_ok = int_ok = True
    for w in perms:
        cw = hecke.canonical_basis(w)
        bar_ok = bar_ok and hecke.bar_involution(cw) == cw
        rec_ok = rec_ok and hecke.canonical_by_bar(w) == cw
    for s in range(1, m):
        sp = simple_perm(s, m)
        for u in perms:
            if perm_length(perm_mul(sp, u)) <= perm_length(u):
                continue
            try:
                hecke.c_expansion(s, u)
            except ArithmeticError:
                int_ok = False
    elapsed = time.perf_counter() - t0
    ok = bar_ok and rec_ok and int_ok
    _report(5, ok, f"S_4 canonical basis: bar {bar_ok}, recursion vs "
                   f"bar-solve {rec_ok}, integral expansion {int_ok}, "
                   f"{elapsed:.1f}s")


def test_criterion_6_kl_lift():
    t0 = time.perf_counter()
    m = 4
    bar_ok = img_ok = descent_ok = True
    for w in all_perms(m):
        cw = btalg.kl_lift(w)
        bar_ok = bar_ok and btalg.bar(cw) == cw
        target = hecke.canonical_basis(w)
        img_ok = img_ok and _pi_image(cw) == target
        if perm_length(w) >= 2:
            for s in range(1, m):
                if perm_length(perm_mul(simple_perm(s, m), w)) \
                        < perm_length(w):
                    if _pi_image(btalg.kl_lift_via(w, s)) != target:
                        descent_ok = False
    elapsed = time.perf_counter() - t0
    ok = bar_ok and img_ok and descent_ok
    _report(6, ok, f"S_4 lifts: bar {bar_ok}, image {img_ok}, descent "
                   f"independence {descent_ok}, {elapsed:.1f}s")


def test_criterion_7_finite_model_suite():
    required_labels = ("op_ks equals L_s entrywise",
                       "op_es equals E_s entrywise",
                       "quadratic R_s^2 = q^k H_s(-1) + R_s E_s",
                       "quadratic L_s^2 = 1 - q^-k(E_s - L_s E_s)",
                       "cubic (L_s^2-1)(L_s+q^-k) = 0 and invertibility",
                       "torus values of op_ks on eps_theta",
                       "cell values of op_ks on eps_theta",
                       "tie operator is (q^k-1) times an exact projection")
    braid_labels = ("braid relation for R_s", "braid relation for L_s",
                    "op_ks products independent of the reduced word")
    results = {}
    for n, q, k in ((1, 2, 2), (2, 2, 1)):
        t0 = time.perf_counter()
        rep = verify_main_identity(n, q, k)
        span = delta_in_epsilon_span(n, q, k)
        elapsed = time.perf_counter() - t0
        labels = dict(rep["checks"])
        has_all = all(lab in labels for lab in required_labels)
        has_braid = n == 1 or all(lab in labels for lab in braid_labels)
        results[(n, q, k)] = (rep["ok"] and span["solved"] and has_all
                              and has_braid and elapsed < 60.0, elapsed)
    ok = all(flag for flag, _ in results.values())
    detail = "; ".join(
        f"SL_{n + 1}(F_{q ** k}) {'ok' if flag else 'FAIL'} {el:.1f}s < 60s"
        for (n, q, k), (flag, el) in results.items())
    _report(7, ok, detail)


def test_criterion_8_monodromic_suite():
    t0 = time.perf_counter()
    rel_ok = all(flag for n in (1, 2)
                 for _, flag in monodromic.verify_ho_relations(n, 3))
    cross = [monodromic_crosscheck(1, 2, 2, exps)
             for exps in ((0, 0), (1, 0), (2, 0))]
    cross_ok = all(c["ok"] for c in cross) \
        and all("v = 2" in c["specialization"] for c in cross)
    cons = monodromic.pi_consistency(2, 120, seed=0, modulus=3)
    cons_ok = cons["trials"] >= 100 and cons["failures"] == 0
    elapsed = time.perf_counter() - t0
    ok = rel_ok and cross_ok and cons_ok
    _report(8, ok, f"relations n <= 2 {rel_ok}, finite-model match at "
                   f"v = 2 {cross_ok}, {cons['trials']} word pairs with "
                   f"{cons['failures']} failures, {elapsed:.1f}s")


def test_criterion_9_dimension_scale():
    t0 = time.perf_counter()
    consistent = all(dim_C(n, "subset-enumeration")
                     == dim_C(n, "partition-aggregation")
                     == DIMENSION_SEQUENCE[n] for n in range(13))
    s20 = dim_C(20, "subset-enumeration")
    agree20 = s20 == dim_C(20, "partition-aggregation")
    a43 = dim_C(43, "partition-aggregation")
    elapsed = time.perf_counter() - t0
    ok = consistent and agree20 and s20 > 0 and a43 > 0
    _report(9, ok, f"modes agree with the published values n <= 12 "
                   f"{consistent}; subset mode runs n = 20 "
                   f"({len(str(s20))} digits) and agrees {agree20}, "
                   f"aggregation runs n = 43 ({len(str(a43))} digits), "
                   f"{elapsed:.1f}s")
