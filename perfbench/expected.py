"""Reference values and output checks for the benchmark's jobs.

Every value a job is checked against lives in this file; nothing is
recomputed by calling the code under test.

- Dimensions of the braid-generated subalgebra for n = 0..12 are the
  published sequence; 217 and 3364 are the published closure ranks.
  Totals for n = 13..45 are frozen reference values, taken once from the
  two closed-form modes (subset enumeration and partition aggregation)
  where both apply; every dim job also re-adds its own rows and counts
  them against the number of partitions of n + 1, computed here.
- The per-class tables for n = 2, 3, 4 are the published ones, with the
  single n = 2 row that the closed forms correct (I = {1}: N = 2, R = 3).
- The check labels of the presentation suite are derived from the
  defining relations of the braids-and-ties presentation; the labels of
  the other suites and of the finite models are written out here.

A job whose output lists fewer, more or different checks than expected
fails, as does one whose checks do not all pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

DIMENSION_SEQUENCE = (1, 3, 20, 217, 3364, 71098, 1960867, 67886033,
                      2871659468, 145498348666, 8683447971439,
                      601843453126056, 47875219836485209)

FROZEN_TOTALS = {
    13: 4327551022086884733,
    14: 440685644002808546087,
    15: 50175545609850083125841,
    16: 6345244688250802553183420,
    17: 886019602735816567156347586,
    18: 135892698011210411603919965239,
    19: 22785416373226846884345915913640,
    20: 4158857639081631406993475003576117,
    21: 823125912733838947278490584971586833,
    22: 176035605038984122975349696785669647251,
    23: 40548315119919273309427472681368481005992,
    24: 10029808073011065167293248472558965810629329,
    25: 2656865694747244097878381517048226456157150753,
    26: 751800012135089943849036606223173176922783735707,
    27: 226708949364240574349978654077119333398893382434693,
    28: 72697162181189100020635188152792372329527566382338473,
    29: 24737817253368137261260691374941536767033858475422135815,
    30: 8916012575593706319488332861088004157947132154743210284056,
    31: 3397564672263914997438938616279872547329002757003937855028689,
    32: 1366539850489143576717056932424916633715072199391333380438203676,
    33: 579224959032442017589790423794726375111614542063249166110643897458,
    34: 258341953830579485596979381092508550280384683873467979012835221309287,
    35: 121074793321987186896098790066542445683230779701651553144673237101125280,
    36: 59544991699439661290178468582945101526840984082872427035856868641993896637,
    37: 30691743391272739376694462682574706133825438395922138577908279555391116877145,
    38: 16560100639301518171470555951934267643668098116876955268402286894743652395643635,
    39: 9342773028732736476052327558667215478610895012115675342470437826190605916132689512,
    40: 5505420357111909131238459508712679731844838125582999509262482142164672277398266744477,
    41: 3385009338976543044867206270596305054010605148958403633137631698577677254261350089772877,
    42: 2169489863350525485786888971304263672580393824938087106983817477188056013395402339059644743,
    43: 1448027508807916427398130094169568802278638764304600716556129097725740842694874118557213251513,
    44: 1005607720747666879437919128659492450806505111825334445778946207974709601640169530381122415880317,
    45: 726007433456108493595916657513251703753709683147009755908407674757392258318388581548457970269271891,
}

TOTALS = {**dict(enumerate(DIMENSION_SEQUENCE)), **FROZEN_TOTALS}

# subset I -> (N_I, R_I, D_I), in the order the table lists the classes
CLASS_TABLES = {
    2: {(1, 2): (6, 1, 5), (1,): (2, 3, 3), (): (6, 1, 6)},
    3: {(1, 2, 3): (24, 1, 23), (1, 2): (6, 4, 20), (1, 3): (8, 3, 6),
        (1,): (4, 6, 12), (): (24, 1, 24)},
    4: {(1, 2, 3, 4): (120, 1, 119), (1, 2, 3): (24, 5, 115),
        (1, 2, 4): (12, 10, 50), (1, 2): (12, 10, 100),
        (1, 3): (8, 15, 30), (1,): (12, 10, 60), (): (120, 1, 120)},
}

# kl-lift --n 2: w -> number of (partition, permutation) terms of c_w,
# and the sha256 of the sorted-key JSON of its records (exact coefficients
# included)
KL_LIFT_TERMS = {(1, 2, 3): 1, (1, 3, 2): 2, (2, 1, 3): 2, (2, 3, 1): 4,
                 (3, 1, 2): 4, (3, 2, 1): 6}
KL_LIFT_DIGEST = \
    "617fd2298853cc9d4b191be89a63b0ee03fec303d903222b2a8beae048e30795"


def presentation_labels(n: int) -> list[str]:
    """Check labels of the presentation suite over S_{n+1}: braid and
    commutation relations, tie idempotents, tie commutation and
    conjugation, generator-tie exchange, the per-generator quadratic,
    cubic, inverse and bar checks, and the two sampled bar checks."""
    m = n + 1
    simples = range(1, m)
    refl = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    out = []
    for i in simples:
        for j in simples:
            if i < j:
                out.append(f"braid g{i} g{j} g{i} = g{j} g{i} g{j}"
                           if j == i + 1 else f"commute g{i} g{j} = g{j} g{i}")
    out += [f"e{r} idempotent" for r in refl]
    out += [f"e{r1} e{r2} commute and conjugate" for r1 in refl for r2 in refl]

    def swap(x, i):
        return i + 1 if x == i else i if x == i + 1 else x

    for i in simples:
        for r in refl:
            r2 = tuple(sorted(swap(x, i) for x in r))
            out.append(f"g{i} e{r} = e{r2} g{i}")
    for i in simples:
        out += [f"quadratic g{i}^2", f"cubic a{i}", f"g{i} invertible",
                f"bar(g{i}) = g{i}^-1"]
    out += ["bar involutive on samples", "bar multiplicative on samples"]
    return out


HECKE_LABELS = ["canonical basis bar-invariant",
                "bar-invariance solve matches recursion",
                "canonical product expansion integral"]
KL_SUITE_LABELS = ["lift bar-invariant", "lift maps onto the canonical basis",
                   "every descent recursion maps to the same image"]
_ORBIT_CHECKS = ("idempotent orthogonality", "lengths-add products",
                 "character transport", "quadratic relation", "unit")
_ORBITS = {1: ("(0, 0)", "(1, 0)"),
           2: ("(0, 0, 0)", "(0, 1, 0)", "(0, 2, 0)", "(1, 2, 0)")}


def monodromic_labels(n: int) -> list[str]:
    out = [f"orbit{o}: {c}" for o in _ORBITS[n] for c in _ORBIT_CHECKS]
    return out + ["trivial orbit matches the Hecke algebra",
                  "rewrite consistency over 120 word pairs"]


def finite_labels(n: int, q: int, k: int) -> list[str]:
    """Checks of one finite-model report: the main identity battery (with
    the braid, long-reflection and word-independence checks on SL_3),
    the base-point solve, and the monodromic comparisons that run on
    SL_2 over F_4, the only square field size the workloads use."""
    sl3 = n == 2
    out = ["op_ks equals L_s entrywise", "op_es equals E_s entrywise",
           "torus multiplicativity R_t1 R_t2 = R_t1t2",
           "torus conjugation R_t R_s = R_s R_t'",
           "quadratic R_s^2 = q^k H_s(-1) + R_s E_s"]
    out += ["braid relation for R_s"] if sl3 else []
    out += ["quadratic L_s^2 = 1 - q^-k(E_s - L_s E_s)"]
    out += ["braid relation for L_s"] if sl3 else []
    out += ["torus conjugation R_t L_s = L_s R_t'",
            "cubic (L_s^2-1)(L_s+q^-k) = 0 and invertibility",
            "primary dictionary at v^2 = q^-k", "dual dictionary at v^2 = q^k",
            "op_es eigenvalues on every eps_theta",
            "adjacent-exponent rule matches torus sums"]
    out += ["long-reflection circle rule matches torus sums"] if sl3 else []
    out += ["torus values of op_ks on eps_theta",
            "cell values of op_ks on eps_theta",
            "op_ks eps_theta supported on torus and s-cell",
            "Gauss sum times conjugate equals q^k",
            "tie operator is (q^k-1) times an exact projection",
            "op_ks commutes with left translations"]
    out += ["op_ks products independent of the reduced word"] if sl3 else []
    out += ["base-point delta solved in character span"]
    qk = q ** k
    if qk == 4 and n == 1:
        out += [f"monodromic comparison at exponents ({j}, 0)"
                for j in range(3)]
    return out


def expected_labels(argv: list[str]) -> list[str] | None:
    """Check labels a verify, dim-rank or finite-model job must report."""
    a = _argmap(argv)
    cmd, n = argv[0], int(a["--n"])
    if cmd == "dim-rank":
        return ["closure rank matches the closed form"]
    if cmd == "finite-model":
        return finite_labels(n, int(a["--q"]), int(a.get("--k", 1)))
    if cmd == "verify":
        suite = a["--suite"]
        if suite == "presentation":
            return presentation_labels(n)
        if suite == "hecke":
            return HECKE_LABELS
        if suite == "kl-lift":
            return KL_SUITE_LABELS
        if suite == "monodromic":
            return monodromic_labels(n)
    return None


def partition_count(m: int) -> int:
    """Number of integer partitions of m."""
    p = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            p[total] += p[total - part]
    return p[m]


# ---------------------------------------------------------------------------
# checking one job's output
# ---------------------------------------------------------------------------

class Mismatch(Exception):
    """The job's output differs from the expected values."""


def _argmap(argv: list[str]) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1)
            if argv[i].startswith("--")}


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _check_rows(n: int, rows: list[tuple[tuple, int, int, int]]) -> None:
    _expect(len(rows) == partition_count(n + 1),
            f"dim n={n}: {len(rows)} rows, expected p({n + 1})")
    _expect(sum(r * d for _, _, r, d in rows) == TOTALS[n],
            f"dim n={n}: rows do not add up to the reference total")
    if n in CLASS_TABLES:
        got = {subset: (nn, r, d) for subset, nn, r, d in rows}
        _expect([s for s, *_ in rows] == list(CLASS_TABLES[n])
                and got == CLASS_TABLES[n], f"dim n={n}: class table differs")


def _check_dim(n: int, fmt: str, text: str) -> None:
    if fmt == "json":
        rep = json.loads(text)
        _expect(rep["total"] == TOTALS[n] and rep["row_sum_matches"] is True,
                f"dim n={n}: total differs from the reference")
        rows = [(tuple(r["I"]), r["N_I"], r["R_I"], r["D_I"])
                for r in rep["rows"]]
    else:
        lines = list(csv.reader(text.splitlines()))
        _expect(lines[0] == ["I", "N_I", "R_I", "D_I"], "dim csv header")
        rows = [(tuple(int(x) for x in i.split()), int(nn), int(r), int(d))
                for i, nn, r, d in lines[1:]]
    _check_rows(n, rows)


def _check_labels(argv: list[str], checks: list[tuple[str, bool]]) -> None:
    labels = [label for label, _ in checks]
    _expect(labels == expected_labels(argv),
            f"{' '.join(argv[:3])}: check labels differ from the reference")
    failed = [label for label, ok in checks if not ok]
    _expect(not failed, f"failed checks: {failed[:3]}")


def _csv_checks(text: str) -> list[tuple[str, bool]]:
    lines = list(csv.reader(text.splitlines()))
    _expect(lines[0] == ["check", "ok"], "checks csv header")
    return [(label, ok == "True") for label, ok in lines[1:]]


def _check_kl_lift(n: int, fmt: str, text: str) -> None:
    _expect(n == 2, f"no reference values for kl-lift --n {n}")
    if fmt == "json":
        rep = json.loads(text)
        recs = rep["records"]
        _expect(rep["ok"] is True, "kl-lift report not ok")
        digest = hashlib.sha256(json.dumps(recs, sort_keys=True)
                                .encode()).hexdigest()
        _expect(digest == KL_LIFT_DIGEST, "kl-lift coefficients differ")
        rows = [(tuple(r["w"]), len(r["terms"]), r["bar_invariant"],
                 r["image_matches"], r["descent_images_agree"]) for r in recs]
    else:
        lines = list(csv.reader(text.splitlines()))
        _expect(lines[0] == ["w", "terms", "bar_invariant", "image_matches",
                             "descent_images_agree"], "kl-lift csv header")
        rows = [(tuple(int(x) for x in w.split()), int(t), b == "True",
                 i == "True", d == "True") for w, t, b, i, d in lines[1:]]
    _expect({w: t for w, t, *_ in rows} == KL_LIFT_TERMS
            and len(rows) == len(KL_LIFT_TERMS),
            "kl-lift term counts differ")
    _expect(all(all(r[2:]) for r in rows), "kl-lift check failed")


def check_output(argv: list[str], jobdir: str) -> int:
    """Check the output file a job wrote against the reference values;
    returns its size in bytes, raises Mismatch on any difference."""
    a = _argmap(argv)
    fmt, path = a["--format"], os.path.join(jobdir, a["--out"])
    _expect(os.path.exists(path), "no output file")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    cmd, n = argv[0], int(a["--n"])
    if cmd == "dim":
        _check_dim(n, fmt, text)
    elif cmd == "kl-lift":
        _check_kl_lift(n, fmt, text)
    elif fmt == "csv":
        _check_labels(argv, _csv_checks(text))
    else:
        rep = json.loads(text)
        _check_labels(argv, [tuple(c) for c in rep["checks"]])
        if cmd == "dim-rank":
            dim = TOTALS[n]
            closure = rep["closure"]
            _expect(closure["dimension"] == dim == rep["formula_dimension"]
                    and closure["agree"] is True and rep["match"] is True,
                    f"dim-rank n={n}: rank differs from {dim}")
            if a.get("--mode") == "specialized":
                pts = closure["points"]
                _expect(len(pts) == 3 and all(p["rank"] == dim for p in pts),
                        f"dim-rank n={n}: a specialization disagrees")
        elif cmd == "finite-model":
            _expect(rep["ok"] is True and rep["delta_span"]["solved"] is True,
                    "finite-model report not ok")
        else:
            _expect(rep["ok"] is True, "verify report not ok")
    return len(text.encode("utf-8"))
