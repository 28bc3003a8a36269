r"""Batch command-line interface: dimension tables, verification suites,
Kazhdan-Lusztig lift data, and finite-model reports, serialized
deterministically.

Subcommands:

- ``dim``: per-class table (subset representative $I$, normalizer order
  $N_I$, class size $R_I$, descent count $D_I$) and the total dimension
  of the braid-generated subalgebra; ``row_sum_matches`` compares the sum
  of $R_I D_I$ with `coxeter.dim_recurrence` (and, in subset mode, with
  the total over the classes of the prefix walk).  ``dim`` writes its
  table row by row: the rows of `coxeter.dimension_rows` are formatted
  in chunks straight to the output, with the bytes that encoding the
  whole report at once would give, and never held as one string.
- ``dim-rank``: cross-check of the closed-form total (`dim_recurrence`)
  against the rank of the generated subalgebra computed by linear
  closure, exact or at sampled specializations of $v$.
- ``verify``: run a named identity suite and report one pass/fail line
  per identity; exit code 0 only when every line passes.
- ``kl-lift``: emit the bar-invariant lifts $c_w$ with exact
  coefficients in the (partition, permutation) basis, together with
  their bar-invariance and image checks.
- ``finite-model``: full operator-identity report over one finite basic
  affine space, plus the base-point span solve and (over square fields)
  the monodromic comparison.

Identical configurations (including the seed) produce byte-identical
output files; JSON keys are sorted, CSV columns fixed.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 internal error (one
line on stderr, no output file).

Each command imports the modules it runs when it runs, so ``dim`` loads
only `coxeter`, and numpy is loaded only by ``dim-rank --mode
specialized``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from typing import NamedTuple

from .coxeter import (all_perms, dim_C, dim_recurrence, dimension_rows,
                      left_action, perm_length)


class RunConfig(NamedTuple):
    """Everything that determines a run's output bytes."""
    command: str
    n: int = 2
    q: int = 2
    k: int = 1
    mode: str = ""
    suite: str = ""
    seed: int = 0
    fmt: str = "json"
    out: str = ""

    def public(self) -> dict:
        d = self._asdict()
        d.pop("out")
        return d


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _json_leaf(x):
    """What JSON cannot encode: a Fraction as its str, anything else as
    its repr."""
    return str(x) if isinstance(x, Fraction) else repr(x)


def _csv_rows(report: dict) -> tuple[list[str], list[list]]:
    # `_dim_chunks` writes the dim table itself
    if report["config"]["command"] == "kl-lift":
        header = ["w", "terms", "bar_invariant", "image_matches",
                  "descent_images_agree"]
        rows = [[" ".join(map(str, r["w"])), len(r["terms"]),
                 r["bar_invariant"], r["image_matches"],
                 r["descent_images_agree"]] for r in report["records"]]
        return header, rows
    header = ["check", "ok"]
    return header, [[label, ok] for label, ok in report["checks"]]


def _serialize(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, default=_json_leaf, sort_keys=True,
                          indent=2) + "\n"
    buf = io.StringIO()
    header, rows = _csv_rows(report)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


_ROWS_PER_CHUNK = 4096


def _dim_chunks(report: dict, rows: list, fmt: str) -> Iterator[str]:
    """The dim report, whose empty "rows" stands for `rows`, in chunks of
    up to _ROWS_PER_CHUNK rows: the bytes `_serialize` writes for the
    report with the rows as dicts, without the table as one string."""
    n = report["config"]["n"]
    batches = (rows[i:i + _ROWS_PER_CHUNK]
               for i in range(0, len(rows), _ROWS_PER_CHUNK))
    if fmt == "csv":
        word = [str(i) for i in range(n + 1)]
        yield "I,N_I,R_I,D_I\n"
        for batch in batches:
            yield "".join(
                f"{' '.join(map(word.__getitem__, r.subset))},"
                f"{r.normalizer_order},{r.subgroup_count},{r.descent_count}\n"
                for r in batch)
        return
    item = [f"\n        {i}" for i in range(n + 1)]

    def array(xs):
        return f"[{','.join(map(item.__getitem__, xs))}\n      ]" if xs else "[]"

    head, tail = _serialize(report, fmt).split('"rows": []')
    yield head + '"rows": ['
    sep = "\n"
    for batch in batches:
        yield sep + ",\n".join(
            f'    {{\n      "D_I": {r.descent_count},\n'
            f'      "I": {array(r.subset)},\n'
            f'      "N_I": {r.normalizer_order},\n'
            f'      "R_I": {r.subgroup_count},\n'
            f'      "lambda": {array(r.lam)}\n    }}' for r in batch)
        sep = ",\n"
    yield "\n  ]" + tail


def _emit(chunks: Iterable[str], config: RunConfig) -> None:
    if not config.out:
        sys.stdout.writelines(chunks)
        return
    # write beside the target and rename, so the target is never partial
    tmp = f"{config.out}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, config.out)
    except BaseException:
        os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def suite_btalg(n: int) -> list[tuple[str, bool]]:
    from .btalg import verify_presentation

    return verify_presentation(n)


def suite_hecke(n: int) -> list[tuple[str, bool]]:
    from . import hecke

    m = n + 1
    perms = all_perms(m)
    ok_bar = ok_rec = ok_int = True
    for w in perms:
        cw = hecke.canonical_basis(w)
        if hecke.bar_involution(cw) != cw:
            ok_bar = False
        if hecke.canonical_by_bar(w) != cw:
            ok_rec = False
    for s in range(1, m):
        for u, (_, down) in left_action(m, s).items():
            if down:
                continue
            try:
                hecke.c_expansion(s, u)
            except ArithmeticError:
                ok_int = False
    return [("canonical basis bar-invariant", ok_bar),
            ("bar-invariance solve matches recursion", ok_rec),
            ("canonical product expansion integral", ok_int)]


def _pi_image(x):
    """Image of a `btalg.BTElement` of the braid-generated subalgebra in
    the Hecke algebra (a `hecke.HeckeElement`): the trivial-character
    corner of the orbit algebra."""
    from . import btalg, monodromic

    combo = btalg.word_combo(x)
    return monodromic.hecke_image(
        monodromic.pi_of_combo(combo, monodromic.trivial_character(x.m)))


def _kl_lift_records(n: int) -> list[dict]:
    """Per w in S_{n+1}, by length: the lift's terms and its three checks
    (bar-invariance, image under the trivial-character surjection, and
    that every descent recursion has the same image)."""
    from . import btalg, hecke

    m = n + 1
    records = []
    for w in sorted(all_perms(m), key=lambda u: (perm_length(u), u)):
        cw = btalg.kl_lift(w)
        bar_ok = btalg.bar(cw) == cw
        target = hecke.canonical_basis(w)
        img_ok = _pi_image(cw) == target
        descent_ok = True
        if perm_length(w) >= 2:
            for s in range(1, m):
                _, down = left_action(m, s)[w]
                if down and _pi_image(btalg.kl_lift_via(w, s)) != target:
                    descent_ok = False
        terms = [{"blocks": [list(b) for b in P], "perm": list(u),
                  "coeff": repr(cw.terms[(P, u)])}
                 for P, u in sorted(cw.terms)]
        records.append({"w": list(w), "length": perm_length(w),
                        "terms": terms, "bar_invariant": bar_ok,
                        "image_matches": img_ok,
                        "descent_images_agree": descent_ok})
    return records


_KL_LIFT_CHECKS = (
    ("lift bar-invariant", "bar_invariant"),
    ("lift maps onto the canonical basis", "image_matches"),
    ("every descent recursion maps to the same image",
     "descent_images_agree"))


def suite_kl_lift(n: int) -> list[tuple[str, bool]]:
    records = _kl_lift_records(n)
    return [(label, all(r[key] for r in records))
            for label, key in _KL_LIFT_CHECKS]


def suite_monodromic(n: int, seed: int) -> list[tuple[str, bool]]:
    from . import monodromic

    checks = list(monodromic.verify_ho_relations(n, 3))
    checks.append(("trivial orbit matches the Hecke algebra",
                   monodromic.verify_hecke_comparison(n)))
    rep = monodromic.pi_consistency(n, 120, seed=seed, modulus=3)
    checks.append((f"rewrite consistency over {rep['trials']} word pairs",
                   rep["failures"] == 0))
    return checks


def _finite_checks(n: int, q: int, k: int) -> tuple[list, dict]:
    """The main-identity checks on one finite model, then the base-point
    span solve as one more check; returns the checks and the solve."""
    from .finite_model import delta_in_epsilon_span, verify_main_identity

    checks = list(verify_main_identity(n, q, k)["checks"])
    span = delta_in_epsilon_span(n, q, k)
    checks.append(("base-point delta solved in character span",
                   span["solved"]))
    return checks, span


def suite_finite(n: int, q: int, k: int) -> list[tuple[str, bool]]:
    return _finite_checks(n, q, k)[0]


_SUITE_BOUNDS = {"presentation": 3, "hecke": 3, "kl-lift": 3,
                 "monodromic": 2}


def run_suite(suite: str, config: RunConfig) -> list[tuple[str, bool]]:
    n, q, k, seed = config.n, config.q, config.k, config.seed
    if suite == "presentation":
        return suite_btalg(n)
    if suite == "hecke":
        return suite_hecke(n)
    if suite == "kl-lift":
        return suite_kl_lift(n)
    if suite == "monodromic":
        return suite_monodromic(n, seed)
    if suite == "finite":
        return suite_finite(n, q, k)
    raise ValueError(f"unknown suite {suite!r}")


_ALL_BATTERY = (("presentation", {"n": 2}),
                ("hecke", {"n": 3}),
                ("kl-lift", {"n": 2}),
                ("monodromic", {"n": 1}),
                ("monodromic", {"n": 2}),
                ("finite", {"n": 1, "q": 2, "k": 2}),
                ("finite", {"n": 2, "q": 2, "k": 1}))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_dim(config: RunConfig) -> tuple[Iterable[str], int]:
    rows = dimension_rows(config.n)
    cross = sum(r.subgroup_count * r.descent_count for r in rows)
    # subset mode also sums over the classes its prefix walk finds
    total = (dim_C(config.n, "subset-enumeration") if config.mode == "subset"
             else cross)
    matches = cross == total == dim_recurrence(config.n)
    report = {"config": config.public(), "rows": [], "total": total,
              "row_sum_matches": matches}
    return _dim_chunks(report, rows, config.fmt), 0 if matches else 1


def cmd_dim_rank(config: RunConfig) -> tuple[Iterable[str], int]:
    from . import btalg

    rank = btalg.c_dimension_report(config.n, mode=config.mode,
                                    seed=config.seed)
    formula = dim_recurrence(config.n)
    match = bool(rank["agree"]) and rank["dimension"] == formula
    report = {"config": config.public(), "closure": rank,
              "formula_dimension": formula, "match": match,
              "checks": [("closure rank matches the closed form", match)]}
    return [_serialize(report, config.fmt)], 0 if match else 1


def cmd_verify(config: RunConfig) -> tuple[Iterable[str], int]:
    if config.suite == "all":
        checks = []
        for suite, params in _ALL_BATTERY:
            sub = RunConfig(command="verify", suite=suite,
                            seed=config.seed, **params)
            tag = ", ".join(f"{k2}={v}" for k2, v in sorted(params.items()))
            checks.extend(((f"[{suite}: {tag}] {label}", ok)
                           for label, ok in run_suite(suite, sub)))
    else:
        checks = run_suite(config.suite, config)
    ok = all(flag for _, flag in checks)
    report = {"config": config.public(), "checks": checks, "ok": ok}
    return [_serialize(report, config.fmt)], 0 if ok else 1


def cmd_kl_lift(config: RunConfig) -> tuple[Iterable[str], int]:
    records = _kl_lift_records(config.n)
    ok = all(r[key] for r in records for _, key in _KL_LIFT_CHECKS)
    report = {"config": config.public(), "records": records, "ok": ok}
    return [_serialize(report, config.fmt)], 0 if ok else 1


def cmd_finite_model(config: RunConfig) -> tuple[Iterable[str], int]:
    from .finite_model import (build_model, monodromic_crosscheck,
                               perfect_square_root)

    n, q, k = config.n, config.q, config.k
    checks, span = _finite_checks(n, q, k)
    crosschecks = []
    model = build_model(n, q, k)
    if perfect_square_root(model.qk) is not None and n <= 2:
        for theta in model.all_characters():
            c = monodromic_crosscheck(n, q, k, theta.exponents)
            crosschecks.append(c)
            checks.append((f"monodromic comparison at exponents "
                           f"{tuple(c['exponents'])}", c["ok"]))
    ok = all(flag for _, flag in checks)
    report = {"config": config.public(), "checks": checks,
              "delta_span": span, "crosschecks": crosschecks, "ok": ok}
    return [_serialize(report, config.fmt)], 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidties",
        description="Exact workbench for braid-and-tie algebras, "
                    "Hecke algebras, and finite basic affine spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_default=2):
        p.add_argument("--n", type=int, default=n_default,
                       help="rank (symmetric group S_{n+1})")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized trials")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"),
                       default="json", help="output format")
        p.add_argument("--out", default="", help="write output to PATH")

    p = sub.add_parser("dim", help="per-class dimension table and total")
    common(p)
    p.add_argument("--mode", choices=("subset", "aggregation"), default="",
                   help="subset enumeration (n <= 20) or partition "
                        "aggregation (n <= 50); default picks by n")

    p = sub.add_parser("dim-rank",
                       help="closure rank versus closed-form dimension")
    common(p)
    p.add_argument("--mode", choices=("exact", "specialized"),
                   default="exact")

    # None marks an option left out, so that one a suite ignores is refused
    p = sub.add_parser("verify", help="run one verification suite")
    common(p, n_default=None)
    p.add_argument("--suite",
                   choices=("presentation", "hecke", "kl-lift",
                            "monodromic", "finite", "all"),
                   default="all")
    p.add_argument("--q", type=int, default=None,
                   help="field prime power (suite finite)")
    p.add_argument("--k", type=int, default=None,
                   help="field extension degree (suite finite)")

    p = sub.add_parser("kl-lift",
                       help="bar-invariant lifts of the canonical basis")
    common(p)

    p = sub.add_parser("finite-model",
                       help="operator identities on one finite model")
    common(p, n_default=1)
    p.add_argument("--q", type=int, default=2, help="field prime power")
    p.add_argument("--k", type=int, default=1, help="field extension degree")

    return parser


_VERIFY_DEFAULTS = {"n": 2, "q": 2, "k": 1}


def _validate(parser: argparse.ArgumentParser, args) -> RunConfig:
    if args.command == "verify":
        # the battery fixes its own sizes; only the finite suite reads q, k
        used = {"all": (), "finite": ("n", "q", "k")}.get(args.suite, ("n",))
        for name, default in _VERIFY_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
            elif name not in used:
                parser.error(f"verify --suite {args.suite} ignores --{name}")
    n = args.n
    if n < 0:
        parser.error("--n must be nonnegative")
    mode = getattr(args, "mode", "")
    if args.command == "dim":
        if not mode:
            mode = "subset" if n <= 20 else "aggregation"
        limit = 20 if mode == "subset" else 50
        if n > limit:
            parser.error(f"dim --mode {mode} is bounded at n <= {limit}")
    elif args.command == "dim-rank":
        limit = 3 if mode == "exact" else 4
        if not 1 <= n <= limit:
            parser.error(f"dim-rank --mode {mode} needs 1 <= n <= {limit}")
    elif args.command == "verify":
        if args.suite in _SUITE_BOUNDS and n > _SUITE_BOUNDS[args.suite]:
            parser.error(f"suite {args.suite} is bounded at "
                         f"n <= {_SUITE_BOUNDS[args.suite]}")
        if args.suite != "all" and n < 1:
            parser.error("verify needs n >= 1")
    elif args.command == "kl-lift":
        if not 1 <= n <= 3:
            parser.error("kl-lift needs 1 <= n <= 3")
    elif args.command == "finite-model":
        if n < 1:
            parser.error("finite-model needs n >= 1")
    q = getattr(args, "q", 2)
    k = getattr(args, "k", 1)
    if q < 2 or k < 1:
        parser.error("--q needs a prime power >= 2 and --k >= 1")
    if args.out:
        target_dir = os.path.dirname(args.out) or "."
        if not os.path.isdir(target_dir):
            parser.error(f"--out: no directory {target_dir!r}")
        if os.path.isdir(args.out):
            parser.error(f"--out: {args.out!r} is a directory")
    return RunConfig(command=args.command, n=n, q=q, k=k, mode=mode,
                     suite=getattr(args, "suite", ""), seed=args.seed,
                     fmt=args.fmt, out=args.out)


_DISPATCH = {"dim": cmd_dim, "dim-rank": cmd_dim_rank, "verify": cmd_verify,
             "kl-lift": cmd_kl_lift, "finite-model": cmd_finite_model}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _validate(parser, args)
    try:
        chunks, code = _DISPATCH[config.command](config)
        _emit(chunks, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
