"""Tests for the command-line interface: determinism, serialization
schemas, exit codes, and subcommand coverage."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import braidties
from braidties import cli
from braidties.coxeter import dim_recurrence, dimension_rows


def run_cli(args, tmp_path, name="out"):
    """Run the CLI writing to a temp file; return (exit code, text)."""
    out = tmp_path / name
    code = cli.main([*args, "--out", str(out)])
    return code, out.read_text(encoding="utf-8")


def test_dim_json_round_trip(tmp_path):
    code, text = run_cli(["dim", "--n", "2", "--format", "json"], tmp_path)
    assert code == 0
    report = json.loads(text)
    assert report["total"] == 20
    assert report["row_sum_matches"] is True
    rows = report["rows"]
    assert [(r["N_I"], r["R_I"], r["D_I"]) for r in rows] == \
        [(6, 1, 5), (2, 3, 3), (6, 1, 6)]
    assert rows[0]["I"] == [1, 2] and rows[2]["I"] == []
    assert json.loads(json.dumps(report)) == report



@pytest.mark.parametrize("mode", ["subset", "aggregation"])
def test_dim_row_sum_is_checked_against_the_recurrence(mode, monkeypatch,
                                                        tmp_path):
    monkeypatch.setattr(cli, "dim_recurrence", lambda n: 21)
    code, text = run_cli(["dim", "--n", "2", "--mode", mode], tmp_path)
    report = json.loads(text)
    assert code == 1 and report["row_sum_matches"] is False
    assert report["total"] == 20
    code, text = run_cli(["dim-rank", "--n", "2"], tmp_path)
    assert code == 1 and json.loads(text)["formula_dimension"] == 21

def test_dim_csv_schema(tmp_path):
    code, text = run_cli(["dim", "--n", "2", "--format", "csv"], tmp_path)
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "I,N_I,R_I,D_I"
    assert lines[1:] == ["1 2,6,1,5", "1,2,3,3", ",6,1,6"]


def test_dim_modes_and_defaults(tmp_path):
    code, text = run_cli(["dim", "--n", "4", "--mode", "subset"], tmp_path)
    assert code == 0 and json.loads(text)["total"] == 3364
    code, text = run_cli(["dim", "--n", "4", "--mode", "aggregation"],
                         tmp_path)
    assert code == 0 and json.loads(text)["total"] == 3364
    code, text = run_cli(["dim", "--n", "0"], tmp_path)
    assert code == 0 and json.loads(text)["total"] == 1


def test_byte_determinism(tmp_path):
    args = ["verify", "--suite", "monodromic", "--n", "1", "--seed", "7"]
    _, first = run_cli(args, tmp_path, "a.json")
    _, second = run_cli(args, tmp_path, "b.json")
    assert first == second
    args = ["dim", "--n", "5", "--format", "csv"]
    _, first = run_cli(args, tmp_path, "a.csv")
    _, second = run_cli(args, tmp_path, "b.csv")
    assert first == second


def test_stdout_when_no_out(capsys):
    code = cli.main(["dim", "--n", "1", "--format", "csv"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "I,N_I,R_I,D_I"


class _Opaque:
    """A value JSON cannot encode; serialized through its repr."""
    def __repr__(self):
        return "Opaque(1, 2)"


def test_serialize_pinned():
    # expected text as the serializer of 31984ce wrote it
    report = {"config": {"command": "dim", "n": 2,
                         "nested": {"b": (1, (2, 3)), "a": Fraction(-3, 4)}},
              "rows": [{"I": (1, 2), "lambda": [2], "N_I": 6,
                        "R_I": Fraction(1, 3), "D_I": _Opaque()},
                       {"I": (), "lambda": (), "N_I": 6, "R_I": 1,
                        "D_I": complex(1, 2)}],
              "total": Fraction(5), "row_sum_matches": True, "empty": None,
              "ratio": 0.5}
    assert cli._serialize(report, "json") == (
        '{\n  "config": {\n    "command": "dim",\n    "n": 2,\n'
        '    "nested": {\n      "a": "-3/4",\n      "b": [\n        1,\n'
        '        [\n          2,\n          3\n        ]\n      ]\n    }\n'
        '  },\n  "empty": null,\n  "ratio": 0.5,\n'
        '  "row_sum_matches": true,\n  "rows": [\n    {\n'
        '      "D_I": "Opaque(1, 2)",\n      "I": [\n        1,\n'
        '        2\n      ],\n      "N_I": 6,\n      "R_I": "1/3",\n'
        '      "lambda": [\n        2\n      ]\n    },\n    {\n'
        '      "D_I": "(1+2j)",\n      "I": [],\n      "N_I": 6,\n'
        '      "R_I": 1,\n      "lambda": []\n    }\n  ],\n'
        '  "total": "5"\n}\n')
    # the CSV layout of every report but dim's and kl-lift's, with the
    # same leaves, as the serializer of 6150eca wrote it
    report = {"config": {"command": "verify", "n": 2},
              "checks": [('labelled, "quoted"', Fraction(-3, 4)),
                         (_Opaque(), True), (complex(1, 2), False)],
              "ok": False}
    assert cli._serialize(report, "csv") == (
        'check,ok\n"labelled, ""quoted""",-3/4\n"Opaque(1, 2)",True\n'
        '(1+2j),False\n')


@pytest.mark.parametrize("args, digest", [
    (["dim", "--n", "22", "--mode", "aggregation", "--format", "json"],
     "8acf39cda1a2233e147fc827440d57f96b3a587062a9792f085df36c8811a6c4"),
    (["dim", "--n", "20", "--mode", "subset", "--format", "csv"],
     "ff36030c3354661b166f404e06ef006d8413a9f730e6ad170320b5c986a68612"),
    (["dim", "--n", "32", "--mode", "aggregation", "--format", "json"],
     "63a93e906f7c66865d9097bc2fcead5df88503526405fb4cb97639cb025bf3e3"),
    (["dim", "--n", "40", "--mode", "aggregation", "--format", "csv"],
     "f27d156b4fa6d4649500c98aa0fae6b523fd3caf0d4e25146ec0dd44116dd658"),
    pytest.param(
        ["dim", "--n", "50", "--mode", "aggregation", "--format", "json"],
        "a8ca2696389ff5697c6cfd94ce41fd0d414c686dc900e19c79fb860965e41edd",
        marks=pytest.mark.slow),
], ids=["aggregation n22 json", "subset n20 csv", "aggregation n32 json",
        "aggregation n40 csv", "aggregation n50 json"])
def test_dim_output_digest(args, digest, tmp_path):
    # sha256 of the output file as written at commit 31984ce (the first
    # two, the JSON one without the "threads" config entry, which has since
    # been removed) and at commit d8abca1, which encoded the whole report
    # at once (the other three)
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == 0
    sha = hashlib.sha256()
    with open(out, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    assert sha.hexdigest() == digest


@pytest.mark.parametrize("args, digest", [
    (["finite-model", "--n", "1", "--q", "4", "--format", "json"],
     "fba4ce12ebc2acc4002f0ec820bb59a5d4656cf4deee1ec0dd05c66074c8bf0f"),
    (["finite-model", "--n", "1", "--q", "5", "--format", "csv"],
     "61922fd2e8cee59e011811aec41b2c0a2fadb316e57e9e5de6c0d2d1c22d961c"),
    (["finite-model", "--n", "2", "--q", "2", "--format", "json"],
     "247cd1b38a0511dd09a46fab5dd9420828374dce39a6b525488467ca58f01518"),
    (["finite-model", "--n", "1", "--q", "9", "--format", "json"],
     "754752c89cc52639218738c20c1c66c3277b07664305f70dd1ae524b3a8e63cb"),
    (["verify", "--suite", "finite", "--n", "1", "--q", "3",
      "--format", "csv"],
     "61922fd2e8cee59e011811aec41b2c0a2fadb316e57e9e5de6c0d2d1c22d961c"),
    (["kl-lift", "--n", "2", "--format", "json"],
     "67ae3940ac4699e208e4d7eca1ce130bda6e4bb596815fc99fd95a07ca59f16e"),
], ids=["finite SL2(F4) json", "finite SL2(F5) csv", "finite SL3(F2) json",
        "finite SL2(F9) json", "verify finite SL2(F3) csv", "kl-lift n2 json"])
def test_finite_and_kl_lift_output_digest(args, digest, tmp_path):
    # sha256 of the output file as written at commit 71fd732; the SL2(F4)
    # report holds the monodromic crosschecks with their kappa reprs, and
    # the two CSV files hold the same check list, all passed
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("args, digest", [
    (["dim-rank", "--mode", "specialized", "--n", "3", "--seed", "0",
      "--format", "json"],
     "ea9b0f7fcf19183a54d036303452e123f6c39f6d4f29395cc423c9688a47d945"),
    (["dim-rank", "--mode", "specialized", "--n", "2", "--seed", "5",
      "--format", "csv"],
     "50bffb0ffe37be644f9284600f234fae8a6c48b27cb36eea2398918471215d30"),
    (["dim-rank", "--mode", "exact", "--n", "3", "--format", "json"],
     "fbde6650a59222a1fc98764c440699d3400e29d391f6cffe4d7a0d4361cd62e7"),
], ids=["specialized n3 seed0 json", "specialized n2 seed5 csv",
        "exact n3 json"])
def test_dim_rank_output_digest(args, digest, tmp_path):
    # sha256 of the output file as written at commit 729e294, whose
    # closure walks carried the raw candidates g_s x
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _dim_report_encoded_whole(n, mode, fmt):
    """The dim report as one dict with a dict per row, encoded at once by
    json.dumps(sort_keys=True, indent=2) or csv.writer."""
    rows = dimension_rows(n)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["I", "N_I", "R_I", "D_I"])
        writer.writerows([" ".join(map(str, r.subset)), r.normalizer_order,
                          r.subgroup_count, r.descent_count] for r in rows)
        return buf.getvalue()
    report = {"config": {"command": "dim", "fmt": fmt, "k": 1, "mode": mode,
                         "n": n, "q": 2, "seed": 0, "suite": ""},
              "rows": [{"I": r.subset, "lambda": r.lam,
                        "N_I": r.normalizer_order, "R_I": r.subgroup_count,
                        "D_I": r.descent_count} for r in rows],
              "total": dim_recurrence(n), "row_sum_matches": True}
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_dim_output_equals_the_report_encoded_whole(fmt, tmp_path):
    out = tmp_path / "out"
    for mode, ns in (("aggregation", range(31)), ("subset", range(21))):
        for n in ns:
            assert cli.main(["dim", "--n", str(n), "--mode", mode, "--format",
                             fmt, "--out", str(out)]) == 0
            expected = _dim_report_encoded_whole(n, mode, fmt)
            assert out.read_bytes() == expected.encode("utf-8"), (mode, n)


def test_usage_errors_exit_2(tmp_path):
    for args in (["dim", "--n", "60"],
                 ["dim", "--n", "25", "--mode", "subset"],
                 ["kl-lift", "--n", "5"],
                 ["dim-rank", "--n", "9"],
                 ["verify", "--suite", "monodromic", "--n", "4"],
                 ["dim", "--n", "-1"],
                 ["nonsense"],
                 ["verify", "--badflag"],
                 # options the chosen suite would ignore
                 ["verify", "--n", "2"],
                 ["verify", "--suite", "all", "--n", "1"],
                 ["verify", "--suite", "all", "--q", "3"],
                 ["verify", "--suite", "all", "--k", "2"],
                 ["verify", "--suite", "hecke", "--n", "2", "--q", "3"],
                 ["verify", "--suite", "presentation", "--k", "1"],
                 ["verify", "--suite", "monodromic", "--q", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2, args
    # model size ceiling surfaces as a usage error, not a traceback
    assert cli.main(["finite-model", "--n", "3", "--q", "2", "--k", "2"]) == 2


@pytest.mark.parametrize("args, message", [
    (["--n", "1", "--q", "2", "--k", "10"], "|X| = 1048575 > 1000"),
    (["--n", "1", "--q", "2", "--k", "11"], "|X| = 4194303 > 1000"),
    (["--n", "1", "--q", "2", "--k", "12"], "|X| = 16777215 > 1000"),
    (["--n", "100000", "--q", "2"], "|X| > 1000"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else "")
def test_oversized_model_is_refused_before_building(args, message, tmp_path,
                                                     capsys):
    out = tmp_path / "out.json"
    t0 = time.perf_counter()
    code = cli.main(["finite-model", *args, "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 2 and elapsed < 1.0
    captured = capsys.readouterr()
    assert captured.err == f"error: size ceiling exceeded: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, message", [
    (["--n", "1", "--q", "31"], "Q(zeta_930) has degree 240 > 64"),
    (["--n", "1", "--q", "17"], "Q(zeta_272) has degree 128 > 64"),
    (["--n", "1", "--q", "23", "--k", "1"], "Q(zeta_506) has degree 220 > 64"),
], ids=["q31", "q17", "q23"])
def test_large_cyclotomic_field_is_refused_before_building(
        args, message, tmp_path, capsys):
    out = tmp_path / "out.json"
    t0 = time.perf_counter()
    code = cli.main(["finite-model", *args, "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 2 and elapsed < 0.25
    captured = capsys.readouterr()
    assert captured.err == f"error: degree ceiling exceeded: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_verify_fills_left_out_options_with_the_defaults():
    parser = cli._build_parser()
    for args in (["verify"], ["verify", "--suite", "hecke"],
                 ["verify", "--suite", "finite"],
                 ["verify", "--suite", "finite", "--n", "2", "--q", "2",
                  "--k", "1"]):
        config = cli._validate(parser, parser.parse_args(args))
        assert (config.n, config.q, config.k) == (2, 2, 1), args
    config = cli._validate(parser, parser.parse_args(
        ["verify", "--suite", "finite", "--n", "1", "--q", "4", "--k", "2"]))
    assert (config.n, config.q, config.k) == (1, 4, 2)


def test_verification_failure_exits_1(monkeypatch, tmp_path):
    monkeypatch.setattr("braidties.btalg.verify_presentation",
                        lambda n: [("fabricated failing check", False)])
    code, text = run_cli(["verify", "--suite", "presentation", "--n", "2"],
                         tmp_path)
    assert code == 1
    assert json.loads(text)["ok"] is False


def test_verify_presentation_suite(tmp_path):
    code, text = run_cli(["verify", "--suite", "presentation", "--n", "2"],
                         tmp_path)
    assert code == 0
    report = json.loads(text)
    assert report["ok"] is True
    assert all(ok for _, ok in report["checks"])


def test_verify_hecke_and_kl_lift_suites(tmp_path):
    for suite in ("hecke", "kl-lift"):
        code, text = run_cli(["verify", "--suite", suite, "--n", "2"],
                             tmp_path)
        assert code == 0 and json.loads(text)["ok"] is True


def test_verify_all_battery(tmp_path):
    code, text = run_cli(["verify", "--suite", "all"], tmp_path)
    assert code == 0
    report = json.loads(text)
    assert report["ok"] is True
    labels = [label for label, _ in report["checks"]]
    for tag in ("[presentation", "[hecke", "[kl-lift", "[monodromic",
                "[finite"):
        assert any(label.startswith(tag) for label in labels), tag


def test_kl_lift_records(tmp_path):
    code, text = run_cli(["kl-lift", "--n", "2"], tmp_path)
    assert code == 0
    report = json.loads(text)
    assert report["ok"] is True
    records = report["records"]
    assert len(records) == 6
    assert all(r["bar_invariant"] and r["image_matches"]
               and r["descent_images_agree"] for r in records)
    identity = records[0]
    assert identity["w"] == [1, 2, 3] and len(identity["terms"]) == 1
    assert identity["terms"][0]["coeff"] == "1"
    longest = records[-1]
    assert longest["w"] == [3, 2, 1]
    assert all("blocks" in t and "perm" in t and "coeff" in t
               for t in longest["terms"])


def test_kl_lift_csv(tmp_path):
    code, text = run_cli(["kl-lift", "--n", "1", "--format", "csv"],
                         tmp_path)
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "w,terms,bar_invariant,image_matches," \
                       "descent_images_agree"
    assert len(lines) == 3


def test_dim_rank_exact(tmp_path):
    code, text = run_cli(["dim-rank", "--n", "2"], tmp_path)
    assert code == 0
    report = json.loads(text)
    assert report["match"] is True
    assert report["formula_dimension"] == 20
    assert report["closure"]["dimension"] == 20


def test_finite_model_command(tmp_path):
    code, text = run_cli(["finite-model", "--n", "1", "--q", "2", "--k",
                          "2"], tmp_path)
    assert code == 0
    report = json.loads(text)
    assert report["ok"] is True
    assert report["delta_span"]["solved"] is True
    assert len(report["crosschecks"]) == 3
    assert all(c["ok"] for c in report["crosschecks"])
    # non-square field size: identity report only, no crosschecks
    code, text = run_cli(["finite-model", "--n", "1", "--q", "2", "--k",
                          "1"], tmp_path)
    assert code == 0
    assert json.loads(text)["crosschecks"] == []


def test_threads_option_is_refused(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["dim", "--n", "2", "--threads", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_bad_out_path_is_usage_error_before_computing(monkeypatch, tmp_path):
    def never(config):
        raise AssertionError("computed despite an unusable --out")

    monkeypatch.setitem(cli._DISPATCH, "dim", never)
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["dim", "--n", "20", "--out", str(out)])
        assert exc.value.code == 2, out
    assert list(tmp_path.iterdir()) == []


def test_out_written_whole_or_not_at_all(monkeypatch, tmp_path):
    out = tmp_path / "x.json"
    out.write_text("previous\n", encoding="utf-8")

    def killed(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["dim", "--n", "2", "--out", str(out)])
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text(encoding="utf-8") == "previous\n"
    monkeypatch.undo()
    assert cli.main(["dim", "--n", "2", "--out", str(out)]) == 0
    assert list(tmp_path.iterdir()) == [out]
    assert json.loads(out.read_text(encoding="utf-8"))["total"] == 20


def test_internal_error_exits_3_with_one_line(monkeypatch, tmp_path,
                                               capsys):
    def broken(config):
        raise RuntimeError("injected\nfault")

    monkeypatch.setitem(cli._DISPATCH, "dim", broken)
    out = tmp_path / "x.json"
    assert cli.main(["dim", "--n", "2", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: injected fault\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []

    def interrupted(config):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._DISPATCH, "dim", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["dim", "--n", "2", "--out", str(out)])
    assert list(tmp_path.iterdir()) == []


def test_dim_writer_failure_partway_exits_3_and_leaves_no_file(
        monkeypatch, tmp_path, capsys):
    written = cli._dim_chunks
    seen = []

    def failing(*args):
        for i, chunk in enumerate(written(*args)):
            if i == 3:
                seen.extend(p.name for p in tmp_path.iterdir())
                raise RuntimeError("injected\nfault")
            yield chunk

    monkeypatch.setattr(cli, "_ROWS_PER_CHUNK", 100)
    monkeypatch.setattr(cli, "_dim_chunks", failing)
    for fmt in ("json", "csv"):
        out = tmp_path / f"x.{fmt}"
        assert cli.main(["dim", "--n", "20", "--mode", "aggregation",
                         "--format", fmt, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: injected fault\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []
    # the temp file existed when the writer failed, three chunks in
    assert seen == [f"x.{fmt}.{os.getpid()}.tmp" for fmt in ("json", "csv")]


# Runs one CLI job in a fresh interpreter with numpy blocked, and prints
# the exit code, the braidties modules loaded and whether numpy was loaded.
_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
sys.modules["numpy"] = None
from braidties import cli
code = cli.main(sys.argv[2:])
print(json.dumps({"code": code,
                  "numpy": sys.modules.get("numpy") is not None,
                  "modules": sorted(m for m in sys.modules
                                    if m.startswith("braidties."))}))
"""


def _probe_imports(args, tmp_path):
    src = os.path.dirname(os.path.dirname(braidties.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, src, *args,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("args", [
    ["dim", "--n", "3"],
    ["verify", "--suite", "presentation", "--n", "1"],
    ["verify", "--suite", "hecke", "--n", "1"],
    ["verify", "--suite", "monodromic", "--n", "1"],
    ["kl-lift", "--n", "1"],
    ["dim-rank", "--mode", "exact", "--n", "1"],
    ["dim-rank", "--mode", "specialized", "--n", "1"],
    ["finite-model", "--n", "1", "--q", "2"],
], ids=lambda args: " ".join(args))
def test_jobs_run_without_numpy(args, tmp_path):
    probe = _probe_imports(args, tmp_path)
    assert probe["code"] == 0
    assert not probe["numpy"]
    if args[0] == "dim":
        assert probe["modules"] == ["braidties.cli", "braidties.coxeter"]
    if args[0] == "finite-model":
        assert "braidties.btalg" not in probe["modules"]
    if args[0] in ("finite-model", "dim-rank") or "presentation" in args:
        assert "braidties.hecke" not in probe["modules"]


# Imports the CLI in a fresh interpreter, runs the job given after the
# source directory, if any, and prints every module then loaded.
_FOOTPRINT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from braidties import cli
if len(sys.argv) > 2:
    assert cli.main(sys.argv[2:]) == 0
print(json.dumps(sorted(sys.modules)))
"""


@pytest.mark.parametrize("args, absent", [
    ([], ("dataclasses", "inspect", "numpy")),
    (["finite-model", "--n", "1", "--q", "2"],
     ("braidties.btalg", "braidties.hecke", "numpy", "dataclasses",
      "inspect")),
], ids=["import cli", "finite-model --n 1 --q 2"])
def test_import_footprint(args, absent, tmp_path):
    src = os.path.dirname(os.path.dirname(braidties.__file__))
    extra = [*args, "--out", str(tmp_path / "out")] if args else []
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_PROBE, src,
                           *extra], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "braidties.cli" in loaded
    assert not loaded & set(absent)
