"""Tests for the command-line interface: determinism, serialization
schemas, exit codes, and subcommand coverage."""

import json

import pytest

from braidties import cli


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


def test_usage_errors_exit_2(tmp_path):
    for args in (["dim", "--n", "60"],
                 ["dim", "--n", "25", "--mode", "subset"],
                 ["kl-lift", "--n", "5"],
                 ["dim-rank", "--n", "9"],
                 ["verify", "--suite", "monodromic", "--n", "4"],
                 ["dim", "--n", "2", "--threads", "0"],
                 ["dim", "--n", "-1"],
                 ["nonsense"],
                 ["verify", "--badflag"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2, args
    # model size ceiling surfaces as a usage error, not a traceback
    assert cli.main(["finite-model", "--n", "3", "--q", "2", "--k", "2"]) == 2


def test_verification_failure_exits_1(monkeypatch, tmp_path):
    monkeypatch.setattr(cli.btalg, "verify_presentation",
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


def test_threads_capped_and_recorded(tmp_path):
    code, text = run_cli(["dim", "--n", "2", "--threads", "5"], tmp_path)
    assert code == 0
    assert json.loads(text)["config"]["threads"] == 5
    code, text = run_cli(["dim", "--n", "2", "--threads", "9999"], tmp_path)
    assert code == 0
    assert json.loads(text)["config"]["threads"] == cli.MAX_THREADS


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
