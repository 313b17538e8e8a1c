"""Smoke test of the scripts in scripts/, run in-process with small arguments."""

import json
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    monkeypatch.setattr(sys, "path", list(sys.path))  # the scripts prepend src/
    return runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_scripts_write_their_files(monkeypatch, tmp_path, capsys):
    suite = tmp_path / "suite.json"
    run_script(monkeypatch, "run_conjecture_suite.py", "--samples", "32",
               "--out", str(suite))
    reports = json.loads(suite.read_text(encoding="utf-8"))
    assert len(reports) == 5 and all(r["passed"] for r in reports.values())

    tables = tmp_path / "tables"
    run_script(monkeypatch, "export_profile_tables.py", "--samples", "16",
               "--outdir", str(tables))
    assert sorted(p.name for p in tables.iterdir()) == [
        "mode_condition_zero_set.csv", "profile_disk.csv",
        "profile_ellipse_sqrt2.csv", "profile_fourier_domain.csv"]

    runs = tmp_path / "dichotomy.json"
    run_script(monkeypatch, "run_dichotomy_experiment.py", "--out", str(runs))
    verdicts = {k: r["verdict"]
                for k, r in json.loads(runs.read_text(encoding="utf-8")).items()}
    assert verdicts == {"cos2u_first_order": "first_order_decrease",
                        "cos4u_second_order": "second_order_decrease",
                        "translation_control": "no_decrease"}
    assert "wrote" in capsys.readouterr().out

    values = tmp_path / "oracle_values.json"
    script = run_script(monkeypatch, "oracle_values.py", "--out", str(values),
                        "--batched")
    written = json.loads(values.read_text(encoding="utf-8"))
    rows, batched = written["single"], written["batched"]
    assert len(rows) == len(batched) == 55
    assert [r["case"] for r in batched] == [r["case"] for r in rows]
    assert [r["refusal"] for r in batched] == [r["refusal"] for r in rows]
    assert [(r["case"], r["refusal"]) for r in rows if r["refusal"]] == [
        ("asymmetric A=0.005", "NoArcAtArea")]
    assert sum(r["dropped"] for r in rows) == 4
    # each single call records its boundary samples, a batched row none;
    # measured: 1,239 over the 55 calls, bounded at 10% over it, rounded up
    assert all(r["samples"] > 0 for r in rows)
    assert all(r["samples"] is None for r in batched)
    assert sum(r["samples"] for r in rows) <= 1363
    # the 11 batched calls: the same refusal and drops, and every value
    # within the bound of test_oracle_pairs_equal_their_single_calls
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == ("batched: 11 calls, asymmetric A=0.005 refused "
                        "(NoArcAtArea), 4 refinements dropped")
    assert len(lines) == 3 and lines[2].startswith("largest value change: ")
    assert float(lines[2].split()[3]) <= 1e-13
    moved = [dict(r, dropped=r["dropped"] + 1) if r["refusal"] else r for r in rows]
    script["compare"](moved, rows)
    assert capsys.readouterr().out.splitlines() == [
        "asymmetric A=0.005: dropped 0 -> 1",
        "largest value change: 0.000e+00 (cos 2u b=0.85 s=0.001)"]
    # the work comparison prints the totals and each call whose count rose
    rose = [dict(r, samples=r["samples"] + 5) if r["refusal"] else r for r in rows]
    total = sum(r["samples"] for r in rows)
    script["compare_work"](rose, rows, label="single against x: ")
    refused = next(r for r in rows if r["refusal"])
    assert capsys.readouterr().out.splitlines() == [
        f"single against x: boundary samples: {total} -> {total + 5}",
        f"single against x: asymmetric A=0.005: samples {refused['samples']} "
        f"-> {refused['samples'] + 5}"]
    script["compare_work"](rows, rose)
    assert capsys.readouterr().out.splitlines() == [
        f"boundary samples: {total + 5} -> {total}"]
    # --against labels each kind of row it compares
    script["compare"](batched, batched, keys=("refusal",), label="batched against x: ")
    assert capsys.readouterr().out.splitlines() == [
        "batched against x: largest value change: 0.000e+00 (cos 2u b=0.85 s=0.001)"]


def test_cli_outputs_against_itself(monkeypatch, tmp_path, capsys):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    names = ["domain-info ellipse", "perturb roots 7"]
    run_script(monkeypatch, "cli_outputs.py", "--out", str(first), *names)
    written = json.loads(first.read_text(encoding="utf-8"))
    assert list(written) == names
    assert all(r["exit"] == 0 and r["stdout"] and not r["stderr"]
               for r in written.values())
    capsys.readouterr()
    script = run_script(monkeypatch, "cli_outputs.py", "--out", str(second),
                        "--against", str(first), *names)
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"against {first}: 0 of 2 commands differ"]
    # a changed byte names its command and entry
    written["perturb roots 7"]["stdout"] += " "
    script["compare"](written, json.loads(second.read_text(encoding="utf-8")))
    assert capsys.readouterr().out.splitlines() == [
        "perturb roots 7: stdout changed", "1 of 2 commands differ"]
