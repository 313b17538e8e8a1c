import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isoperim import cli, disk, profile

SQRT2 = np.sqrt(2.0)


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_domain_info_disk(capsys):
    code, out, _ = run_cli(["domain-info", "--preset", "disk"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["area"] == pytest.approx(np.pi)
    assert payload["kappa_max"] == pytest.approx(1.0)
    assert payload["is_disk"] is True
    assert payload["pestov_ionin"]["satisfied"] is True


def test_domain_info_ellipse_flags(capsys):
    code, out, _ = run_cli(
        ["domain-info", "--preset", "ellipse",
         "--a", "1.41421356", "--b", "0.70710678"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["is_class_A"] is True
    assert payload["kappa_max"] == pytest.approx(2.0 * SQRT2, rel=1e-6)


def test_malformed_spec_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    for args in (["domain-info", "--spec", str(bad)],
                 ["domain-info", "--spec-json", '{"support_cos": [NaN]}'],
                 ["domain-info", "--spec-json", '{"support_cos": 5}'],
                 ["domain-info", "--spec-json", '{"support_cos": [1, null]}'],
                 ["domain-info", "--spec-json",
                  '{"support_cos": [1], "support_sin": 0.1}'],
                 ["domain-info", "--spec-json", '{"preset": "disk", "params": [1]}'],
                 ["domain-info", "--spec-json",
                  '{"preset": "disk", "params": {"radius": null}}'],
                 ["domain-info", "--spec-json",
                  '{"preset": "disk", "params": {"radius": [1]}}'],
                 ["domain-info", "--spec-json",
                  '{"preset": "ellipse", "params": {"a": true, "b": 1}}'],
                 ["domain-info", "--preset", "ellipse", "--a", "2", "--spec-json",
                  '{"preset": "ellipse", "params": [1]}'],
                 ["domain-info", "--preset", "ellipse", "--a", "2",
                  "--spec-json", "[1]"],
                 ["domain-info", "--preset", "disk", "--spec-json", "[1]"],
                 ["domain-info", "--preset", "ellipse", "--a", "nan", "--b", "1"],
                 ["domain-info", "--preset", "disk", "--radius", "nan"],
                 ["domain-info", "--preset", "ellipse", "--a", "2"],
                 ["domain-info", "--preset", "circle"],
                 ["arcs-find", "--preset", "disk", "--s1", "nan"],
                 ["implicit-curve", "--xmax", "nan"],
                 ["implicit-curve", "--ymin", "inf"]):
        code, out, err = run_cli(args, capsys)
        assert code == 2, args
        assert not out and err.strip()
        assert "--spec-json" not in args or err.startswith("config error"), args


def test_missing_domain_exits_2(capsys):
    code, _, err = run_cli(["domain-info"], capsys)
    assert code == 2
    assert "no domain" in err
    # built once per process, on the first call
    assert cli.build_parser() is cli.build_parser()


def test_domain_info_huge_translation_is_a_unit_disk(capsys):
    # mode 1 is a translation: its factor 1 − k² = 0 in the area must not
    # meet the square of 1e155, which overflows to inf
    code, out, _ = run_cli(["domain-info", "--spec-json",
                            '{"support_cos": [1, 1e155]}'], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["area"] == np.pi and payload["is_disk"] is True
    assert payload["pestov_ionin"]["bound"] == 1.0


@pytest.mark.parametrize("scale", [1e-10, 1.0, 1e3, 1e10, 1e60, 1e80])
def test_domain_info_is_scale_free(capsys, scale):
    # the class flags and vertices of [1, 0, 0.1] at any scale: the
    # degeneracy test was absolute (1e3 and up read degenerate) and ρ⁴
    # overflowed at 1e80
    def info(s):
        code, out, _ = run_cli(["domain-info", "--spec-json",
                                json.dumps({"support_cos": [s, 0, 0.1 * s]})], capsys)
        assert code == 0
        payload = json.loads(out)
        return [payload[k] for k in ("degenerate", "is_class_A", "is_disk",
                                     "vertex_thetas")]

    assert info(scale) == info(1.0)


def test_domain_info_pestov_ionin_is_scale_free(capsys):
    # the margin was 1e-12 absolute, far above κ_max and the bound at 1e60
    flags = []
    for s in (1.0, 1e60):
        code, out, _ = run_cli(["domain-info", "--spec-json",
                                json.dumps({"support_cos": [s, 0, 0.1 * s]})], capsys)
        assert code == 0
        pi = json.loads(out)["pestov_ionin"]
        flags.append((pi["satisfied"], pi["strict"]))
    assert flags == [(True, True)] * 2


@pytest.mark.parametrize("spec, area", [
    ('{"support_cos": [1e200]}', "inf"),
    ('{"support_cos": [1e-200, 0, 1e-202]}', "0.0"),
], ids=["overflow", "underflow"])
def test_domain_info_refuses_area_out_of_range(capsys, spec, area):
    code, out, err = run_cli(["domain-info", "--spec-json", spec], capsys)
    assert code == 2 and not out
    assert err.startswith(f"config error: domain area {area} is not a finite "
                          "positive number")


def test_profile_disk_has_quarter_pi_row(tmp_path, capsys):
    out_file = tmp_path / "profile.csv"
    code, _, _ = run_cli(
        ["profile", "--preset", "disk", "--samples", "256",
         "-o", str(out_file)], capsys)
    assert code == 0
    rows = out_file.read_text(encoding="utf-8").strip().split("\n")
    assert rows[0] == "theta,area,length,curvature"
    assert len(rows) == 257
    hit = [r for r in rows[1:]
           if abs(float(r.split(",")[0]) - np.pi / 4.0) < 1e-15]
    assert len(hit) == 1
    _, area, length, _ = (float(x) for x in hit[0].split(","))
    assert abs(length - np.pi / 2.0) < 1e-10
    assert abs(area - (np.pi / 2.0 - 1.0)) < 1e-10


def test_profile_rerun_byte_identical(tmp_path, capsys):
    for command in ("profile", "check-conjecture"):
        f1, f2 = tmp_path / f"{command}1.out", tmp_path / f"{command}2.out"
        args = [command, "--preset", "ellipse", "--a", str(SQRT2),
                "--b", str(1.0 / SQRT2), "--samples", "64"]
        assert run_cli(args + ["-o", str(f1)], capsys)[0] == 0
        assert run_cli(args + ["-o", str(f2)], capsys)[0] == 0
        assert f1.read_bytes() == f2.read_bytes()


def test_samples_below_two_exits_2(capsys):
    for command in ("profile", "check-conjecture"):
        for samples in ("0", "1"):
            code, _, err = run_cli([command, "--preset", "disk",
                                    "--samples", samples], capsys)
            assert code == 2
            assert "--samples" in err


def test_profile_not_class_a_exits_3(capsys):
    code, _, err = run_cli(
        ["profile", "--spec-json",
         '{"support_cos": [1.0, 0.0, 0.05], "support_sin": [0.0, 0.02]}'],
        capsys)
    assert code == 3
    assert "precondition" in err


def test_check_conjecture_ellipse(capsys):
    code, out, _ = run_cli(
        ["check-conjecture", "--preset", "ellipse",
         "--a", str(SQRT2), "--b", str(1.0 / SQRT2), "--samples", "96"],
        capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["sup_ratio"] < 1.0


def test_check_conjecture_disk_exits_3(capsys):
    code, _, err = run_cli(["check-conjecture", "--preset", "disk"], capsys)
    assert code == 3
    assert "precondition" in err


def test_nonconvex_perturbation_exits_3(capsys):
    for flag, value in (("--s-max", "0.5"), ("--area", "5"), ("--area", "-1")):
        code, _, err = run_cli(["perturb", "experiment", "--mode", "2",
                                flag, value], capsys)
        assert code == 3
        assert "precondition" in err


def test_check_conjecture_near_disk(capsys):
    eps = 1e-3
    code, out, _ = run_cli(
        ["check-conjecture", "--preset", "ellipse",
         "--a", str(1.0 + eps), "--b", str(1.0 / (1.0 + eps)),
         "--samples", "96"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert 0.0 < payload["margin"] < 0.01


def test_arcs_find(capsys):
    code, out, _ = run_cli(
        ["arcs-find", "--preset", "ellipse", "--a", str(SQRT2),
         "--b", str(1.0 / SQRT2), "--s1", "0.3"], capsys)
    assert code == 0
    found = json.loads(out)
    assert len(found) == 2
    s2s = sorted(item["s2"] for item in found)
    assert s2s[0] == pytest.approx(np.pi - 0.3, abs=1e-9)
    assert s2s[1] == pytest.approx(2.0 * np.pi - 0.3, abs=1e-9)
    assert all(item["ortho_residual"] < 1e-9 for item in found)


def test_arcs_find_disk_exits_3(capsys):
    # f ≡ 0 on a circle: sign changes of f are rounding noise, not arcs
    for extra in ([], ["--radius", "2.5"]):
        code, out, err = run_cli(["arcs-find", "--preset", "disk", "--s1", "0.5",
                                  *extra], capsys)
        assert code == 3
        assert out == ""
        assert "precondition" in err and "circle" in err


def test_perturb_roots(capsys):
    code, out, _ = run_cli(["perturb", "roots", "--n", "4"], capsys)
    assert code == 0
    roots = json.loads(out)
    assert len(roots) == 1
    assert roots[0]["b"] == pytest.approx(1.150262, abs=1e-6)
    code, out, _ = run_cli(["perturb", "roots", "--n", "2"], capsys)
    assert code == 0
    assert json.loads(out) == []


def test_implicit_curve_csv(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        ["implicit-curve", "--xmax", "2.0", "--ymax", "1.4",
         "--resolution", "80", "-o", str(out_file)], capsys)
    assert code == 0
    rows = out_file.read_text(encoding="utf-8").strip().split("\n")
    assert rows[0] == "x,y"
    pts = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert len(pts) > 50
    assert np.min(np.abs(pts[:, 0])) < 0.05  # the x = 0 translation line


def test_flags_override_spec_file(tmp_path, capsys):
    spec = tmp_path / "domain.json"
    spec.write_text(
        '{"preset": "ellipse", "params": {"a": 2.0, "b": 1.0}}',
        encoding="utf-8")
    # --a alone keeps the spec file's b
    for flags in (["--a", str(SQRT2), "--b", str(1.0 / SQRT2)], ["--a", "1"]):
        code, out, _ = run_cli(
            ["domain-info", "--spec", str(spec), "--preset", "ellipse", *flags],
            capsys)
        assert code == 0
        assert json.loads(out)["area"] == pytest.approx(np.pi, abs=1e-9)
    # the same merge for the disk preset: the spec's radius, unless --radius
    disk_spec = '{"preset": "disk", "params": {"radius": 2}}'
    for flags, radius in (([], 2.0), (["--radius", "3"], 3.0)):
        code, out, _ = run_cli(["domain-info", "--preset", "disk",
                                "--spec-json", disk_spec, *flags], capsys)
        assert code == 0
        assert json.loads(out)["area"] == pytest.approx(np.pi * radius ** 2)


def test_experiment_cli_grid_reaches_oracle(monkeypatch, capsys):
    # the spy stands in for the oracle's one pass: only the wiring is under test
    calls = []

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        areas = bound.arguments["areas"]
        calls.append((bound.arguments["n_s1"], len(bound.arguments["curves"])))
        return [disk.profile(a) for a in areas], [None] * len(areas)

    signature = inspect.signature(profile.oracle_pairs)
    monkeypatch.setattr(profile, "oracle_pairs", spy)
    code, _, _ = run_cli(["perturb", "experiment", "--mode", "3",
                          "--area", "1.0", "--grid", "64"], capsys)
    assert code == 0
    assert calls == [(64, 6)]  # one pass: s = 0 and the five default s values


def test_experiment_cli_smoke(tmp_path, capsys):
    out_file = tmp_path / "exp.json"
    code, _, _ = run_cli(
        ["perturb", "experiment", "--mode", "2",
         "--area", str(np.pi / 2.0 - 1.0), "--s-max", "3e-3",
         "--s-steps", "3", "--grid", "64", "-o", str(out_file)], capsys)
    assert code == 0
    payload = json.loads(out_file.read_text(encoding="utf-8"))
    assert payload["verdict"] == "first_order_decrease"
    assert payload["alpha"] == pytest.approx(-1.0, rel=0.05)
    assert payload["profile_values"][0] == pytest.approx(
        disk.profile(np.pi / 2.0 - 1.0), abs=1e-6)


EXPERIMENT = ["perturb", "experiment", "--mode", "2"]


@pytest.mark.parametrize("flag, argv", [
    ("--s-max", EXPERIMENT + ["--s-max", "0"]),
    ("--s-max", EXPERIMENT + ["--s-max=-1e-3"]),
    ("--s-max", EXPERIMENT + ["--s-max", "inf"]),
    ("--grid", EXPERIMENT + ["--grid", "0"]),
    ("--grid", ["arcs-find", "--preset", "disk", "--s1", "0.3", "--grid", "1"]),
    ("--resolution", ["implicit-curve", "--resolution", "1"]),
    ("--s-steps", EXPERIMENT + ["--s-steps", "-5"]),
    ("--s-steps", EXPERIMENT + ["--s-steps", "0"]),
    ("--s-steps", EXPERIMENT + ["--s-steps", "2"]),
])
def test_bad_flags_refused_at_parse_time(flag, argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert f"error: argument {flag}: must be" in err


def test_module_entry_point_is_silent():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "isoperim.cli", "domain-info", "--preset", "disk"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["is_disk"] is True


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only; scipy is a reference for the tests."""
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, isoperim.cli; "
         "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


def test_public_api_names_resolve():
    """Every name in `isoperim.__all__` exists, so a star import runs."""
    import isoperim

    assert [n for n in isoperim.__all__ if not hasattr(isoperim, n)] == []
    namespace = {}
    exec("from isoperim import *", namespace)
    assert set(isoperim.__all__) <= set(namespace)
