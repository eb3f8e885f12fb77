from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wright_radii.cli import main

J0_HALF_ZEROS = (1.2024127788478864, 2.7600390551431553, 4.3268639564555061)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(out)))


# ----------------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------------

def test_eval_at_origin(capsys):
    code, out, _ = run(capsys, "eval", "--rho", "1", "--beta", "2", "--z", "0")
    assert code == 0
    row = rows_of(out)[0]
    assert float(row["value_re"]) == 1.0
    assert float(row["value_im"]) == 0.0
    assert float(row["abs_error_bound"]) == 0.0
    assert int(row["terms_used"]) == 1


def test_eval_at_origin_past_the_gamma_overflow(capsys):
    # 1/Gamma(200) underflows to 0; its evaluation once overflowed
    code, out, err = run(capsys, "eval", "--rho", "1", "--beta", "200", "--z", "0")
    assert (code, err) == (0, "")
    row = rows_of(out)[0]
    assert float(row["value_re"]) == 0.0
    assert float(row["abs_error_bound"]) == 5e-324


def test_eval_bessel_value(capsys):
    code, out, _ = run(capsys, "eval", "--rho", "1", "--beta", "1",
                       "--z", "-1")
    assert code == 0
    row = rows_of(out)[0]
    assert float(row["value_re"]) == pytest.approx(0.22389077914123567, abs=1e-12)
    assert float(row["abs_error_bound"]) < 1e-12


def test_eval_complex_argument(capsys):
    code, out, _ = run(capsys, "eval", "--rho", "0.5", "--beta", "1.5",
                       "--z", "0.3", "--z-imag", "-0.7")
    assert code == 0
    row = rows_of(out)[0]
    assert float(row["z_im"]) == -0.7
    assert float(row["value_im"]) != 0.0


def test_eval_rejects_nonpositive_rho(capsys):
    code, out, err = run(capsys, "eval", "--rho", "-0.5", "--beta", "1",
                         "--z", "0")
    assert code == 2
    assert out == ""
    assert "rho must be > 0" in err


@pytest.mark.parametrize("z", (("--z", "nan"), ("--z", "inf"),
                               ("--z", "0.5", "--z-imag", "nan")))
def test_eval_nonfinite_argument_exits_2(capsys, z):
    code, out, err = run(capsys, "eval", "--rho", "1", "--beta", "1", *z)
    assert code == 2
    assert out == ""
    assert "z must be finite" in err


def test_eval_json_mode(capsys):
    code, out, _ = run(capsys, "eval", "--rho", "1", "--beta", "1",
                       "--z", "0.5", "--json")
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list) and len(data) == 1
    assert set(data[0]) == {"rho", "beta", "z_re", "z_im", "value_re",
                            "value_im", "abs_error_bound", "terms_used"}


# ----------------------------------------------------------------------------
# zeros
# ----------------------------------------------------------------------------

def test_zeros_bessel_row(capsys):
    code, out, _ = run(capsys, "zeros", "--rho", "1", "--beta", "1",
                       "--form", "sq", "--count", "3")
    assert code == 0
    rows = rows_of(out)
    assert [int(r["index"]) for r in rows] == [1, 2, 3]
    for row, want in zip(rows, J0_HALF_ZEROS):
        assert float(row["zero"]) == pytest.approx(want, abs=1e-8)
        assert float(row["residual"]) < 1e-9


def test_zeros_linear_form(capsys):
    code, out, _ = run(capsys, "zeros", "--rho", "2", "--beta", "0.5",
                       "--form", "lin", "--count", "2")
    assert code == 0
    rows = rows_of(out)
    a, b = (float(r["zero"]) for r in rows)
    assert 0.0 < a < b


def test_zeros_count_must_be_positive(capsys):
    code, _, err = run(capsys, "zeros", "--rho", "1", "--beta", "1",
                       "--form", "sq", "--count", "0")
    assert code == 2
    assert "count" in err


def test_zeros_rejects_unknown_form(capsys):
    code, _, _ = run(capsys, "zeros", "--rho", "1", "--beta", "1",
                     "--form", "cubed", "--count", "1")
    assert code == 2


# ----------------------------------------------------------------------------
# radius
# ----------------------------------------------------------------------------

def test_radius_both_methods_agree(capsys):
    code, out, _ = run(capsys, "radius", "--kind", "g", "--rho", "1",
                       "--beta", "1", "--what", "jan-star",
                       "-A", "1", "-B", "-1", "--method", "both")
    assert code == 0
    row = rows_of(out)[0]
    assert float(row["delta"]) < 1e-5
    assert abs(float(row["radius_certifier"]) - float(row["radius_real_axis"])) < 1e-5
    assert row["finding"] == ""


def test_radius_lem_star_within_domain(capsys):
    code, out, _ = run(capsys, "radius", "--kind", "g", "--rho", "1",
                       "--beta", "1", "--what", "lem-star")
    assert code == 0
    row = rows_of(out)[0]
    r = float(row["radius"])
    assert 0.0 < r < 1.2024128
    assert row["method"] == "certifier"


def test_radius_lem_both_reports_finding(capsys):
    code, out, err = run(capsys, "radius", "--kind", "g", "--rho", "1",
                         "--beta", "1", "--what", "lem-star",
                         "--method", "both")
    assert code == 0
    row = rows_of(out)[0]
    assert float(row["delta"]) > 1e-5
    assert row["finding"] != ""
    assert "containment bound" in err


def test_radius_finding_threshold_follows_tol(capsys):
    # Each route lies within tol of the crossing: at tol 0.05 a gap of
    # 2.3e-2 on the sharp B = -1 target is within 2 tol, so no finding.
    code, out, err = run(capsys, "radius", "--what", "jan-star", "-A", "1",
                         "-B", "-1", "--tol", "0.05", "--method", "both")
    assert code == 0
    row = rows_of(out)[0]
    assert 1e-5 < float(row["delta"]) <= 0.1
    assert row["finding"] == ""
    assert "sharpness fails" not in err


def test_radius_answers_a_radius_near_the_pole_at_coarse_tol(capsys):
    # At tol 0.08 the search ends 1% below the pole of G(1, 1) lem_star at
    # 1.2024, not 10 tol below it at 0.4024, under the radius 0.4797.
    code, out, _ = run(capsys, "radius", "--what", "lem-star", "--tol", "0.08")
    assert code == 0
    row = rows_of(out)[0]
    assert float(row["bracket_lo"]) < 0.4796529767 < float(row["bracket_hi"])
    assert float(row["bracket_hi"]) - float(row["bracket_lo"]) <= 0.08


@pytest.mark.parametrize("argv", (
    ("--what", "jan-star", "-A", "1", "-B", "-1", "--tol", "10"),
    ("--what", "lem-convex", "--tol", "1", "--method", "real-axis"),
))
def test_radius_tol_too_coarse_for_the_domain_exits_2(capsys, argv):
    code, out, err = run(capsys, "radius", *argv)
    assert code == 2
    assert out == ""
    assert "too coarse" in err


def test_radius_real_axis_answers_near_the_pole_at_coarse_tol(capsys):
    # At tol 0.05 the grid for G(1, 1) lem_convex ends 1% below the first
    # zero of g' at 0.6279, not 10 tol below it at 0.1279, under the
    # crossing 0.2447 of C with 2 - sqrt(2).
    code, out, _ = run(capsys, "radius", "--kind", "g", "--rho", "1",
                       "--beta", "1", "--what", "lem-convex", "--tol", "0.05",
                       "--method", "real-axis")
    assert code == 0
    row = rows_of(out)[0]
    assert float(row["radius"]) == pytest.approx(0.2447171391, abs=0.05)


def test_radius_rejects_inadmissible_janowski(capsys):
    code, _, err = run(capsys, "radius", "--what", "jan-star",
                       "-A", "-1", "-B", "0")
    assert code == 2
    assert "-1 <= B < A <= 1" in err


def test_radius_real_axis_method(capsys):
    code, out, _ = run(capsys, "radius", "--kind", "h", "--rho", "1",
                       "--beta", "1", "--what", "jan-star",
                       "-A", "1", "-B", "0", "--method", "real-axis")
    assert code == 0
    row = rows_of(out)[0]
    assert row["method"] == "real_axis"
    assert 0.0 < float(row["radius"]) < 1.5


def test_radius_numeric_failure_exits_1(capsys):
    # F(0.5, 30) jan_star (1, -1): the real-axis denominator lies below its
    # own rounding bound, a numeric failure of good input, so exit 1 and no row.
    code, out, err = run(capsys, "radius", "--kind", "f", "--rho", "0.5",
                         "--beta", "30", "--what", "jan-star", "-A", "1",
                         "-B", "-1", "--method", "real-axis")
    assert code == 1
    assert out == ""
    assert err.startswith("error: denominator ")
    assert "below its propagated error bound" in err


def test_radius_unknown_method_exits_2(capsys):
    # no paper method: real-axis solves the paper's equation, and both
    # reports where its root is not the radius
    for method in ("bogus", "paper"):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--what", "lem-star", "--method", method])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


# ----------------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------------

GRID = """# demo grid
rho = 0.5, 1, 2
beta = 0.5, 1, 1.5, 2
kind = g
what = lem-star, lem-convex, jan-star, jan-convex
A = 1
B = -1
"""

JAN_GRID = """rho = 0.5, 1, 2
beta = 0.5, 1, 1.5, 2
kind = g, h
what = jan-star
A = 1, 0.5
B = -1, 0
"""


def test_sweep_row_count_and_determinism(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text(GRID)
    code1, out1, _ = run(capsys, "sweep", str(grid))
    code2, out2, _ = run(capsys, "sweep", str(grid))
    assert code1 == code2 == 0
    assert out1 == out2                      # byte identical
    rows = rows_of(out1)
    assert len(rows) == 48                   # 3 rho x 4 beta x 1 kind x 4 what
    assert all(float(r["radius"]) > 0 for r in rows)
    assert "\r" not in out1                  # LF line endings


SURFACE_GRID = """rho = 0.5, 1, 2
beta = 0.5, 1, 1.5, 2
kind = f, g, h
what = lem-star, lem-convex, jan-star, jan-convex
A = 1, 1, 0.5
B = -1, 0, -0.5
"""


def test_sweep_check_reproduces_reference_bytes(tmp_path):
    # The 288-row cross-checked sweep in a fresh interpreter (cold caches, as
    # a user runs it) must print the stored reference byte for byte.
    root = Path(__file__).resolve().parents[1]
    grid = tmp_path / "grid.txt"
    grid.write_text(SURFACE_GRID)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "wright_radii.cli", "sweep", str(grid), "--check"],
        env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (root / "perfbench" / "reference_sweep.csv").read_bytes()


@pytest.mark.parametrize("demo", sorted(
    (Path(__file__).resolve().parents[1] / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    # Each demo in a fresh interpreter, as a user runs it, exits 0.
    root = demo.parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_plain_sweep_matches_the_reference_columns(tmp_path, capsys):
    # Plain sweep certifies unseeded, --check seeds the certifier from an
    # axis crossing; every certifier column must agree on all 288 rows.
    root = Path(__file__).resolve().parents[1]
    grid = tmp_path / "grid.txt"
    grid.write_text(SURFACE_GRID)
    code, out, _ = run(capsys, "sweep", str(grid))
    assert code == 0
    want = rows_of((root / "perfbench" / "reference_sweep.csv").read_text())
    for row in want:
        del row["delta"], row["finding"]
    assert len(want) == 288
    assert rows_of(out) == want


def test_sweep_check_appends_delta(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text(JAN_GRID)
    code, out, _ = run(capsys, "sweep", str(grid), "--check")
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 3 * 4 * 2 * 1 * 2    # rho x beta x kind x what x (A,B)
    for r in rows:
        assert float(r["delta"]) < 1e-5
        assert r["finding"] == ""


def test_sweep_check_reports_findings_on_stderr(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("rho=1\nbeta=1\nkind=g\nwhat=lem-star, lem-convex\n")
    code, out, err = run(capsys, "sweep", str(grid), "--check")
    assert code == 0
    findings = [r["finding"] for r in rows_of(out)]
    assert len(findings) == 2 and all("containment bound" in f for f in findings)
    assert err.splitlines() == [f"finding: {f}" for f in findings]


def test_sweep_json_mode(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("rho=1\nbeta=1\nkind=g\nwhat=lem-star\n")
    code, out, _ = run(capsys, "sweep", str(grid), "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1
    assert math.isfinite(data[0]["radius"])


def test_sweep_empty_grid_exits_2(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("# nothing here\n")
    code, _, err = run(capsys, "sweep", str(grid))
    assert code == 2
    assert "empty" in err


def test_sweep_unknown_key_exits_2(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("rho=1\nbeta=1\nwhat=lem-star\nfoo=3\n")
    code, _, err = run(capsys, "sweep", str(grid))
    assert code == 2
    assert "foo" in err


def test_sweep_mismatched_ab_exits_2(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("rho=1\nbeta=1\nwhat=jan-star\nA=1,0.5\nB=-1\n")
    code, _, err = run(capsys, "sweep", str(grid))
    assert code == 2


def test_sweep_jan_without_ab_exits_2(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("rho=1\nbeta=1\nwhat=jan-star\n")
    code, _, _ = run(capsys, "sweep", str(grid))
    assert code == 2


def test_sweep_grid_file_not_utf8_exits_2(tmp_path, capsys):
    # a UnicodeDecodeError once escaped main with a traceback and exit 1
    grid = tmp_path / "grid.txt"
    grid.write_bytes(b"rho = 1\nbeta = 1\nwhat = lem-star\n\xff\xfe\n")
    code, out, err = run(capsys, "sweep", str(grid))
    assert code == 2
    assert out == ""
    assert f"cannot read grid file {str(grid)!r}" in err


@pytest.mark.parametrize("argv, grid, message", (
    (("radius", "--what", "bogus"), None, "--what must be one of"),
    (("radius", "--what", "jan-star", "-A", "1"), None, "requires -A and -B"),
    (("sweep", "missing.txt"), None, "cannot read grid file"),
    (("sweep", "grid.txt"), "rho 1\nbeta=1\n", "expected key=value"),
    (("sweep", "grid.txt"), "rho=1\nbeta = ,\n", "no values for key 'beta'"),
    (("sweep", "grid.txt"), "beta=1\nwhat=lem-star\n", "must set 'rho'"),
    (("sweep", "grid.txt"), "rho=1\nwhat=lem-star\n", "must set 'beta'"),
    (("sweep", "grid.txt"), "rho=1\nbeta=1\nkind=g\nwhat=lem-star\nrho=2\n",
     "grid file line 5: key 'rho' repeats line 1"),
    # a sweep's tol comes from --tol alone
    *(pytest.param(("sweep", "grid.txt"),
                   f"rho=1\nbeta=1\nwhat=lem-star\ntol={tol}\n",
                   "unknown grid keys: ['tol']", id=f"grid-tol={tol}")
      for tol in ("abc", "inf", "1e-6, 1e-3")),
    *(pytest.param(("sweep", "grid.txt", "--tol", tol),
                   "rho=1\nbeta=1\nwhat=lem-star\n",
                   "tol must be finite and > 0", id=f"sweep--tol={tol}")
      for tol in ("inf", "nan", "0")),
    # a lemniscate query takes no Janowski parameters
    (("radius", "--what", "lem-star", "-A", "1", "-B", "0"), None,
     "lem-star takes no -A or -B"),
    (("radius", "--what", "lem-convex", "-B", "0"), None,
     "lem-convex takes no -A or -B"),
    (("sweep", "grid.txt"), "rho = 1, x\nbeta=1\nwhat=lem-star\n",
     "grid key 'rho': could not convert string to float: 'x'"),
))
def test_usage_errors_exit_2(tmp_path, capsys, argv, grid, message):
    if grid is not None:
        (tmp_path / "grid.txt").write_text(grid)
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


# ----------------------------------------------------------------------------
# tolerances
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("tol", ("1e-17", "1e-20"))
def test_radius_below_one_ulp_tol_finishes(capsys, tol):
    # The bisection midpoint rounds to an endpoint once the bracket is one
    # ulp wide; the certifier stops there instead of looping.
    t0 = time.monotonic()
    code, out, _ = run(capsys, "radius", "--what", "lem-star", "--tol", tol)
    assert code == 0
    assert time.monotonic() - t0 < 5.0
    row = rows_of(out)[0]
    assert float(row["radius"]) == pytest.approx(0.4796529767, abs=2e-9)
    assert float(row["bracket_lo"]) <= float(row["bracket_hi"])


@pytest.mark.parametrize("argv", (
    ("eval", "--rho", "1", "--beta", "1", "--z", "0.5"),
    ("zeros", "--rho", "1", "--beta", "1", "--count", "2"),
    ("radius", "--what", "lem-star"),
    ("radius", "--what", "jan-star", "-A", "1", "-B", "-1", "--method", "real-axis"),
))
@pytest.mark.parametrize("tol", ("inf", "nan", "0"))
def test_nonfinite_or_zero_tol_exits_2(capsys, argv, tol):
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert code == 2
    assert out == ""
    assert "tol must be finite and > 0" in err


def test_sweep_honours_tol(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("rho=1\nbeta=1\nkind=g\nwhat=lem-star, lem-convex\n")
    code, out, _ = run(capsys, "sweep", str(grid), "--tol", "0.01")
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 2
    for r in rows:
        assert 1e-3 < float(r["bracket_hi"]) - float(r["bracket_lo"]) <= 0.01
