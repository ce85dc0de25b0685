"""Command-line front end: exit codes, determinism, report content."""

import configparser
import contextlib
import io
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obstacle_lab import cli
from obstacle_lab.cli import CONFIG_KEYS, load_config, main
from obstacle_lab.errors import InconclusiveError
from obstacle_lab.geometry import kernel_profile
from obstacle_lab.grid import GridSpec, box_grid, sample, write_snapshot
from obstacle_lab.scenarios import SCENARIOS, make_scenario
from obstacle_lab.solver import optimal_relax


def run_cli(*argv):
    return main(list(argv))


def _report(out: Path) -> dict:
    """out/report.json, parsed as strict JSON: NaN or +-Infinity fails."""

    def reject(constant):
        raise ValueError(f"report.json holds {constant}, which is not JSON")

    return json.loads((out / "report.json").read_text(), parse_constant=reject)


def _config(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


RADIAL2D = """
[scenario]
name = radial2d
R = 0.5

[grid]
cells = 96

[solver]
relax = auto

[analysis]
radii = 0.25 0.175 0.125
max_points = 3

[output]
dir = {out}
"""


def test_list_full(capsys):
    assert run_cli("list") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    assert lines[0].split()[0] == "flat1d"


def test_list_filter(capsys):
    # poly builds on every grid dim, so every dim=D listing includes it
    assert run_cli("list", "dim=2") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert {ln.split()[0] for ln in lines} == {"radial2d", "poly", "aniso2d"}


def test_list_bad_filter(capsys):
    assert run_cli("list", "shape=round") == 1
    assert run_cli("list", "dim=x") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("unsupported filter") == 2


def test_run_radial2d_regular_only(tmp_path):
    out = tmp_path / "out"
    cfg = _config(tmp_path, "r2.ini", RADIAL2D.format(out=out))
    assert run_cli("run", cfg) == 0
    report = _report(out)
    verdicts = report["grids"][0]["verdicts"]
    assert verdicts and all(v == "regular" for v in verdicts)
    csv = (out / "classification_96.csv").read_text().splitlines()
    assert csv[0] == "grid,x1,x2,verdict,n,residual_quadratic,residual_halfspace"
    assert all("regular" in ln for ln in csv[1:])


def test_run_missing_scenario_name(tmp_path):
    cfg = _config(tmp_path, "bad.ini", "[grid]\ncells = 8\n")
    assert run_cli("run", cfg) == 1


def test_run_unknown_key(tmp_path):
    cfg = _config(
        tmp_path, "bad.ini", "[scenario]\nname = radial2d\n\n[solver]\nspeed = 9\n"
    )
    assert run_cli("run", cfg) == 1


def test_run_ordering_key_is_unknown(tmp_path, capsys):
    cfg = _config(
        tmp_path,
        "bad.ini",
        "[scenario]\nname = radial2d\n\n[solver]\nordering = red-black\n",
    )
    assert run_cli("run", cfg) == 1
    assert "solver.ordering" in capsys.readouterr().err


@pytest.mark.parametrize("max_iter", ["0", "-3"])
def test_run_max_iter_below_one_is_config_error(tmp_path, capsys, max_iter):
    cfg = _config(
        tmp_path,
        "bad.ini",
        "[scenario]\nname = radial2d\n\n[grid]\ncells = 16\n\n"
        f"[solver]\nmax_iter = {max_iter}\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert run_cli("run", cfg) == 1
    assert "max_iter" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_delta_exceeds_box(tmp_path, capsys):
    cfg = _config(
        tmp_path,
        "bad.ini",
        "[scenario]\nname = pinch3d\n\n[grid]\ncells = 8\n\n"
        "[analysis]\ndelta = 5.0\n",
    )
    assert run_cli("run", cfg) == 1
    assert "delta" in capsys.readouterr().err


def test_run_decreasing_cells(tmp_path):
    cfg = _config(
        tmp_path,
        "bad.ini",
        "[scenario]\nname = radial2d\n\n[grid]\ncells = 64 32\n",
    )
    assert run_cli("run", cfg) == 1


def test_run_repeated_radius_is_config_error(tmp_path, capsys):
    # a repeated radius fits the same window twice and would count as the
    # second radius classify_point needs
    out = tmp_path / "out"
    cfg = _config(
        tmp_path,
        "bad.ini",
        "[scenario]\nname = radial2d\n\n[grid]\ncells = 64\n\n"
        f"[analysis]\nradii = 0.25 0.25\n\n[output]\ndir = {out}\n",
    )
    assert run_cli("run", cfg) == 1
    assert capsys.readouterr().err == (
        "config error: analysis.radii = [0.25, 0.25] repeats a radius\n"
    )
    assert not out.exists()


def test_run_nonconverged_exit_2(tmp_path, capsys):
    cfg = _config(
        tmp_path,
        "nc.ini",
        "[scenario]\nname = radial2d\nR = 0.5\n\n[grid]\ncells = 64\n\n"
        "[solver]\nmax_iter = 3\n\n"
        f"[output]\ndir = {tmp_path / 'nc'}\n",
    )
    assert run_cli("run", cfg) == 2
    assert capsys.readouterr().err == (
        "solver error: grid 64: max_iter after 3 iterations, "
        "certificate 0.642 > tol 1e-10\n"
    )


def test_run_grid_too_large_for_memory(tmp_path, capsys):
    # (10^6 + 1)^3 nodes exceed any address space: the allocation fails at once
    out = tmp_path / "big"
    cfg = _config(
        tmp_path,
        "big.ini",
        f"[scenario]\nname = radial3d\n\n[grid]\ncells = 1000000\n\n[output]\ndir = {out}\n",
    )
    assert run_cli("run", cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("memory error: Unable to allocate ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "scenario,cells,half",
    [("radial2d", 32, 1.0), ("aniso2d", 128, 1.3)],
    ids=["psor", "multigrid"],
)
def test_run_stalled_solve_exit_2(tmp_path, capsys, scenario, cells, half):
    # tol = 1e-16 sits below the certificate's rounding floor on both grids
    out = tmp_path / "st"
    cfg = _config(
        tmp_path,
        "st.ini",
        f"[scenario]\nname = {scenario}\n\n[grid]\ncells = {cells}\nhalf = {half}\n\n"
        "[solver]\ntol = 1e-16\n\n[analysis]\nmax_points = 1\n\n"
        f"[output]\ndir = {out}\n",
    )
    assert run_cli("run", cfg) == 2
    entry = _report(out)["grids"][0]
    assert entry["stop_reason"] == "stagnation"
    assert entry["converged"] is False
    assert entry["contraction"] > 0.0
    assert entry["iterations"] < 1500
    err = capsys.readouterr().err
    its = entry["iterations"]
    head = f"solver error: grid {cells}: stagnation after {its} iterations"
    assert err.startswith(f"{head}, certificate ") and err.endswith(" > tol 1e-16\n")
    assert err.count("\n") == 1


def test_run_reports_stop_reason(tmp_path):
    out = tmp_path / "out"
    cfg = _config(tmp_path, "r2.ini", RADIAL2D.format(out=out))
    assert run_cli("run", cfg) == 0
    entry = _report(out)["grids"][0]
    assert entry["converged"] is True and entry["stop_reason"] == "tol"
    assert 0.0 < entry["contraction"] < 1.0
    header = (out / "telemetry_96.csv").read_text().splitlines()[0]
    assert header == "iter,max_eq,max_ineq,max_neg"


def test_run_reports_the_solver_method(tmp_path):
    # 64 cells lie below _MG_MIN_CELLS: PSOR sweeps; 128 cells: V-cycles
    out = tmp_path / "out"
    body = RADIAL2D.format(out=out).replace("cells = 96", "cells = 64 128")
    assert run_cli("run", _config(tmp_path, "r2.ini", body)) == 0
    psor, mg = _report(out)["grids"]
    relax = optimal_relax(box_grid(2, 64))
    # both grids have bit-symmetric data on [-1, 1]^2 and solve on a quarter
    assert psor["method"] == {"name": "psor", "relax": relax, "mirrored": [0, 1]}
    levels = [128, 64, 32, 16, 8]
    assert mg["method"] == {"name": "multigrid", "levels": levels, "mirrored": [0, 1]}
    assert psor["iterations"] > 40 > mg["iterations"]
    # method leads the solve keys; the others keep their order
    solve = ["method", "iterations", "converged", "stop_reason", "contraction"]
    assert list(mg)[:8] == ["cells", "h"] + solve + ["residual"]


def test_run_diagnostic_exit_3(tmp_path):
    # all requested radii sit below the 4h resolution floor
    cfg = _config(
        tmp_path,
        "d3.ini",
        "[scenario]\nname = radial2d\nR = 0.5\n\n[grid]\ncells = 16\n\n"
        "[analysis]\nradii = 0.01\n\n"
        f"[output]\ndir = {tmp_path / 'd3'}\n",
    )
    assert run_cli("run", cfg) == 3
    report = _report(tmp_path / "d3")
    assert report["diagnostic_errors"]


def test_run_diagnostic_names_point_as_plain_numbers(tmp_path):
    # the window of radius 0.25 around x1 = 0.9 leaves the box [-1, 1]^2
    out = tmp_path / "edge"
    cfg = _config(
        tmp_path,
        "edge.ini",
        "[scenario]\nname = radial2d\n\n[grid]\ncells = 32\n\n"
        "[analysis]\npoint = 0.9 0.0\n\n"
        f"[output]\ndir = {out}\n",
    )
    assert run_cli("run", cfg) == 3
    diagnostics = _report(out)["diagnostic_errors"]
    assert any(d.startswith("classification at [0.9, 0.0]: ") for d in diagnostics)
    assert not any("np.float64" in d for d in diagnostics)
    # the failed point's row: no kernel, and empty cells for the absent residuals
    rows = (out / "classification_32.csv").read_text().splitlines()
    assert rows[1:] == ["32,0.9,0.0,error,0,,"]


def test_run_empty_contact_set_exit_3(tmp_path):
    # the contact disk of radius 0.01 is thinner than one cell of 1/32
    cfg = _config(
        tmp_path,
        "empty.ini",
        "[scenario]\nname = radial2d\nR = 0.01\n\n[grid]\ncells = 64\n\n"
        f"[output]\ndir = {tmp_path / 'empty'}\n",
    )
    assert run_cli("run", cfg) == 3
    report = _report(tmp_path / "empty")
    assert report["grids"][0]["free_boundary_points"] == 0
    assert any(
        d.startswith("no free-boundary points at eps_u = ")
        for d in report["diagnostic_errors"]
    )


def test_slices_without_kernel_on_last_axis_say_why(tmp_path):
    # radial3d has no degenerate direction: neither a classified model nor
    # the declared truth gives a kernel on the last axis to cut along
    out = tmp_path / "r3"
    cfg = _config(
        tmp_path,
        "r3.ini",
        "[scenario]\nname = radial3d\n\n[grid]\ncells = 48\n\n"
        f"[analysis]\nslices = 0.5 -0.25\n\n[output]\ndir = {out}\n",
    )
    assert run_cli("run", cfg) == 3
    report = _report(out)
    assert any(
        d.startswith("cross sections: ") and d.endswith("; slices not cut")
        for d in report["diagnostic_errors"]
    )
    assert (out / "sections_48.csv").read_text() == "grid,t,d,closeness\n"


def test_analyze_3d_poly_cuts_slices_along_the_declared_kernel(tmp_path):
    # A = diag(1/4, 1/4, 0): the declared kernel is the x3-axis.  The point
    # (0.5, 0, 0) classifies as no singular blow-up, so the profile and the
    # slices follow the declared kernel; the hairline contact set gives no
    # profile to fit, which is the run's one diagnostic
    grid = box_grid(3, 32)
    snap = tmp_path / "f.dat"
    exact = make_scenario("poly", {"a11": 0.25, "a22": 0.25}, grid).exact
    write_snapshot(sample(exact, grid), snap)
    out = tmp_path / "out"
    cfg = _config(
        tmp_path,
        "p.ini",
        "[scenario]\nname = poly\na11 = 0.25\na22 = 0.25\n\n[grid]\ncells = 32\n\n"
        f"[analysis]\npoint = 0.5 0 0\nslices = 0.5 0.25\n\n[output]\ndir = {out}\n",
    )
    assert run_cli("analyze", str(snap), cfg) == 3
    assert _report(out)["diagnostic_errors"] == [
        "diameter profile: 0 of 32 section diameters reach the floor "
        "4|h| = 0.433; need at least 4"
    ]
    rows = (out / "sections_32.csv").read_text().splitlines()
    assert rows[0] == "grid,t,d,closeness" and len(rows) == 3


def _pinch3d_slices(tmp_path, slices):
    out = tmp_path / "cut"
    cfg = _config(
        tmp_path,
        "cut.ini",
        "[scenario]\nname = pinch3d\n\n[grid]\ncells = 32\n\n"
        f"[analysis]\ndelta = 0.24\nslices = {slices}\n\n[output]\ndir = {out}\n",
    )
    return out, cfg


def test_run_empty_cross_section_has_no_closeness(tmp_path):
    # the pinch3d tube does not reach down to x3 = -0.9 on 32 cells: that
    # section is empty, its diameter 0, and it has no closeness
    out, cfg = _pinch3d_slices(tmp_path, "-0.9 0.5")
    assert run_cli("run", cfg) == 0
    rows = (out / "sections_32.csv").read_text().splitlines()
    assert rows[0] == "grid,t,d,closeness"
    assert rows[2] == "32,-0.90625,0.0,"
    closeness = float(rows[1].split(",")[3])
    assert _report(out)["grids"][0]["closeness"] == [closeness]


def test_failing_section_step_is_a_diagnostic(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise InconclusiveError("auxiliary solve did not converge")

    monkeypatch.setattr(cli, "reference_ellipsoid", fail)
    out, cfg = _pinch3d_slices(tmp_path, "0.5")
    assert run_cli("run", cfg) == 3
    report = _report(out)
    assert report["diagnostic_errors"] == [
        "cross sections: auxiliary solve did not converge"
    ]
    assert (out / "sections_32.csv").read_text() == "grid,t,d,closeness\n"
    assert "closeness" not in report["grids"][0]


def test_run_applicability_verdict(tmp_path):
    out = tmp_path / "p3"
    cfg = _config(
        tmp_path,
        "p3.ini",
        "[scenario]\nname = pinch3d\neps = 0.05\n\n[grid]\ncells = 32\n\n"
        "[solver]\nrelax = auto\n\n"
        "[analysis]\npoint = 0 0 -0.2\nradii = 0.3 0.2\nlambda_star = 6\n\n"
        f"[output]\ndir = {out}\n",
    )
    code = run_cli("run", cfg)
    assert code in (0, 3)
    report = _report(out)
    app = report["applicability"]
    # N = 3, n = 1: codimension 3 fails the proven threshold 6 but holds
    # under the conjectured threshold 1
    assert app["codimension"] == 3
    assert app["holds_at_lambda_star"] is False
    assert app["holds_at_conjectured_1"] is True


def test_run_singular_base_point(tmp_path):
    # every detected point of the degenerate poly blow-up is singular, so the
    # ACF runs at the singular point nearest the centre
    out = tmp_path / "sing"
    cfg = _config(
        tmp_path,
        "sing.ini",
        "[scenario]\nname = poly\na11 = 0.5\n\n[grid]\ncells = 64\n\n"
        "[analysis]\neps_u = 0.0008\nmax_points = 4\n\n"
        f"[output]\ndir = {out}\n",
    )
    assert run_cli("run", cfg) == 0
    entry = _report(out)["grids"][0]
    assert entry["verdicts"] == ["singular"] * 4
    rows = (out / "classification_64.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["1"] * 4
    assert np.isfinite(entry["acf_v_star"])
    assert len((out / "acf_64.csv").read_text().splitlines()) == 4


def test_run_one_radius_has_no_acf_v_star(tmp_path):
    # 4h = 0.25 on 32 cells keeps one of the default radii, and v* needs a pair
    out = tmp_path / "one"
    cfg = _config(
        tmp_path,
        "one.ini",
        f"[scenario]\nname = radial2d\n\n[grid]\ncells = 32\n\n[output]\ndir = {out}\n",
    )
    assert run_cli("run", cfg) == 0
    assert "acf_v_star" not in _report(out)["grids"][0]
    assert len((out / "acf_32.csv").read_text().splitlines()) == 2


def test_run_deterministic_csv(tmp_path):
    outs = []
    for k in (1, 2):
        out = tmp_path / f"det{k}"
        cfg = _config(tmp_path, f"det{k}.ini", RADIAL2D.format(out=out))
        assert run_cli("run", cfg) == 0
        outs.append(out)
    for name in (
        "classification_96.csv",
        "acf_96.csv",
        "sections_96.csv",
        "profile_96.csv",
        "telemetry_96.csv",
    ):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


PINCH3D = """
[scenario]
name = pinch3d
eps = 0.05

[grid]
cells = 32

[analysis]
radii = 0.5 0.35 0.25
delta = 0.24
slices = 0.9 0.7 0.5 0.3
max_points = 4

[output]
dir = {out}
"""


@pytest.mark.parametrize(
    "template,cells", [(RADIAL2D, 96), (PINCH3D, 32)], ids=["radial2d-96", "pinch3d-32"]
)
def test_analyze_matches_run(tmp_path, template, cells):
    out = tmp_path / "runout"
    cfg = _config(tmp_path, "run.ini", template.format(out=out))
    assert run_cli("run", cfg) == 0
    aout = tmp_path / "anaout"
    acfg = _config(tmp_path, "ana.ini", template.format(out=aout))
    assert run_cli("analyze", str(out / f"field_{cells}.dat"), acfg) == 0
    for stem in ("classification", "acf", "sections", "profile"):
        name = f"{stem}_{cells}.csv"
        assert (out / name).read_bytes() == (aout / name).read_bytes()
    reports = [_report(d) for d in (out, aout)]
    assert reports[0]["applicability"] == reports[1]["applicability"]


@pytest.mark.parametrize("command", ["run", "analyze"])
@pytest.mark.parametrize(
    "scenario,extra",
    [
        pytest.param("radial2d", "r = 0.3\n", id="unknown-param"),
        pytest.param("poly", "a11 = 0.5\na33 = 0.0\n", id="poly-key-beyond-dim"),
        pytest.param("radial2d", "\n[analysis]\npoint = 0.5\n", id="short-point"),
        pytest.param("radial2d", "\n[analysis]\nseed = 0\n", id="seed-key"),
        pytest.param("radial2d", "\n[analysis]\neps_u = 0\n", id="eps-u-zero"),
        pytest.param(
            "radial2d", "\n[analysis]\nmax_points = -1\n", id="max-points-negative"
        ),
        pytest.param(
            "pinch3d", "\n[analysis]\nslices = 1.5 0.5\n", id="slice-outside-box"
        ),
        pytest.param(
            "paraboloid_mask",
            "\n[analysis]\nslices = -1.5\n",
            id="mask-slice-outside-box",
        ),
        pytest.param(
            "radial2d", "\n[analysis]\npoint = 1.5 0.0\n", id="point-outside-box"
        ),
        pytest.param("radial2d", "\n[analysis]\nslices = 0.5\n", id="slices-on-2d"),
        pytest.param("radial2d", "\n[plot]\nx = 1\n", id="unknown-section"),
        pytest.param("mystery", "", id="unknown-scenario"),
        pytest.param("radial2d", "\n[analysis]\nlambda_star = 0\n", id="lambda-star-zero"),
    ],
)
def test_config_error_writes_nothing(tmp_path, capsys, command, scenario, extra):
    out = tmp_path / "out"
    cfg = _config(
        tmp_path,
        "bad.ini",
        f"[output]\ndir = {out}\n\n[grid]\ncells = 16\n\n"
        f"[scenario]\nname = {scenario}\n{extra}",
    )
    argv = ["run", cfg]
    if command == "analyze":
        snap = tmp_path / "f.dat"
        write_snapshot(sample(lambda P: P[:, 0] ** 2 / 2.0, box_grid(2, 16)), snap)
        argv = ["analyze", str(snap), cfg]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "key,extra",
    [
        pytest.param("svg", "svg = ture\n", id="svg-typo"),
        pytest.param("radii", "[analysis]\nradii = -0.3 0.25 0.175\n", id="radii-negative"),
        pytest.param("radii", "[analysis]\nradii = 0 -1\n", id="radii-zero"),
    ],
)
def test_bad_value_is_config_error_naming_its_key(tmp_path, capsys, key, extra):
    out = tmp_path / "out"
    cfg = _config(
        tmp_path,
        "bad.ini",
        f"[scenario]\nname = radial2d\n[grid]\ncells = 16\n[output]\ndir = {out}\n{extra}",
    )
    assert run_cli("run", cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "body",
    [
        pytest.param("[scenario]\nname = radial2d\n[grid]\n[grid]\n", id="duplicate-section"),
        pytest.param(
            "[scenario]\nname = radial2d\nR = 0.5\nR = 0.4\n", id="duplicate-option"
        ),
        pytest.param("name = radial2d\n", id="no-section-header"),
        pytest.param(
            "[scenario]\nname = radial2d\n[output]\ndir = %(foo)s\n", id="interpolation"
        ),
        pytest.param(None, id="missing-file"),
        pytest.param("[scenario]\nname = radial2d\n[grid]\nhalf = 0\n", id="half-zero"),
        # boxes float64 cannot represent: a count past int64, an extent past
        # the largest float, a cell size whose square overflows or underflows
        pytest.param(
            "[scenario]\nname = radial2d\n[grid]\ncells = 9223372036854775808\n",
            id="cells-past-int64",
        ),
        pytest.param("[scenario]\nname = radial2d\n[grid]\nhalf = 1e308\n", id="half-1e308"),
        pytest.param("[scenario]\nname = flat1d\n[grid]\nhalf = 1e160\n", id="h-squared-inf"),
        pytest.param(
            "[scenario]\nname = flat1d\n[grid]\nhalf = 1e-320\n[analysis]\ndelta = 1e-321\n",
            id="h-squared-zero",
        ),
        # a 3D cell volume h^3 that overflows or underflows while h^2 does not
        pytest.param(
            "[scenario]\nname = radial3d\n[grid]\ncells = 8\nhalf = 1e110\n",
            id="cell-volume-inf",
        ),
        pytest.param(
            "[scenario]\nname = radial3d\nR = 5e-111\n[grid]\ncells = 8\nhalf = 1e-110\n"
            "[analysis]\ndelta = 1e-110\n",
            id="cell-volume-zero",
        ),
        # 2*tr(A) overflows; its check must not print a numpy warning first
        pytest.param("[scenario]\nname = poly\na11 = 1e308\n", id="poly-trace-overflow"),
        # scenario data that overflows on a box whose h^2 and cell volume
        # are finite: no numpy warning, no traceback
        pytest.param(
            "[scenario]\nname = radial2d\n[grid]\ncells = 4\nhalf = 1e154\n",
            id="radial2d-data-overflow",
        ),
        pytest.param(
            "[scenario]\nname = flat1d\n[grid]\ncells = 4\nhalf = 2e154\n",
            id="flat1d-data-overflow",
        ),
    ],
)
@pytest.mark.filterwarnings("error")
def test_malformed_config_is_config_error(tmp_path, capsys, monkeypatch, body):
    monkeypatch.chdir(tmp_path)  # where the default output.dir, out, would go
    if body is None:
        cfg = str(tmp_path / "missing.ini")
    else:
        cfg = _config(tmp_path, "bad.ini", body)
    assert run_cli("run", cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "scenario,section",
    [
        pytest.param("poly\na11 = nan\na22 = 0.5", "", id="poly-a11-nan"),
        pytest.param("radial2d", "[grid]\nhalf = inf\n", id="half-inf"),
        pytest.param("radial2d", "[analysis]\nradii = nan 0.2\n", id="radii-nan"),
        pytest.param("radial2d", "[analysis]\npoint = nan 0\n", id="point-nan"),
        pytest.param("pinch3d", "[analysis]\nslices = inf\n", id="slices-inf"),
    ],
)
def test_non_finite_number_is_config_error(tmp_path, capsys, scenario, section):
    out = tmp_path / "out"
    cfg = _config(
        tmp_path,
        "bad.ini",
        f"[scenario]\nname = {scenario}\n\n{section}\n[output]\ndir = {out}\n",
    )
    assert run_cli("run", cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_uncreatable_output_dir(tmp_path, capsys, command):
    (tmp_path / "afile").write_text("")
    cfg = _config(
        tmp_path,
        "c.ini",
        "[scenario]\nname = radial2d\n\n[grid]\ncells = 16\n\n"
        f"[output]\ndir = {tmp_path / 'afile' / 'sub'}\n",
    )
    argv = ["run", cfg]
    if command == "analyze":
        snap = tmp_path / "f.dat"
        write_snapshot(sample(lambda P: P[:, 0] ** 2 / 2.0, box_grid(2, 16)), snap)
        argv = ["analyze", str(snap), cfg]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith("output error: ")


def test_analyze_singular_snapshot(tmp_path):
    g = box_grid(2, 96)
    u = sample(lambda P: P[:, 0] ** 2 / 2.0, g)
    snap = tmp_path / "poly.dat"
    write_snapshot(u, snap)
    out = tmp_path / "polyout"
    cfg = _config(
        tmp_path,
        "poly.ini",
        "[scenario]\nname = poly\na11 = 0.5\n\n[grid]\ncells = 96\n\n"
        "[analysis]\npoint = 0 0.25\nradii = 0.3 0.2\n\n"
        f"[output]\ndir = {out}\n",
    )
    assert run_cli("analyze", str(snap), cfg) == 0
    csv = (out / "classification_96.csv").read_text().splitlines()
    assert "singular" in csv[1]


def test_analyze_elapsed_seconds_covers_the_snapshot_read(tmp_path, monkeypatch):
    snap = tmp_path / "f.dat"
    write_snapshot(sample(lambda P: P[:, 0] ** 2 / 2.0, box_grid(2, 16)), snap)
    out = tmp_path / "out"
    cfg = _config(
        tmp_path,
        "a.ini",
        f"[scenario]\nname = poly\na11 = 0.5\n\n[grid]\ncells = 16\n\n[output]\ndir = {out}\n",
    )
    read = cli.read_snapshot

    def slow_read(path):
        time.sleep(0.2)
        return read(path)

    monkeypatch.setattr(cli, "read_snapshot", slow_read)
    # exit 3: 16 cells put every default radius below the 4h floor
    assert run_cli("analyze", str(snap), cfg) == 3
    assert _report(out)["elapsed_seconds"] >= 0.2


def test_analyze_truncated_snapshot(tmp_path):
    snap = tmp_path / "bad.dat"
    snap.write_text("2 8 8")
    cfg = _config(
        tmp_path,
        "c.ini",
        f"[scenario]\nname = radial2d\n\n[output]\ndir = {tmp_path / 'x'}\n",
    )
    assert run_cli("analyze", str(snap), cfg) == 1


def _nan_snapshot(path):
    write_snapshot(sample(lambda P: P[:, 0] ** 2 / 2.0, box_grid(2, 16)), path)
    data = path.read_bytes()
    at = data.index(b"\n") + 1 + 8 * 4  # the fifth node value
    path.write_bytes(data[:at] + np.array([np.nan], "<f8").tobytes() + data[at + 8 :])


def _extra_values_snapshot(path):
    # a 16-cell body under an 8-cell header
    write_snapshot(sample(lambda P: P[:, 0] ** 2 / 2.0, box_grid(2, 16)), path)
    path.write_bytes(path.read_bytes().replace(b" 2 16 16 ", b" 2 8 8 ", 1))


def _overlong_header_snapshot(path):
    # the header declares 10^15 values (an 8 PiB array); the file holds one
    path.write_bytes(
        b"obstacle-lab-snapshot 1 3 99999 99999 99999 -1 -1 -1 2 2 2\n" + bytes(8)
    )


def _int64_cells_snapshot(path):
    path.write_bytes(b"obstacle-lab-snapshot 1 1 100000000000000000000 -1 2\n" + bytes(8))


def _nan_origin_snapshot(path):
    path.write_bytes(b"obstacle-lab-snapshot 1 1 8 nan 2\n" + bytes(72))


def _h_squared_zero_snapshot(path):
    # 8 cells on a box 2e-320 wide: the cell size squares to 0
    path.write_bytes(b"obstacle-lab-snapshot 1 1 8 -1e-320 2e-320\n" + bytes(72))


def _ascii_v0_snapshot(path):
    # the format before the binary body: no format token, one value per line
    path.write_text("2 16 16 -1 -1 2 2\n" + "0\n" * 17**2)


@pytest.mark.parametrize(
    "make",
    [
        lambda path: None,
        _nan_snapshot,
        _extra_values_snapshot,
        _overlong_header_snapshot,
        _int64_cells_snapshot,
        _nan_origin_snapshot,
        _h_squared_zero_snapshot,
        _ascii_v0_snapshot,
    ],
    ids=[
        "missing",
        "non-finite",
        "extra-values",
        "over-long-header",
        "cells-past-int64",
        "nan-origin",
        "h-squared-zero",
        "ascii-v0",
    ],
)
def test_analyze_unreadable_snapshot(tmp_path, capsys, make):
    snap = tmp_path / "f.dat"
    make(snap)
    out = tmp_path / "out"
    cfg = _config(
        tmp_path,
        "c.ini",
        f"[scenario]\nname = radial2d\n\n[grid]\ncells = 16\n\n[output]\ndir = {out}\n",
    )
    assert run_cli("analyze", str(snap), cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("snapshot error: ") and err.count("\n") == 1
    assert not out.exists()


def test_analyze_rejects_a_snapshot_past_the_value_bound(tmp_path, capsys):
    # 1e158 (|x|^2 - 0.25)^+ overflowed a norm in refine_boundary_point, a
    # traceback under warnings as errors; at 1e150 it lies below the bound
    grid = box_grid(2, 32)
    for scale, code in ((1e150, 0), (1e158, 1)):
        snap = tmp_path / f"f{scale:g}.dat"
        ring = lambda P: scale * np.maximum(np.sum(P**2, axis=1) - 0.25, 0.0)
        write_snapshot(sample(ring, grid), snap)
        out = tmp_path / f"out{scale:g}"
        body = f"[scenario]\nname = radial2d\n\n[grid]\ncells = 32\n\n[output]\ndir = {out}\n"
        assert run_cli("analyze", str(snap), _config(tmp_path, "c.ini", body)) == code
        err = capsys.readouterr().err
        assert out.exists() == (code == 0)
    assert err == "snapshot error: largest |value| 1.75e+158 exceeds 3.27e+150 (2^500), " \
        "past which the analysis overflows\n"


def test_analyze_grid_mismatch(tmp_path):
    g = box_grid(2, 16)
    u = sample(lambda P: np.sum(P**2, axis=1), g)
    snap = tmp_path / "f.dat"
    write_snapshot(u, snap)
    cfg = _config(
        tmp_path,
        "c.ini",
        "[scenario]\nname = radial2d\n\n[grid]\ncells = 64\n\n"
        f"[output]\ndir = {tmp_path / 'x'}\n",
    )
    assert run_cli("analyze", str(snap), cfg) == 1


def test_analyze_rejects_non_cubic_snapshot(tmp_path, capsys):
    # the box is [-1, 1]^2 and 64 is in the schedule, but run never writes
    # a grid whose axes have different cell counts
    grid = GridSpec(dim=2, origin=(-1.0, -1.0), extent=(2.0, 2.0), cells=(64, 48))
    snap = tmp_path / "f.dat"
    write_snapshot(sample(lambda P: np.sum(P**2, axis=1), grid), snap)
    out = tmp_path / "out"
    cfg = _config(
        tmp_path,
        "c.ini",
        f"[scenario]\nname = radial2d\n\n[grid]\ncells = 64\n\n[output]\ndir = {out}\n",
    )
    assert run_cli("analyze", str(snap), cfg) == 1
    err = capsys.readouterr().err
    assert err == "snapshot grid (64 x 48 cells) not in the configured schedule [64]\n"
    assert not out.exists()


def _pinch3d_snapshot(path):
    write_snapshot(sample(lambda P: P[:, 0] ** 2 / 2.0, box_grid(3, 16)), path)


@pytest.mark.parametrize(
    "make,config",
    [
        # slices and delta are checked against half = 2, the field is on [-1, 1]^3
        pytest.param(
            _pinch3d_snapshot,
            "[scenario]\nname = pinch3d\n\n[grid]\ncells = 16\nhalf = 2\n\n"
            "[analysis]\nslices = 1.5 0.5\n",
            id="half-2",
        ),
    ],
)
def test_analyze_box_mismatch(tmp_path, capsys, make, config):
    snap = tmp_path / "f.dat"
    make(snap)
    out = tmp_path / "out"
    cfg = _config(tmp_path, "c.ini", f"{config}\n[output]\ndir = {out}\n")
    assert run_cli("analyze", str(snap), cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("snapshot box ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_analyze_scenario_data_overflow_is_config_error(tmp_path, capsys):
    # the snapshot is finite, but the radial2d data overflows on its box
    grid = GridSpec(dim=2, origin=(-1e154, -1e154), extent=(2e154, 2e154), cells=(4, 4))
    snap = tmp_path / "f.dat"
    write_snapshot(sample(lambda P: np.zeros(len(P)), grid), snap)
    out = tmp_path / "out"
    cfg = _config(
        tmp_path,
        "c.ini",
        f"[scenario]\nname = radial2d\n[grid]\ncells = 4\nhalf = 1e154\n[output]\ndir = {out}\n",
    )
    assert run_cli("analyze", str(snap), cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


def test_run_mask_scenario(tmp_path):
    out = tmp_path / "mask"
    cfg = _config(
        tmp_path,
        "m.ini",
        "[scenario]\nname = paraboloid_mask\nkappa = 1.0\n\n[grid]\ncells = 32\n\n"
        "[analysis]\ndelta = 1.0\n\n"
        f"[output]\ndir = {out}\n",
    )
    assert run_cli("run", cfg) == 0
    report = _report(out)
    prof = report["grids"][0]["profile"]
    assert prof["branch"] == "sqrt"
    # a mask run writes the per-grid CSVs a solved run's geometry step does
    assert {p.name for p in out.iterdir()} == {"profile_32.csv", "sections_32.csv", "report.json"}
    assert (out / "sections_32.csv").read_text() == "grid,t,d,closeness\n"


def test_mask_run_profile_about_the_configured_point(tmp_path):
    # analysis.point moves the profile off the origin, as on a solved run
    body = (
        "[scenario]\nname = paraboloid_mask\n\n[grid]\ncells = 32\n\n"
        "[analysis]\ndelta = 0.2\n{point}\n[output]\ndir = {out}\n"
    )
    for name, point in (("origin", ""), ("point", "point = 0.4 0.4 0.5\n")):
        cfg = _config(tmp_path, f"{name}.ini", body.format(point=point, out=tmp_path / name))
        assert run_cli("run", cfg) == 0
    grid = box_grid(3, 32)
    mask = make_scenario("paraboloid_mask", {}, grid).mask
    prof = kernel_profile(mask, np.array([0.4, 0.4, 0.5]), 0.2)
    expected = ["grid,t,d"] + [f"32,{t!r},{d!r}" for t, d in prof]
    text = (tmp_path / "point" / "profile_32.csv").read_text()
    assert text.splitlines() == expected
    assert text != (tmp_path / "origin" / "profile_32.csv").read_text()


def test_mask_run_profile_below_the_floor(tmp_path):
    # a paraboloid this thin has no section as wide as 4|h| = 0.433 on 32
    # cells: no fit of grid noise, a diagnostic, and the raw diameters kept
    out = tmp_path / "thin"
    cfg = _config(
        tmp_path,
        "m.ini",
        "[scenario]\nname = paraboloid_mask\nkappa = 0.01\n\n[grid]\ncells = 32\n\n"
        f"[analysis]\ndelta = 1.0\n\n[output]\ndir = {out}\n",
    )
    assert run_cli("run", cfg) == 3
    report = _report(out)
    assert "profile" not in report["grids"][0]
    assert report["diagnostic_errors"] == [
        "diameter profile: 0 of 32 section diameters reach the floor "
        "4|h| = 0.433; need at least 4"
    ]
    rows = (out / "profile_32.csv").read_text().splitlines()
    assert len(rows) == 33 and any(float(r.split(",")[2]) > 0 for r in rows[1:])


def test_mask_run_slices_not_cut(tmp_path):
    # a pure-geometry mask has no quadratic blow-up to cut along; it goes
    # through the profile-and-sections step of a solved grid, which says so
    out = tmp_path / "mask"
    cfg = _config(
        tmp_path,
        "m.ini",
        "[scenario]\nname = paraboloid_mask\n\n[grid]\ncells = 32\n\n"
        f"[analysis]\ndelta = 1.0\nslices = 0.5\n\n[output]\ndir = {out}\n",
    )
    assert run_cli("run", cfg) == 3
    report = _report(out)
    assert report["diagnostic_errors"] == [
        "cross sections: no quadratic blow-up with a one-dimensional kernel "
        "on the last axis; slices not cut"
    ]


def test_run_svg_output(tmp_path):
    out = tmp_path / "svg"
    body = RADIAL2D.format(out=out) + "\n[output]\nsvg = true\n"
    # configparser rejects duplicate sections; rebuild cleanly instead
    body = RADIAL2D.format(out=out).replace("dir =", "svg = true\ndir =")
    cfg = _config(tmp_path, "s.ini", body)
    assert run_cli("run", cfg) == 0
    assert (out / "boundary_96.svg").exists()


EVERY_KEY = """
[scenario]
name = radial3d
R = 0.45

[grid]
cells = 16 24
half = 1.2

[solver]
tol = 1e-9
relax = 1.6
max_iter = 4000

[analysis]
point = 0.45 0 0
radii = 0.4 0.3
delta = 0.3
slices = 0.5 -0.25
eps_u = 1e-7
lambda_star = 3
max_points = 2

[output]
dir = out
svg = true
"""


def _echo_ini(config: dict) -> str:
    """report.json's config echo as INI: lists joined by spaces, bools as
    true/false, every other value as str gives it."""
    lines = []
    for section, entries in config.items():
        lines.append(f"[{section}]")
        for key, value in entries.items():
            if isinstance(value, list):
                value = " ".join(map(str, value))
            elif isinstance(value, bool):
                value = str(value).lower()
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "body", [EVERY_KEY, "[scenario]\nname = radial2d\n"], ids=["every-key", "no-key"]
)
def test_config_echo_round_trip(tmp_path, monkeypatch, body):
    # both configs write to the relative dir out; the no-key one by default
    monkeypatch.chdir(tmp_path)
    assert run_cli("run", _config(tmp_path, "c.ini", body)) in (0, 3)
    echo = _report(tmp_path / "out")["config"]
    again = load_config(_config(tmp_path, "echo.ini", _echo_ini(echo)))
    assert again.echo(SCENARIOS[again.scenario].dim) == echo


def test_report_echoes_scenario_defaults(tmp_path):
    out = tmp_path / "out"
    body = f"[scenario]\nname = radial2d\n[grid]\ncells = 16\n[output]\ndir = {out}\n"
    assert run_cli("run", _config(tmp_path, "c.ini", body)) in (0, 3)
    echo = _report(out)["config"]
    assert echo["scenario"] == {"name": "radial2d", "R": 0.5}


def test_echo_fills_poly_defaults_of_the_grid_dim(tmp_path):
    cfg = load_config(_config(tmp_path, "p.ini", "[scenario]\nname = poly\na11 = 0.5\n"))
    keys = ["a11", "a12", "a13", "a22", "a23", "a33"]
    assert cfg.echo(3)["scenario"] == {"name": "poly", **dict.fromkeys(keys, 0.0), "a11": 0.5}
    assert list(cfg.echo(2)["scenario"]) == ["name", "a11", "a12", "a22"]


def test_readme_config_block_lists_every_key(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    load_config(_config(tmp_path, "readme.ini", block))
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string(block)
    listed = {name: set(cp[name]) for name in cp.sections() if name != "scenario"}
    assert listed == {name: set(rows) for name, rows in CONFIG_KEYS.items()}


def _coords(size, values=("0", "0.3", "-0.5", "0.45")):
    return st.lists(st.sampled_from(values), min_size=size, max_size=size).map(" ".join)


# CONFIG_KEYS key -> (valid texts, texts on the edge of or outside the key's
# range, malformed or non-finite); output.dir is the test's own, and point
# and slices depend on the grid dim
_KEY_TEXTS = {
    "cells": (
        st.lists(st.integers(4, 16), min_size=1, max_size=2, unique=True).map(
            lambda cells: " ".join(map(str, sorted(cells)))
        ),
        st.sampled_from(["3", "8 8", "12 6", "x"]),
    ),
    "half": (
        st.sampled_from(["1.0", "0.5", "2"]),
        st.sampled_from(["1e110", "1e154", "inf", "0"]),
    ),
    "tol": (st.sampled_from(["1e-10", "1e-6"]), st.sampled_from(["0", "nan", "-1e-10"])),
    "relax": (
        st.sampled_from(["auto", "1.0", "1.6", "1.99"]),
        st.sampled_from(["2", "0", "inf"]),
    ),
    "max_iter": (st.sampled_from(["auto", "1", "40"]), st.sampled_from(["0", "1.5"])),
    "radii": (
        st.sampled_from(["0.25 0.175 0.125", "0.5", "0.4 0.3"]),
        st.sampled_from(["-0.1", "", "0", "0.25 0.25"]),
    ),
    "delta": (st.sampled_from(["0.25", "0.5", "1"]), st.sampled_from(["2", "0", "inf"])),
    "eps_u": (st.sampled_from(["auto", "1e-6", "1e-3"]), st.sampled_from(["0", "-1"])),
    "lambda_star": (st.sampled_from(["6", "1"]), st.sampled_from(["0", "1.5"])),
    "max_points": (st.sampled_from(["8", "1", "3"]), st.sampled_from(["0", "-1"])),
    "svg": (st.sampled_from(["false", "true"]), st.just("maybe")),
}


def _dim_texts(key, dim):
    """(valid, edge) texts of analysis.point or analysis.slices on a dim grid."""
    if key == "point":
        return st.just("auto") | _coords(dim), _coords(dim, ("1.5", "nan")) | _coords(dim + 1)
    slices = st.integers(1, 3).flatmap(_coords) if dim == 3 else st.just("")
    return slices, st.just("1.5") if dim == 3 else st.just("0.5")


# a misspelt key in the section of the key it resembles
_MISSPELT = [("scenario", "Rr"), ("grid", "cell"), ("solver", "relaxation"), ("analysis", "radius")]


def test_contract_texts_cover_every_config_key():
    keys = {key for rows in CONFIG_KEYS.values() for key in rows}
    assert set(_KEY_TEXTS) | {"point", "slices", "dir"} == keys


@st.composite
def _contract_configs(draw):
    """An INI file that ends in an [output] section without its dir.  The
    scenario comes from SCENARIOS and every CONFIG_KEYS key is left out or
    drawn from its valid texts, except that at most one entry is broken: a
    scenario parameter or a key takes an edge text, or a misspelt key is
    added.  grid.cells is always given, on 4-16 cells unless broken."""
    name = draw(st.sampled_from(list(SCENARIOS)))
    entry = SCENARIOS[name]
    params = list(entry.defaults(entry.dim) if entry.any_dim else entry.defaults)
    keys = [key for rows in CONFIG_KEYS.values() for key in rows if key != "dir"]
    broken = draw(st.none() | st.sampled_from(["params", "misspelt", *keys]))
    lines = {"scenario": [f"name = {name}"]}
    if name == "poly":  # tr A = 1/2
        lines["scenario"].append("a11 = 0.5")
    elif draw(st.booleans()):
        value = draw(st.sampled_from(["0.05", "0.15", "0.3"]))
        lines["scenario"].append(f"{draw(st.sampled_from(params))} = {value}")
    if broken == "params":
        value = draw(st.sampled_from(["-1", "nan", "1e308", "0.9"]))
        lines["scenario"].append(f"{draw(st.sampled_from(params))} = {value}")
    for section, rows in CONFIG_KEYS.items():
        lines[section] = []
        for key in [key for key in rows if key != "dir"]:
            if key in _KEY_TEXTS:
                valid, edge = _KEY_TEXTS[key]
            else:
                valid, edge = _dim_texts(key, entry.dim)
            if key == broken:
                text = draw(edge)
            else:
                text = draw(valid if key == "cells" else st.none() | valid)
            if text is not None:
                lines[section].append(f"{key} = {text}")
    if broken == "misspelt":
        section, key = draw(st.sampled_from(_MISSPELT))
        lines[section].append(f"{key} = 0.5")
    return "".join(f"[{s}]\n" + "".join(f"{ln}\n" for ln in rows) for s, rows in lines.items())


def _main_stderr(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


# no filterwarnings mark: the suite already turns warnings into errors, and
# a test-level "error" would also catch the warning hypothesis's report hook
# raises, so a failure would read as a pytest INTERNALERROR
@settings(max_examples=85)
@given(body=_contract_configs())
# two past defects: a 3D cell volume that overflows while h^2 does not (NaN
# in report.json), and scenario data that overflows on the box (a traceback)
@example(body="[scenario]\nname = radial3d\n[grid]\ncells = 8\nhalf = 1e110\n[output]\n")
@example(body="[scenario]\nname = radial2d\n[grid]\ncells = 4\nhalf = 1e154\n[output]\n")
def test_cli_contract_holds_on_drawn_configs(tmp_path_factory, body):
    # exit codes 0-3 and no traceback or warning; exit 1 is one stderr line
    # and writes nothing; report.json is strict JSON; analyze of every
    # snapshot reproduces run's CSVs
    where = tmp_path_factory.mktemp("contract")
    out = where / "out"
    code, err = _main_stderr("run", _config(where, "run.ini", f"{body}dir = {out}\n"))
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()
        return
    _report(out)
    for snap in sorted(out.glob("field_*.dat")):
        tag = snap.stem.split("_")[1]
        aout = where / f"analyze_{tag}"
        acfg = _config(where, f"analyze_{tag}.ini", f"{body}dir = {aout}\n")
        assert _main_stderr("analyze", str(snap), acfg)[0] in (0, 3)
        for stem in ("classification", "acf", "sections", "profile"):
            name = f"{stem}_{tag}.csv"
            assert (aout / name).read_bytes() == (out / name).read_bytes()
