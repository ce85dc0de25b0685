"""Command-line front end: exit codes, determinism, report content."""

import json

import numpy as np
import pytest

from obstacle_lab.cli import main
from obstacle_lab.grid import box_grid, sample, write_snapshot


def run_cli(*argv):
    return main(list(argv))


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
    report = json.loads((out / "report.json").read_text())
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


def test_run_nonconverged_exit_2(tmp_path):
    cfg = _config(
        tmp_path,
        "nc.ini",
        "[scenario]\nname = radial2d\nR = 0.5\n\n[grid]\ncells = 64\n\n"
        "[solver]\nmax_iter = 3\n\n"
        f"[output]\ndir = {tmp_path / 'nc'}\n",
    )
    assert run_cli("run", cfg) == 2


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
    report = json.loads((tmp_path / "d3" / "report.json").read_text())
    assert report["diagnostic_errors"]


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
    report = json.loads((out / "report.json").read_text())
    app = report["applicability"]
    # N = 3, n = 1: codimension 3 fails the proven threshold 6 but holds
    # under the conjectured threshold 1
    assert app["codimension"] == 3
    assert app["holds_at_lambda_star"] is False
    assert app["holds_at_conjectured_1"] is True


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
    reports = [json.loads((d / "report.json").read_text()) for d in (out, aout)]
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
    ],
)
def test_malformed_config_is_config_error(tmp_path, capsys, body):
    cfg = _config(tmp_path, "bad.ini", body)
    assert run_cli("run", cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


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
    lines = path.read_text().splitlines()
    lines[5] = "nan"
    path.write_text("\n".join(lines) + "\n")


def _extra_values_snapshot(path):
    # a 16-cell body under an 8-cell header
    write_snapshot(sample(lambda P: P[:, 0] ** 2 / 2.0, box_grid(2, 16)), path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("2 16 16", "2 8 8", 1)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "make",
    [lambda path: None, _nan_snapshot, _extra_values_snapshot],
    ids=["missing", "non-finite", "extra-values"],
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
    assert capsys.readouterr().err.startswith("snapshot error: ")
    assert not out.exists()


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
    report = json.loads((out / "report.json").read_text())
    prof = report["grids"][0]["profile"]
    assert prof["branch"] == "sqrt"


def test_run_svg_output(tmp_path):
    out = tmp_path / "svg"
    body = RADIAL2D.format(out=out) + "\n[output]\nsvg = true\n"
    # configparser rejects duplicate sections; rebuild cleanly instead
    body = RADIAL2D.format(out=out).replace("dir =", "svg = true\ndir =")
    cfg = _config(tmp_path, "s.ini", body)
    assert run_cli("run", cfg) == 0
    assert (out / "boundary_96.svg").exists()
