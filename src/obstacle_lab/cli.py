"""Batch front end: scenario runs, snapshot analysis, report emission.

Subcommands:
  list      print the benchmark catalog, optionally filtered by dim=D
  run       solve a configured scenario over a grid schedule and analyze it
  analyze   run the analysis pipeline on an externally supplied snapshot

Config files use INI syntax with sections [scenario], [grid], [solver],
[analysis], [output].  Exit codes: 0 success, 1 config/input/output
error, 2 non-converged solve, 3 diagnostic degeneracy.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    InconclusiveError,
    NonFiniteFieldError,
    ObstacleLabError,
    ScenarioError,
    SnapshotFormatError,
)
from .grid import (
    GridSpec,
    Mask,
    ScalarField,
    box_grid,
    gradient_field,  # bound here for the benchmark tracer (bench/spans.py)
    read_snapshot,
    write_snapshot,
)
from .solver import SolveOptions, solve_psor
from .scenarios import SCENARIOS, make_scenario, scenario_listing, scenario_params
from .analysis import (
    acf_monotonicity,
    classify_point,
    fit_window,
    quadratic_model,
    reference_ellipsoid,
    refine_boundary_point,
)
from .geometry import (
    coincidence_mask,
    cross_section,  # bound here for the benchmark tracer (bench/spans.py)
    cross_section_convergence,
    default_eps_u,
    free_boundary,
    kernel_profile,
    profile_asymptotics,
    write_slice_svg,
)


class InputError(Exception):
    """Bad command input: main prints prefix + message and exits 1."""

    prefix = ""


class ConfigError(InputError):
    """Invalid or inconsistent run configuration."""

    prefix = "config error: "


def _float(text: str) -> float:
    """float(text); ValueError unless it is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text.strip()!r}")
    return value


def _floats(text: str) -> list:
    return [_float(tok) for tok in text.split()]


def _ints(text: str) -> list:
    return [int(tok) for tok in text.split()]


def _bool(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"{text!r} is not one of 1/true/yes/0/false/no")
    return word in ("1", "true", "yes")


def _auto(parse):
    """parse, except that the text auto reads as None."""
    return lambda text: None if text == "auto" else parse(text)


# section -> key -> (default text, parser), in report.json's echo order.
# Every parsed value is a JSON value that reads back to itself, or None for
# auto; key names are unique across sections.  The solver keys are the
# SolveOptions fields.
CONFIG_KEYS = {
    "grid": {"cells": ("32", _ints), "half": ("1.0", _float)},
    "solver": {
        "tol": ("1e-10", _float),
        "relax": ("auto", _auto(_float)),
        "max_iter": ("auto", _auto(int)),
    },
    "analysis": {
        "point": ("auto", _auto(_floats)),
        "radii": ("0.25 0.175 0.125", _floats),
        "delta": ("0.25", _float),
        "slices": ("", _floats),
        "eps_u": ("auto", _auto(_float)),
        "lambda_star": ("6", int),
        "max_points": ("8", int),
    },
    "output": {"dir": ("out", str), "svg": ("false", _bool)},
}


@dataclass
class RunConfig:
    """A loaded config; cfg[key] is the parsed value of a CONFIG_KEYS key."""

    scenario: str
    params: dict
    values: dict  # key -> parsed value, None for auto
    solver: SolveOptions

    def __getitem__(self, key):
        return self.values[key]

    def echo(self, dim: int) -> dict:
        """Every config key, and every scenario parameter the run used on a
        dim grid, defaults included."""
        params = scenario_params(self.scenario, self.params, dim)
        echo = {"scenario": {"name": self.scenario, **params}}
        for section, rows in CONFIG_KEYS.items():
            echo[section] = {
                key: "auto" if self.values[key] is None else self.values[key]
                for key in rows
            }
        return echo


def load_config(path) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.optionxform = str  # scenario parameter names are case-sensitive
    try:
        read = cp.read(path)
        # reading every value now raises interpolation errors here, not at use
        sections = {name: dict(cp[name]) for name in cp.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(" ".join(str(exc).splitlines())) from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section, entries in sections.items():
        if section == "scenario":
            continue
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in entries:
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    scenario = sections.get("scenario", {})
    if "name" not in scenario:
        raise ConfigError("missing scenario.name")
    name = scenario["name"]
    if name not in SCENARIOS:
        raise ConfigError(f"scenario.name: unknown scenario {name!r}")
    try:
        params = {k: _float(v) for k, v in scenario.items() if k != "name"}
    except ValueError as exc:
        raise ConfigError(f"scenario params: {exc}") from None

    values = {}
    for section, rows in CONFIG_KEYS.items():
        given = sections.get(section, {})
        for key, (default, parse) in rows.items():
            try:
                values[key] = parse(given.get(key, default))
            except ValueError as exc:
                raise ConfigError(f"{section} section: {key}: {exc}") from None

    cells, half = values["cells"], values["half"]
    if not cells or cells[0] < 4 or any(b <= a for a, b in zip(cells, cells[1:])):
        raise ConfigError("grid.cells must be an increasing list of counts >= 4")
    for n in cells:  # the box each grid of the run is built on
        try:
            box_grid(SCENARIOS[name].dim, n, -half, half)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"grid section: half = {half}, cells = {n}: {exc}") from None
    try:
        solver = SolveOptions(**{key: values[key] for key in CONFIG_KEYS["solver"]})
    except ValueError as exc:
        raise ConfigError(f"solver section: {exc}") from None
    if not values["radii"] or min(values["radii"]) <= 0:
        raise ConfigError("analysis.radii must be a non-empty list of positive radii")
    if values["lambda_star"] < 1:
        raise ConfigError("analysis.lambda_star must be >= 1")
    if values["max_points"] < 1:
        raise ConfigError("analysis.max_points must be >= 1")
    if values["eps_u"] is not None and not (values["eps_u"] > 0):
        raise ConfigError("analysis.eps_u must be positive or auto")
    if not (0.0 < values["delta"] <= half):
        raise ConfigError(
            f"analysis.delta = {values['delta']} must lie in (0, box half = {half}]"
        )
    for key in ("slices", "point"):
        if not all(-half <= t <= half for t in values[key] or ()):
            raise ConfigError(
                f"analysis.{key} = {values[key]} must lie in the box [-{half}, {half}]"
            )
    return RunConfig(name, params, values, solver)


@dataclass
class PhaseOutcome:
    summary: dict = dataclass_field(default_factory=dict)
    diagnostics: list = dataclass_field(default_factory=list)
    # CSV stem -> (columns, rows); write_outputs adds the leading grid column
    tables: dict = dataclass_field(default_factory=dict)
    boundary: np.ndarray | None = None  # free-boundary points, for the SVG


PROFILE_COLUMNS = ("t", "d")


def _pick_points(u: ScalarField, fb: np.ndarray, override, max_points: int) -> list:
    """The override point, else the max_points free-boundary points nearest
    the center, each refined onto the zero-set edge."""
    if override is not None:
        return list(np.atleast_2d(np.asarray(override, dtype=float)))
    dist = np.linalg.norm(fb, axis=1)
    order = np.lexsort(tuple(fb.T) + (dist,))
    return [refine_boundary_point(u, x) for x in fb[order[:max_points]]]


def _kernel_on_last_axis(model) -> bool:
    """The model's kernel is one-dimensional and spans the last coordinate axis."""
    if model is None or model.n != 1:
        return False
    return abs(abs(model.kernel_basis[-1, 0]) - 1.0) <= 1e-6


def analysis_phase(u: ScalarField, cfg: RunConfig, truth: dict) -> PhaseOutcome:
    """Shared pipeline: mask, classification, ACF, sections, profile.

    Writes no file: the CSV tables and boundary points come back in the
    outcome, for write_outputs.
    """
    out = PhaseOutcome()
    g = u.grid
    h = float(g.h.max())
    eps_u = cfg["eps_u"]
    if eps_u is None:
        eps_u = default_eps_u(g, cfg.solver.tol)
    mask = coincidence_mask(u, eps_u)
    fb = free_boundary(mask)
    out.boundary = fb
    out.summary["eps_u"] = eps_u
    out.summary["coincidence_volume"] = mask.volume
    out.summary["free_boundary_points"] = int(len(fb))
    if len(fb) == 0 and cfg["point"] is None:
        out.diagnostics.append(f"no free-boundary points at eps_u = {eps_u:.3g}")

    radii = [r for r in cfg["radii"] if r >= 4.0 * h]
    if not radii:
        out.diagnostics.append(
            f"all radii below the resolution floor 4h = {4 * h:.3g}"
        )

    rows = []
    classifications = []  # (point, blow-up model when singular, else None)
    # one window for every point; freed before the ACF and sections peak
    window = fit_window(g.dim)
    for x in _pick_points(u, fb, cfg["point"], cfg["max_points"]):
        try:
            pc = classify_point(u, x, radii or [4.0 * h], window)
            if not pc.residual_table:
                raise InconclusiveError("no usable rescaling radius")
        except ObstacleLabError as exc:
            out.diagnostics.append(f"classification at {x.tolist()}: {exc}")
            rows.append([float(v) for v in x] + ["error", 0, "", ""])
            classifications.append((x, None))
            continue
        model = pc.model if pc.verdict == "singular" else None
        n = model.n if model is not None else 0
        rq = min(t[1] for t in pc.residual_table)
        rh = min(t[2] for t in pc.residual_table)
        rows.append([float(v) for v in x] + [pc.verdict, n, float(rq), float(rh)])
        classifications.append((x, model))
    del window
    coords = tuple(f"x{i + 1}" for i in range(g.dim))
    out.tables["classification"] = (
        coords + ("verdict", "n", "residual_quadratic", "residual_halfspace"),
        rows,
    )
    out.summary["classified_points"] = len(rows)
    out.summary["verdicts"] = [r[g.dim] for r in rows]

    # base point: requested point, else the singular point nearest the
    # center, else the first classified point
    x0, model = None, None
    singular = [(x, m) for x, m in classifications if m is not None]
    if cfg["point"] is None and singular:
        x0, model = min(singular, key=lambda t: float(np.linalg.norm(t[0])))
    elif classifications:
        x0, model = classifications[0]

    acf_rows = []
    if x0 is not None and g.dim >= 2 and radii:
        du = ScalarField(g, np.gradient(u.values, float(g.h[0]), axis=0, edge_order=2))
        try:
            rep = acf_monotonicity(du, x0, radii)
            acf_rows = [[float(r), float(p)] for r, p in rep.table]
            if len(rep.table) >= 2:  # v* is a max over pairs of radii
                out.summary["acf_v_star"] = rep.v_star
        except ObstacleLabError as exc:
            out.diagnostics.append(f"acf at {x0.tolist()}: {exc}")
    out.tables["acf"] = (("r", "phi"), acf_rows)

    on_axis = _kernel_on_last_axis(model)
    A = model.A if on_axis else None
    if not on_axis and truth.get("n") == 1 and "kernel_axis" in truth:
        # classification did not land a singular model; fall back on the
        # scenario's declared degenerate axis, which is the last one
        on_axis = True
        A = truth.get("A")
        if x0 is None:
            x0 = np.zeros(g.dim)
    section_rows = []
    out.tables["profile"] = (PROFILE_COLUMNS, [])
    if on_axis and g.dim >= 3:
        _kernel_profile(mask, x0, cfg["delta"], out)
    if cfg["slices"] and A is None:
        _slices_not_cut(out)
    elif cfg["slices"]:
        prime = quadratic_model(np.asarray(A)[:-1, :-1])
        try:
            eprime = reference_ellipsoid(
                prime, box_grid(g.dim - 1, 64), SolveOptions(tol=cfg.solver.tol)
            )
            reports = cross_section_convergence(
                mask, x0, cfg["delta"], eprime, cfg["slices"]
            )
            section_rows = [
                [
                    float(rep.t),
                    float(rep.d),
                    float(rep.closeness) if rep.closeness is not None else "",
                ]
                for rep in reports
            ]
            out.summary["closeness"] = [r[2] for r in section_rows if r[2] != ""]
        except (ObstacleLabError, ValueError) as exc:
            out.diagnostics.append(f"cross sections: {exc}")
    out.tables["sections"] = (("t", "d", "closeness"), section_rows)
    return out


def _slices_not_cut(out: PhaseOutcome) -> None:
    out.diagnostics.append(
        "cross sections: no quadratic blow-up with a one-dimensional kernel "
        "on the last axis; slices not cut"
    )


def _kernel_profile(mask: Mask, x0, delta: float, out: PhaseOutcome) -> None:
    """Cross-section diameters along the last (kernel) axis: out's profile
    table holds them raw, out.summary["profile"] their square-root-law fit
    above the resolution floor, or out.diagnostics why there is none.
    """
    prof = kernel_profile(mask, x0, delta)
    try:
        out.summary["profile"] = asdict(profile_asymptotics(prof, mask.grid))
    except ObstacleLabError as exc:
        out.diagnostics.append(f"diameter profile: {exc}")
    out.tables["profile"] = (PROFILE_COLUMNS, prof)


def write_outputs(outcome: PhaseOutcome, tag: str, cfg: RunConfig) -> None:
    """Write each table as {stem}_{tag}.csv, led by a grid column holding tag,
    and the free boundary as boundary_{tag}.svg on 2D grids when asked."""
    outdir = Path(cfg["dir"])
    for stem, (columns, rows) in outcome.tables.items():
        lines = [",".join(("grid",) + columns)]
        for row in rows:
            cells = [repr(float(v)) if isinstance(v, float) else str(v) for v in row]
            lines.append(",".join([tag] + cells))
        (outdir / f"{stem}_{tag}.csv").write_text("\n".join(lines) + "\n")
    fb = outcome.boundary
    if cfg["svg"] and fb is not None and fb.shape[1] == 2 and len(fb):
        write_slice_svg(outdir / f"boundary_{tag}.svg", fb)


def applicability(dim: int, truth: dict, lambda_star: int) -> dict:
    """Both readings of the codimension hypothesis dim - n + 1 >= threshold,
    with n the kernel dimension the scenario declares (0 when it has none)."""
    n = truth.get("n", 0)
    codim = dim - n + 1
    return {
        "n": n,
        "codimension": codim,
        "lambda_star": lambda_star,
        "holds_at_lambda_star": bool(n >= 1 and codim >= lambda_star),
        "holds_at_conjectured_1": bool(n >= 1 and codim >= 1),
    }


def write_report(
    command: str,
    cfg: RunConfig,
    grids: list,
    dim: int,
    truth: dict,
    t_start: float,
    diags: list,
    solver_failed: bool = False,
) -> int:
    """Write report.json; return the exit code: 2 when a solve failed,
    else 3 when there are diagnostics, else 0."""
    report = {
        "version": __version__,
        "command": command,
        "config": cfg.echo(dim),
        "grids": grids,
        "applicability": applicability(dim, truth, cfg["lambda_star"]),
        "elapsed_seconds": round(time.perf_counter() - t_start, 3),
        "diagnostic_errors": diags,
    }
    Path(cfg["dir"], "report.json").write_text(json.dumps(report, indent=2) + "\n")
    if solver_failed:
        return 2
    if diags:
        return 3
    return 0


def cmd_list(filters: list) -> int:
    listing = list(zip(scenario_listing(), SCENARIOS.values()))
    for f in filters:
        key, _, value = f.partition("=")
        if key != "dim" or not value.isdecimal():
            raise InputError(f"unsupported filter {f!r}; use dim=D")
        listing = [(ln, e) for ln, e in listing if e.builds_on(int(value))]
    for ln, _ in listing:
        print(ln)
    return 0


def _configured_scenario(cfg: RunConfig, grid: GridSpec):
    """The configured scenario on grid; ConfigError when it does not fit."""
    point = cfg["point"]
    if point is not None and len(point) != grid.dim:
        raise ConfigError(
            f"analysis.point has {len(point)} coordinates on a {grid.dim}D grid"
        )
    if cfg["slices"] and grid.dim < 3:
        raise ConfigError(f"analysis.slices needs a 3D grid, not {grid.dim}D")
    try:
        return make_scenario(cfg.scenario, cfg.params, grid)
    except (ScenarioError, NonFiniteFieldError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def cmd_run(cfg: RunConfig) -> int:
    t_start = time.perf_counter()
    outdir = Path(cfg["dir"])
    grids = []
    diags = []
    solver_failed = False
    dim = SCENARIOS[cfg.scenario].dim
    for cells in cfg["cells"]:
        tag = str(cells)
        grid = box_grid(dim, cells, -cfg["half"], cfg["half"])
        scen = _configured_scenario(cfg, grid)
        outdir.mkdir(parents=True, exist_ok=True)
        entry = {"cells": cells, "h": float(grid.h.max())}

        if scen.problem is None:
            outcome = PhaseOutcome()
            _kernel_profile(scen.mask, np.zeros(dim), cfg["delta"], outcome)
            if cfg["slices"]:  # a pure-geometry mask has no blow-up to cut along
                _slices_not_cut(outcome)
        else:
            t0 = time.perf_counter()
            with open(outdir / f"telemetry_{tag}.csv", "w") as tele:
                result = solve_psor(scen.problem, cfg.solver, telemetry=tele)
            entry.update(
                iterations=result.iterations,
                converged=result.converged,
                stop_reason=result.stop_reason,
                contraction=result.contraction,
                residual=result.residual.max_violation,
                solve_seconds=round(time.perf_counter() - t0, 3),
            )
            if not result.converged:
                solver_failed = True
                print(
                    f"solver error: grid {cells}: {result.stop_reason} after "
                    f"{result.iterations} iterations, certificate "
                    f"{result.residual.max_violation:.3g} > tol {cfg.solver.tol:g}",
                    file=sys.stderr,
                )
            write_snapshot(result.u, outdir / f"field_{tag}.dat")
            outcome = analysis_phase(result.u, cfg, scen.truth)
        write_outputs(outcome, tag, cfg)
        entry.update(outcome.summary)
        diags.extend(outcome.diagnostics)
        grids.append(entry)

    return write_report(
        "run", cfg, grids, dim, scen.truth, t_start, diags, solver_failed
    )


def cmd_analyze(snapshot: str, cfg: RunConfig) -> int:
    t_start = time.perf_counter()
    try:
        u = read_snapshot(snapshot)
    except (OSError, SnapshotFormatError, NonFiniteFieldError) as exc:
        raise InputError(f"snapshot error: {exc}") from None
    axes = [int(n) for n in u.grid.cells]
    cells, half = axes[0], cfg["half"]
    # run writes only grids with the same cell count on every axis
    if axes != [cells] * len(axes) or cells not in cfg["cells"]:
        raise InputError(
            f"snapshot grid ({' x '.join(map(str, axes))} cells) not in the "
            f"configured schedule {cfg['cells']}"
        )
    # slices and delta were checked against the configured box; run writes it exactly
    lo, hi = u.grid.origin, u.grid.upper
    if np.any(lo != -half) or np.any(hi != half):
        box = f"[-{half}, {half}]^{u.grid.dim}"
        raise InputError(f"snapshot box {lo.tolist()} to {hi.tolist()} is not {box}")
    # range checks and truth depend only on the box and dim: a 4-cell grid will do
    truth = _configured_scenario(cfg, box_grid(u.grid.dim, 4, -half, half)).truth

    Path(cfg["dir"]).mkdir(parents=True, exist_ok=True)
    outcome = analysis_phase(u, cfg, truth)
    write_outputs(outcome, str(cells), cfg)
    grids = [{"cells": cells, **outcome.summary}]
    return write_report(
        "analyze", cfg, grids, u.grid.dim, truth, t_start, outcome.diagnostics
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="obstacle-lab",
        description="Obstacle-problem laboratory: solve benchmark scenarios "
        "and measure free-boundary geometry.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    pl = sub.add_parser("list", help="print the scenario catalog")
    pl.add_argument("filters", nargs="*", help="filters like dim=2")
    pr = sub.add_parser("run", help="solve and analyze a configured scenario")
    pr.add_argument("config", help="INI config file")
    pa = sub.add_parser("analyze", help="analyze a field snapshot")
    pa.add_argument("snapshot", help="field snapshot file")
    pa.add_argument("config", help="INI config file")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return cmd_list(args.filters)
        cfg = load_config(args.config)
        if args.command == "run":
            return cmd_run(cfg)
        return cmd_analyze(args.snapshot, cfg)
    except InputError as exc:
        print(f"{exc.prefix}{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # inputs are read under InputError, so this came from writing outputs
        print(f"output error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
