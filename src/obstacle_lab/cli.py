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
from dataclasses import dataclass, field as dataclass_field
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
from .scenarios import SCENARIOS, make_scenario, scenario_listing
from .analysis import (
    acf_monotonicity,
    classify_point,
    quadratic_model,
    reference_ellipsoid,
    refine_boundary_point,
)
from .geometry import (
    coincidence_mask,
    cross_section,
    cross_section_convergence,
    default_eps_u,
    diameter,
    diameter_asymptotics,
    free_boundary,
    write_slice_svg,
)


class InputError(Exception):
    """Bad command input: main prints prefix + message and exits 1."""

    prefix = ""


class ConfigError(InputError):
    """Invalid or inconsistent run configuration."""

    prefix = "config error: "


@dataclass
class RunConfig:
    scenario: str
    params: dict
    cells: list
    half: float
    solver: SolveOptions
    point: np.ndarray | None  # None = auto-detect
    radii: list
    delta: float
    slices: list
    eps_u: float | None  # None = resolution default
    lambda_star: int
    max_points: int
    outdir: Path
    svg: bool

    def echo(self) -> dict:
        return {
            "scenario": {"name": self.scenario, **self.params},
            "grid": {"cells": self.cells, "half": self.half},
            "solver": {
                "tol": self.solver.tol,
                "relax": "auto" if self.solver.relax is None else self.solver.relax,
                "max_iter": self.solver.max_iter,
            },
            "analysis": {
                "point": None if self.point is None else list(self.point),
                "radii": self.radii,
                "delta": self.delta,
                "slices": self.slices,
                "eps_u": "auto" if self.eps_u is None else self.eps_u,
                "lambda_star": self.lambda_star,
                "max_points": self.max_points,
            },
            "output": {"dir": str(self.outdir), "svg": self.svg},
        }


_KNOWN_KEYS = {
    "grid": {"cells", "half"},
    "solver": {"tol", "relax", "max_iter"},
    "analysis": {
        "point",
        "radii",
        "delta",
        "slices",
        "eps_u",
        "lambda_star",
        "max_points",
    },
    "output": {"dir", "svg"},
}


def _float(text: str) -> float:
    """float(text); ValueError unless it is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text.strip()!r}")
    return value


def _floats(text: str) -> list:
    return [_float(tok) for tok in text.split()]


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
        if section != "scenario" and section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        if section in _KNOWN_KEYS:
            for key in entries:
                if key not in _KNOWN_KEYS[section]:
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

    def get(section, key, default):
        return sections.get(section, {}).get(key, default)

    try:
        cells = [int(tok) for tok in get("grid", "cells", "32").split()]
        half = _float(get("grid", "half", "1.0"))
    except ValueError as exc:
        raise ConfigError(f"grid section: {exc}") from None
    if not cells or cells[0] < 4 or any(b <= a for a, b in zip(cells, cells[1:])):
        raise ConfigError("grid.cells must be an increasing list of counts >= 4")
    if not (half > 0):
        raise ConfigError("grid.half must be positive")

    relax_text = get("solver", "relax", "auto").strip()
    max_iter_text = get("solver", "max_iter", "auto").strip()
    try:
        solver = SolveOptions(
            tol=_float(get("solver", "tol", "1e-10")),
            relax=None if relax_text == "auto" else _float(relax_text),
            max_iter=None if max_iter_text == "auto" else int(max_iter_text),
        )
    except ValueError as exc:
        raise ConfigError(f"solver section: {exc}") from None

    point_text = get("analysis", "point", "auto").strip()
    try:
        point = None if point_text == "auto" else np.array(_floats(point_text))
        radii = _floats(get("analysis", "radii", "0.25 0.175 0.125"))
        delta = _float(get("analysis", "delta", "0.25"))
        slices = _floats(get("analysis", "slices", ""))
        eps_text = get("analysis", "eps_u", "auto").strip()
        eps_u = None if eps_text == "auto" else _float(eps_text)
        lambda_star = int(get("analysis", "lambda_star", "6"))
        max_points = int(get("analysis", "max_points", "8"))
    except ValueError as exc:
        raise ConfigError(f"analysis section: {exc}") from None
    if not radii:
        raise ConfigError("analysis.radii must be non-empty")
    if lambda_star < 1:
        raise ConfigError("analysis.lambda_star must be >= 1")
    if max_points < 1:
        raise ConfigError("analysis.max_points must be >= 1")
    if eps_u is not None and not (eps_u > 0):
        raise ConfigError("analysis.eps_u must be positive or auto")
    if not (0.0 < delta <= half):
        raise ConfigError(
            f"analysis.delta = {delta} must lie in (0, box half = {half}]"
        )
    if not all(-half <= t <= half for t in slices):
        raise ConfigError(
            f"analysis.slices = {slices} must lie in the box [-{half}, {half}]"
        )

    outdir = Path(get("output", "dir", "out"))
    svg = get("output", "svg", "false").strip().lower() in ("1", "true", "yes")
    return RunConfig(
        scenario=name,
        params=params,
        cells=cells,
        half=half,
        solver=solver,
        point=point,
        radii=radii,
        delta=delta,
        slices=slices,
        eps_u=eps_u,
        lambda_star=lambda_star,
        max_points=max_points,
        outdir=outdir,
        svg=svg,
    )


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
    eps_u = cfg.eps_u if cfg.eps_u is not None else default_eps_u(g, cfg.solver.tol)
    mask = coincidence_mask(u, eps_u)
    fb = free_boundary(mask)
    out.boundary = fb
    out.summary["eps_u"] = eps_u
    out.summary["coincidence_volume"] = mask.volume
    out.summary["free_boundary_points"] = int(len(fb))
    if len(fb) == 0 and cfg.point is None:
        out.diagnostics.append(f"no free-boundary points at eps_u = {eps_u:.3g}")

    radii = [r for r in cfg.radii if r >= 4.0 * h]
    if not radii:
        out.diagnostics.append(
            f"all radii below the resolution floor 4h = {4 * h:.3g}"
        )

    rows = []
    classifications = []  # (point, blow-up model when singular, else None)
    for x in _pick_points(u, fb, cfg.point, cfg.max_points):
        try:
            pc = classify_point(u, x, radii or [4.0 * h])
            if not pc.residual_table:
                raise InconclusiveError("no usable rescaling radius")
        except ObstacleLabError as exc:
            out.diagnostics.append(f"classification at {list(x)}: {exc}")
            rows.append([float(v) for v in x] + ["error", 0, "", ""])
            classifications.append((x, None))
            continue
        model = pc.model if pc.verdict == "singular" else None
        n = model.n if model is not None else 0
        rq = min(t[1] for t in pc.residual_table)
        rh = min(t[2] for t in pc.residual_table)
        rows.append([float(v) for v in x] + [pc.verdict, n, float(rq), float(rh)])
        classifications.append((x, model))
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
    if cfg.point is None and singular:
        x0, model = min(singular, key=lambda t: float(np.linalg.norm(t[0])))
    elif classifications:
        x0, model = classifications[0]

    acf_rows = []
    if x0 is not None and g.dim >= 2 and radii:
        du = ScalarField(g, np.gradient(u.values, float(g.h[0]), axis=0, edge_order=2))
        try:
            rep = acf_monotonicity(du, x0, radii)
            acf_rows = [[float(r), float(p)] for r, p in rep.table]
            out.summary["acf_v_star"] = rep.v_star
        except ObstacleLabError as exc:
            out.diagnostics.append(f"acf at {list(x0)}: {exc}")
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
        _kernel_profile(mask, x0, cfg.delta, out)
        if cfg.slices and A is not None:
            prime = quadratic_model(np.asarray(A)[:-1, :-1])
            try:
                eprime = reference_ellipsoid(
                    prime, box_grid(g.dim - 1, 64), SolveOptions(tol=cfg.solver.tol)
                )
                reports = cross_section_convergence(
                    mask, x0, cfg.delta, eprime, cfg.slices
                )
                section_rows = [
                    [
                        float(rep.t),
                        float(rep.d),
                        float(rep.closeness) if rep.closeness is not None else "",
                    ]
                    for rep in reports
                ]
                out.summary["closeness"] = [
                    r[2] for r in section_rows if r[2] != ""
                ]
            except (ObstacleLabError, ValueError) as exc:
                out.diagnostics.append(f"cross sections: {exc}")
    out.tables["sections"] = (("t", "d", "closeness"), section_rows)
    return out


def _kernel_profile(mask: Mask, x0, delta: float, out: PhaseOutcome) -> None:
    """Cross-section diameters along the last (kernel) axis: out's profile table.

    Their square-root-law fit goes to out.summary["profile"], or a failed
    fit to out.diagnostics.
    """
    prof = []
    for t in mask.grid.axis_cell_centers(mask.grid.dim - 1):
        cs = cross_section(mask, t, x0, delta)
        prof.append((float(t), diameter(cs)))
    try:
        dp = diameter_asymptotics(prof)
        out.summary["profile"] = {
            "tip": dp.tip,
            "exponent": dp.exponent,
            "coefficient": dp.coefficient,
            "branch": dp.branch,
        }
    except ObstacleLabError as exc:
        out.diagnostics.append(f"diameter profile: {exc}")
    out.tables["profile"] = (PROFILE_COLUMNS, prof)


def write_outputs(outcome: PhaseOutcome, tag: str, cfg: RunConfig) -> None:
    """Write each table as {stem}_{tag}.csv, led by a grid column holding tag,
    and the free boundary as boundary_{tag}.svg on 2D grids when asked."""
    for stem, (columns, rows) in outcome.tables.items():
        lines = [",".join(("grid",) + columns)]
        for row in rows:
            cells = [repr(float(v)) if isinstance(v, float) else str(v) for v in row]
            lines.append(",".join([tag] + cells))
        (cfg.outdir / f"{stem}_{tag}.csv").write_text("\n".join(lines) + "\n")
    fb = outcome.boundary
    if cfg.svg and fb is not None and fb.shape[1] == 2 and len(fb):
        write_slice_svg(cfg.outdir / f"boundary_{tag}.svg", fb)


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
        "config": cfg.echo(),
        "grids": grids,
        "applicability": applicability(dim, truth, cfg.lambda_star),
        "elapsed_seconds": round(time.perf_counter() - t_start, 3),
        "diagnostic_errors": diags,
    }
    (cfg.outdir / "report.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n"
    )
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
    if cfg.point is not None and len(cfg.point) != grid.dim:
        raise ConfigError(
            f"analysis.point has {len(cfg.point)} coordinates on a {grid.dim}D grid"
        )
    try:
        return make_scenario(cfg.scenario, cfg.params, grid)
    except (ScenarioError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def cmd_run(cfg: RunConfig) -> int:
    t_start = time.perf_counter()
    grids = []
    diags = []
    solver_failed = False
    dim = SCENARIOS[cfg.scenario].dim
    for cells in cfg.cells:
        tag = str(cells)
        grid = box_grid(dim, cells, -cfg.half, cfg.half)
        scen = _configured_scenario(cfg, grid)
        cfg.outdir.mkdir(parents=True, exist_ok=True)
        entry = {"cells": cells, "h": float(grid.h.max())}

        if scen.problem is None:
            outcome = PhaseOutcome()
            _kernel_profile(scen.mask, np.zeros(dim), cfg.delta, outcome)
        else:
            t0 = time.perf_counter()
            with open(cfg.outdir / f"telemetry_{tag}.csv", "w") as tele:
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
            write_snapshot(result.u, cfg.outdir / f"field_{tag}.dat")
            outcome = analysis_phase(result.u, cfg, scen.truth)
        write_outputs(outcome, tag, cfg)
        entry.update(outcome.summary)
        diags.extend(outcome.diagnostics)
        grids.append(entry)

    return write_report(
        "run", cfg, grids, dim, scen.truth, t_start, diags, solver_failed
    )


def cmd_analyze(snapshot: str, cfg: RunConfig) -> int:
    try:
        u = read_snapshot(snapshot)
    except (OSError, SnapshotFormatError, NonFiniteFieldError) as exc:
        raise InputError(f"snapshot error: {exc}") from None
    cells = int(u.grid.cells.max())
    if cells not in cfg.cells:
        raise InputError(
            f"snapshot grid ({cells} cells) not in the "
            f"configured schedule {cfg.cells}"
        )
    # slices and delta were checked against the configured box; run writes it exactly
    lo, hi = u.grid.origin, u.grid.upper
    if np.any(lo != -cfg.half) or np.any(hi != cfg.half):
        box = f"[-{cfg.half}, {cfg.half}]^{u.grid.dim}"
        raise InputError(f"snapshot box {lo.tolist()} to {hi.tolist()} is not {box}")
    # range checks and truth depend only on the box and dim: a 4-cell grid will do
    truth = _configured_scenario(cfg, box_grid(u.grid.dim, 4, -cfg.half, cfg.half)).truth

    cfg.outdir.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
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
