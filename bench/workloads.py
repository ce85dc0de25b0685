"""The benchmark's workloads: inputs drawn from a seed, and output checks.

Each workload writes an INI config (and, for ``analyze``, a field snapshot)
into a directory, names the CLI arguments that run it there, and checks the
files one invocation wrote.  The checks accept any output a valid solver or
analysis change could produce: they test certificates and closed-form
bounds, never last-bit CSV bytes or labels that sit on a threshold (the
``sqrt`` profile branch reads ``mismatch`` at eps = 0.06).
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from obstacle_lab.grid import box_grid, read_snapshot, sample, write_snapshot
from obstacle_lab.scenarios import make_scenario
from obstacle_lab.solver import lcp_residual

TOL = 1e-10
OUT = "out"  # output directory, relative to the invocation's directory


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "run" or "analyze"
    scenario: str
    dim: int
    cells: tuple
    param: tuple  # (name, low, high) of the scenario parameter drawn from the seed
    analysis: tuple  # (key, value) lines of the [analysis] section

    def params(self, seed: int) -> dict:
        """Scenario parameters drawn from the seed."""
        name, low, high = self.param
        return {name: round(random.Random(seed).uniform(low, high), 4)}

    def write_inputs(self, where: Path, params: dict) -> list:
        """Write the config (and snapshot) under ``where``; return CLI args."""
        lines = ["[scenario]", f"name = {self.scenario}"]
        lines += [f"{k} = {v!r}" for k, v in params.items()]
        lines += ["[grid]", "cells = " + " ".join(map(str, self.cells))]
        lines += ["[solver]", "relax = auto", f"tol = {TOL!r}"]
        lines += ["[analysis]"] + [f"{k} = {v}" for k, v in self.analysis]
        lines += ["[output]", f"dir = {OUT}"]
        (where / "config.ini").write_text("\n".join(lines) + "\n")
        if self.command == "run":
            return ["run", str(where / "config.ini")]
        grid = box_grid(self.dim, self.cells[-1])
        exact = make_scenario(self.scenario, params, grid).exact
        snap = where / f"field_{self.cells[-1]}.dat"
        write_snapshot(sample(exact, grid), snap)
        return ["analyze", str(snap), str(where / "config.ini")]

    def expected_files(self) -> set:
        stems = ["classification", "acf", "sections", "profile"]
        if self.command == "run":
            stems.append("telemetry")
        names = {"report.json"}
        for cells in self.cells:
            names |= {f"{stem}_{cells}.csv" for stem in stems}
            if self.command == "run":
                names.add(f"field_{cells}.dat")
        return names


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="radial2d-ladder",
            why="solver-dominated 2D run on two grids; sweeps grow with n, "
            "which multigrid must bend; analysis changes should not move it",
            command="run",
            scenario="radial2d",
            dim=2,
            cells=(128, 256),
            param=("R", 0.45, 0.55),
            analysis=(("max_points", "3"),),
        ),
        Workload(
            name="pinch3d-run",
            why="3D solve plus classification, profile, cross sections and the "
            "auxiliary 2D solve; solver and analysis gains trade off here",
            command="run",
            scenario="pinch3d",
            dim=3,
            cells=(64,),
            param=("eps", 0.04, 0.06),
            analysis=(
                ("radii", "0.5 0.35 0.25"),
                ("delta", "0.24"),
                ("slices", "0.9 0.7 0.5 0.3 0.15"),
                ("max_points", "8"),
            ),
        ),
        Workload(
            name="radial3d-analyze",
            why="analysis of a closed-form 96^3 snapshot; snapshot read and "
            "analysis only, the solver is never called",
            command="analyze",
            scenario="radial3d",
            dim=3,
            cells=(96,),
            param=("R", 0.45, 0.55),
            analysis=(("max_points", "8"),),
        ),
    )
}


def _rows(path: Path) -> list:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check(w: Workload, params: dict, out: Path) -> list:
    """Problems with one invocation's outputs in ``out``; empty when correct."""
    missing = sorted(w.expected_files() - {p.name for p in out.iterdir()})
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]
    problems = []
    report = json.loads((out / "report.json").read_text())
    if w.command == "run":
        for cells in w.cells:
            grid = box_grid(w.dim, cells)
            scen = make_scenario(w.scenario, params, grid)
            u = read_snapshot(out / f"field_{cells}.dat")
            res = lcp_residual(scen.problem, u).max_violation
            if not res <= TOL:
                problems.append(f"grid {cells}: LCP residual {res:.3g} > {TOL:g}")
    if w.name == "radial2d-ladder":
        # u and scen are those of the finest grid, 256 (the c02 bound)
        pts = scen.problem.grid.node_points().reshape(-1, w.dim)
        err = float(np.abs(u.values.reshape(-1) - scen.exact(pts)).max())
        if not err <= 5e-3:
            problems.append(f"grid {cells}: max error {err:.3g} against the closed form > 5e-3")
        for cells in w.cells:
            verdicts = {r["verdict"] for r in _rows(out / f"classification_{cells}.csv")}
            if verdicts != {"regular"}:
                problems.append(f"grid {cells}: verdicts {sorted(verdicts)}, expected regular")
    elif w.name == "pinch3d-run":
        entry = report["grids"][0]
        if "profile" not in entry:
            problems.append("report.json has no diameter profile")
        if len(entry.get("closeness", [])) != 5:
            problems.append(f"report.json closeness {entry.get('closeness')}, expected 5 values")
    elif w.name == "radial3d-analyze":
        rows = _rows(out / f"classification_{w.cells[-1]}.csv")
        if len(rows) != 8:
            problems.append(f"{len(rows)} classification rows, expected 8")
        ball = 4.0 / 3.0 * math.pi * params["R"] ** 3
        vol = report["grids"][0]["coincidence_volume"]
        if not abs(vol - ball) <= 0.02 * ball:
            problems.append(f"coincidence volume {vol:.5g} not within 2% of {ball:.5g}")
    return problems
