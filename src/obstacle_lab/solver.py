"""Projected SOR solver for the discrete obstacle problem.

The grid LCP per interior node:  u >= 0,  c - Lap_h u >= 0,
u * (c - Lap_h u) = 0, with Dirichlet data on the box boundary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, ScalarField, boundary_mask, shifted_slices


@dataclass
class ObstacleProblem:
    """Coefficient field c >= c0 > 0 plus nonnegative Dirichlet data.

    The Dirichlet data is stored as a full node array; only its boundary
    entries are read.
    """

    grid: GridSpec
    c: ScalarField
    c0: float
    g: np.ndarray

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        if self.g.shape != self.grid.node_shape:
            raise ValueError("Dirichlet array must have node shape")
        if not (self.c0 > 0):
            raise ValueError("c0 must be positive")
        if float(self.c.values.min()) < self.c0:
            raise ValueError(
                f"min c = {self.c.values.min():.6g} below c0 = {self.c0:.6g}"
            )
        if float(self.g[boundary_mask(self.grid)].min()) < 0.0:
            raise ValueError("Dirichlet data must be nonnegative")


@dataclass
class SolveOptions:
    tol: float = 1e-10
    max_iter: int | None = None  # default 40 * (cells per axis)^2
    relax: float = 1.5
    check_every: int = 10

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if not (0.0 < self.relax < 2.0):
            raise ValueError("relax must lie in (0, 2)")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class LcpResidual:
    max_eq: float
    max_ineq: float
    max_neg: float

    @property
    def max_violation(self) -> float:
        return max(self.max_eq, self.max_ineq, self.max_neg)


@dataclass
class SolveResult:
    u: ScalarField
    iterations: int
    residual: LcpResidual
    converged: bool


def optimal_relax(grid: GridSpec) -> float:
    """Classic SOR estimate 2 / (1 + sin(pi / n)) from the largest axis."""
    n = int(grid.cells.max())
    return 2.0 / (1.0 + math.sin(math.pi / n))


def _interior(grid: GridSpec):
    return tuple(slice(1, -1) for _ in range(grid.dim))


def _neighbor_sum(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Sum over axes of (u[i+1] + u[i-1]) / h_ax^2 at interior nodes."""
    h2 = grid.h**2
    out = None
    for ax in range(grid.dim):
        minus, plus = shifted_slices(grid.dim, ax, interior=True)
        term = (u[plus] + u[minus]) / h2[ax]
        out = term if out is None else out + term
    return out


def _laplacian_interior(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    denom = float(np.sum(2.0 / grid.h**2))
    return _neighbor_sum(u, grid) - denom * u[_interior(grid)]


def lcp_residual(problem: ObstacleProblem, u: ScalarField) -> LcpResidual:
    """Complementarity certificate, scaled by max(h)^2 on the equation parts."""
    grid = problem.grid
    lap = _laplacian_interior(u.values, grid)
    cint = problem.c.values[_interior(grid)]
    uint = u.values[_interior(grid)]
    scale = float(grid.h.max()) ** 2
    diff = lap - cint
    pos = uint > 0
    max_eq = float(np.abs(diff[pos]).max()) * scale if np.any(pos) else 0.0
    max_ineq = float(np.maximum(diff, 0.0).max()) * scale
    max_neg = float(np.maximum(-u.values, 0.0).max())
    return LcpResidual(max_eq=max_eq, max_ineq=max_ineq, max_neg=max_neg)


def _color_lattices(u: np.ndarray, cvals: np.ndarray, grid: GridSpec):
    """Views of u for the two colours of a red-black sweep.

    The interior splits into 2^dim sub-lattices, each starting at index 1
    or 2 on every axis with stride 2.  A node's colour is the sum of its
    indices mod 2, so a whole sub-lattice has the colour of its start
    indices, and each of its +-1 neighbours has the other colour.  Per
    colour: a list of (nodes, c at the nodes, [(u[+1], u[-1]) per axis]).
    """
    cells = [int(n) for n in grid.cells]
    colors = ([], [])
    for starts in itertools.product((1, 2), repeat=grid.dim):
        center = tuple(slice(s, n, 2) for s, n in zip(starts, cells))
        neighbors = []
        for ax, s in enumerate(starts):
            plus = list(center)
            minus = list(center)
            plus[ax] = slice(s + 1, cells[ax] + 1, 2)
            minus[ax] = slice(s - 1, cells[ax] - 1, 2)
            neighbors.append((u[tuple(plus)], u[tuple(minus)]))
        colors[sum(starts) % 2].append((u[center], cvals[center], neighbors))
    return colors


def _sweep_red_black(colors, h2, relax):
    """One projected SOR sweep, colour 0 then colour 1, updating u in place.

    Nodes of one colour read only the other colour, so updating them
    sub-lattice by sub-lattice gives the same bits as a whole-colour update.
    The in-place operators save temporaries and keep the arithmetic of
    max(0, (1 - relax) u + relax (sum_ax (u[+1] + u[-1]) / h_ax^2 - c) / denom).
    """
    denom = float(np.sum(2.0 / h2))
    for lattices in colors:
        for nodes, c, neighbors in lattices:
            gs = None
            for (plus, minus), h2ax in zip(neighbors, h2):
                term = plus + minus
                term /= h2ax
                if gs is None:
                    gs = term
                else:
                    gs += term
            gs -= c
            gs /= denom
            gs *= relax
            upd = (1.0 - relax) * nodes
            upd += gs
            np.maximum(0.0, upd, out=nodes)


def solve_psor(
    problem: ObstacleProblem,
    opts: SolveOptions | None = None,
    telemetry=None,
) -> SolveResult:
    """Iterate red-black projected SOR sweeps until the LCP residual meets tol.

    Deterministic.  A run that hits max_iter with residual above tol is
    returned with converged=False, never silently.  Telemetry rows
    ``iter,max_eq,max_ineq,max_neg`` are streamed to the optional file-like
    ``telemetry`` at every residual check.
    """
    opts = opts or SolveOptions()
    grid = problem.grid
    max_iter = opts.max_iter
    if max_iter is None:
        max_iter = 40 * int(grid.cells.max()) ** 2

    u = np.zeros(grid.node_shape)
    bnd = boundary_mask(grid)
    u[bnd] = problem.g[bnd]
    colors = _color_lattices(u, problem.c.values, grid)
    h2 = grid.h**2

    if telemetry is not None:
        telemetry.write("iter,max_eq,max_ineq,max_neg\n")

    # max_iter >= 1 and the last sweep always checks, so res is set below
    it = 0
    while it < max_iter:
        _sweep_red_black(colors, h2, opts.relax)
        it += 1
        if it % opts.check_every == 0 or it == max_iter:
            res = lcp_residual(problem, ScalarField(grid, u))
            if telemetry is not None:
                telemetry.write(
                    f"{it},{res.max_eq:.17g},{res.max_ineq:.17g},{res.max_neg:.17g}\n"
                )
            if res.max_violation <= opts.tol:
                break

    return SolveResult(
        u=ScalarField(grid, u),
        iterations=it,
        residual=res,
        converged=res.max_violation <= opts.tol,
    )


def discrete_energy(problem: ObstacleProblem, u: ScalarField) -> float:
    """Sum of (|grad_h u|^2 / 2 + c u) h^dim with forward differences."""
    grid = problem.grid
    vol = grid.cell_volume
    total = 0.0
    for ax in range(grid.dim):
        lo, hi = shifted_slices(grid.dim, ax)
        d = (u.values[hi] - u.values[lo]) / grid.h[ax]
        total += 0.5 * float(np.sum(d**2)) * vol
    total += float(np.sum(problem.c.values * u.values)) * vol
    return total
