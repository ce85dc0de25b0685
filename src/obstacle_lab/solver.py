"""Monotone multigrid and projected SOR solvers for the discrete obstacle
problem Delta u = chi{u > 0}, in one solve loop: solve_psor.

The grid LCP per interior node:  u >= 0,  1 - Lap_h u >= 0,
u * (1 - Lap_h u) = 0, with Dirichlet data on the box boundary.  Both
solvers relax it with the red-black sweeps of _Level.smooth (sweep.py).
_levels decides once per solve which one runs: PSOR on the fine level
alone, or multigrid V-cycles (_cycle) on a fine level and its coarse ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteFieldError
from .grid import GridSpec, ScalarField, boundary_mask
from .sweep import _Level

# multigrid: used with relax = None from this many cells on the largest axis
_MG_MIN_CELLS = 96
_MG_COARSEST = 8  # coarsening stops before an axis drops below this
_MG_SMOOTH = 3  # projected Gauss-Seidel sweeps before and after the coarse step
_MG_COARSE_SWEEPS = 16  # sweeps on the coarsest level
# stagnation: _STALL_CHECKS checks in a row that set no new certificate minimum
_STALL_CHECKS = 20
_CHECK_EVERY = 10  # PSOR sweeps per certificate check


@dataclass
class ObstacleProblem:
    """Delta u = chi{u > 0}, u >= 0 on grid, with nonnegative Dirichlet data.

    g is given as a node array and kept as its boundary values only, in the
    C order of boundary_mask(grid); its interior entries are never read.
    """

    grid: GridSpec
    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.shape != self.grid.node_shape:
            raise ValueError("Dirichlet array must have node shape")
        self.g = g[boundary_mask(self.grid)]
        if not np.all(np.isfinite(self.g)):
            raise ValueError("Dirichlet data must be finite")
        if float(self.g.min()) < 0.0:
            raise ValueError("Dirichlet data must be nonnegative")


@dataclass
class SolveOptions:
    tol: float = 1e-10
    max_iter: int | None = None  # default 40 * (cells per axis)^2
    relax: float | None = None  # None: the solver picks (see solve_psor)

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.relax is not None and not (0.0 < self.relax < 2.0):
            raise ValueError("relax must lie in (0, 2)")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class LcpResidual:
    max_eq: float
    max_ineq: float
    max_neg: float
    max_bc: float = 0.0  # largest |u - g| on the boundary; the solve's iterate holds g

    @property
    def max_violation(self) -> float:
        return max(self.max_eq, self.max_ineq, self.max_neg, self.max_bc)


@dataclass
class SolveResult:
    u: ScalarField
    iterations: int
    residual: LcpResidual
    converged: bool
    stop_reason: str  # "tol", "max_iter" or "stagnation"
    contraction: float | None  # last certificate / the one before
    # {"name": "psor", "relax": relax} or {"name": "multigrid", "levels":
    # [cells on the largest axis per level, finest first]}, each with
    # "mirrored": [the axes solved on their half, see _mirrored_axes]
    method: dict


def optimal_relax(grid: GridSpec) -> float:
    """Classic SOR estimate 2 / (1 + sin(pi / n)) from the largest axis."""
    n = int(grid.cells.max())
    return 2.0 / (1.0 + math.sin(math.pi / n))


def _certificate(level: _Level) -> LcpResidual:
    """lcp_residual of a level's u.  0.0 leads every maximum, so that u = 0
    gives 0.0, not -0.0; NaN or Inf raises as in ScalarField."""
    u = level.u
    low = float(u.min())
    if not (math.isfinite(low) and math.isfinite(float(u.max()))):
        raise NonFiniteFieldError("field contains NaN/Inf values")
    max_ineq, max_eq = level.lcp_maxima()
    scale = float(level.grid.h.max()) ** 2
    return LcpResidual(max_eq * scale, max_ineq * scale, max(0.0, -low))


def lcp_residual(problem: ObstacleProblem, u: ScalarField) -> LcpResidual:
    """Complementarity certificate, scaled by max(h)^2 on the equation parts:
    the solve's own check, on u packed once into a level, and max_bc.  u
    must lie on the problem's grid: same node shape, origin and extent."""
    grid = problem.grid
    if u.grid.node_shape != grid.node_shape or not np.array_equal(
        [u.grid.origin, u.grid.extent], [grid.origin, grid.extent]
    ):
        raise ValueError("field does not lie on the problem's grid")
    res = _certificate(_Level(grid, u.values))
    res.max_bc = float(np.abs(u.values[boundary_mask(grid)] - problem.g).max())
    return res


def _levels(grid: GridSpec, relax) -> list:
    """Cell counts of the solve's levels, finest first, decided once per
    solve.  With relax = None on a grid of at least _MG_MIN_CELLS cells
    (largest axis), every axis halves while all are even and their halves
    keep at least _MG_COARSEST cells; two coarse levels or more make a
    multigrid solve.  Otherwise the fine level alone: a PSOR solve."""
    levels = [grid.cells]
    if relax is None and int(grid.cells.max()) >= _MG_MIN_CELLS:
        while np.all(levels[-1] % 2 == 0) and levels[-1].min() // 2 >= _MG_COARSEST:
            levels.append(levels[-1] // 2)
    return levels if len(levels) >= 3 else levels[:1]


def _cycle(levels: list) -> None:
    """One V(_MG_SMOOTH, _MG_SMOOTH) cycle of monotone multigrid from
    levels[0] down.

    Mandel's method: projected Gauss-Seidel smooths every level.  A coarse
    level solves for w = v + g >= 0, with v the correction and g the
    minimum of the finer iterate over each coarse node's 3^dim block, so
    u + P v >= 0 holds for every admissible w; its right-hand side is
    Lap_H g + R (f - Lap_h u), and the finer iterate takes u += P (w - g).
    Lap_H is the Laplacian re-discretised on the coarse grid, not the
    Galerkin P^T Lap_h P of Mandel's proof, so u >= 0 holds by
    construction but the fall of the discrete energy per cycle is
    observed, not guaranteed; the certificate still judges every result.
    """
    fine, *coarser = levels
    if not coarser:
        fine.smooth(_MG_COARSE_SWEEPS)
        return
    fine.smooth(_MG_SMOOTH)
    fine.restrict_to(coarser[0])
    _cycle(coarser)
    fine.correct_from(coarser[0])
    fine.smooth(_MG_SMOOTH)


def _mirrored_axes(u: np.ndarray, cells) -> list:
    """The axes on which cells, the coarsest level's, is even and u, the
    start array, is its mirror image i -> n - i byte for byte, so -0.0 does
    not match 0.0.  The sweeps, the certificate and the multigrid
    transfers only add pairs a + b, which equal b + a exactly: such a solve
    keeps u bit-symmetric, and its levels hold nodes 0 ... n / 2 + 1."""
    bits = u.view(np.int64)
    return [
        ax for ax in range(u.ndim)
        if cells[ax] % 2 == 0 and np.array_equal(bits, np.flip(bits, ax))
    ]


def solve_psor(
    problem: ObstacleProblem,
    opts: SolveOptions | None = None,
    telemetry=None,
) -> SolveResult:
    """Solve the LCP until its residual certificate meets tol, max_iter
    iterations ran, or the certificate stagnates.

    When _levels gives coarse levels, one iteration is one monotone
    multigrid V-cycle (_cycle) and the certificate is checked after each.
    With the fine level alone, one iteration is one red-black projected SOR
    sweep, with relax (default optimal_relax(grid)), checked every
    _CHECK_EVERY sweeps and at max_iter.

    On every axis listed by _mirrored_axes the levels hold half the grid
    (_Level); result.u is unfolded once, with the bits of the full solve.

    Deterministic.  The solve stagnates after _STALL_CHECKS checks in a row
    that set no new minimum of the certificate: a converging solve sets one
    at nearly every check, however slowly it contracts; at the rounding
    floor new minima die out.  A solve that stops at max_iter or stagnates
    with residual above tol is returned with converged=False, never
    silently.  Telemetry rows ``iter,max_eq,max_ineq,max_neg`` are streamed
    to the optional file-like ``telemetry`` at every residual check.
    """
    opts = opts or SolveOptions()
    grid = problem.grid
    max_iter = opts.max_iter
    if max_iter is None:
        max_iter = 40 * int(grid.cells.max()) ** 2

    u = np.zeros(grid.node_shape)
    u[boundary_mask(grid)] = problem.g
    cells = _levels(grid, opts.relax)
    mirrored = _mirrored_axes(u, cells[-1])
    fine = _Level(grid, u, mirrored=mirrored)
    del u  # fine.u is the iterate from here on
    levels = [fine] + [fine.coarse(c) for c in cells[1:]]
    multigrid = len(levels) > 1
    if multigrid:
        method = {"name": "multigrid", "levels": [int(c.max()) for c in cells]}
    else:
        relax = opts.relax if opts.relax is not None else optimal_relax(grid)
        method = {"name": "psor", "relax": relax}
    method["mirrored"] = mirrored

    if telemetry is not None:
        telemetry.write("iter,max_eq,max_ineq,max_neg\n")
    it, stop = 0, "max_iter"
    prev = contraction = None
    best, since = math.inf, 0  # lowest certificate, checks since it was set
    # max_iter >= 1 and every iteration ends in a check, so res is set below
    while it < max_iter:
        if multigrid:
            _cycle(levels)
            it += 1
        else:
            k = min(_CHECK_EVERY, max_iter - it)
            fine.smooth(k, relax)
            it += k
        res = _certificate(fine)
        if telemetry is not None:
            telemetry.write(
                f"{it},{res.max_eq:.17g},{res.max_ineq:.17g},{res.max_neg:.17g}\n"
            )
        v = res.max_violation
        contraction = v / prev if prev else None
        prev = v
        if v <= opts.tol:
            stop = "tol"
            break
        if v < best:
            best, since = v, 0
        else:
            since += 1
            if since >= _STALL_CHECKS:
                stop = "stagnation"
                break
    u = fine.unpack(np.empty(grid.node_shape))
    del fine, levels  # before ScalarField checks u
    return SolveResult(
        u=ScalarField(grid, u),
        iterations=it,
        residual=res,
        converged=stop == "tol",
        stop_reason=stop,
        contraction=contraction,
        method=method,
    )
