"""Monotone multigrid and projected SOR solvers for the discrete obstacle
problem Delta u = chi{u > 0}, sharing one fine level and one convergence loop.

The grid LCP per interior node:  u >= 0,  1 - Lap_h u >= 0,
u * (1 - Lap_h u) = 0, with Dirichlet data on the box boundary.

Every red-black sweep runs on the 2^dim parity planes u[p0::2, p1::2, ...],
copied back to back into one contiguous block for the length of one
smoothing call: a node's neighbours lie in the planes with one parity bit
flipped, so the sweeps run unit-stride with the same arithmetic per node.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, ScalarField, boundary_mask, shifted_slices

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

    @property
    def max_violation(self) -> float:
        return max(self.max_eq, self.max_ineq, self.max_neg)


@dataclass
class SolveResult:
    u: ScalarField
    iterations: int
    residual: LcpResidual
    converged: bool
    stop_reason: str  # "tol", "max_iter" or "stagnation"
    contraction: float | None  # last certificate / the one before
    # {"name": "psor", "relax": relax} or {"name": "multigrid", "levels":
    # [cells on the largest axis per level, finest first]}
    method: dict


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
        term = u[plus] + u[minus]
        term /= h2[ax]
        if out is None:
            out = term
        else:
            out += term
        del term  # else the next axis's sum is built while this one lives
    return out


def _laplacian_interior(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    denom = float(np.sum(2.0 / grid.h**2))
    lap = _neighbor_sum(u, grid)
    lap -= denom * u[_interior(grid)]
    return lap


def lcp_residual(problem: ObstacleProblem, u: ScalarField) -> LcpResidual:
    """Complementarity certificate, scaled by max(h)^2 on the equation parts."""
    grid = problem.grid
    diff = _laplacian_interior(u.values, grid)
    diff -= 1.0
    scale = float(grid.h.max()) ** 2
    # no temporary the size of the field: diff turns into |diff| in place
    # once max_ineq has read it; 0.0 leads max_neg so that u = 0 gives 0.0,
    # not -0.0
    max_ineq = max(float(diff.max()), 0.0) * scale
    np.abs(diff, out=diff)
    pos = u.values[_interior(grid)] > 0
    max_eq = float(diff.max(where=pos, initial=0.0)) * scale
    max_neg = max(0.0, -float(u.values.min()))
    return LcpResidual(max_eq=max_eq, max_ineq=max_ineq, max_neg=max_neg)


def _plane(a: np.ndarray, parity: tuple) -> np.ndarray:
    """The view a[p0::2, p1::2, ...] of a node array, parity = (p0, p1, ...)."""
    return a[tuple(slice(b, None, 2) for b in parity)]


def _parity_planes(a: np.ndarray) -> dict:
    """Contiguous copies of the 2^dim parity planes a[p0::2, p1::2, ...] of
    a node array, back to back in one block of a.size elements, keyed by
    the parity tuple p."""
    block = np.empty(a.size)
    planes, start = {}, 0
    for p in itertools.product((0, 1), repeat=a.ndim):
        plane = _plane(a, p)
        packed = block[start : start + plane.size].reshape(plane.shape)
        packed[...] = plane
        start += plane.size
        planes[p] = packed
    return planes


def _color_lattices(u: dict, f: dict, grid: GridSpec):
    """Views of u's parity planes for the two colours of a red-black sweep.

    The interior splits into 2^dim sub-lattices, each starting at index 1
    or 2 on every axis with stride 2.  A node's colour is the sum of its
    indices mod 2, so a whole sub-lattice has the colour of its start
    indices, and each of its +-1 neighbours has the other colour.  The
    sub-lattice starting at s lies in plane s mod 2 from plane index s // 2;
    along an axis, its neighbours lie in the plane with that axis's parity
    flipped, from plane index 1 (+1) and 0 (-1).  u and f map a parity to
    its plane, as _parity_planes gives them.  Per colour: a list of (nodes,
    f at the nodes, [(u[+1], u[-1]) per axis]).
    """
    cells = [int(n) for n in grid.cells]
    colors = ([], [])
    for starts in itertools.product((1, 2), repeat=grid.dim):
        parity = tuple(s % 2 for s in starts)
        counts = [len(range(s, n, 2)) for s, n in zip(starts, cells)]
        center = tuple(slice(s // 2, s // 2 + k) for s, k in zip(starts, counts))
        neighbors = []
        for ax, k in enumerate(counts):
            flipped = list(parity)
            flipped[ax] ^= 1
            plus = list(center)
            minus = list(center)
            plus[ax] = slice(1, 1 + k)
            minus[ax] = slice(0, k)
            other = u[tuple(flipped)]
            neighbors.append((other[tuple(plus)], other[tuple(minus)]))
        nodes = u[parity][center]
        colors[sum(starts) % 2].append((nodes, f[parity][center], neighbors))
    return colors


def _sweep_red_black(colors, r, scale, relax):
    """One projected SOR sweep, colour 0 then colour 1, updating u in place.

    Nodes of one colour read only the other colour, so updating them
    sub-lattice by sub-lattice gives the same bits as a whole-colour update.
    The views in colors lie on contiguous parity planes (_color_lattices),
    so every ufunc runs unit-stride inner loops.  Each node takes the
    projected SOR update
    max(0, (1 - relax) u + relax (sum_ax (u[+1] + u[-1]) / h_ax^2 - f) / denom)
    with 1/h^2, relax and 1/denom folded into one scale:
    max(0, scale sum_ax r_ax (u[+1] + u[-1]) - f~ + (1 - relax) u), in that
    operation order, with r_ax = h_0^2 / h_ax^2, scale = relax / (denom h_0^2)
    and f~ = (relax / denom) f from _Level.smooth.  The in-place operators
    save temporaries; the multiply by r_ax = 1 and the blend at relax = 1
    are skipped, which is exact.
    """
    for lattices in colors:
        for nodes, f, neighbors in lattices:
            gs = None
            for (plus, minus), r_ax in zip(neighbors, r):
                term = plus + minus
                if r_ax != 1.0:
                    term *= r_ax
                if gs is None:
                    gs = term
                else:
                    gs += term
            gs *= scale
            gs -= f
            if relax != 1.0:
                gs += (1.0 - relax) * nodes
            np.maximum(0.0, gs, out=nodes)


def _converge(problem, u, step, max_iter, tol, telemetry):
    """Advance ``step`` until the LCP certificate meets tol, max_iter
    iterations have run, or the certificate stagnates.

    ``step(budget)`` advances u in place by at most budget iterations and
    returns how many it ran.  After every step the certificate is checked
    and, when a telemetry file is given, written as a row
    ``iter,max_eq,max_ineq,max_neg``.  The solve stagnates after
    _STALL_CHECKS checks in a row that set no new minimum of the
    certificate.  A converging solve sets one at nearly every check,
    however slowly it contracts; at the rounding floor new minima die out.
    Returns (iterations, last residual, stop reason, last contraction
    factor: the last certificate over the one before, None after one check).
    """
    grid = problem.grid
    if telemetry is not None:
        telemetry.write("iter,max_eq,max_ineq,max_neg\n")
    it, stop = 0, "max_iter"
    prev = contraction = None
    best, since = math.inf, 0  # lowest certificate, checks since it was set
    # max_iter >= 1 and every step ends in a check, so res is set below
    while it < max_iter:
        it += step(max_iter - it)
        res = lcp_residual(problem, ScalarField(grid, u))
        if telemetry is not None:
            telemetry.write(
                f"{it},{res.max_eq:.17g},{res.max_ineq:.17g},{res.max_neg:.17g}\n"
            )
        v = res.max_violation
        contraction = v / prev if prev else None
        prev = v
        if v <= tol:
            stop = "tol"
            break
        if v < best:
            best, since = v, 0
        else:
            since += 1
            if since >= _STALL_CHECKS:
                stop = "stagnation"
                break
    return it, res, stop, contraction


def _psor_step(fine, relax):
    """_CHECK_EVERY red-black sweeps of projected SOR, fewer at the budget."""

    def step(budget):
        k = min(_CHECK_EVERY, budget)
        fine.smooth(k, relax)
        return k

    return step


def _mg_cells(grid: GridSpec) -> list:
    """Cell counts of the multigrid levels, finest first: halve every axis
    while all are even and their halves keep at least _MG_COARSEST cells."""
    levels = [grid.cells]
    while np.all(levels[-1] % 2 == 0) and levels[-1].min() // 2 >= _MG_COARSEST:
        levels.append(levels[-1] // 2)
    return levels


def _uses_multigrid(grid: GridSpec, relax) -> bool:
    """relax = None on a grid of at least _MG_MIN_CELLS cells (largest axis)
    with at least two coarse levels: every axis halves evenly twice."""
    return (
        relax is None
        and int(grid.cells.max()) >= _MG_MIN_CELLS
        and len(_mg_cells(grid)) >= 3
    )


def _axis_slices(dim: int, ax: int, s: slice) -> tuple:
    out = [slice(None)] * dim
    out[ax] = s
    return tuple(out)


def _block_min(a: np.ndarray) -> np.ndarray:
    """Coarse-node minimum of a fine node array over each 3^dim block
    centered on the coarse node's fine position, clipped at the box."""
    for ax in range(a.ndim):
        odd = a[_axis_slices(a.ndim, ax, slice(1, None, 2))]
        m = a[_axis_slices(a.ndim, ax, slice(None, None, 2))].copy()
        lo = m[_axis_slices(a.ndim, ax, slice(1, None))]
        hi = m[_axis_slices(a.ndim, ax, slice(None, -1))]
        np.minimum(lo, odd, out=lo)
        np.minimum(hi, odd, out=hi)
        a = m
    return a


def _restrict(r: np.ndarray) -> np.ndarray:
    """Full weighting (1/4, 1/2, 1/4 per axis) of fine interior values onto
    the coarse interior nodes."""
    for ax in range(r.ndim):
        mid = r[_axis_slices(r.ndim, ax, slice(1, None, 2))]
        lo = r[_axis_slices(r.ndim, ax, slice(0, -1, 2))]
        hi = r[_axis_slices(r.ndim, ax, slice(2, None, 2))]
        r = 0.5 * mid + 0.25 * (lo + hi)
    return r


def _prolong(v: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of coarse node values onto the fine nodes."""
    for ax in range(v.ndim):
        shape = list(v.shape)
        shape[ax] = 2 * shape[ax] - 1
        out = np.empty(shape)
        out[_axis_slices(v.ndim, ax, slice(None, None, 2))] = v
        lo = v[_axis_slices(v.ndim, ax, slice(None, -1))]
        hi = v[_axis_slices(v.ndim, ax, slice(1, None))]
        mid = out[_axis_slices(v.ndim, ax, slice(1, None, 2))]
        np.add(lo, hi, out=mid)
        mid *= 0.5
        v = out
    return v


@dataclass
class _Level:
    """One level of a solve: its LCP u >= 0, f - Lap u >= 0 on arrays that
    are allocated once.  The right-hand side f is 1 on the finest level and
    the restricted residual on a coarse one."""

    grid: GridSpec
    u: np.ndarray
    f: np.ndarray

    @classmethod
    def on(cls, grid: GridSpec, u=None):
        """The finest level on the solver's u, or, without u, a coarse level
        on fresh arrays.  The finest f = 1 is a read-only broadcast of one
        number, so no node array holds it."""
        if u is None:
            u, f = np.zeros(grid.node_shape), np.zeros(grid.node_shape)
        else:
            f = np.broadcast_to(1.0, grid.node_shape)
        return cls(grid, u, f)

    def smooth(self, sweeps: int, relax: float = 1.0) -> None:
        """Run sweeps red-black projected SOR sweeps on u, in place.

        The sweeps run on a contiguous copy of u's parity planes, which is
        written back to u and dropped before returning, and read the scaled
        right-hand side f~ = (relax / denom) f (_sweep_red_black): where f
        is a broadcast of one number, as on the finest level, a read-only
        broadcast of that number times relax / denom per plane; on a coarse
        level, a copy of f's parity planes scaled in place.
        """
        h2 = self.grid.h**2
        denom = float(np.sum(2.0 / h2))
        c = relax / denom
        planes = _parity_planes(self.u)
        if not any(self.f.strides):  # f is one number: so is f~
            cf = c * self.f.flat[0]
            f = {p: np.broadcast_to(cf, plane.shape) for p, plane in planes.items()}
        else:
            f = _parity_planes(self.f)
            for plane in f.values():
                plane *= c
        colors = _color_lattices(planes, f, self.grid)
        r, scale = h2[0] / h2, relax / (denom * h2[0])
        for _ in range(sweeps):
            _sweep_red_black(colors, r, scale, relax)
        for parity, plane in planes.items():
            _plane(self.u, parity)[...] = plane


def _mg_step(fine):
    """One V(_MG_SMOOTH, _MG_SMOOTH) cycle of monotone multigrid per step.

    Mandel's method: projected Gauss-Seidel smooths every level.  A coarse
    level solves for w = v + g >= 0, with v the correction and g the
    minimum of the finer iterate over each coarse node's 3^dim block, so
    u + P v >= 0 holds for every admissible w; its right-hand side is
    Lap_H g + R (f - Lap_h u), and the finer iterate takes u += P (w - g).
    Lap_H is the Laplacian re-discretised on the coarse grid, not the
    Galerkin P^T Lap_h P of Mandel's proof, so u >= 0 holds by
    construction but the fall of discrete_energy per cycle is observed,
    not guaranteed; the certificate still judges every result.
    """
    grid = fine.grid
    levels = [fine]
    for cells in _mg_cells(grid)[1:]:
        levels.append(
            _Level.on(GridSpec(grid.dim, grid.origin, grid.extent, cells))
        )

    def cycle(k):
        fine = levels[k]
        if k == len(levels) - 1:
            fine.smooth(_MG_COARSE_SWEEPS)
            return
        coarse = levels[k + 1]
        fine.smooth(_MG_SMOOTH)
        g = _block_min(fine.u)  # the coarse obstacle of this cycle
        coarse.u[...] = g  # w = g: zero correction
        residual = fine.f[_interior(fine.grid)]
        residual = residual - _laplacian_interior(fine.u, fine.grid)
        inner = _interior(coarse.grid)
        coarse.f[inner] = _laplacian_interior(g, coarse.grid)
        coarse.f[inner] += _restrict(residual)
        cycle(k + 1)
        fine.u += _prolong(coarse.u - g)
        fine.smooth(_MG_SMOOTH)

    def step(budget):
        cycle(0)
        return 1

    return step


def solve_psor(
    problem: ObstacleProblem,
    opts: SolveOptions | None = None,
    telemetry=None,
) -> SolveResult:
    """Solve the LCP until its residual certificate meets tol.

    With relax = None on a grid of at least _MG_MIN_CELLS cells whose every
    axis halves evenly at least twice, one iteration is one monotone
    multigrid V-cycle and the certificate is checked after each.  Otherwise
    one iteration is one red-black projected SOR sweep, with relax (default
    optimal_relax(grid)), checked every _CHECK_EVERY sweeps.

    Deterministic.  A solve that stops at max_iter or stagnates with
    residual above tol is returned with converged=False, never silently.
    Telemetry rows ``iter,max_eq,max_ineq,max_neg`` are streamed to the
    optional file-like ``telemetry`` at every residual check.
    """
    opts = opts or SolveOptions()
    grid = problem.grid
    max_iter = opts.max_iter
    if max_iter is None:
        max_iter = 40 * int(grid.cells.max()) ** 2

    u = np.zeros(grid.node_shape)
    u[boundary_mask(grid)] = problem.g
    fine = _Level.on(grid, u)
    if _uses_multigrid(grid, opts.relax):
        step = _mg_step(fine)
        levels = [int(cells.max()) for cells in _mg_cells(grid)]
        method = {"name": "multigrid", "levels": levels}
    else:
        relax = opts.relax if opts.relax is not None else optimal_relax(grid)
        step = _psor_step(fine, relax)
        method = {"name": "psor", "relax": relax}
    it, res, stop, contraction = _converge(
        problem, u, step, max_iter, opts.tol, telemetry
    )
    return SolveResult(
        u=ScalarField(grid, u),
        iterations=it,
        residual=res,
        converged=stop == "tol",
        stop_reason=stop,
        contraction=contraction,
        method=method,
    )


def discrete_energy(problem: ObstacleProblem, u: ScalarField) -> float:
    """Sum of (|grad_h u|^2 / 2 + u) h^dim with forward differences."""
    grid = problem.grid
    vol = grid.cell_volume
    total = 0.0
    for ax in range(grid.dim):
        lo, hi = shifted_slices(grid.dim, ax)
        d = (u.values[hi] - u.values[lo]) / grid.h[ax]
        total += 0.5 * float(np.sum(d**2)) * vol
    total += float(np.sum(u.values)) * vol
    return total
