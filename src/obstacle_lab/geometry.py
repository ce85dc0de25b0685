"""Coincidence-set geometry diagnostics.

Mask extraction, free-boundary points, kernel-coordinate cross sections
and their diameters, first-moment direction fields and their oscillation,
moment-based ellipsoid fits, Hausdorff distances, the per-slice report of
diameter d and closeness, and diameter asymptotics near a pinch tip, fitted
to the kernel-axis profile above one resolution floor.

Cross sections and the direction field nu take the last coordinate axis as
the one-dimensional kernel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirectionError, InconclusiveError
from .grid import GridSpec, Mask, ScalarField, shifted_slices


@dataclass
class Ellipsoid:
    """center + rotation @ diag(semi_axes) unit-ball image."""

    center: np.ndarray
    semi_axes: np.ndarray  # sorted descending
    rotation: np.ndarray  # columns = principal directions

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.semi_axes = np.asarray(self.semi_axes, dtype=float)
        self.rotation = np.asarray(self.rotation, dtype=float)
        d = len(self.center)
        if np.any(self.semi_axes <= 0):
            raise ValueError("semi-axes must be positive")
        if np.any(np.diff(self.semi_axes) > 1e-12):
            raise ValueError("semi-axes must be sorted descending")
        if np.abs(self.rotation.T @ self.rotation - np.eye(d)).max() > 1e-10:
            raise ValueError("rotation must be orthonormal")

    @property
    def diameter(self) -> float:
        return 2.0 * float(self.semi_axes.max())

    def boundary_points(self) -> np.ndarray:
        """Deterministic boundary sample cloud, dense enough that the cloud
        spacing stays well below the grid resolutions used elsewhere: 128
        points in 2D, 64^2 in 3D."""
        d = len(self.center)
        if d == 1:
            sphere = np.array([[-1.0], [1.0]])
        elif d == 2:
            t = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
            sphere = np.stack([np.cos(t), np.sin(t)], axis=1)
        else:
            n = 64 * 64
            k = np.arange(n)
            phi = math.pi * (3.0 - math.sqrt(5.0)) * k  # Fibonacci sphere
            z = 1.0 - 2.0 * (k + 0.5) / n
            rho = np.sqrt(np.maximum(1.0 - z**2, 0.0))
            sphere = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
        return self.center + (sphere * self.semi_axes) @ self.rotation.T


@dataclass
class CrossSection:
    """Coincidence-set slice at kernel coordinate t (the last axis),
    restricted to the reference ball of radius 2*delta about the base point."""

    t: float
    mask: Mask


@dataclass
class CrossSectionReport:
    t: float
    d: float
    closeness: float | None


@dataclass
class DiameterProfile:
    tip: float
    exponent: float
    coefficient: float
    branch: str  # "sqrt" | "flat" | "mismatch"


def coincidence_mask(u: ScalarField, eps_u: float) -> Mask:
    """Cells all of whose corner nodes are at most eps_u."""
    if not (eps_u > 0):
        raise ValueError("eps_u must be positive")
    v = u.values
    for ax in range(u.grid.dim):
        lo, hi = shifted_slices(u.grid.dim, ax)
        v = np.maximum(v[lo], v[hi])
    return Mask(u.grid, v <= eps_u)


def default_eps_u(grid: GridSpec, tol: float) -> float:
    """Zero-set threshold: quadratic growth makes an O(h^2) collar."""
    return max(10.0 * tol, float(grid.h.max()) ** 2 / 4.0)


def free_boundary(mask: Mask) -> np.ndarray:
    """Centers of faces separating flagged from unflagged cells, shape (M, dim)."""
    g = mask.grid
    pts = []
    for ax in range(g.dim):
        lo, hi = shifted_slices(g.dim, ax)
        idx = np.nonzero(mask.flags[lo] != mask.flags[hi])
        upper = idx[:ax] + (idx[ax] + 1,) + idx[ax + 1 :]
        pts.append(0.5 * (g.centers_of(idx) + g.centers_of(upper)))
    return np.concatenate(pts, axis=0)


def _interior_cells(mask: Mask) -> np.ndarray:
    """Flags of the flagged cells whose 2*dim face neighbours are all
    flagged; a cell on the grid border is never interior."""
    f = mask.flags
    inner = tuple(slice(1, -1) for _ in range(f.ndim))
    out = np.zeros_like(f)
    out[inner] = f[inner]
    core = out[inner]
    for ax in range(f.ndim):
        for sl in shifted_slices(f.ndim, ax, interior=True):
            core &= f[sl]
    return out


def has_interior(mask: Mask) -> bool:
    """Some cell has all its face neighbors flagged."""
    return bool(_interior_cells(mask).any())


@functools.lru_cache(maxsize=4)
def _prime_ball(origin: tuple, extent: tuple, cells: tuple, x0: tuple, delta: float):
    """A slice grid and the read-only C-order flags of its cells whose
    centres lie within 2*delta of x0."""
    grid = GridSpec(dim=len(cells), origin=origin, extent=extent, cells=cells)
    keep = np.linalg.norm(grid.cell_centers().reshape(-1, len(cells)) - x0, axis=1) <= 2 * delta
    keep.flags.writeable = False
    return grid, keep


def cross_section(mask: Mask, t: float, x0, delta: float) -> CrossSection:
    """Mask slice at the last-axis cell layer nearest t, restricted to the
    prime-ball of radius 2*delta about x0'."""
    g = mask.grid
    m = g.dim - 1
    x0 = np.asarray(x0, dtype=float).reshape(g.dim)
    if not (g.origin[m] - 1e-9 <= t <= g.upper[m] + 1e-9):
        raise ValueError(f"slice coordinate {t} outside the box")
    rel = (t - g.origin[m]) / g.h[m] - 0.5
    layer = int(np.clip(round(rel), 0, g.cells[m] - 1))
    flags = mask.flags[..., layer].copy()
    slice_grid, keep = _prime_ball(
        *(tuple(a[:m].tolist()) for a in (g.origin, g.extent, g.cells, x0)), delta
    )
    flags = flags.reshape(-1) & keep
    return CrossSection(
        t=float(g.axis_cell_centers(m)[layer]),
        mask=Mask(slice_grid, flags.reshape(slice_grid.cell_shape)),
    )


def _sq_dist_blocks(a: np.ndarray, b: np.ndarray):
    """Squared distances from the points of a to those of b, 512 rows of a
    at a time to bound memory, summed one axis at a time."""
    for i in range(0, len(a), 512):
        block = a[i : i + 512]
        d2 = np.zeros((len(block), len(b)))
        for ax in range(a.shape[1]):
            diff = np.subtract.outer(block[:, ax], b[:, ax])
            d2 += np.square(diff, out=diff)
        yield d2


def diameter(cs: CrossSection) -> float:
    """Max pairwise flagged-center distance plus one cell diagonal; 0 if empty.

    Only edge (flagged, not interior) cells are compared: an interior cell
    is the midpoint of its two neighbours along an axis, one of which lies
    farther than it from any point, so a farthest pair is a pair of edge
    cells.
    """
    mask = cs.mask
    if not mask.flags.any():
        return 0.0
    edge = mask.grid.centers_of(np.nonzero(mask.flags & ~_interior_cells(mask)))
    d2 = max(float(d2.max()) for d2 in _sq_dist_blocks(edge, edge))
    return math.sqrt(d2) + float(np.linalg.norm(mask.grid.h))


def nu_direction(mask: Mask, x, d: float) -> np.ndarray:
    """Normalized first moment of (x - y)'' over flagged cells in B_d(x),
    where '' is the last (kernel) coordinate.

    A moment below 0.05 of (cell count * cell volume * d) is degenerate.
    """
    if not (d > 0):
        raise ValueError("d must be positive")
    g = mask.grid
    x = np.asarray(x, dtype=float).reshape(g.dim)
    centers = mask.flagged_centers()
    inside = centers[np.linalg.norm(centers - x, axis=1) <= d]
    if len(inside) == 0:
        raise DegenerateDirectionError("no flagged cells in the ball")
    vol = g.cell_volume
    moment = ((x - inside)[:, -1:]).sum(axis=0) * vol
    norm = float(np.linalg.norm(moment))
    if norm <= 0.05 * len(inside) * vol * d:
        raise DegenerateDirectionError(
            f"direction integral {norm:.3g} below threshold; symmetric set"
        )
    return moment / norm


def osc_nu(mask: Mask, x, d: float) -> float:
    """Max pairwise direction difference over the 64 flagged cells nearest
    the sphere boundary of B_d(x); degenerate samples are skipped."""
    if not (d > 0):
        raise ValueError("d must be positive")
    g = mask.grid
    x = np.asarray(x, dtype=float).reshape(g.dim)
    centers = mask.flagged_centers()
    dist = np.linalg.norm(centers - x, axis=1)
    inside = dist <= d
    centers, dist = centers[inside], dist[inside]
    if len(centers) == 0:
        raise DegenerateDirectionError("no flagged cells in the ball")
    order = np.lexsort((np.arange(len(centers)), np.abs(dist - d)))
    picks = centers[order[:64]]
    dirs = []
    for y in picks:
        try:
            dirs.append(nu_direction(mask, y, d))
        except DegenerateDirectionError:
            continue
    if not dirs:
        raise DegenerateDirectionError("all sampled cells degenerate")
    dirs = np.array(dirs)
    return math.sqrt(max(float(d2.max()) for d2 in _sq_dist_blocks(dirs, dirs)))


def fit_ellipsoid(mask: Mask) -> Ellipsoid:
    """Moment fit: barycenter + covariance eigen-decomposition with the
    uniform solid-ellipsoid identity a_j = sqrt((m + 2) lambda_j)."""
    m = mask.grid.dim
    pts = mask.flagged_centers()
    interior = has_interior(mask)
    if len(pts) < (m + 1) * (m + 2) // 2 or not interior:
        raise InconclusiveError(f"{len(pts)} cells, interior={interior}: cannot fit")
    bary = pts.mean(axis=0)
    rel = pts - bary
    cov = rel.T @ rel / len(pts)
    w, V = np.linalg.eigh(cov)
    if w.min() <= 0:
        raise InconclusiveError("degenerate covariance")
    axes = np.sqrt((m + 2) * w)
    order = np.argsort(axes)[::-1]
    return Ellipsoid(center=bary, semi_axes=axes[order], rotation=V[:, order])


def _boundary_cloud(obj) -> np.ndarray:
    if isinstance(obj, Ellipsoid):
        return obj.boundary_points()
    pts = free_boundary(obj)
    if len(pts) == 0:
        raise InconclusiveError("empty boundary point cloud")
    return pts


def _directed_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    return math.sqrt(max(float(d2.min(axis=1).max()) for d2 in _sq_dist_blocks(a, b)))


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between boundary point clouds."""
    pa, pb = _boundary_cloud(a), _boundary_cloud(b)
    return max(_directed_hausdorff(pa, pb), _directed_hausdorff(pb, pa))


def cross_section_convergence(
    mask: Mask, x0, delta: float, Eprime: Ellipsoid, slices
) -> list:
    """Per-slice closeness of the d-normalized section to the d-scaled
    reference ellipsoid, sorted by kernel distance from the base point."""
    if abs(Eprime.diameter - 1.0) > 1e-6:
        raise ValueError("reference ellipsoid must have diameter 1")
    x0 = np.asarray(x0, dtype=float).reshape(mask.grid.dim)
    reports = []
    for t in slices:
        cs = cross_section(mask, t, x0, delta)
        d = diameter(cs)
        if d == 0.0:
            reports.append(CrossSectionReport(t=cs.t, d=0.0, closeness=None))
            continue
        scaled = Ellipsoid(
            center=cs.mask.flagged_centers().mean(axis=0),
            semi_axes=Eprime.semi_axes * d,
            rotation=Eprime.rotation,
        )
        closeness = hausdorff(cs.mask, scaled) / d
        reports.append(CrossSectionReport(t=cs.t, d=d, closeness=closeness))
    reports.sort(key=lambda rep: abs(rep.t - x0[-1]))
    return reports


def diameter_asymptotics(samples) -> DiameterProfile:
    """Power-law fit of d against distance to the extrapolated tip.

    The tip comes from a linear extrapolation of d^2 (exact for square-root
    profiles); the exponent from a log-log least-squares line.
    """
    samples = sorted((float(c), float(d)) for c, d in samples)
    coords = np.array([s[0] for s in samples])
    ds = np.array([s[1] for s in samples])
    if np.any(ds < 0):
        raise ValueError("diameters must be nonnegative")
    pos = ds > 0
    if pos.sum() < 4:
        raise InconclusiveError(
            f"need at least 4 positive samples, got {int(pos.sum())}"
        )

    # orient so d grows with the coordinate
    slope = np.polyfit(coords[pos], ds[pos], 1)[0]
    sign = 1.0 if slope >= 0 else -1.0
    c = sign * coords
    order = np.argsort(c)
    c, dd = c[order], ds[order]
    pos = dd > 0

    # tip candidates from extrapolating the smallest positive samples:
    # linear in d^2 (exact for square-root profiles) and linear in d
    # (exact for affine profiles); keep whichever yields the straighter
    # log-log line
    cp, dp = c[pos], dd[pos]
    k = min(6, len(cp))
    cmin = cp.min()
    zeros = c[~pos]
    zmax = float(zeros[zeros < cmin].max()) if np.any(zeros < cmin) else -np.inf
    fallback = zmax if zmax > -np.inf else cmin - float(np.diff(cp).mean())
    candidates = []
    for powers in (dp[:k] ** 2, dp[:k]):
        a, b = np.polyfit(cp[:k], powers, 1)
        t = -b / a if a > 0 else -np.inf
        if np.isfinite(t) and t < cmin and not (zmax > -np.inf and t < zmax):
            candidates.append(t)
    if not candidates:
        candidates.append(fallback)

    best = None
    for t in candidates:
        usable = pos & (c > t + 1e-300)
        logx = np.log(c[usable] - t)
        logy = np.log(dd[usable])
        (e, i), ssr, *_ = np.polyfit(logx, logy, 1, full=True)
        score = float(ssr[0]) if len(ssr) else 0.0
        if best is None or score < best[0]:
            best = (score, t, e, i)
    _, tip, exponent, intercept = best

    # branch verdict: a vanishing difference quotient (or super-linear decay
    # to the tip) means a flat profile; an exponent near 1/2 the square-root
    # law; anything else is flagged as a mismatch
    quot = float(np.abs(np.diff(dp) / np.diff(cp)).max()) if len(cp) > 1 else 0.0
    if quot <= 0.1 or exponent > 1.05:
        branch = "flat"
    elif abs(exponent - 0.5) <= 0.15:
        branch = "sqrt"
    else:
        branch = "mismatch"
    return DiameterProfile(
        tip=float(sign * tip),
        exponent=float(exponent),
        coefficient=float(np.exp(intercept)),
        branch=branch,
    )


def kernel_profile(mask: Mask, x0, delta: float) -> list:
    """(t, d): the cross-section diameter at every last-axis cell centre t."""
    g = mask.grid
    return [
        (float(t), diameter(cross_section(mask, t, x0, delta)))
        for t in g.axis_cell_centers(g.dim - 1)
    ]


def profile_asymptotics(samples, grid: GridSpec) -> DiameterProfile:
    """diameter_asymptotics of kernel_profile samples taken on grid, with
    every d below the floor 4*|h| set to 0: a section that narrow is a few
    cells of grid noise, not the tube. Fewer than 4 samples at or above the
    floor leave nothing to fit."""
    floor = 4.0 * float(np.linalg.norm(grid.h))
    count = sum(d >= floor for _, d in samples)
    if count < 4:
        raise InconclusiveError(
            f"{count} of {len(samples)} section diameters reach the floor "
            f"4|h| = {floor:.3g}; need at least 4"
        )
    return diameter_asymptotics([(t, d if d >= floor else 0.0) for t, d in samples])


def write_slice_svg(path, boundary_pts: np.ndarray) -> None:
    """Free-boundary scatter of a 2D run: one dot per point."""
    pts = np.atleast_2d(boundary_pts)
    lo = pts.min(axis=0) - 0.05
    hi = pts.max(axis=0) + 0.05
    span = float((hi - lo).max())
    scale = 400.0 / span

    def to_px(p):
        q = (p - lo) * scale
        return q[0], 400.0 - q[1]

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="400" height="400" '
        'viewBox="0 0 400 400">'
    ]
    for p in pts:
        x, y = to_px(p)
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.5" fill="black"/>')
    lines.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
