"""Structured box grids in 1-3 dimensions.

Node-indexed scalar fields, cell-indexed boolean masks, multilinear
interpolation, second-order finite-difference gradients and weighted ball
quadrature.  Fields live on nodes; sets live on cells so that set measures
are exact sums of cell volumes.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteFieldError,
    OutOfDomainError,
    SnapshotFormatError,
)

_MAX_ASPECT = 4.0


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned box grid: origin + extent split into uniform cells."""

    dim: int
    origin: np.ndarray
    extent: np.ndarray
    cells: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float).reshape(self.dim))
        object.__setattr__(self, "extent", np.asarray(self.extent, dtype=float).reshape(self.dim))
        object.__setattr__(self, "cells", np.asarray(self.cells, dtype=int).reshape(self.dim))
        if not (np.all(np.isfinite(self.origin)) and np.all(np.isfinite(self.extent))):
            raise ValueError("origin and extent must be finite")
        if np.any(self.extent <= 0.0):
            raise ValueError("extent must be positive per axis")
        if np.any(self.cells < 4):
            raise ValueError("need at least 4 cells per axis")
        h = self.h
        if not all(0.0 < s * s < math.inf for s in h.tolist()):  # stencils divide by h^2
            raise ValueError(f"cell size {h.tolist()} squares to 0 or inf in float64")
        if not 0.0 < self.cell_volume < math.inf:  # volumes and integrals scale by it
            raise ValueError(f"cell volume of cell size {h.tolist()} is 0 or inf in float64")
        if h.max() / h.min() > _MAX_ASPECT:
            raise ValueError(
                f"aspect ratio {h.max() / h.min():.3g} exceeds {_MAX_ASPECT}"
            )

    @property
    def h(self) -> np.ndarray:
        return self.extent / self.cells

    @property
    def node_shape(self) -> tuple:
        return tuple((self.cells + 1).tolist())

    @property
    def cell_shape(self) -> tuple:
        return tuple(self.cells.tolist())

    @property
    def cell_volume(self) -> float:
        return math.prod(self.h.tolist())

    @property
    def upper(self) -> np.ndarray:
        return self.origin + self.extent

    def axis_nodes(self, ax: int) -> np.ndarray:
        return self.origin[ax] + self.h[ax] * np.arange(self.cells[ax] + 1)

    def axis_cell_centers(self, ax: int) -> np.ndarray:
        return self.origin[ax] + self.h[ax] * (np.arange(self.cells[ax]) + 0.5)

    def node_points(self) -> np.ndarray:
        """All node coordinates, shape node_shape + (dim,)."""
        axes = [self.axis_nodes(ax) for ax in range(self.dim)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def cell_centers(self) -> np.ndarray:
        """Cell-center coordinates, shape cell_shape + (dim,)."""
        axes = [self.axis_cell_centers(ax) for ax in range(self.dim)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def centers_of(self, idx) -> np.ndarray:
        """Centers of the cells idx, one index array per axis as np.nonzero
        gives them, shape (M, dim)."""
        return np.stack([self.axis_cell_centers(ax)[i] for ax, i in enumerate(idx)], axis=-1)

    def contains(self, x: np.ndarray) -> bool:
        """x lies in the closed box, up to 1e-12 per axis."""
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.origin - 1e-12) and np.all(x <= self.upper + 1e-12))


def box_grid(dim: int, cells, lo=-1.0, hi=1.0) -> GridSpec:
    """Uniform grid on [lo, hi]^dim with the same cell count per axis."""
    cells = np.broadcast_to(np.asarray(cells, dtype=int), (dim,))
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (dim,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (dim,))
    with np.errstate(over="ignore"):  # GridSpec rejects an extent past float64
        extent = hi - lo
    return GridSpec(dim=dim, origin=lo.copy(), extent=extent, cells=cells.copy())


def shifted_slices(dim: int, ax: int, interior: bool = False) -> tuple:
    """Index pair (lo, hi) of an array shifted by one step along axis ax.

    By default lo and hi pick the two end nodes of every edge along ax.
    With interior=True the other axes are cut to their interior and lo, hi
    pick the -1 and +1 neighbours along ax of every interior node.
    """
    step, rest = (2, slice(1, -1)) if interior else (1, slice(None))
    lo = [rest] * dim
    hi = [rest] * dim
    lo[ax] = slice(None, -step)
    hi[ax] = slice(step, None)
    return tuple(lo), tuple(hi)


def boundary_mask(grid: GridSpec) -> np.ndarray:
    """Boolean node array that is True on the faces of the box."""
    m = np.ones(grid.node_shape, dtype=bool)
    m[(slice(1, -1),) * grid.dim] = False
    return m


@dataclass
class ScalarField:
    """Real values on the nodes of a GridSpec."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.node_shape:
            raise ValueError(
                f"values shape {self.values.shape} != node shape {self.grid.node_shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteFieldError("field contains NaN/Inf values")


@dataclass
class Mask:
    """Boolean flags on the cells of a GridSpec."""

    grid: GridSpec
    flags: np.ndarray

    def __post_init__(self):
        self.flags = np.asarray(self.flags, dtype=bool)
        if self.flags.shape != self.grid.cell_shape:
            raise ValueError(
                f"flags shape {self.flags.shape} != cell shape {self.grid.cell_shape}"
            )

    @property
    def volume(self) -> float:
        return float(self.flags.sum()) * self.grid.cell_volume

    def flagged_centers(self) -> np.ndarray:
        """Centers of flagged cells in C order, shape (count, dim)."""
        return self.grid.centers_of(np.nonzero(self.flags))


def _nodes_where(grid: GridSpec, where: np.ndarray) -> np.ndarray:
    """Coordinates of the nodes where the boolean node array where is True,
    in C order, shape (M, dim), filled one axis at a time from the flat node
    indices, so no more than one index array per axis is alive."""
    flat = np.flatnonzero(where)
    points = np.empty((flat.size, grid.dim))
    for ax in range(grid.dim):
        i = flat // math.prod(grid.node_shape[ax + 1:])
        i %= grid.node_shape[ax]
        points[:, ax] = grid.axis_nodes(ax)[i]
    return points


def sample(evaluator, grid: GridSpec, where=None) -> ScalarField:
    """Evaluate a vectorized function, (M, dim) points to M values, at
    every node, or only at the nodes where the boolean node array where is
    True, in C order, with 0 at the others."""
    if where is None:  # every node, without a node array for the mask
        where = np.broadcast_to(True, grid.node_shape)
    points = _nodes_where(grid, where)
    with np.errstate(all="ignore"):  # a non-finite value is reported below
        vals = np.asarray(evaluator(points), dtype=float)
    if vals.shape != (points.shape[0],):
        raise ValueError(
            f"evaluator returned shape {vals.shape}, expected ({points.shape[0]},)"
        )
    bad = ~np.isfinite(vals)
    if np.any(bad):
        k = int(np.argmax(bad))
        node = np.unravel_index(np.flatnonzero(where)[k], grid.node_shape)
        idx = tuple(int(i) for i in node)
        raise NonFiniteFieldError(
            f"evaluator returned non-finite value at node {idx}, x={points[k]}"
        )
    values = np.zeros(grid.node_shape)
    values[where] = vals
    return ScalarField(grid, values)


def _cell_coords(g: GridSpec, pts: np.ndarray) -> tuple:
    """Each point's lower cell corner i0 and offset rel - i0, in cells, one row per axis."""
    rel = (pts - g.origin) / g.h
    # written as "not inside", so that a NaN coordinate lies outside
    inside = np.all((rel >= -1e-9) & (rel <= g.cells + 1e-9), axis=1)
    if not inside.all():
        raise OutOfDomainError(f"point {pts[np.argmin(inside)]} outside grid box")
    i0 = np.clip(np.floor(rel).astype(int), 0, g.cells - 1)
    return i0.T, (rel - i0).T


def _multilinear(values: np.ndarray, i0: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Sum over the 2^dim corners values[i0 + corner] of the multilinear
    weights, with i0 and frac one row per axis (i0 may add a row for an
    axis not interpolated).

    The corners are gathered from the values flattened in C order (a copy
    for a non-contiguous view) at one base index per point plus a fixed
    offset per corner.
    """
    flat = values.reshape(-1)
    strides = [math.prod(values.shape[ax + 1:]) for ax in range(values.ndim)]
    base = sum(i * s for i, s in zip(i0, strides))
    corners = [(1, 0)]  # (weight, offset) per corner
    for f, s in zip(frac, strides):
        corners = [(w * c, o + k * s) for w, o in corners for k, c in enumerate((1.0 - f, f))]
    return sum(w * flat[base + o] for w, o in corners)


def interpolate_many(field: ScalarField, pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation at points of shape (M, dim)."""
    pts = np.asarray(pts, dtype=float).reshape(-1, field.grid.dim)
    return _multilinear(field.values, *_cell_coords(field.grid, pts))


def interpolate_gradient(field: ScalarField, x) -> np.ndarray:
    """gradient_field(field) interpolated at the point x, from the gradient
    at the corners of x's cell only."""
    i0, frac = _cell_coords(field.grid, np.asarray(x, dtype=float).reshape(1, -1))
    grad = gradient_field(field, tuple(map(slice, i0[:, 0], i0[:, 0] + 1)))
    return _multilinear(grad, [0] * len(frac) + [np.arange(len(frac))], frac)


def node_block(grid: GridSpec, block: tuple) -> tuple:
    """Slices of the nodes of a block of cells grown by one node per side,
    clipped at the box, and the slices that cut those nodes back out."""
    a = [max(s.start - 1, 0) for s in block]
    b = [min(s.stop + 2, n + 1) for s, n in zip(block, grid.cells)]
    inner = tuple(slice(s.start - i, s.stop + 1 - i) for s, i in zip(block, a))
    return tuple(map(slice, a, b)), inner


def block_gradient(values: np.ndarray, grid: GridSpec, inner: tuple) -> np.ndarray:
    """Gradient of node values cut to inner, shape + (dim,): central
    differences inside, second-order one-sided at the faces of values."""
    grads = np.gradient(values, *grid.h.tolist(), edge_order=2)
    return np.stack([gr[inner] for gr in ([grads] if grid.dim == 1 else grads)], axis=-1)


def gradient_field(field: ScalarField, block=None) -> np.ndarray:
    """Gradient at the nodes of a block of cells (default every cell), shape
    + (dim,): central differences inside, second-order one-sided at the box
    faces.  One node of halo makes a block's values those of the whole grid."""
    g = field.grid
    outer, inner = node_block(g, block or tuple(slice(0, n) for n in g.cells))
    return block_gradient(field.values[outer], g, inner)


def cell_center_values(values: np.ndarray) -> np.ndarray:
    """Cell-center values of node values (corner average = multilinear value)."""
    for ax in range(values.ndim):
        lo, hi = shifted_slices(values.ndim, ax)
        values = 0.5 * (values[lo] + values[hi])
    return values


def unit_ball_volume(dim: int) -> float:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def ball_block(grid: GridSpec, y: np.ndarray, r: float) -> tuple:
    """Cell slices holding every cell whose center can lie in B_r(y) and the
    cell containing y; OutOfDomainError unless the box holds B_r(y)."""
    if not (grid.contains(y - r) and grid.contains(y + r)):
        raise OutOfDomainError(f"ball B_{r}({y}) not contained in grid box")
    lo = np.floor((y - r - grid.origin) / grid.h).astype(int) - 1
    hi = np.ceil((y + r - grid.origin) / grid.h).astype(int) + 1
    return tuple(map(slice, np.clip(lo, 0, grid.cells), np.clip(hi, 0, grid.cells)))


def ball_quadrature(grid: GridSpec, block: tuple, y, rs, m: float):
    """Midpoint rule for g(x) / |x - y|^m over B_r(y), r in rs, on a block of
    cells holding the balls and y's cell (ball_block's): integrate(values)
    lists the integrals from g's block node values.  Cells count by center;
    y's cell integrates the weight over an equal-volume ball, so m > 0 is
    not singular."""
    # summed in axis order, as np.linalg.norm sums the rows of centers - y
    axes = np.ix_(*[grid.axis_cell_centers(ax)[s] - y[ax] for ax, s in enumerate(block)])
    dist = np.sqrt(sum(d * d for d in axes))
    vol = grid.cell_volume
    if m != 0.0:
        ycell = tuple(_cell_coords(grid, y[None])[0][:, 0] - [s.start for s in block])
        weights = np.zeros_like(dist)
        np.divide(vol, dist**m, out=weights, where=dist > 0)
        omega = unit_ball_volume(grid.dim)
        rho = (vol / omega) ** (1.0 / grid.dim)
        # analytic: int_{B_rho} |x|^-m dx = dim * omega * rho^(dim-m) / (dim-m)
        weights[ycell] = grid.dim * omega * rho ** (grid.dim - m) / (grid.dim - m)
        dist[ycell] = -np.inf  # in every ball
    balls = [dist <= r for r in rs]

    def integrate(values):
        vals = cell_center_values(values)
        if m == 0.0:
            return [float(vals[inside].sum() * vol) for inside in balls]
        return [float(np.dot(vals[inside], weights[inside])) for inside in balls]

    return integrate


# ---------------------------------------------------------------------------
# field snapshot files
#
# Line 1, ASCII:  obstacle-lab-snapshot 1  dim  cells_1..cells_dim
#                 origin_1..origin_dim  extent_1..extent_dim   (%.17g)
# Then the node values as raw little-endian float64 in C order: exactly
# 8 * prod(cells + 1) bytes, and nothing after them.
# ---------------------------------------------------------------------------

_SNAPSHOT_FORMAT = ("obstacle-lab-snapshot", "1")


def write_snapshot(field: ScalarField, path) -> None:
    g = field.grid
    header = [*_SNAPSHOT_FORMAT, str(g.dim)] + [str(int(c)) for c in g.cells]
    header += [f"{v:.17g}" for v in (*g.origin, *g.extent)]
    with open(path, "wb") as f:
        f.write((" ".join(header) + "\n").encode("ascii"))
        field.values.astype("<f8", copy=False).tofile(f)


def read_snapshot(path) -> ScalarField:
    with open(path, "rb") as f:
        if not f.seekable():  # a pipe: buffer it, since the reader seeks
            f = io.BytesIO(f.read())
        header = f.readline()
        if not header.endswith(b"\n"):
            raise SnapshotFormatError("missing header line")
        try:
            tokens = header.decode("ascii").split()
            if tuple(tokens[:2]) != _SNAPSHOT_FORMAT:
                raise ValueError(f"no {' '.join(_SNAPSHOT_FORMAT)!r} format token")
            dim, numbers = int(tokens[2]), tokens[3:]
            if len(numbers) != 3 * dim:
                raise ValueError("wrong header token count")
            cells = [int(t) for t in numbers[:dim]]
            box = [float(t) for t in numbers[dim:]]
            grid = GridSpec(dim, origin=box[:dim], extent=box[dim:], cells=cells)
        except (ValueError, IndexError, OverflowError) as exc:
            raise SnapshotFormatError(f"bad header: {exc}") from exc
        start = len(header)
        count = math.prod(int(n) for n in grid.node_shape)
        size = f.seek(0, io.SEEK_END) - start
        # the one size rule, checked before anything is allocated
        if size != 8 * count:
            raise SnapshotFormatError(f"body is {size} bytes, not 8 x {count} values")
        f.seek(start)
        values = np.empty(count, "<f8")
        if f.readinto(values) != size:
            raise SnapshotFormatError("file shrank while it was read")
    return ScalarField(grid, values.reshape(grid.node_shape))
