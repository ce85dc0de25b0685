"""Structured box grids in 1-3 dimensions.

Node-indexed scalar fields, cell-indexed boolean masks, multilinear
interpolation, second-order finite-difference gradients and weighted ball
quadrature.  Fields live on nodes; sets live on cells so that set measures
are exact sums of cell volumes.
"""

from __future__ import annotations

import io
import itertools
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
        if h.max() / h.min() > _MAX_ASPECT:
            raise ValueError(
                f"aspect ratio {h.max() / h.min():.3g} exceeds {_MAX_ASPECT}"
            )

    @property
    def h(self) -> np.ndarray:
        return self.extent / self.cells

    @property
    def node_shape(self) -> tuple:
        return tuple(self.cells + 1)

    @property
    def cell_shape(self) -> tuple:
        return tuple(self.cells)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

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

    def cell_centers(self, block=None) -> np.ndarray:
        """Cell-center coordinates of a block of cells, one slice per axis
        (default every cell), shape block shape + (dim,)."""
        block = block or (slice(None),) * self.dim
        axes = [self.axis_cell_centers(ax)[s] for ax, s in enumerate(block)]
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
    return GridSpec(dim=dim, origin=lo.copy(), extent=(hi - lo).copy(), cells=cells.copy())


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
    m = np.zeros(grid.node_shape, dtype=bool)
    for ax in range(grid.dim):
        lo = [slice(None)] * grid.dim
        hi = [slice(None)] * grid.dim
        lo[ax] = 0
        hi[ax] = -1
        m[tuple(lo)] = True
        m[tuple(hi)] = True
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


def sample(evaluator, grid: GridSpec) -> ScalarField:
    """Evaluate a vectorized function, (M, dim) points to M values, at
    every node."""
    flat = grid.node_points().reshape(-1, grid.dim)
    vals = np.asarray(evaluator(flat), dtype=float)
    if vals.shape != (flat.shape[0],):
        raise ValueError(
            f"evaluator returned shape {vals.shape}, expected ({flat.shape[0]},)"
        )
    bad = ~np.isfinite(vals)
    if np.any(bad):
        k = int(np.argmax(bad))
        idx = np.unravel_index(k, grid.node_shape)
        raise NonFiniteFieldError(
            f"evaluator returned non-finite value at node {idx}, x={flat[k]}"
        )
    return ScalarField(grid, vals.reshape(grid.node_shape))


def _cell_coords(g: GridSpec, pts: np.ndarray) -> tuple:
    """Lower corner i0 of each point's cell and the offset rel - i0, in cells."""
    rel = (pts - g.origin) / g.h
    if np.any(rel < -1e-9) or np.any(rel > g.cells + 1e-9):
        bad = np.argmax(np.any((rel < -1e-9) | (rel > g.cells + 1e-9), axis=1))
        raise OutOfDomainError(f"point {pts[bad]} outside grid box")
    i0 = np.clip(np.floor(rel).astype(int), 0, g.cells - 1)
    return i0, rel - i0


def _multilinear(values: np.ndarray, i0: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Sum over the 2^dim corners values[i0 + corner] of the multilinear weights."""
    out = np.zeros(len(i0))
    for corner in itertools.product((0, 1), repeat=values.ndim):
        w = np.ones(len(i0))
        idx = []
        for ax, c in enumerate(corner):
            w *= frac[:, ax] if c else 1.0 - frac[:, ax]
            idx.append(i0[:, ax] + c)
        out += w * values[tuple(idx)]
    return out


def interpolate_many(field: ScalarField, pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation at points of shape (M, dim)."""
    pts = np.asarray(pts, dtype=float).reshape(-1, field.grid.dim)
    return _multilinear(field.values, *_cell_coords(field.grid, pts))


def interpolate(field: ScalarField, x) -> float:
    """Multilinear interpolation at a single point; exact on multilinear data."""
    return float(interpolate_many(field, np.asarray(x, dtype=float).reshape(1, -1))[0])


def interpolate_gradient(field: ScalarField, x) -> np.ndarray:
    """gradient_field(field) interpolated at the point x, from the gradient
    at the corners of x's cell only."""
    i0, frac = _cell_coords(field.grid, np.asarray(x, dtype=float).reshape(1, -1))
    grad = gradient_field(field, tuple(map(slice, i0[0], i0[0] + 1)))
    corner = np.zeros_like(i0)
    return np.array([_multilinear(gk, corner, frac)[0] for gk in np.moveaxis(grad, -1, 0)])


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
    grads = np.gradient(values, *[float(s) for s in grid.h], edge_order=2)
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
    if np.any(y - r < grid.origin - 1e-12) or np.any(y + r > grid.upper + 1e-12):
        raise OutOfDomainError(f"ball B_{r}({y}) not contained in grid box")
    lo = np.floor((y - r - grid.origin) / grid.h).astype(int) - 1
    hi = np.ceil((y + r - grid.origin) / grid.h).astype(int) + 1
    return tuple(map(slice, np.clip(lo, 0, grid.cells), np.clip(hi, 0, grid.cells)))


def integrate_ball(g: ScalarField, y, r: float, m: float = 0.0) -> float:
    """Midpoint-rule integral of g(x) / |x - y|^m over the ball B_r(y).

    Cells contribute by center membership.  The cell containing y uses the
    analytic radial integral of the weight over an equal-volume ball, which
    removes the singularity for m > 0.
    """
    grid = g.grid
    y = np.asarray(y, dtype=float).reshape(grid.dim)
    if m < 0 or m >= grid.dim:
        raise ValueError(f"weight exponent m={m} outside [0, dim)")
    block = ball_block(grid, y, r)
    nodes = tuple(slice(s.start, s.stop + 1) for s in block)
    return ball_integral(grid, g.values[nodes], block, y, r, m)


def ball_integral(grid: GridSpec, values, block: tuple, y, r: float, m: float) -> float:
    """integrate_ball from the node values of a block of cells that holds
    B_r(y) and the cell containing y, such as ball_block gives."""
    centers = grid.cell_centers(block).reshape(-1, grid.dim)
    vals = cell_center_values(values)
    dist = np.linalg.norm(centers - y, axis=1)
    inside = dist <= r
    vol = grid.cell_volume

    # cell that contains y, within the block
    yidx = np.clip(np.floor((y - grid.origin) / grid.h).astype(int), 0, grid.cells - 1)
    yflat = int(np.ravel_multi_index(tuple(yidx - [s.start for s in block]), vals.shape))
    vals = vals.reshape(-1)

    if m == 0.0:
        return float(vals[inside].sum() * vol)

    weights = np.zeros_like(dist)
    np.divide(vol, dist**m, out=weights, where=dist > 0)
    omega = unit_ball_volume(grid.dim)
    rho = (vol / omega) ** (1.0 / grid.dim)
    # analytic: int_{B_rho} |x|^-m dx = dim * omega * rho^(dim-m) / (dim-m)
    weights[yflat] = grid.dim * omega * rho ** (grid.dim - m) / (grid.dim - m)
    inside[yflat] = True
    return float(np.dot(vals[inside], weights[inside]))


# ---------------------------------------------------------------------------
# field snapshot files
#
# Line 1:  dim  cells_1..cells_dim  origin_1..origin_dim  extent_1..extent_dim
# Then one node value per line in row-major order, 17 significant digits.
# ---------------------------------------------------------------------------


def write_snapshot(field: ScalarField, path) -> None:
    g = field.grid
    with open(path, "w") as f:
        header = [str(g.dim)]
        header += [str(int(c)) for c in g.cells]
        header += [f"{v:.17g}" for v in g.origin]
        header += [f"{v:.17g}" for v in g.extent]
        f.write(" ".join(header) + "\n")
        for v in field.values.reshape(-1):
            f.write(f"{v:.17g}\n")


def read_snapshot(path) -> ScalarField:
    with open(path, "rb") as f:
        if not f.seekable():  # a pipe: buffer it, since the reader seeks
            f = io.BytesIO(f.read())
        header = f.readline()
        if not header.endswith(b"\n"):
            raise SnapshotFormatError("missing header line", byte_offset=0)
        try:
            tokens = header.decode("ascii").split()
            dim = int(tokens[0])
            cells = np.array([int(t) for t in tokens[1 : 1 + dim]])
            origin = np.array([float(t) for t in tokens[1 + dim : 1 + 2 * dim]])
            extent = np.array([float(t) for t in tokens[1 + 2 * dim : 1 + 3 * dim]])
            if len(tokens) != 1 + 3 * dim:
                raise ValueError("wrong header token count")
            grid = GridSpec(dim=dim, origin=origin, extent=extent, cells=cells)
        except (ValueError, IndexError, OverflowError) as exc:
            raise SnapshotFormatError(f"bad header: {exc}", byte_offset=0) from exc
        start = len(header)
        count = math.prod(int(n) for n in grid.node_shape)
        # each value takes at least one byte, so this bounds the allocation
        if count > f.seek(0, io.SEEK_END) - start:
            raise _first_bad_line(f, start, count)
        f.seek(start)
        try:
            vals = np.fromiter(map(float, itertools.islice(f, count)), float, count)
        except ValueError:
            raise _first_bad_line(f, start, count) from None
        offset = f.tell()
        if f.read().strip():
            raise SnapshotFormatError(
                f"more than the {count} values the header declares", byte_offset=offset
            )
    return ScalarField(grid, vals.reshape(grid.node_shape))


def _first_bad_line(f, offset, count) -> SnapshotFormatError:
    """The error for the first blank, bad or missing value line from offset on."""
    f.seek(offset)
    got = 0
    for line in f:
        if not line.strip():
            break
        try:
            float(line)
        except ValueError:
            text = line.removesuffix(b"\n")
            msg = f"bad value on line {got + 2}: {text!r}"
            return SnapshotFormatError(msg, byte_offset=offset)
        got += 1
        if not line.endswith(b"\n"):
            break  # a cut last line: report its start
        offset += len(line)
    msg = f"truncated: expected {count} values, got {got}"
    return SnapshotFormatError(msg, byte_offset=offset)
