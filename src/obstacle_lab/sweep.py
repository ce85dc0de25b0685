"""The solve level of both obstacle solvers: its block layout and mirror
fold, the red-black PSOR sweeps, the Laplacian and the multigrid transfers.

A level's iterate lives, from the first sweep of a solve to the last, in
one block of its 2^dim parity planes u[p0::2, p1::2, ...], each padded to
the common shape ceil(nodes / 2) per axis.  There the interior nodes of a
plane, one sub-lattice of one colour, span one flat range, and their +-1
neighbours along an axis the same range shifted into the plane with that
axis's parity flipped, so every array operation of a sweep or of the
Laplacian is one contiguous 1-D loop, with the same arithmetic per node as
on the node array.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .grid import GridSpec


def _plane(a: np.ndarray, parity: tuple) -> np.ndarray:
    """The view a[p0::2, p1::2, ...] of a node array, parity = (p0, p1, ...)."""
    return a[tuple(slice(b, None, 2) for b in parity)]


def _sweep_plan(nodes: tuple, mirrored=()):
    """Flat ranges of a red-black sweep on node shape nodes, as ints and slices.

    The block holds the parity planes in itertools.product order, each
    padded at the end of every axis to ceil(n / 2).  Node 2 j + p of an
    axis is index j of a parity-p plane, and its +-1 neighbours are indices
    j + p and j + p - 1 of the plane with p flipped.  So the interior nodes
    of a plane, 1 - p <= j <= (n - 2 - p) // 2 on every axis, span one flat
    range [lo, hi), and each neighbour the range shifted by 0 or +-stride
    into that plane.  The range also covers the plane's padding, which no
    node reads, and boundary faces, which the sweep overwrites and puts
    back: nodes 0 and n - 1 lie in the planes of parity 0 and (n - 1) % 2,
    and no range reaches those of axis 0.  On a mirrored axis node n - 1 is
    a ghost of node n - 3, in the same plane, and takes its value instead.

    Returns (padded plane shape, [(parity, unpadded extent, interior, faces)]
    per plane, per colour [(lo, hi, [(u[+1], u[-1]) offsets per axis])]);
    a face is (index, None), or (index, its mirror's index) for a ghost.
    """
    dim = len(nodes)
    shape = tuple((n + 1) // 2 for n in nodes)
    size = math.prod(shape)
    planes, colors = [], ([], [])
    for i, parity in enumerate(itertools.product((0, 1), repeat=dim)):
        lo = last = i * size
        real, inner, shifts = [], [], []
        for ax, (n, p) in enumerate(zip(nodes, parity)):
            s = math.prod(shape[ax + 1 :])  # the axis's stride in a plane
            flip = (1 - 2 * p) * 2 ** (dim - 1 - ax) * size  # to the flipped plane
            lo += (1 - p) * s
            last += (n - 2 - p) // 2 * s
            real.append(slice((n - p + 1) // 2))
            inner.append(slice(1 - p, (n - p) // 2))
            shifts.append((flip + p * s, flip + (p - 1) * s))
        at = lambda ax, j: (*real[:ax], j, *real[ax + 1 :])
        faces = [
            (at(ax, node // 2), None)
            for ax in range(1, dim)
            for node in (0, nodes[ax] - 1)
            if node % 2 == parity[ax] and not (node and ax in mirrored)
        ] + [
            (at(ax, slice(-1, None)), at(ax, slice(-2, -1)))  # the last two in the plane
            for ax, n in enumerate(nodes)
            if ax in mirrored and (n - 1) % 2 == parity[ax]
        ]
        planes.append((parity, tuple(real), tuple(inner), faces))
        colors[sum(parity) % 2].append((lo, last + 1, shifts))
    return shape, planes, colors


def _neighbour_sum(u, lo, hi, shifts, acc, t, op, weights):
    """acc = sum_ax op(u[+1] + u[-1], w_ax) on the flat range [lo, hi), in axis
    order, with t as scratch; op by w_ax = 1 is skipped, which is exact."""
    for ax, ((plus, minus), w) in enumerate(zip(shifts, weights)):
        out = t if ax else acc
        np.add(u[lo + plus : hi + plus], u[lo + minus : hi + minus], out=out)
        if w != 1.0:
            op(out, w, out=out)
        if ax:
            acc += t


def _block_min(b: np.ndarray, ends) -> np.ndarray:
    """Coarse-node minimum of a fine block by parity (_Level.parities)
    over each 3^dim block of nodes centered on the coarse node's fine
    position, clipped at the box: one axis at a time, the odd plane up to
    its end folds into the even one, which holds the coarse nodes."""
    dim = b.ndim // 2
    for end in ends:
        even, odd = b
        at = lambda s: (slice(None),) * (dim - 1) + (s,)  # s on axis dim - 1
        b = even.copy()
        for side, s in ((slice(1, None), slice(b.shape[dim - 1] - 1)), (slice(end),) * 2):
            m = b[at(side)]
            np.minimum(m, odd[at(s)], out=m)
    return b


def _restrict(r: np.ndarray, ends) -> np.ndarray:
    """Full weighting (1/4, 1/2, 1/4 per axis) of a fine block by parity
    onto the coarse interior nodes; only fine interior values reach them."""
    dim = r.ndim // 2
    for end in ends:
        even, odd = r
        at = lambda s: (slice(None),) * (dim - 1) + (s,)  # s on axis dim - 1
        side = odd[at(slice(end - 1))] + odd[at(slice(1, end))]
        side *= 0.25
        r = np.add(0.5 * even[at(slice(1, end))], side, out=side)
    return r


def _prolong(v: np.ndarray, shape: tuple) -> np.ndarray:
    """Multilinear interpolation of coarse node values onto the fine nodes,
    as a fine block by parity of plane shape shape, whose odd planes'
    padding is 0; a coarse ghost only reaches the fine one."""
    for ax, n in enumerate(shape):
        at = lambda s: (slice(None),) * (2 * ax) + (s,)
        coarse = v[at(slice(n))]  # without a coarse ghost
        out = np.zeros(v.shape[:ax] + (2,) + coarse.shape[ax:])
        even, odd = np.moveaxis(out, ax, 0)
        even[...] = coarse
        mid = odd[at(slice(v.shape[2 * ax] - 1))]
        np.add(v[at(slice(-1))], v[at(slice(1, None))], out=mid)
        mid *= 0.5
        v = out
    return v


class _Level:
    """One level of a solve, u >= 0 and f - Lap u >= 0, held for the whole
    solve in the block layout of _sweep_plan: u is the flat block, and
    u.reshape(parities) indexes it [p0, ..., j0, ...] for node 2 j + p of
    an axis.  f is a read-only broadcast of 1 on the finest level and a flat
    block on a coarse one.  faces holds per colour the boundary faces its
    ranges overwrite, with the values that keep_faces() saves, and the
    ghosts of the mirrored axes, each with a live view of its mirror.  Of a
    mirrored axis of n cells, the level packs nodes 0 ... n / 2 + 1 only."""

    def __init__(self, grid: GridSpec, u: np.ndarray, f=1.0, mirrored=()):
        self.grid, self.mirrored = grid, mirrored
        cells = grid.cells.tolist()
        self.nodes = tuple(n // 2 + 2 if ax in mirrored else n + 1 for ax, n in enumerate(cells))
        f = np.broadcast_to(f, grid.node_shape)
        shape, self.planes, self.colors = _sweep_plan(self.nodes, mirrored)
        self.block = np.zeros((len(self.planes), *shape))
        self.u = self.block.reshape(-1)
        self.parities = (2,) * grid.dim + shape
        self.pack(u)
        if any(f.strides):
            self.f = np.zeros(self.u.shape)
            for plane, (parity, real, *_) in zip(self.f.reshape(self.block.shape), self.planes):
                plane[real] = _plane(f, parity)[real]
        else:
            self.f = np.broadcast_to(f.flat[0], self.u.shape)
        self.h2 = grid.h**2
        self.denom = float(np.sum(2.0 / self.h2))

    def coarse(self, cells) -> _Level:
        """An all-zero level of cells on the same box, mirrored alike."""
        grid = dataclasses.replace(self.grid, cells=cells)
        zeros = np.zeros(grid.node_shape)
        return _Level(grid, zeros, zeros, self.mirrored)

    def pack(self, a: np.ndarray) -> None:
        """Copy the nodes of the node array a that the level holds into u,
        and keep its boundary faces."""
        for plane, (parity, real, *_) in zip(self.block, self.planes):
            plane[real] = _plane(a, parity)[real]
        self.keep_faces()

    def keep_faces(self) -> None:
        self.faces = ([], [])
        for plane, (parity, _, _, faces) in zip(self.block, self.planes):
            self.faces[sum(parity) % 2].extend(
                (plane[x], plane[x].copy() if y is None else plane[y]) for x, y in faces
            )

    def unpack(self, out=None) -> np.ndarray:
        """u as a node array; given out, the whole grid's node array, written
        into out and returned: node n / 2 + k of a mirrored axis of n cells
        is node n / 2 - k."""
        a = np.empty(self.nodes) if out is None else out
        for plane, (parity, real, *_) in zip(self.block, self.planes):
            _plane(a, parity)[real] = plane[real]
        if out is None:
            return a
        for ax in self.mirrored:  # plane by plane: numpy copies an overlapping source
            m, n = np.moveaxis(out, ax, 0), self.nodes[ax]
            for k in range(n - 2):  # from node n - 1, the ghost, up
                m[n - 1 + k] = m[n - 3 - k]
        return out

    def restrict_to(self, coarse: _Level) -> np.ndarray:
        """Start coarse on one cycle of monotone multigrid from this level:
        its u becomes g, the minimum of this u over each coarse node's 3^dim
        block, and its f becomes Lap_H g + R (f - Lap_h u) on the interior.
        The transfers read the blocks by parity, where the coarse nodes are
        the fine all-even plane.  Returns g, as a node array of coarse."""
        # the ends of the transfers are nodes // 2 per axis, the count of odd
        # nodes: n / 2 on an axis of n cells, whose odd plane has one entry of
        # padding, or n / 4 + 1 on a mirrored one, whose last odd node is the
        # ghost of node n / 2 - 1
        ends = [n // 2 for n in self.nodes]
        g = _block_min(self.u.reshape(self.parities), ends)
        for ax in self.mirrored:  # append the coarse ghost, node n / 2 + 1 of n cells
            g = np.concatenate((g, np.take(g, [-2], axis=ax)), axis=ax)
        coarse.pack(g)  # w = g: zero correction
        restricted = _restrict(self.residual().reshape(self.parities), ends)
        for lo, hi, lap, *_ in coarse.laplacians():
            coarse.f[lo:hi] = lap  # Lap_H g, then + R (f - Lap_h u) on the interior
        planes = zip(coarse.f.reshape(coarse.block.shape), coarse.planes)
        for plane, (parity, _, inner, _) in planes:
            plane[inner] += restricted[tuple(slice(1 - p, None, 2) for p in parity)]
        return g

    def correct_from(self, coarse: _Level, g: np.ndarray) -> None:
        """u += P (w - g), with w coarse's u and g what restrict_to returned;
        then keep_faces saves the faces anew."""
        w = coarse.unpack()
        w -= g
        self.u += _prolong(w, self.block.shape[1:]).reshape(-1)
        self.keep_faces()

    def smooth(self, sweeps: int, relax: float = 1.0) -> None:
        """Run sweeps red-black projected SOR sweeps on u, in place: the update
        max(0, (1 - relax) u + relax (sum_ax (u[+1] + u[-1]) / h_ax^2 - f) / denom)
        as max(0, scale sum_ax r_ax (u[+1] + u[-1]) - f~ + (1 - relax) u), in
        that operation order, with r_ax = h_0^2 / h_ax^2, scale = relax /
        (denom h_0^2) and f~ = (relax / denom) f; the multiply by r_ax = 1 and
        the blend at relax = 1 are skipped, which is exact.  A colour reads
        only the other one, so updating it one range at a time gives the bits
        of a whole-colour update; then its faces get their values back."""
        c = relax / self.denom
        f = c * self.f if self.f.strides[0] else np.broadcast_to(c * self.f[0], self.f.shape)
        r, scale = (self.h2[0] / self.h2).tolist(), relax / (self.denom * self.h2[0])
        u, (gs, term) = self.u, np.empty((2, self.block[0].size))
        for _ in range(sweeps):
            for lattices, faces in zip(self.colors, self.faces):
                for lo, hi, shifts in lattices:
                    acc, t = gs[: hi - lo], term[: hi - lo]
                    _neighbour_sum(u, lo, hi, shifts, acc, t, np.multiply, r)
                    acc *= scale
                    acc -= f[lo:hi]
                    nodes = u[lo:hi]
                    if relax != 1.0:
                        np.multiply(1.0 - relax, nodes, out=t)
                        acc += t
                    np.maximum(0.0, acc, out=nodes)
                for face, boundary in faces:
                    face[...] = boundary

    def laplacians(self):
        """Yield (lo, hi, lap, plane, spare) per flat range: lap, Lap_h u on it
        as sum_ax (u[+1] + u[-1]) / h_ax^2 - denom u, lies at its place in
        plane, a plane-shaped buffer; spare is as long and free."""
        plane, spare = np.empty((2, *self.block.shape[1:]))
        for lo, hi, shifts in itertools.chain(*self.colors):
            a = lo % plane.size  # the range's start in its plane
            acc, t = plane.reshape(-1)[a : a + hi - lo], spare.reshape(-1)[: hi - lo]
            _neighbour_sum(self.u, lo, hi, shifts, acc, t, np.divide, self.h2)
            np.multiply(self.denom, self.u[lo:hi], out=t)
            acc -= t
            yield lo, hi, acc, plane, t

    def residual(self) -> np.ndarray:
        """f - Lap_h u on every flat range, 0 off them, and a ghost's value
        at its mirror, as a flat block."""
        out = np.zeros(self.u.size)
        for lo, hi, lap, *_ in self.laplacians():
            np.subtract(self.f[lo:hi], lap, out=out[lo:hi])
        for plane, (*_, faces) in zip(out.reshape(self.block.shape), self.planes):
            for x, y in faces:
                if y is not None:
                    plane[x] = plane[y]
        return out

    def lcp_maxima(self) -> tuple:
        """The maxima over the interior of Lap_h u - f and, where u > 0, of
        |Lap_h u - f|, each at least 0.0: faces and padding in a range are set
        to 0 through its plane, and the sign of u keeps u > 0 only."""
        ineq = eq = 0.0
        for lo, hi, diff, plane, spare in self.laplacians():
            diff -= self.f[lo:hi]
            for ax, s in enumerate(self.planes[lo // plane.size][2]):
                side = np.moveaxis(plane, ax, 0)
                side[: s.start] = side[s.stop :] = 0.0
            ineq = max(ineq, float(diff.max()))
            np.abs(diff, out=diff)
            diff *= np.sign(self.u[lo:hi], out=spare)
            eq = max(eq, float(diff.max()))
        return ineq, eq
