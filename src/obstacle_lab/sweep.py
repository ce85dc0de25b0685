"""The solve level of both obstacle solvers: its block layout and mirror
fold, the red-black PSOR sweeps, the Laplacian and the multigrid transfers.

A level's iterate lives, from the first sweep of a solve to the last, in
one block of its 2^dim parity planes u[p0::2, p1::2, ...], each padded to
the common shape ceil(nodes / 2) per axis.  There the interior nodes of a
plane, one sub-lattice of one colour, span one flat range, and their +-1
neighbours along an axis the same range shifted into the plane with that
axis's parity flipped, so every array operation of a sweep or of the
Laplacian is one contiguous 1-D loop, with the same arithmetic per node as
on the node array.  A level plans each of its operations once, as a step
(ufunc or _copy, a, b or None, out) on views it keeps and scalars held as
0-d arrays, and _run makes a plan's calls in order.
"""

import dataclasses
import itertools
import math

import numpy as np

from .grid import GridSpec


def _sweep_plan(nodes: tuple, mirrored=()):
    """Flat ranges of a red-black sweep on node shape nodes, as ints and slices.

    The block holds the parity planes in itertools.product order, each
    padded at the end of every axis to ceil(n / 2).  Node 2 j + p of an
    axis is index j of a parity-p plane; its +-1 neighbours are indices
    j + p and j + p - 1 of the plane with p flipped.  So a plane's interior
    nodes, 1 - p <= j <= (n - 2 - p) // 2 on every axis, span one flat range
    [lo, hi), and each neighbour the range shifted by 0 or +-stride into
    that plane.  The range also covers padding, which no node reads, and
    boundary faces, which the sweep overwrites and puts back: nodes 0 and
    n - 1 lie in the planes of parity 0 and (n - 1) % 2, and no range
    reaches those of axis 0.  On a mirrored axis node n - 1 is a ghost of
    node n - 3, in the same plane, and takes its value instead.

    Returns the padded plane shape and per plane (parity, unpadded extent,
    interior, faces, lo, hi, (u[+1], u[-1]) offsets per axis); a face is
    (index, None), or (index, its mirror's index) for a ghost.
    """
    dim = len(nodes)
    shape = tuple((n + 1) // 2 for n in nodes)
    size = math.prod(shape)
    planes = []
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
        planes.append((parity, tuple(real), tuple(inner), faces, lo, last + 1, shifts))
    return shape, planes


def _num(x):
    """x as a 0-d float64 array, which a ufunc takes faster than a float."""
    return np.array(x, dtype=float)


_ZERO, _HALF, _QUARTER = map(_num, (0.0, 0.5, 0.25))


def _neighbour_sum(pairs, acc, t, op, weights):
    """Steps of acc = sum_ax op(u[+1] + u[-1], w_ax) over a range's pairs, in
    axis order, with t as scratch; op by w_ax = 1 is skipped, which is exact."""
    steps = []
    for ax, ((plus, minus), w) in enumerate(zip(pairs, weights)):
        out = t if ax else acc
        steps.append((np.add, plus, minus, out))
        if w != 1.0:
            steps.append((op, out, _num(w), out))
        if ax:
            steps.append((np.add, acc, t, acc))
    return steps


def _copy(a, _, out):
    out[...] = a


def _run(steps):
    """Make planned calls (ufunc or _copy)(a, b or None, out=out) in order."""
    for op, a, b, out in steps:
        op(a, b, out=out)


def _down(b, r, ends, out):
    """Steps from fine blocks by parity (_Level.parities) to the coarse nodes,
    the all-even plane, axis by axis, and the array the second ends in: into
    out, b's minimum over each 3^dim block of nodes centered on a coarse
    node, clipped at the box; full weighting (1/4, 1/2, 1/4 per axis) of r
    onto the coarse interior, which only fine interior values reach.  Every
    array operation runs flat on whole contiguous arrays, which numpy does
    without buffers: a shift by one node along the axis is one by its stride
    s, and also pairs a row's last node with the next row's first.  The
    weights never read those; the minimum puts back node 0, and the nodes
    that odd holds padding beside, from copies."""
    dim, mins, weights = b.ndim // 2, [], []
    at = lambda i: (slice(None),) * (dim - 1) + (i,)  # i on the axis's nodes
    for end in ends:
        (even, odd), (r_even, r_odd) = b, r
        s = even.strides[dim - 1] // even.itemsize
        b = np.empty(even.shape)
        e, o, m = even.reshape(-1), odd.reshape(-1), b.reshape(-1)
        tail = b[at(slice(end, None))]
        kept = [np.empty(tail.shape)] if tail.size else []
        mins += [
            (_copy, e, None, m),
            (np.minimum, m[s:], o[:-s], m[s:]),
            (_copy, even[at(slice(1))], None, b[at(slice(1))]),  # node 0
            *[(_copy, tail, None, k) for k in kept],
            (np.minimum, m, o, m),
            *[(_copy, k, None, tail) for k in kept],
        ]
        # r[j] for coarse node j + 1; j >= end - 1 is never read
        r, half = np.zeros((2, *r_odd.shape))
        ro, re, rf, hf = (a.reshape(-1) for a in (r_odd, r_even, r, half))
        weights += [
            (np.add, ro[:-s], ro[s:], rf[:-s]),
            (np.multiply, rf, _QUARTER, rf),
            (np.multiply, _HALF, re[s:], hf[:-s]),
            (np.add, hf, rf, rf),
        ]
    return mins + [(_copy, b, None, out)], weights, r[tuple(slice(e - 1) for e in ends)]


def _prolong(v, shape, u):
    """Steps of u += multilinear interpolation of coarse node values v, as a
    fine block by parity of plane shape shape, its odd planes' padding 0; a
    coarse ghost only reaches the fine one.  The midpoints are taken flat
    on v's rows, as the weights of _down, then copied out."""
    steps = []
    for ax, n in enumerate(shape):
        at = lambda i: (slice(None),) * (2 * ax) + (i,)
        coarse = v[at(slice(n))]  # without a coarse ghost
        out = np.zeros(v.shape[:ax] + (2,) + coarse.shape[ax:])
        even, odd = np.moveaxis(out, ax, 0)
        s, mid = v.strides[2 * ax] // v.itemsize, slice(v.shape[2 * ax] - 1)
        t = np.zeros(v.shape)  # t[j] = (v[j] + v[j + 1]) / 2; the last j is never read
        vf, tf = v.reshape(-1), t.reshape(-1)
        steps += [
            (_copy, coarse, None, even),
            (np.add, vf[:-s], vf[s:], tf[:-s]),
            (np.multiply, tf, _HALF, tf),
            (_copy, t[at(mid)], None, odd[at(mid)]),
        ]
        v = out
    return steps + [(np.add, u, v.reshape(-1), u)]


class _Level:
    """One level of a solve, u >= 0 and f - Lap u >= 0, in the block layout
    of _sweep_plan: u is the flat block, u.reshape(parities) indexes it
    [p0, ..., j0, ...] for node 2 j + p.  f, and ft = f~ of smooth, are flat
    blocks, or 0-d if f is constant.  ranges (per plane) and
    colors (per colour) hold a range's views: u, (u[+1], u[-1]) per axis,
    f, f~, and acc and t in a scratch pair; faces, per colour, the steps
    that put back boundary faces from kept copies and ghosts from their
    mirrors.  checks holds lcp_maxima's plan, sweeps smooth's per relax and
    down the transfers'.  Of a mirrored axis of n cells, the level holds
    nodes 0 ... n / 2 + 1 only."""

    def __init__(self, grid: GridSpec, a, f=1.0, mirrored=()):
        self.grid, self.mirrored = grid, mirrored
        cells = enumerate(grid.cells.tolist())
        self.nodes = tuple(n // 2 + 2 if ax in mirrored else n + 1 for ax, n in cells)
        f = np.broadcast_to(f, grid.node_shape)
        shape, self.planes = _sweep_plan(self.nodes, mirrored)
        self.block = np.zeros((len(self.planes), *shape))
        self.u = u = self.block.reshape(-1)
        self.parities = (2,) * grid.dim + shape
        self.f = np.zeros(u.shape) if any(f.strides) else np.array(f.flat[0])
        self.ft = np.empty(self.f.shape)
        self.h2 = grid.h**2
        self.denom = float(np.sum(2.0 / self.h2))
        scratch = np.empty((2, *shape))
        acc, t = scratch.reshape(2, -1)
        self.real, self.ranges, self.kept, self.checks = [], [], [], []
        self.faces, self.colors, self.down, self.sweeps = ([], []), ([], []), (None,), {}
        for i, (parity, real, inner, faces, lo, hi, shifts) in enumerate(self.planes):
            plane, c, f_, ft = self.block[i], sum(parity) % 2, self.f, self.ft
            nodes = tuple(slice(p, n, 2) for p, n in zip(parity, self.nodes))
            self.real.append((plane[real], nodes))
            for x, y in faces:
                saved = plane[x].copy() if y is None else plane[y]
                self.faces[c].append((_copy, saved, None, plane[x]))
                self.kept += [(_copy, plane[x], None, saved)] * (y is None)
            if f_.ndim:
                f_.reshape(self.block.shape)[i][real] = f[nodes]
                f_, ft = f_[lo:hi], ft[lo:hi]
            pairs = [(u[lo + p : hi + p], u[lo + m : hi + m]) for p, m in shifts]
            n = hi - lo
            self.ranges.append((u[lo:hi], pairs, f_, ft, acc[:n], t[:n]))
            self.colors[c].append(self.ranges[-1])
            # the check's Lap_h u - f at its place in the plane, with the
            # plane's slabs off the interior (faces and padding) set to 0
            diff = acc[lo % acc.size :][:n]
            sides = [(np.moveaxis(scratch[0], ax, 0), s) for ax, s in enumerate(inner)]
            slabs = [m for side, s in sides for m in (side[: s.start], side[s.stop :]) if m.size]
            steps = self._laplacian(u[lo:hi], pairs, diff, t[:n]) + [(np.subtract, diff, f_, diff)]
            steps += [(_copy, _ZERO, None, slab) for slab in slabs]
            self.checks.append((steps, diff, u[lo:hi], t[:n]))
        self.pack(a)

    def coarse(self, cells):
        """An all-zero level of cells on the same box, mirrored alike."""
        grid = dataclasses.replace(self.grid, cells=cells)
        zeros = np.zeros(grid.node_shape)
        return _Level(grid, zeros, zeros, self.mirrored)

    def pack(self, a):
        """Copy the level's nodes of the node array a into u; keep its faces."""
        for plane, nodes in self.real:
            plane[...] = a[nodes]
        _run(self.kept)

    def unpack(self, out=None):
        """u as a node array; given out, the whole grid's node array, written
        into out and returned: node n / 2 + k of a mirrored axis of n cells
        is node n / 2 - k."""
        a = np.empty(self.nodes) if out is None else out
        for plane, nodes in self.real:
            a[nodes] = plane
        if out is None:
            return a
        for ax in self.mirrored:  # plane by plane: numpy copies an overlapping source
            m, n = np.moveaxis(out, ax, 0), self.nodes[ax]
            for k in range(n - 2):  # from node n - 1, the ghost, up
                m[n - 1 + k] = m[n - 3 - k]
        return out

    def _transfers(self, coarse):
        """restrict_to's and correct_from's plan, made at the first call for
        coarse.  ends counts odd nodes per axis: n / 2 of n cells, padded by
        one, or n / 4 + 1 if mirrored, the last a ghost."""
        if self.down[0] is not coarse:
            g, w = np.empty((2, *coarse.nodes))
            res = np.zeros(self.u.size)  # f - Lap_h u, 0 off the ranges
            cut = list(map(slice, self.block.shape[1:]))
            ends = [n // 2 for n in self.nodes]
            fine = (a.reshape(self.parities) for a in (self.u, res))
            down, weights, r = _down(*fine, ends, g[tuple(cut)])
            for ax in self.mirrored:  # the coarse ghost, node n / 2 + 1
                cut[ax] = slice(None)
                m = np.moveaxis(g[tuple(cut)], ax, 0)
                down.append((_copy, m[-3:-2], None, m[-1:]))
            down += [(_copy, g[nodes], None, v) for v, nodes in coarse.real] + coarse.kept
            for (nodes, pairs, f, _, acc, t), (*_, lo, hi, _) in zip(self.ranges, self.planes):
                down += self._laplacian(nodes, pairs, acc, t) + [(np.subtract, f, acc, res[lo:hi])]
            for nodes, pairs, f, _, _, t in coarse.ranges:
                down += coarse._laplacian(nodes, pairs, f, t)  # Lap_H g
            planes = zip(res.reshape(self.block.shape), self.planes)
            # a ghost takes its mirror's value
            down += [(_copy, a[y], None, a[x]) for a, (*_, q, _, _, _) in planes for x, y in q if y]
            down += weights
            # R (f - Lap_h u) laid out as coarse's interior, 0 elsewhere: the
            # faces and padding that it adds 0 to are never read as nodes
            rc = np.zeros(coarse.block.shape)
            for plane, (parity, _, inner, *_) in zip(rc, coarse.planes):
                down.append((_copy, r[tuple(slice(1 - p, None, 2) for p in parity)], None, plane[inner]))
            down.append((np.add, coarse.f, rc.reshape(-1), coarse.f))
            up = [(_copy, v, None, w[nodes]) for v, nodes in coarse.real]
            up += [(np.subtract, w, g, w)] + _prolong(w, self.block.shape[1:], self.u) + self.kept
            self.down = coarse, down, up
        return self.down

    def restrict_to(self, coarse):
        """Start coarse on a multigrid cycle: its u becomes g, u's minimum over
        each coarse node's 3^dim block, its f Lap_H g + R (f - Lap_h u)."""
        _run(self._transfers(coarse)[1])

    def correct_from(self, coarse):
        """u += P (w - g), w coarse's u, g restrict_to's; then keep the faces."""
        _run(self._transfers(coarse)[2])

    def smooth(self, sweeps: int, relax: float = 1.0):
        """Run sweeps red-black projected SOR sweeps on u, in place: the update
        max(0, (1 - relax) u + relax (sum_ax (u[+1] + u[-1]) / h_ax^2 - f) / denom)
        as max(0, scale sum_ax r_ax (u[+1] + u[-1]) - f~ + (1 - relax) u), in
        that operation order, with r_ax = h_0^2 / h_ax^2, scale = relax /
        (denom h_0^2) and f~ = (relax / denom) f; the multiply by r_ax = 1 and
        the blend at relax = 1 are skipped, which is exact.  A colour reads
        only the other, so a range at a time gives a whole-colour update's
        bits; then its faces get their values back.  The steps of f~ and of
        one sweep are planned at a level's first call with relax."""
        prep, sweep = self.sweeps.get(relax) or self._plan_sweeps(relax)
        _run(prep)
        for _ in range(sweeps):
            _run(sweep)

    def _plan_sweeps(self, relax):
        r = self.h2[0] / self.h2
        scale, keep = _num(relax / (self.denom * self.h2[0])), _num(1.0 - relax)
        sweep = []
        for ranges, faces in zip(self.colors, self.faces):
            for nodes, pairs, _, ft, acc, t in ranges:
                sweep += _neighbour_sum(pairs, acc, t, np.multiply, r)
                sweep += [(np.multiply, acc, scale, acc), (np.subtract, acc, ft, acc)]
                if relax != 1.0:
                    sweep += [(np.multiply, keep, nodes, t), (np.add, acc, t, acc)]
                sweep.append((np.maximum, _ZERO, acc, nodes))
            sweep += faces
        prep = [(np.multiply, _num(relax / self.denom), self.f, self.ft)]
        self.sweeps[relax] = prep, sweep
        return prep, sweep

    def _laplacian(self, nodes, pairs, acc, t):
        """Steps of acc = Lap_h u, sum_ax (u[+1] + u[-1]) / h_ax^2 - denom u,
        on a range."""
        steps = _neighbour_sum(pairs, acc, t, np.divide, self.h2)
        return steps + [(np.multiply, _num(self.denom), nodes, t), (np.subtract, acc, t, acc)]

    def lcp_maxima(self):
        """The maxima over the interior of Lap_h u - f and, where u > 0, of
        |Lap_h u - f|, each at least 0.0: the sign of u keeps u > 0 only."""
        ineq = eq = 0.0
        for steps, diff, nodes, t in self.checks:
            _run(steps)
            ineq = max(ineq, float(diff.max()))
            np.abs(diff, out=diff)
            diff *= np.sign(nodes, out=t)
            eq = max(eq, float(diff.max()))
        return ineq, eq
