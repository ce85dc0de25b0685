"""Red-black projected SOR sweeps, the smoother of both obstacle solvers.

Every sweep runs on the 2^dim parity planes u[p0::2, p1::2, ...], copied
into one block for the length of one smoothing call, each plane padded to
the common shape ceil(nodes / 2) per axis.  There the interior nodes of a
plane, one sub-lattice of one colour, span one flat range, and their +-1
neighbours along an axis the same range shifted into the plane with that
axis's parity flipped, so every array operation of a sweep is one
contiguous 1-D loop, with the same arithmetic per node as a sweep over the
node array.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec


def _plane(a: np.ndarray, parity: tuple) -> np.ndarray:
    """The view a[p0::2, p1::2, ...] of a node array, parity = (p0, p1, ...)."""
    return a[tuple(slice(b, None, 2) for b in parity)]


@functools.lru_cache(maxsize=16)
def _sweep_plan(nodes: tuple):
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
    and no range reaches those of axis 0.

    Returns (padded plane shape, [(parity, unpadded extent, boundary faces)]
    per plane, per colour [(lo, hi, [(u[+1], u[-1]) offsets per axis])]).
    """
    dim = len(nodes)
    shape = tuple((n + 1) // 2 for n in nodes)
    size = math.prod(shape)
    planes, colors = [], ([], [])
    for i, parity in enumerate(itertools.product((0, 1), repeat=dim)):
        lo = last = i * size
        real, shifts = [], []
        for ax, (n, p) in enumerate(zip(nodes, parity)):
            s = math.prod(shape[ax + 1 :])  # the axis's stride in a plane
            flip = (1 - 2 * p) * 2 ** (dim - 1 - ax) * size  # to the flipped plane
            lo += (1 - p) * s
            last += (n - 2 - p) // 2 * s
            real.append(slice((n - p + 1) // 2))
            shifts.append((flip + p * s, flip + (p - 1) * s))
        faces = [
            (*real[:ax], node // 2, *real[ax + 1 :])
            for ax in range(1, dim)
            for node in (0, nodes[ax] - 1)
            if node % 2 == parity[ax]
        ]
        planes.append((parity, tuple(real), faces))
        colors[sum(parity) % 2].append((lo, last + 1, shifts))
    return shape, planes, colors


def _sweep_red_black(u, f, colors, restores, gs, term, r, scale, relax):
    """One projected SOR sweep, colour 0 then colour 1, on the flat block u.

    A colour reads only the other one, so updating it one range at a time
    gives the bits of a whole-colour update.  Each range takes
    max(0, scale sum_ax r_ax (u[+1] + u[-1]) - f~ + (1 - relax) u), in that
    operation order, into the preallocated buffers gs and term; the multiply
    by r_ax = 1 and the blend at relax = 1 are skipped, which is exact.
    Then the colour's restores, pairs (face in u, boundary values), put
    back the boundary nodes its ranges overwrote.
    """
    for lattices, faces in zip(colors, restores):
        for lo, hi, shifts in lattices:
            acc, t = gs[: hi - lo], term[: hi - lo]
            for ax, ((plus, minus), r_ax) in enumerate(zip(shifts, r)):
                out = t if ax else acc
                np.add(u[lo + plus : hi + plus], u[lo + minus : hi + minus], out=out)
                if r_ax != 1.0:
                    out *= r_ax
                if ax:
                    acc += t
            acc *= scale
            acc -= f[lo:hi]
            nodes = u[lo:hi]
            if relax != 1.0:
                np.multiply(1.0 - relax, nodes, out=t)
                acc += t
            np.maximum(0.0, acc, out=nodes)
        for face, boundary in faces:
            face[...] = boundary


@dataclass
class _Level:
    """One level of a solve: its LCP u >= 0, f - Lap u >= 0 on arrays that
    are allocated once.  The right-hand side f is 1 on the finest level, a
    read-only broadcast of one number, so no node array holds it; on a
    coarse level it is the restricted residual."""

    grid: GridSpec
    u: np.ndarray
    f: np.ndarray

    def smooth(self, sweeps: int, relax: float = 1.0) -> None:
        """Run sweeps red-black projected SOR sweeps on u, in place.

        The projected SOR update
        max(0, (1 - relax) u + relax (sum_ax (u[+1] + u[-1]) / h_ax^2 - f) / denom)
        folds 1/h^2, relax and 1/denom into r_ax = h_0^2 / h_ax^2,
        scale = relax / (denom h_0^2) and f~ = (relax / denom) f
        (_sweep_red_black).  The sweeps run on a block of u's padded parity
        planes (_sweep_plan), written back to u and dropped before returning.
        Where f is a broadcast of one number, as on the finest level, f~ is
        a broadcast of that number times relax / denom; on a coarse level it
        is a block of f's planes times relax / denom.
        """
        shape, planes, colors = _sweep_plan(self.u.shape)
        h2 = self.grid.h**2
        denom = float(np.sum(2.0 / h2))
        c = relax / denom
        block, restores = np.zeros((len(planes), *shape)), ([], [])
        for plane, (parity, real, faces) in zip(block, planes):
            src = _plane(self.u, parity)
            plane[real] = src
            restores[sum(parity) % 2].extend((plane[x], src[x]) for x in faces)
        if not any(self.f.strides):  # f is one number: so is f~
            f = np.broadcast_to(c * self.f.flat[0], (block.size,))
        else:
            f = np.zeros(block.shape)
            for plane, (parity, real, _) in zip(f, planes):
                np.multiply(c, _plane(self.f, parity), out=plane[real])
            f = f.reshape(-1)
        gs, term = np.empty((2, block[0].size))
        r, scale = (h2[0] / h2).tolist(), relax / (denom * h2[0])
        u = block.reshape(-1)
        for _ in range(sweeps):
            _sweep_red_black(u, f, colors, restores, gs, term, r, scale, relax)
        for plane, (parity, real, _) in zip(block, planes):
            _plane(self.u, parity)[...] = plane[real]
