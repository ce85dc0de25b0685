"""Benchmark catalog: obstacle problems with known or constructible truth.

Entries cover the closed-form 1D/radial solutions, exact polynomial
solutions with degenerate directions, anisotropic ellipse-producing data,
a 3D pinch geometry whose coincidence set collapses onto the degenerate
axis, and a pure-geometry paraboloid mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ScenarioError
from .grid import GridSpec, Mask, boundary_mask, sample
from .solver import ObstacleProblem


@dataclass
class Scenario:
    problem: ObstacleProblem | None
    exact: object | None = None  # vectorized evaluator of the reference solution
    truth: dict = dataclass_field(default_factory=dict)
    mask: Mask | None = None  # pure-geometry entries only


def _unit_problem(grid: GridSpec, data) -> ObstacleProblem:
    """Δu = χ{u>0} on grid, with Dirichlet values sampled from data at the
    boundary nodes only."""
    return ObstacleProblem(grid=grid, g=sample(data, grid, boundary_mask(grid)).values)


def _half_width(grid: GridSpec) -> float:
    return float((grid.extent / 2).min())


def _blow_down(A: np.ndarray) -> dict:
    """Truth of the blow-down x^T A x: A, its kernel basis (eigenvalues
    below 1e-10) and the kernel dimension n."""
    w, V = np.linalg.eigh(A)
    kernel = V[:, w < 1e-10]
    return {"A": A, "kernel_basis": kernel, "n": kernel.shape[1]}


def _flat1d(grid, beta):
    if not (0.0 < beta < 0.5):
        raise ScenarioError(f"flat1d: beta={beta} outside (0, 1/2)")
    a = 1.0 - np.sqrt(2.0 * beta)

    def exact(P):
        return np.maximum(np.abs(P[:, 0]) - a, 0.0) ** 2 / 2.0

    return Scenario(_unit_problem(grid, exact), exact, truth={"contact_halfwidth": a})


def _radial(grid, R, name, outside):
    """The radial entry: zero inside radius R, outside(r, o) at the radii r[o] > R."""
    if not (0.0 < R < _half_width(grid)):
        raise ScenarioError(f"{name}: R={R} must lie in (0, half box)")

    def exact(P):
        r = np.linalg.norm(P, axis=1)
        out = np.zeros(len(P))
        o = r > R
        out[o] = outside(r, o)
        return out

    return Scenario(_unit_problem(grid, exact), exact)


def _radial2d(grid, R):
    return _radial(
        grid, R, "radial2d", lambda r, o: (r[o] ** 2 - R**2) / 4.0 - (R**2 / 2.0) * np.log(r[o] / R)
    )


def _radial3d(grid, R):
    return _radial(
        grid, R, "radial3d", lambda r, o: r[o] ** 2 / 6.0 + R**3 / (3.0 * r[o]) - R**2 / 2.0
    )


def _poly_defaults(dim: int) -> dict:
    """Upper-triangle entries a{i}{j}, 1 <= i <= j <= dim, all 0."""
    return {
        f"a{i}{j}": 0.0 for i in range(1, dim + 1) for j in range(i, dim + 1)
    }


def _poly(grid, **entries):
    A = np.zeros((grid.dim, grid.dim))
    for i in range(grid.dim):
        for j in range(i, grid.dim):
            A[i, j] = A[j, i] = entries[f"a{i + 1}{j + 1}"]
    eigvals = np.linalg.eigvalsh(A)
    if eigvals.min() < -1e-12:
        raise ScenarioError("poly: matrix must be positive semidefinite")
    # a Python float sum overflows to inf without a numpy warning, and
    # |tr - 1/2| > 0.5e-12 accepts the same finite A as |2 tr - 1| > 1e-12
    tr = sum(float(A[i, i]) for i in range(grid.dim))
    if abs(tr - 0.5) > 0.5e-12:
        raise ScenarioError(f"poly: need 2*tr(A) = 1, got tr(A) = {tr:.6g}")

    def exact(P):
        return np.einsum("ki,ij,kj->k", P, A, P)

    return Scenario(_unit_problem(grid, exact), exact, truth=_blow_down(A))


def _aniso2d(grid, alpha, offset):
    if not (0.0 < alpha < 0.5) or abs(alpha - 0.25) < 1e-12:
        raise ScenarioError(
            f"aniso2d: alpha={alpha} must lie in (0, 1/2) away from 1/4"
        )
    if not (offset > 0):
        raise ScenarioError("aniso2d: offset must be positive")

    # The raw quadratic alpha*x1^2 + (1/2-alpha)*x2^2 solves the problem
    # exactly with a measure-zero coincidence set; lowering the data by a
    # positive offset fattens the set into the expected ellipse-like blob.
    def data(P):
        q = alpha * P[:, 0] ** 2 + (0.5 - alpha) * P[:, 1] ** 2
        return np.maximum(q - offset, 0.0)

    return Scenario(_unit_problem(grid, data))


def _pinch3d(grid, eps):
    if not (0.0 < eps < 0.5):
        raise ScenarioError(f"pinch3d: eps={eps} outside (0, 1/2)")

    # Blow-down p = (x1^2 + x2^2)/4 with kernel = x3-axis (n = 1).
    # Lowering the boundary data by eps * max(x3, 0) pulls the solution
    # below p on the x3 > 0 side, so the coincidence set fattens around the
    # axis there and pinches down to a hairline tube below.  By the
    # comparison principle a raised perturbation cannot fatten the set, so
    # the perturbation must be subtracted.  The linear ramp matters: the
    # interior deficit w = p - u is roughly the harmonic extension of the
    # ramp, so the fat-tube radius ~ 2 sqrt(w) follows a square-root law in
    # x3 over most of the box.  Rotational symmetry in (x1, x2) makes every
    # cross section a disk.
    def data(P):
        p = (P[:, 0] ** 2 + P[:, 1] ** 2) / 4.0
        psi = np.maximum(P[:, 2], 0.0)
        return np.maximum(p - eps * psi, 0.0)

    truth = _blow_down(np.diag([0.25, 0.25, 0.0]))
    return Scenario(_unit_problem(grid, data), truth=truth)


def _paraboloid_mask(grid, kappa):
    if not (kappa > 0):
        raise ScenarioError("paraboloid_mask: kappa must be positive")
    centers = grid.cell_centers()
    rp = np.sqrt(centers[..., 0] ** 2 + centers[..., 1] ** 2)
    x3 = centers[..., 2]
    flags = (x3 >= 0.0) & (rp**2 <= kappa * x3)
    # kernel: the x3-axis; the mask has no quadratic blow-down A to cut along
    truth = {"kernel_basis": np.eye(3)[:, 2:], "n": 1}
    return Scenario(None, truth=truth, mask=Mask(grid, flags))


@dataclass(frozen=True)
class _Entry:
    build: object  # (grid, **params) -> Scenario
    dim: int  # the grid dim `run` builds the scenario on
    defaults: object  # parameter -> default; for any_dim, a function of the grid dim
    has_exact: bool
    any_dim: bool = False  # builds on every grid dim 1-3

    def builds_on(self, dim: int) -> bool:
        return 1 <= dim <= 3 if self.any_dim else dim == self.dim


SCENARIOS = {
    "flat1d": _Entry(_flat1d, 1, {"beta": 0.125}, True),
    "radial2d": _Entry(_radial2d, 2, {"R": 0.5}, True),
    "radial3d": _Entry(_radial3d, 3, {"R": 0.5}, True),
    "poly": _Entry(_poly, 2, _poly_defaults, True, any_dim=True),
    "aniso2d": _Entry(_aniso2d, 2, {"alpha": 0.15, "offset": 0.05}, False),
    "pinch3d": _Entry(_pinch3d, 3, {"eps": 0.05}, False),
    "paraboloid_mask": _Entry(_paraboloid_mask, 3, {"kappa": 1.0}, False),
}


def make_scenario(name: str, params: dict, grid: GridSpec) -> Scenario:
    """Build a catalog entry on grid; missing parameters take their defaults.

    Raises ScenarioError for an unknown name, a grid of the wrong dim, a
    parameter the entry does not have, or a value outside its range.
    """
    entry = SCENARIOS.get(name)
    if entry is None:
        raise ScenarioError(
            f"unknown scenario {name!r}; catalog: {', '.join(SCENARIOS)}"
        )
    if not entry.builds_on(grid.dim):
        raise ScenarioError(f"{name} needs a {entry.dim}D grid")
    return entry.build(grid, **scenario_params(name, params, grid.dim))


def scenario_params(name: str, params: dict, dim: int) -> dict:
    """The parameters of a catalog entry on a dim grid: its defaults, in
    their order, with params in place; ScenarioError for a parameter the
    entry does not have."""
    entry = SCENARIOS[name]
    defaults = entry.defaults(dim) if entry.any_dim else entry.defaults
    values = dict(defaults)
    for key, value in (params or {}).items():
        if key not in defaults:
            raise ScenarioError(
                f"{name}: unknown parameter {key!r}; allowed: {', '.join(defaults)}"
            )
        values[key] = float(value)
    return values


def scenario_listing() -> list[str]:
    """One line per catalog entry: name dim params-schema has-exact."""
    lines = []
    for name, entry in SCENARIOS.items():
        if entry.any_dim:
            dim, schema = "1-3", ",".join(list(entry.defaults(2))[:2]) + ",..."
        else:
            dim, schema = entry.dim, ",".join(entry.defaults)
        lines.append(f"{name} {dim} {schema} {'yes' if entry.has_exact else 'no'}")
    return lines
