"""Blow-up fits, classification, the two-phase functional, rescaling."""

import numpy as np
import pytest

from obstacle_lab.errors import (
    FitFailedError,
    NoBalancedScaleError,
    OutOfDomainError,
    ResolutionError,
)
from obstacle_lab.grid import (
    ScalarField,
    box_grid,
    gradient_field,
    integrate_ball,
    sample,
)
from obstacle_lab.analysis import (
    acf,
    acf_monotonicity,
    classify_point,
    find_balanced_rescaling,
    fit_halfspace,
    fit_quadratic,
    fit_window_grid,
    quadratic_model,
    reference_ellipsoid,
    refine_boundary_point,
    rescale,
)
from obstacle_lab.solver import SolveOptions, optimal_relax


def test_rescale_quadratic_invariance():
    # u = |x|^2 is invariant under u(x0 + r y) / r^2 at x0 = 0
    g = box_grid(2, 128, -2.0, 2.0)
    u = sample(lambda P: np.sum(P**2, axis=1), g)
    out = fit_window_grid(2)
    v = rescale(u, np.zeros(2), 0.5, out)
    pts = out.node_points().reshape(-1, 2)
    # interpolation of the quadratic is O(h^2), amplified by 1/r^2
    assert np.allclose(v.values.reshape(-1), np.sum(pts**2, axis=1), atol=5e-3)


def test_rescale_window_must_stay_inside():
    g = box_grid(2, 16)
    u = sample(lambda P: np.sum(P**2, axis=1), g)
    with pytest.raises(OutOfDomainError):
        rescale(u, np.array([0.9, 0.0]), 0.5, fit_window_grid(2))


def test_fit_quadratic_recovers_matrix():
    A = np.array([[0.3, 0.1], [0.1, 0.2]])
    wg = fit_window_grid(2)
    pts = wg.node_points().reshape(-1, 2)
    v = ScalarField(wg, np.einsum("ki,ij,kj->k", pts, A, pts).reshape(wg.node_shape))
    model, res = fit_quadratic(v)
    assert np.allclose(model.A, A, atol=1e-10)
    assert res < 1e-10
    assert model.n == 0 and model.c_p > 0


def test_fit_quadratic_detects_kernel():
    wg = fit_window_grid(2)
    pts = wg.node_points().reshape(-1, 2)
    v = ScalarField(wg, (pts[:, 0] ** 2 / 2.0).reshape(wg.node_shape))
    model, _ = fit_quadratic(v)
    assert model.n == 1
    assert abs(abs(model.kernel_basis[1, 0]) - 1.0) < 1e-8


def test_fit_quadratic_rejects_indefinite_data():
    wg = fit_window_grid(2)
    pts = wg.node_points().reshape(-1, 2)
    v = ScalarField(wg, (2.0 * pts[:, 0] ** 2 - 1.5 * pts[:, 1] ** 2).reshape(wg.node_shape))
    with pytest.raises(FitFailedError):
        fit_quadratic(v)


@pytest.mark.parametrize("angle", [0.0, 0.7, 2.4, -1.1])
def test_fit_halfspace_recovers_direction(angle):
    e = np.array([np.cos(angle), np.sin(angle)])
    wg = fit_window_grid(2)
    pts = wg.node_points().reshape(-1, 2)
    v = ScalarField(wg, (np.maximum(pts @ e, 0.0) ** 2 / 2.0).reshape(wg.node_shape))
    model, res = fit_halfspace(v)
    assert np.linalg.norm(model.e - e) < 1e-4
    assert res < 1e-6


def test_fit_halfspace_deterministic():
    wg = fit_window_grid(2)
    pts = wg.node_points().reshape(-1, 2)
    e = np.array([0.6, 0.8])
    v = ScalarField(wg, (np.maximum(pts @ e, 0.0) ** 2 / 2.0).reshape(wg.node_shape))
    m1, _ = fit_halfspace(v)
    m2, _ = fit_halfspace(v)
    assert np.array_equal(m1.e, m2.e)


def test_quadratic_model_factory():
    m = quadratic_model(np.diag([0.5, 0.0]))
    assert m.n == 1 and m.c_p == pytest.approx(0.5)
    with pytest.raises(ValueError):
        quadratic_model(np.diag([0.5, -0.2]))


def test_classify_synthetic_halfspace_regular():
    g = box_grid(2, 256, -2.0, 2.0)
    e = np.array([1.0, 0.0])
    u = sample(lambda P: np.maximum(P @ e, 0.0) ** 2 / 2.0, g)
    pc = classify_point(u, np.zeros(2), [0.5, 0.3, 0.2])
    assert pc.verdict == "regular"
    assert np.linalg.norm(pc.model.e - e) < 0.05


def test_classify_synthetic_quadratic_singular():
    g = box_grid(2, 256, -2.0, 2.0)
    u = sample(lambda P: P[:, 0] ** 2 / 2.0, g)
    pc = classify_point(u, np.zeros(2), [0.5, 0.3, 0.2])
    assert pc.verdict == "singular"
    assert pc.model.n == 1
    assert np.linalg.norm(pc.model.A - np.diag([0.5, 0.0])) < 1e-3


def test_refine_boundary_point_flat_edge():
    # planar free boundary at x1 = 0.3: a candidate offset into the plateau
    # must snap back to the edge
    g = box_grid(2, 128)
    u = sample(lambda P: np.maximum(P[:, 0] - 0.3, 0.0) ** 2 / 2.0, g)
    x = refine_boundary_point(u, np.array([0.28, 0.1]), gradient_field(u))
    assert abs(x[0] - 0.3) < 5e-3


def _acf_reference(hfield, y, r):
    """acf with the gradients of both phases taken again for this radius."""
    m = max(hfield.grid.dim - 2, 0)
    factors = []
    for part in (np.maximum(hfield.values, 0.0), np.maximum(-hfield.values, 0.0)):
        gr = gradient_field(ScalarField(hfield.grid, part))
        dens = ScalarField(hfield.grid, np.sum(gr**2, axis=-1))
        factors.append(integrate_ball(dens, y, r, m=m))
    return factors[0] * factors[1] / r**4


@pytest.mark.parametrize("dim", [2, 3])
def test_acf_monotonicity_matches_per_radius_reference(dim):
    g = box_grid(dim, 32)
    h = sample(lambda P: np.sin(3.0 * P[:, 0]) * np.cos(2.0 * P[:, -1]) + 0.1, g)
    y = np.full(dim, 0.1)
    radii = [0.6, 0.3, 0.45]
    rep = acf_monotonicity(h, y, radii)
    assert rep.table == [(r, _acf_reference(h, y, r)) for r in sorted(radii)]
    assert all(acf(h, y, r) == p for r, p in rep.table)


def test_acf_resolution_floor():
    g = box_grid(2, 16)
    u = sample(lambda P: P[:, 0], g)
    with pytest.raises(ResolutionError):
        acf(u, np.zeros(2), 0.1)


def test_acf_one_signed_zero():
    g = box_grid(2, 64)
    u = sample(lambda P: np.abs(P[:, 0]), g)
    assert acf(u, np.zeros(2), 0.5) == 0.0


def test_acf_monotonicity_table():
    g = box_grid(2, 128)
    u = sample(lambda P: P[:, 0], g)
    rep = acf_monotonicity(u, np.zeros(2), [0.2, 0.4, 0.6])
    assert [r for r, _ in rep.table] == [0.2, 0.4, 0.6]
    assert all(p > 0 for _, p in rep.table)
    # phi of the linear function is nearly constant in r, so no violation
    # beyond discretization noise
    assert rep.v_star <= 0.05 * max(p for _, p in rep.table)


def test_balanced_rescaling_synthetic_disk():
    rho = 0.1
    xk = np.array([0.05, -0.02])
    g = box_grid(2, 256)
    u = sample(
        lambda P: np.maximum(np.linalg.norm(P - xk, axis=1) - rho, 0.0) ** 2 / 2.0,
        g,
    )
    h = float(g.h.max())
    r = find_balanced_rescaling(
        u, xk, bracket=(0.05, 0.8), eps_u=0.1 * h * h, cells=32
    )
    assert r == pytest.approx(0.2, abs=5e-3)


def test_balanced_rescaling_empty_set():
    g = box_grid(2, 64)
    u = sample(lambda P: np.sum(P**2, axis=1) + 1.0, g)
    with pytest.raises(NoBalancedScaleError):
        find_balanced_rescaling(u, np.zeros(2), bracket=(0.05, 0.5))


def test_reference_ellipsoid_unit_diameter():
    box = box_grid(2, 96)
    E = reference_ellipsoid(
        quadratic_model(np.diag([0.15, 0.35])),
        box,
        SolveOptions(relax=optimal_relax(box)),
    )
    assert E.diameter == pytest.approx(1.0, abs=1e-12)
    # softer quadratic growth along x1 means the longer semi-axis is x1
    assert abs(abs(E.rotation[0, 0]) - 1.0) < 0.05
    assert E.semi_axes[0] > E.semi_axes[1]


def test_reference_ellipsoid_requires_positive_definite():
    box = box_grid(2, 32)
    with pytest.raises(ValueError):
        reference_ellipsoid(quadratic_model(np.diag([0.5, 0.0])), box)
