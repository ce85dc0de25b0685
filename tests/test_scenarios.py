"""Benchmark catalog: construction, validation, and ground-truth checks."""

import numpy as np
import pytest

from obstacle_lab.errors import ScenarioError
from obstacle_lab.grid import GridSpec, boundary_mask, box_grid, sample
from obstacle_lab.scenarios import (
    SCENARIOS,
    make_scenario,
    scenario_listing,
)
from obstacle_lab.solver import SolveOptions, lcp_residual, optimal_relax, solve_psor
from obstacle_lab.geometry import (
    coincidence_mask,
    cross_section,
    default_eps_u,
    diameter,
    has_interior,
)


def test_listing_has_all_entries():
    lines = scenario_listing()
    assert len(lines) == 7
    names = [ln.split()[0] for ln in lines]
    assert names == list(SCENARIOS)
    for ln in lines:
        assert ln.split()[-1] in ("yes", "no")


def test_unknown_name_rejected():
    with pytest.raises(ScenarioError):
        make_scenario("mystery", {}, box_grid(2, 8))


@pytest.mark.parametrize(
    "name,params,dim",
    [
        ("flat1d", {"beta": 0.6}, 1),
        ("radial2d", {"R": 1.5}, 2),
        ("radial3d", {"R": 0.0}, 3),
        ("aniso2d", {"alpha": 0.25}, 2),
        ("aniso2d", {"alpha": 0.15, "offset": -1.0}, 2),
        ("pinch3d", {"eps": 0.9}, 3),
        ("paraboloid_mask", {"kappa": -1.0}, 3),
    ],
)
def test_parameter_ranges_enforced(name, params, dim):
    with pytest.raises(ScenarioError):
        make_scenario(name, params, box_grid(dim, 8))


def test_dimension_mismatch_rejected():
    with pytest.raises(ScenarioError):
        make_scenario("radial2d", {}, box_grid(3, 8))


@pytest.mark.parametrize(
    "name,params,key",
    [
        pytest.param("radial2d", {"r": 0.3}, "r", id="radial2d-r"),
        pytest.param("poly", {"a11": 0.5, "a33": 0.0}, "a33", id="poly2d-a33"),
    ],
)
def test_unknown_parameter_rejected(name, params, key):
    with pytest.raises(ScenarioError) as err:
        make_scenario(name, params, box_grid(2, 8))
    assert f"unknown parameter {key!r}" in str(err.value)
    assert "allowed: " in str(err.value)


def test_poly_keys_follow_grid_dim():
    s = make_scenario("poly", {"a11": 0.25, "a33": 0.25}, box_grid(3, 8))
    assert s.truth["n"] == 1
    assert s.problem.grid.dim == 3


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_has_exact_flag_matches_builder(name):
    entry = SCENARIOS[name]
    params = {"a11": 0.5} if name == "poly" else {}
    s = make_scenario(name, params, box_grid(entry.dim, 8))
    assert (s.problem or s.mask).grid.dim == entry.dim
    assert (s.exact is not None) == entry.has_exact


@pytest.mark.parametrize("name", ["flat1d", "radial2d", "radial3d", "poly", "pinch3d"])
def test_problem_keeps_the_boundary_values_only(name):
    entry = SCENARIOS[name]
    cells = (9, 6, 7)[: entry.dim]
    grid = GridSpec(entry.dim, -np.ones(entry.dim), 2 * np.ones(entry.dim), cells)
    s = make_scenario(name, {"a11": 0.5} if name == "poly" else {}, grid)
    bnd = boundary_mask(grid)
    assert s.problem.g.shape == (int(bnd.sum()),)
    if s.exact is not None:
        data = s.exact
    else:  # pinch3d at the default eps
        data = lambda P: np.maximum(
            (P[:, 0] ** 2 + P[:, 1] ** 2) / 4.0 - 0.05 * np.maximum(P[:, 2], 0.0), 0.0
        )
    # the data at the boundary nodes, in the C order of the mask
    assert np.array_equal(s.problem.g, sample(data, grid).values[bnd])


def test_declared_kernel_axis_is_last():
    # cross sections and the CLI's profile take the last axis as the kernel
    declared = []
    for name, entry in SCENARIOS.items():
        for dim in (1, 2, 3):
            if entry.builds_on(dim):
                params = {"a11": 0.5} if name == "poly" else {}
                truth = make_scenario(name, params, box_grid(dim, 8)).truth
                if "kernel_axis" in truth:
                    assert truth["kernel_axis"] == dim - 1, name
                    declared.append(name)
    assert declared  # the walk reached the entries with a degenerate axis


def test_poly_trace_constraint():
    with pytest.raises(ScenarioError):
        make_scenario("poly", {"a11": 0.3, "a22": 0.3}, box_grid(2, 8))
    with pytest.raises(ScenarioError):
        make_scenario("poly", {"a11": 0.75, "a22": -0.25}, box_grid(2, 8))


def test_flat1d_coincidence_halfwidth():
    s = make_scenario("flat1d", {"beta": 0.125}, box_grid(1, 16))
    assert s.truth["contact_halfwidth"] == pytest.approx(0.5)
    # exact solution vanishes exactly on [-1/2, 1/2]
    below, above = s.exact(np.array([[0.49], [0.51]]))
    assert below == 0.0
    assert above > 0.0


def test_exact_values_radial2d():
    s = make_scenario("radial2d", {"R": 0.5}, box_grid(2, 16))
    inside, outside = s.exact(np.array([[0.3, 0.0], [1.0, 0.0]]))
    assert inside == 0.0
    expect = (1 - 0.25) / 4.0 - 0.125 * np.log(2.0)
    assert outside == pytest.approx(expect)
    assert expect == pytest.approx(0.10086, abs=5e-6)


def test_exact_value_absent_for_pinch():
    s = make_scenario("pinch3d", {}, box_grid(3, 8))
    assert s.exact is None


def test_poly_diag_truth():
    s = make_scenario("poly", {"a11": 0.5}, box_grid(2, 32))
    assert s.truth["n"] == 1
    kernel = s.truth["kernel_basis"][:, 0]
    assert abs(abs(kernel[1]) - 1.0) < 1e-12
    assert s.exact(np.array([[0.3, -0.7]]))[0] == pytest.approx(0.045)


def test_exact_fields_have_small_lcp_residual():
    # stencil-exact for the polynomial entry; O(h) slack for the radial one
    g = box_grid(2, 64)
    poly = make_scenario("poly", {"a11": 0.25, "a22": 0.25}, g)
    f = sample(poly.exact, g)
    assert lcp_residual(poly.problem, f).max_violation < 1e-12

    rad = make_scenario("radial2d", {"R": 0.5}, g)
    fr = sample(rad.exact, g)
    assert lcp_residual(rad.problem, fr).max_violation < 5 * float(g.h.max())


def test_aniso2d_mask_interior_and_convexity():
    g = box_grid(2, 96)
    s = make_scenario("aniso2d", {"alpha": 0.15, "offset": 0.05}, g)
    res = solve_psor(s.problem, SolveOptions(relax=optimal_relax(g)))
    assert res.converged
    mask = coincidence_mask(res.u, default_eps_u(g, 1e-10))
    assert has_interior(mask)
    h = float(g.h.max())
    # every cell 1.5 h inside each supporting line of the flagged centres,
    # over 64 directions, must be flagged (convexity up to one cell layer);
    # finitely many lines bound a superset of the convex hull, so this
    # checks at least the cells 1.5 h inside the hull
    t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    dirs = np.stack([np.cos(t), np.sin(t)])
    support = (mask.flagged_centers() @ dirs).max(axis=0)
    deep = np.all(g.cell_centers().reshape(-1, 2) @ dirs <= support - 1.5 * h, axis=1)
    assert np.all(mask.flags.reshape(-1)[deep])


def test_pinch3d_profile_existence():
    g = box_grid(3, 48)
    s = make_scenario("pinch3d", {"eps": 0.05}, g)
    res = solve_psor(s.problem, SolveOptions(relax=optimal_relax(g)))
    assert res.converged
    mask = coincidence_mask(res.u, default_eps_u(g, 1e-10))
    h = float(g.h.max())
    thick = 4.0 * h * np.sqrt(2.0)

    def d_at(t):
        return diameter(cross_section(mask, t, np.zeros(3), 0.45))

    # hairline at the bottom, genuinely fat above the pinch
    assert max(d_at(t) for t in (-0.9, -0.7)) < thick
    assert min(d_at(t) for t in (0.3, 0.5, 0.7)) > thick


def test_paraboloid_mask_geometry():
    g = box_grid(3, 32)
    s = make_scenario("paraboloid_mask", {"kappa": 1.0}, g)
    assert s.problem is None and s.mask is not None
    centers = s.mask.flagged_centers()
    assert np.all(centers[:, 2] >= 0.0)
    rp2 = centers[:, 0] ** 2 + centers[:, 1] ** 2
    assert np.all(rp2 <= centers[:, 2] + 1e-12)
