"""Projected SOR solver: exactness, residuals, determinism, energy."""

import io
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstacle_lab import solver
from obstacle_lab.grid import GridSpec, ScalarField, boundary_mask, box_grid, sample
from obstacle_lab.scenarios import make_scenario
from obstacle_lab.solver import (
    ObstacleProblem,
    SolveOptions,
    discrete_energy,
    lcp_residual,
    optimal_relax,
    solve_psor,
)


def _flat1d_problem(cells=128, beta=0.125):
    g = box_grid(1, cells)
    a = 1.0 - np.sqrt(2.0 * beta)
    exact = lambda P: np.maximum(np.abs(P[:, 0]) - a, 0.0) ** 2 / 2.0
    prob = ObstacleProblem(grid=g, g=sample(exact, g).values)
    return prob, exact


def test_problem_rejects_negative_boundary_data():
    g = box_grid(1, 8)
    data = np.zeros(g.node_shape)
    data[0] = -0.1
    with pytest.raises(ValueError, match="nonnegative"):
        ObstacleProblem(grid=g, g=data)
    with pytest.raises(ValueError, match="node shape"):
        ObstacleProblem(grid=g, g=np.zeros(8))
    # only the boundary values are checked and kept
    data[0], data[1:-1] = 0.25, -1.0
    assert np.array_equal(ObstacleProblem(grid=g, g=data).g, [0.25, 0.0])


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(relax=2.0)
    with pytest.raises(ValueError):
        SolveOptions(tol=0.0)
    for max_iter in (0, -1):
        with pytest.raises(ValueError):
            SolveOptions(max_iter=max_iter)


def test_optimal_relax_formula():
    g = box_grid(2, 64)
    assert optimal_relax(g) == pytest.approx(2.0 / (1.0 + np.sin(np.pi / 64)))


def test_flat1d_converges_to_exact():
    prob, exact = _flat1d_problem()
    res = solve_psor(prob, SolveOptions(relax=optimal_relax(prob.grid)))
    assert res.converged
    truth = sample(exact, prob.grid).values
    assert np.abs(res.u.values - truth).max() < 1e-4


def test_exact_polynomial_is_stencil_exact():
    # x1^2 / 2 solves the problem; the 5-point stencil reproduces it exactly
    g = box_grid(2, 32)
    f = sample(lambda P: P[:, 0] ** 2 / 2.0, g)
    prob = ObstacleProblem(grid=g, g=f.values)
    res = lcp_residual(prob, f)
    assert res.max_violation < 1e-12


def test_determinism_bitwise():
    prob, _ = _flat1d_problem(64)
    a = solve_psor(prob, SolveOptions(relax=1.5))
    b = solve_psor(prob, SolveOptions(relax=1.5))
    assert np.array_equal(a.u.values, b.u.values)
    assert a.iterations == b.iterations


def _dirichlet_start(prob):
    u = np.zeros(prob.grid.node_shape)
    u[boundary_mask(prob.grid)] = prob.g
    return u


def _solve_lexicographic(prob, relax):
    """Reference PSOR: pure-Python sweeps in lexicographic node order."""
    grid = prob.grid
    u = _dirichlet_start(prob)
    h2 = grid.h**2
    denom = float(np.sum(2.0 / h2))
    ranges = [range(1, n) for n in grid.cells]
    for it in range(1, 40 * int(grid.cells.max()) ** 2 + 1):
        for idx in itertools.product(*ranges):
            nb = 0.0
            for ax in range(grid.dim):
                up = list(idx)
                dn = list(idx)
                up[ax] += 1
                dn[ax] -= 1
                nb += (u[tuple(up)] + u[tuple(dn)]) / h2[ax]
            gs = (nb - 1.0) / denom
            u[idx] = max(0.0, (1.0 - relax) * u[idx] + relax * gs)
        if it % 10 == 0:
            if lcp_residual(prob, ScalarField(grid, u)).max_violation <= 1e-10:
                return u
    raise AssertionError("lexicographic reference did not converge")


def test_orderings_agree():
    prob, _ = _flat1d_problem(64)
    rb = solve_psor(prob, SolveOptions(relax=1.5))
    lex = _solve_lexicographic(prob, relax=1.5)
    assert rb.converged
    assert np.abs(rb.u.values - lex).max() < 1e-8


def _full_grid_red_black(prob, f, relax, sweeps, scaled=True):
    """Reference red-black sweeps with right-hand side f (a node array):
    whole-interior update blended by parity.  scaled: the solver's
    max(0, scale sum_ax r_ax (u[+1] + u[-1]) - f~ + (1 - relax) u), in its
    operation order, with r_ax = h_0^2 / h_ax^2, scale = relax / (denom
    h_0^2) and f~ = (relax / denom) f; else the unscaled form
    max(0, (1 - relax) u + relax (sum_ax (u[+1] + u[-1]) / h_ax^2 - f) / denom).
    """
    grid = prob.grid
    u = _dirichlet_start(prob)
    interior = tuple(slice(1, -1) for _ in range(grid.dim))
    parity = sum(
        np.meshgrid(*[np.arange(1, n) for n in grid.cells], indexing="ij")
    ) % 2
    h2 = grid.h**2
    denom = float(np.sum(2.0 / h2))
    r, scale = h2[0] / h2, relax / (denom * h2[0])
    f_scaled = (relax / denom) * f[interior]
    for _ in range(sweeps):
        for color in (0, 1):
            nb = None
            for ax in range(grid.dim):
                plus = [slice(1, -1)] * grid.dim
                minus = [slice(1, -1)] * grid.dim
                plus[ax] = slice(2, None)
                minus[ax] = slice(None, -2)
                term = u[tuple(plus)] + u[tuple(minus)]
                term = term * r[ax] if scaled else term / h2[ax]
                nb = term if nb is None else nb + term
            if scaled:
                upd = nb * scale - f_scaled + (1.0 - relax) * u[interior]
            else:
                upd = (1.0 - relax) * u[interior] + relax * ((nb - f[interior]) / denom)
            upd = np.maximum(0.0, upd)
            u[interior] = np.where(parity == color, upd, u[interior])
    return u


@pytest.mark.parametrize(
    "cells,extent",
    [
        ((7,), (2.0,)),
        ((5, 6), (2.0, 1.5)),
        ((5, 6, 7), (2.0, 1.5, 3.0)),
        ((6, 5, 4), (1.0, 2.5, 1.5)),
    ],
)
def test_strided_sweeps_match_full_grid_reference(cells, extent):
    grid = GridSpec(
        dim=len(cells), origin=np.zeros(len(cells)), extent=extent, cells=cells
    )
    rng = np.random.default_rng(len(cells))
    # a coarse multigrid level sweeps with a varying right-hand side
    f = 1.0 + 0.3 * rng.random(grid.node_shape) / grid.h.min() ** 2
    prob = ObstacleProblem(grid=grid, g=rng.random(grid.node_shape))
    for sweeps in (1, 2, 7):
        u = _dirichlet_start(prob)
        # a coarse level: f is a node array, copied into parity planes with u
        solver._Level(grid, u, f).smooth(sweeps, 1.7)
        ref = _full_grid_red_black(prob, f, 1.7, sweeps)
        assert np.array_equal(u, ref)
        # the solver's own fine level, right-hand side 1
        res = solve_psor(prob, SolveOptions(relax=1.7, max_iter=sweeps))
        assert res.iterations == sweeps
        ones = np.ones(grid.node_shape)
        ref1 = _full_grid_red_black(prob, ones, 1.7, sweeps)
        assert np.array_equal(res.u.values, ref1)
    interior = ref[tuple(slice(1, -1) for _ in cells)]
    # both sides of the projection max(0, .) are exercised
    assert np.any(interior == 0.0) and np.any(interior > 0.0)


# the solver folds 1/h^2, relax and 1/denom into one scale, which rounds
# differently from the unscaled form, so the solved fields may differ by
# rounding only; unequal h runs the r_ax != 1 path
@pytest.mark.parametrize(
    "cells,extent",
    [((48,), (2.0,)), ((24, 20), (2.0, 1.5)), ((14, 12, 10), (2.0, 1.5, 1.6))],
    ids=["1d", "2d", "3d"],
)
def test_scaled_sweeps_solve_like_the_unscaled_form(cells, extent):
    dim = len(cells)
    grid = GridSpec(dim=dim, origin=-np.asarray(extent) / 2, extent=extent, cells=cells)
    data = lambda P: np.maximum((P**2).sum(axis=1) / (2 * dim) - 0.02, 0.0)
    prob = ObstacleProblem(grid=grid, g=sample(data, grid).values)
    opts = SolveOptions(relax=optimal_relax(grid))
    res = solve_psor(prob, opts)
    assert res.converged
    ones = np.ones(grid.node_shape)
    ref = _full_grid_red_black(prob, ones, opts.relax, res.iterations, scaled=False)
    assert lcp_residual(prob, ScalarField(grid, ref)).max_violation <= opts.tol
    assert np.abs(res.u.values - ref).max() <= 1e-13
    # the solve has a contact set and a positive phase
    assert np.any(res.u.values == 0.0) and np.any(res.u.values > 0.0)


@pytest.mark.parametrize("coarse", [False, True], ids=["finest", "coarse"])
def test_smooth_leaves_no_plane_block_alive(coarse):
    grid = box_grid(3, 32)
    level = solver._Level.on(grid, None if coarse else np.zeros(grid.node_shape))
    level.u[...] = 1.0
    nbytes = level.u.nbytes
    tracemalloc.start()
    try:
        level.smooth(2, 1.5)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the sweeps ran on one block of u.size elements per copied array: u's,
    # and f's only on a coarse level (the finest f = 1 is a broadcast view)
    blocks = 2 if coarse else 1
    assert blocks * nbytes <= peak < (blocks + 1) * nbytes
    assert current < nbytes / 16
    assert set(vars(level)) == {"grid", "u", "f"}


def test_nonconvergence_is_flagged():
    prob, _ = _flat1d_problem(128)
    # one multigrid cycle: three already solve this 1D problem to 1e-17
    res = solve_psor(prob, SolveOptions(max_iter=1))
    assert not res.converged
    assert res.stop_reason == "max_iter"
    assert res.residual.max_violation > 1e-10


def test_energy_monotone_for_underrelaxed_sweeps():
    prob, _ = _flat1d_problem(32)
    for relax in (0.7, 1.0):
        energies = []
        for k in range(1, 6):
            res = solve_psor(prob, SolveOptions(relax=relax, max_iter=k))
            energies.append(discrete_energy(prob, res.u))
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-12), (relax, energies)


def test_radial2d_error_shrinks_under_refinement():
    R = 0.5

    def exact(P):
        r = np.linalg.norm(P, axis=1)
        out = np.zeros(len(P))
        o = r > R
        out[o] = (r[o] ** 2 - R**2) / 4.0 - (R**2 / 2.0) * np.log(r[o] / R)
        return out

    rates = []
    for cells in (32, 64):
        g = box_grid(2, cells)
        prob = ObstacleProblem(grid=g, g=sample(exact, g).values)
        res = solve_psor(prob, SolveOptions(relax=optimal_relax(g)))
        err = np.abs(res.u.values - sample(exact, g).values).max()
        rates.append(err / float(g.h.max()))
    # the C in err <= C h must not grow under refinement
    assert rates[1] <= rates[0] * 1.05


def test_telemetry_stream():
    prob, _ = _flat1d_problem(64)
    buf = io.StringIO()
    solve_psor(prob, SolveOptions(), telemetry=buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "iter,max_eq,max_ineq,max_neg"
    assert len(lines) > 2
    first = lines[1].split(",")
    # flat1d 64 solves by PSOR, checked every 10 sweeps
    assert int(first[0]) == 10 and len(first) == 4


def test_solution_nonnegative_and_complementary():
    prob, _ = _flat1d_problem(128)
    res = solve_psor(prob)
    assert res.u.values.min() >= 0.0
    assert res.residual.max_violation <= 1e-10


def _radial2d(cells, lo=-1.0, hi=1.0):
    return make_scenario("radial2d", {"R": 0.5}, box_grid(2, cells, lo, hi)).problem


def _parent_psor(prob, relax, max_iter, check_every=10, tol=1e-10):
    """The red-black PSOR loop as it stood before the shared convergence loop:
    sweep, check every check_every sweeps and at max_iter, stop at tol."""
    grid = prob.grid
    u = _dirichlet_start(prob)
    fine = solver._Level.on(grid, u)
    buf = io.StringIO()
    buf.write("iter,max_eq,max_ineq,max_neg\n")
    it = 0
    while it < max_iter:
        fine.smooth(1, relax)
        it += 1
        if it % check_every == 0 or it == max_iter:
            res = lcp_residual(prob, ScalarField(grid, u))
            buf.write(
                f"{it},{res.max_eq:.17g},{res.max_ineq:.17g},{res.max_neg:.17g}\n"
            )
            if res.max_violation <= tol:
                break
    return u, it, buf.getvalue()


@pytest.mark.parametrize(
    "cells,relax,max_iter",
    [
        (129, None, None),  # odd cells: no coarse level
        (64, None, None),  # below _MG_MIN_CELLS
        (128, 1.9, None),  # a multigrid grid, but relax is given
        (32, 1.5, 23),  # max_iter between two checks
    ],
)
def test_psor_path_is_bit_identical_to_parent_loop(cells, relax, max_iter):
    prob = _radial2d(cells)
    assert not solver._uses_multigrid(prob.grid, relax)
    buf = io.StringIO()
    res = solve_psor(prob, SolveOptions(relax=relax, max_iter=max_iter), telemetry=buf)
    pinned = optimal_relax(prob.grid) if relax is None else relax
    u, it, telemetry = _parent_psor(prob, pinned, max_iter or 40 * cells**2)
    assert res.stop_reason == ("tol" if max_iter is None else "max_iter")
    assert res.converged == (max_iter is None)
    assert np.array_equal(res.u.values, u)
    assert res.iterations == it
    assert buf.getvalue() == telemetry


@pytest.mark.parametrize("cells", [128, 256])
def test_multigrid_matches_psor(cells):
    prob = _radial2d(cells)
    assert solver._uses_multigrid(prob.grid, None)
    mg = solve_psor(prob)
    psor = solve_psor(prob, SolveOptions(relax=optimal_relax(prob.grid)))
    assert mg.converged and psor.converged
    assert mg.stop_reason == psor.stop_reason == "tol"
    # cycles, not sweeps
    assert mg.iterations < 40 < psor.iterations
    assert np.abs(mg.u.values - psor.u.values).max() <= 1e-8


# the coarse operator is Lap_H re-discretised, not the Galerkin P^T A_h P that
# Mandel's energy proof needs, so the fall is checked on a grid of each dim
@pytest.mark.parametrize(
    "name,dim,cycles",
    [("flat1d", 1, 6), ("radial2d", 2, 12), ("radial3d", 3, 6)],
    ids=["1d", "2d", "3d"],
)
def test_multigrid_energy_does_not_increase(name, dim, cycles):
    prob = make_scenario(name, {}, box_grid(dim, solver._MG_MIN_CELLS)).problem
    assert solver._uses_multigrid(prob.grid, None)
    u = _dirichlet_start(prob)
    step = solver._mg_step(solver._Level.on(prob.grid, u))
    energies = [discrete_energy(prob, ScalarField(prob.grid, u))]
    for _ in range(cycles):
        assert step(1) == 1
        energies.append(discrete_energy(prob, ScalarField(prob.grid, u)))
    rises = np.diff(energies)
    assert np.all(rises <= 1e-12 * abs(energies[-1])), energies
    assert energies[-1] < energies[0]


def test_multigrid_levels_stop_at_odd_or_small_axes():
    cells = [tuple(int(n) for n in c) for c in solver._mg_cells(box_grid(2, 96))]
    assert cells == [(96, 96), (48, 48), (24, 24), (12, 12)]
    grid = GridSpec(dim=2, origin=np.zeros(2), extent=(4.0, 1.0), cells=(256, 64))
    assert [int(c[1]) for c in solver._mg_cells(grid)] == [64, 32, 16, 8]
    # halves only once before turning odd
    assert len(solver._mg_cells(box_grid(2, 130))) == 2
    assert not solver._uses_multigrid(box_grid(2, 130), None)


# tol = 1e-16 lies below the rounding floor of the certificate on these
# grids; multigrid's floor depends on the data and sits near 5e-16 on this
# unequal-spacing radial2d box
@pytest.mark.parametrize(
    "cells,hi",
    [(64, (1.0, 1.0)), (128, (1.0, 1.5))],
    ids=["psor", "multigrid"],
)
def test_stalled_solve_stops_with_stagnation(cells, hi):
    prob = _radial2d(cells, lo=-np.asarray(hi), hi=hi)
    assert solver._uses_multigrid(prob.grid, None) == (cells >= solver._MG_MIN_CELLS)
    res = solve_psor(prob, SolveOptions(tol=1e-16))
    assert not res.converged
    assert res.stop_reason == "stagnation"
    assert res.residual.max_violation < 1e-14
    # bounded: a few checks past the floor, far from max_iter = 40 n^2
    assert res.iterations < 1500
    assert res.contraction is not None


def test_slow_convergence_is_not_stagnation():
    # Gauss-Seidel (relax = 1) on flat1d 2048 shrinks the certificate by
    # only 0.05% per check, yet sets a new minimum at every one: it is
    # converging and must reach tol (at 45,460 sweeps), not stagnate
    prob = make_scenario("flat1d", {}, box_grid(1, 2048)).problem
    res = solve_psor(prob, SolveOptions(relax=1.0, tol=5e-7))
    assert res.converged and res.stop_reason == "tol"
    assert 0.999 < res.contraction < 1.0
    assert res.iterations > 36_830


# scenario -> (grid dim, the parameter drawn, its range, most cells per axis)
_LCP_CASES = {
    "flat1d": (1, "beta", 0.02, 0.45, 32),
    "radial2d": (2, "R", 0.1, 0.8, 32),
    "aniso2d": (2, "offset", 0.01, 0.2, 32),
    "radial3d": (3, "R", 0.2, 0.7, 16),
    "pinch3d": (3, "eps", 0.01, 0.45, 16),
}


@settings(max_examples=50)
@given(
    name=st.sampled_from(sorted(_LCP_CASES)),
    t=st.floats(0.0, 1.0),
    cells=st.integers(8, 32),
)
def test_solved_fields_meet_the_lcp_certificate(name, t, cells):
    dim, key, lo, hi, most = _LCP_CASES[name]
    grid = box_grid(dim, min(cells, most))
    prob = make_scenario(name, {key: lo + t * (hi - lo)}, grid).problem
    opts = SolveOptions(relax=None)  # relax = auto
    res = solve_psor(prob, opts)
    assert res.converged
    assert lcp_residual(prob, res.u).max_violation <= opts.tol
