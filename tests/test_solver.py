"""Projected SOR solver: exactness, residuals, determinism, energy."""

import functools
import hashlib
import io
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstacle_lab import solver
from obstacle_lab.grid import (
    GridSpec,
    ScalarField,
    boundary_mask,
    box_grid,
    sample,
    shifted_slices,
)
from obstacle_lab.scenarios import make_scenario
from obstacle_lab.solver import (
    ObstacleProblem,
    SolveOptions,
    lcp_residual,
    optimal_relax,
    solve_psor,
)


def discrete_energy(problem: ObstacleProblem, u: ScalarField) -> float:
    """Sum of (|grad_h u|^2 / 2 + u) h^dim with forward differences."""
    grid = problem.grid
    vol = grid.cell_volume
    total = 0.0
    for ax in range(grid.dim):
        lo, hi = shifted_slices(grid.dim, ax)
        d = (u.values[hi] - u.values[lo]) / grid.h[ax]
        total += 0.5 * float(np.sum(d**2)) * vol
    total += float(np.sum(u.values)) * vol
    return total


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_problem_rejects_non_finite_boundary_data(bad):
    g = box_grid(2, 8)
    data = np.zeros(g.node_shape)
    data[0, 3] = bad
    with pytest.raises(ValueError, match="^Dirichlet data must be finite$"):
        ObstacleProblem(grid=g, g=data)
    # interior entries are never read, so NaN there is accepted
    data[0, 3], data[4, 4] = 0.0, np.nan
    assert np.array_equal(ObstacleProblem(grid=g, g=data).g, np.zeros(32))


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


def _full_grid_red_black(prob, f, relax, sweeps, scaled=True, start=None):
    """Reference red-black sweeps with right-hand side f (a node array), from
    start (default the Dirichlet start): whole-interior update blended by
    parity.  scaled: the solver's
    max(0, scale sum_ax r_ax (u[+1] + u[-1]) - f~ + (1 - relax) u), in its
    operation order, with r_ax = h_0^2 / h_ax^2, scale = relax / (denom
    h_0^2) and f~ = (relax / denom) f; else the unscaled form
    max(0, (1 - relax) u + relax (sum_ax (u[+1] + u[-1]) / h_ax^2 - f) / denom).
    """
    grid = prob.grid
    u = _dirichlet_start(prob) if start is None else start.copy()
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
        # flat ranges that cross many plane rows, boundary faces and padding
        ((17, 12, 9), (2.0, 1.5, 1.2)),
        ((33, 20), (2.0, 1.5)),
        ((8,), (2.0,)),
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
        # a coarse level: f is a node array, copied into parity planes with u
        level = solver._Level(grid, _dirichlet_start(prob), f)
        level.smooth(sweeps, 1.7)
        ref = _full_grid_red_black(prob, f, 1.7, sweeps)
        assert np.array_equal(level.unpack(), ref)
        # the solver's own fine level, right-hand side 1
        res = solve_psor(prob, SolveOptions(relax=1.7, max_iter=sweeps))
        assert res.iterations == sweeps
        ones = np.ones(grid.node_shape)
        ref1 = _full_grid_red_black(prob, ones, 1.7, sweeps)
        assert np.array_equal(res.u.values, ref1)
    interior = ref[tuple(slice(1, -1) for _ in cells)]
    # both sides of the projection max(0, .) are exercised
    assert np.any(interior == 0.0) and np.any(interior > 0.0)


# a level plans one sweep per relax value and keeps it: smoothing with
# relax 1.7, then 1.0, then 1.7 again must run each value's own scale, blend
# and f~, as fresh levels and the full-grid reference do; folded levels
# need data that is its own mirror image bit for bit, as (a + flip(a)) / 2
# is on each folded axis
@pytest.mark.parametrize(
    "cells,extent,mirrored",
    [
        ((8,), (2.0,), []),
        ((8,), (2.0,), [0]),
        ((12, 8), (2.0, 1.5), []),
        ((12, 8), (2.0, 1.5), [0, 1]),
        ((8, 12, 6), (2.0, 1.5, 1.2), []),
        ((8, 12, 6), (2.0, 1.5, 1.2), [0, 2]),
    ],
    ids=["1d", "1d-folded", "2d", "2d-folded", "3d", "3d-folded"],
)
@pytest.mark.parametrize("rhs", ["constant", "varying"])
def test_sweep_plans_follow_relax(cells, extent, mirrored, rhs):
    grid = GridSpec(dim=len(cells), origin=np.zeros(len(cells)), extent=extent, cells=cells)
    rng = np.random.default_rng(len(cells))
    sym = lambda a: functools.reduce(lambda a, ax: a + np.flip(a, ax), mirrored, a)
    mirror = lambda a: sym(a) / 2 ** len(mirrored)  # a power of 2 divides exactly
    g = mirror(rng.random(grid.node_shape))
    f = f_arg = mirror(1.0 + 0.3 * rng.random(grid.node_shape) / grid.h.min() ** 2)
    prob = ObstacleProblem(grid=grid, g=g)
    if rhs == "constant":  # a fine level's f, held as one number
        f_arg = 0.15 / grid.h.min() ** 2
        f = np.full(grid.node_shape, f_arg)
    schedule = [(3, 1.7), (2, 1.0), (3, 1.7)]
    level = solver._Level(grid, _dirichlet_start(prob), f_arg, mirrored)
    ref = fresh = _dirichlet_start(prob)
    for sweeps, relax in schedule:
        level.smooth(sweeps, relax)
        step = solver._Level(grid, fresh, f_arg, mirrored)
        step.smooth(sweeps, relax)
        fresh = step.unpack(np.empty(grid.node_shape))
        ref = _full_grid_red_black(prob, f, relax, sweeps, start=ref)
        got = level.unpack(np.empty(grid.node_shape))
        assert got.tobytes() == fresh.tobytes() == ref.tobytes(), (sweeps, relax)
    assert sorted(level.sweeps) == [1.0, 1.7]
    interior = ref[tuple(slice(1, -1) for _ in cells)]
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


# peak bounds in multiples of u's bytes, from the peaks of the same solves
# when each smoothing call copied u into a fresh block and back (3.15 and
# 5.98); both solves now fold two axes.  radial3d 32 folds all three, and
# its bound sits just above the 1.44 that its folded solve reads.
@pytest.mark.parametrize(
    "name,dim,cells,bound",
    [("pinch3d", 3, 32, 3.1), ("radial2d", 2, 128, 5.9), ("radial3d", 3, 32, 1.5)],
    ids=["psor-3d", "multigrid-2d", "psor-3d-folded"],
)
def test_solve_memory_stays_within_its_bound(name, dim, cells, bound):
    prob = make_scenario(name, {}, box_grid(dim, cells)).problem
    solve_psor(prob)  # first-call costs, such as numpy's, fall outside the trace
    nbytes = np.zeros(prob.grid.node_shape).nbytes
    tracemalloc.start()
    try:
        res = solve_psor(prob)
        _, peak = tracemalloc.get_traced_memory()
        traces = tracemalloc.take_snapshot().traces
    finally:
        tracemalloc.stop()
    assert peak < bound * nbytes
    # of what the solve allocated, only result.u is field-sized and alive:
    # no level, block or buffer outlives it, not even in a reference cycle
    alive = [t.size for t in traces if t.size >= nbytes / 16]
    assert alive == [res.u.values.nbytes]


def _traced_peak(call):
    """The most memory that call() holds at once beyond what was alive."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a level plans the steps of its sweeps, checks and transfers once, and the
# sweeps and the Laplacians share one scratch pair: after a warm call, PSOR
# sweeps, a coarse level's sweeps (f~ lives in the level), the certificate
# and a restriction with its correction allocate nothing as large as one
# parity plane; the transfers run on 1-D or contiguous operands, which numpy
# does not buffer
def test_sweeps_and_checks_allocate_no_plane():
    psor = make_scenario("pinch3d", {}, box_grid(3, 32)).problem
    fine = solver._Level(psor.grid, _dirichlet_start(psor))
    relax = optimal_relax(psor.grid)
    mg = make_scenario("radial2d", {}, box_grid(2, 128)).problem
    top = solver._Level(mg.grid, _dirichlet_start(mg))
    levels = [top] + [top.coarse(c) for c in solver._levels(mg.grid, None)[1:]]
    solver._cycle(levels)  # plans the transfers and sets the coarse right-hand sides
    calls = {
        "psor sweeps": (fine, lambda: fine.smooth(10, relax)),
        "coarse sweeps": (levels[1], lambda: levels[1].smooth(3)),
        "certificate": (fine, lambda: solver._certificate(fine)),
        "transfers": (top, lambda: (top.restrict_to(levels[1]), top.correct_from(levels[1]))),
    }
    for what, (level, call) in calls.items():
        call()
        assert _traced_peak(call) < level.block[0].nbytes, what


def _golden_problem(name, params, cells, extent, negzero):
    """A scenario's problem on a box centred at 0, its boundary data rounded
    to multiples of 2^-20 so that no last bit of the platform's log or pow
    reaches the solve; negzero sets one boundary value to -0.0, on a face
    that the sweeps overwrite and put back."""
    extent = np.asarray(extent)
    grid = GridSpec(dim=len(cells), origin=-extent / 2, extent=extent, cells=cells)
    data = np.zeros(grid.node_shape)
    g = make_scenario(name, params, grid).problem.g
    data[boundary_mask(grid)] = np.round(g * 2.0**20) / 2.0**20
    if negzero:
        data[5, 0] = -0.0
    return ObstacleProblem(grid=grid, g=data)


# case -> (scenario, params, cells, extent, max_iter, one -0.0 boundary value)
_GOLDEN = {
    "psor-pinch3d-32": ("pinch3d", {}, (32, 32, 32), (2.0, 2.0, 2.0), None, False),
    "psor-unequal-57": ("pinch3d", {}, (31, 40, 45), (2.0, 1.5, 1.8), 57, False),
    "mg-radial2d-128": ("radial2d", {}, (128, 128), (2.0, 2.0), None, False),
    "mg-flat1d-512": ("flat1d", {}, (512,), (2.0,), None, False),
    "mg-radial3d-96x32x32": (
        "radial3d", {"R": 0.3}, (96, 32, 32), (3.0, 1.0, 1.0), None, False
    ),
    "mg-radial2d-128-negzero": ("radial2d", {}, (128, 128), (2.0, 2.0), None, True),
    "psor-radial2d-64-negzero": ("radial2d", {}, (64, 64), (2.0, 2.0), None, True),
}
# sha256 of u.values.tobytes() and of the telemetry text, iterations, stop
# reason and method, as the solver wrote them before u lived in one block
_GOLDEN_BITS = {
    "psor-pinch3d-32": (
        "dca29b9115c3053fca59b37d11e4c9b849ffcf843ff7b0455fc56b3e026423f4",
        "31c373602d13d5979ee3b3248924111dd38faba62eb71c48891bedf337ea0100",
        120, "tol", "psor",
    ),
    "psor-unequal-57": (
        "7916790e5516b4f907ffc07817e90491059e676045b1b1a28d6b06f8117b7f8f",
        "a67684a6793f4e442b9b1728c5ca104053dd5f322b6fb799720c82289d9b5697",
        57, "max_iter", "psor",
    ),
    "mg-radial2d-128": (
        "cb88c88680b29e6f10d029e9924e07aefdb807469c6d45b957217ce5d42e4f73",
        "0d52a5a62e17eb556bf2ae21a221051dd6c5f279e2dfe4855d2cdf46e4174d93",
        15, "tol", "multigrid",
    ),
    "mg-flat1d-512": (
        "e5f2ffadcb597f9092ed85212f1984a77d50a34e07dc1cc3d98b66067a378802",
        "78aa5e059f1d154ca031f9e1af847fc71a23da811b769e1434964936e83be3c4",
        7, "tol", "multigrid",
    ),
    "mg-radial3d-96x32x32": (
        "d758cd4a8caa0c42c34b5141b2af633c1283a96ed7ff6df2f42d6e4b6d5f7fd9",
        "1a00d543e933f7a7f1b4efb705ae754a6a092bdeb003e3fa15f9547372f94858",
        19, "tol", "multigrid",
    ),
    "mg-radial2d-128-negzero": (
        "4ffd85d4d4b1d6706a5382ca6364f17d1c238d5a8d5238a190736c0c982989fa",
        "8d2bd625c6253b13b9e62d40da16769d5a45129c91b9e5aeebb5f1476656099f",
        15, "tol", "multigrid",
    ),
    "psor-radial2d-64-negzero": (
        "51e3441073fd3df9e509be2efbe85690a29d04627d7d65a444c34f85d0d1acde",
        "58ae0f318fb1a9e0d95e652c3004a50072a9fab3fff7f4761d8cd7d47e0ef50a",
        230, "tol", "psor",
    ),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_solver_bits_are_pinned(case):
    name, params, cells, extent, max_iter, negzero = _GOLDEN[case]
    prob = _golden_problem(name, params, cells, extent, negzero)
    buf = io.StringIO()
    res = solve_psor(prob, SolveOptions(max_iter=max_iter), telemetry=buf)
    bits = (
        hashlib.sha256(res.u.values.tobytes()).hexdigest(),
        hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        res.iterations,
        res.stop_reason,
        res.method["name"],
    )
    assert bits == _GOLDEN_BITS[case]
    if negzero:
        # PSOR keeps every boundary value as given; multigrid adds its +0.0
        # correction there, which turns -0.0 into +0.0
        assert res.u.values[5, 0] == 0.0
        assert np.signbit(res.u.values[5, 0]) == (res.method["name"] == "psor")


def _solve_bits(prob, opts=None):
    """Everything a solve returns and writes, as bytes and plain values."""
    buf = io.StringIO()
    res = solve_psor(prob, opts, telemetry=buf)
    r = res.residual
    residual = np.array([r.max_eq, r.max_ineq, r.max_neg]).tobytes()
    bits = (res.u.values.tobytes(), buf.getvalue(), res.iterations, res.stop_reason, residual)
    return bits + (res.contraction,), res.method


def _unfolded_bits(monkeypatch, prob, opts=None):
    """_solve_bits of the full-grid solve, with no axis mirrored."""
    with monkeypatch.context() as m:
        m.setattr(solver, "_mirrored_axes", lambda u, cells: [])
        bits, method = _solve_bits(prob, opts)
    assert method["mirrored"] == []
    return bits


def _pinch3d_golden(cells):
    return _golden_problem("pinch3d", {}, (cells,) * 3, (2.0,) * 3, False)


# case -> (problem, method, mirrored axes); flat1d 6 and 10 have n = 2 mod 4
# cells, which puts the ghost n / 2 + 1 in the even plane
_FOLDED = {
    "psor-pinch3d-32": (lambda: _pinch3d_golden(32), "psor", [0, 1]),
    "psor-radial3d-32": (
        lambda: make_scenario("radial3d", {}, box_grid(3, 32)).problem, "psor", [0, 1, 2]
    ),
    "psor-radial2d-4": (lambda: _radial2d(4), "psor", [0, 1]),
    "psor-flat1d-6": (lambda: _flat1d_problem(6)[0], "psor", [0]),
    "psor-flat1d-10": (lambda: _flat1d_problem(10)[0], "psor", [0]),
    "mg-radial2d-128": (lambda: _radial2d(128), "multigrid", [0, 1]),
    "mg-flat1d-512": (lambda: _flat1d_problem(512)[0], "multigrid", [0]),
    "mg-radial3d-96x32x32": (
        lambda: _golden_problem("radial3d", {"R": 0.3}, (96, 32, 32), (3.0, 1.0, 1.0), False),
        "multigrid",
        [0, 1, 2],
    ),
}


@pytest.mark.parametrize("case", list(_FOLDED))
def test_folded_solve_equals_the_unfolded_one(case, monkeypatch):
    make, name, axes = _FOLDED[case]
    prob = make()
    bits, method = _solve_bits(prob)
    assert method["name"] == name and method["mirrored"] == axes
    assert bits == _unfolded_bits(monkeypatch, prob)


def test_mirror_is_detected_by_bytes_not_values(monkeypatch):
    prob = _pinch3d_golden(32)
    data = _dirichlet_start(prob)
    assert data[14, 16, 32] == 0.0 and data[18, 16, 32] == 0.0
    data[14, 16, 32] = -0.0  # on the top face; node 16 is the middle of axis 1
    prob = ObstacleProblem(grid=prob.grid, g=data)
    # by value, axis 0 is still its mirror image; by bytes it is not
    assert np.array_equal(data, np.flip(data, 0))
    bits, method = _solve_bits(prob)
    assert method["mirrored"] == [1]
    assert bits == _unfolded_bits(monkeypatch, prob)


def test_fold_needs_even_cells_and_bit_symmetric_data():
    # odd cells have no middle node
    assert solve_psor(_radial2d(129)).method["mirrored"] == []
    # h = 1/48 leaves the node coordinates, and so the data, asymmetric in
    # their last bits
    prob = make_scenario("radial2d", {}, box_grid(2, 96)).problem
    data = _dirichlet_start(prob)
    assert not np.array_equal(data, np.flip(data, 0))
    res = solve_psor(prob)
    assert res.method == {"name": "multigrid", "levels": [96, 48, 24, 12], "mirrored": []}


def test_multigrid_folds_no_axis_its_coarsest_level_has_odd(monkeypatch):
    # cells (128, 72) with h = 1/64 on both axes coarsen to (16, 9)
    grid = GridSpec(dim=2, origin=(-1.0, -0.5625), extent=(2.0, 1.125), cells=(128, 72))
    prob = make_scenario("radial2d", {}, grid).problem
    data = _dirichlet_start(prob)
    assert np.array_equal(data.view(np.int64), np.flip(data, 1).view(np.int64))
    assert tuple(solver._levels(grid, None)[-1]) == (16, 9)
    bits, method = _solve_bits(prob)
    assert method["name"] == "multigrid" and method["mirrored"] == [0]
    assert bits == _unfolded_bits(monkeypatch, prob)


# the solve unfolds its result into an uninitialised array, so unpack must
# write every node of the grid, folded or not
@pytest.mark.parametrize(
    "make,mirrored",
    [
        (lambda: _radial2d(32), [0, 1]),
        (lambda: _pinch3d_golden(16), [0, 1]),
        (lambda: _radial2d(33), []),
    ],
    ids=["2d-folded-twice", "3d-folded-twice", "unfolded"],
)
def test_unfolding_writes_every_node(make, mirrored):
    prob = make()
    res = solve_psor(prob)
    assert res.method["mirrored"] == mirrored
    level = solver._Level(prob.grid, res.u.values, mirrored=mirrored)
    out = np.full(prob.grid.node_shape, np.nan)
    assert level.unpack(out) is out
    assert not np.isnan(out).any()
    assert np.array_equal(out.view(np.int64), res.u.values.view(np.int64))


def _ref_lcp_residual(prob, u):
    """The certificate on the node array, as lcp_residual computed it before
    the block layout: the Laplacian's neighbour terms per axis divided by
    h_ax^2 and accumulated, then sum(2 / h_ax^2) u subtracted."""
    grid = prob.grid
    interior = (slice(1, -1),) * grid.dim
    h2 = grid.h**2
    lap = None
    for ax in range(grid.dim):
        minus, plus = shifted_slices(grid.dim, ax, interior=True)
        term = u[plus] + u[minus]
        term /= h2[ax]
        if lap is None:
            lap = term
        else:
            lap += term
    lap -= float(np.sum(2.0 / h2)) * u[interior]
    lap -= 1.0
    scale = float(grid.h.max()) ** 2
    max_ineq = max(float(lap.max()), 0.0) * scale
    np.abs(lap, out=lap)
    max_eq = float(lap.max(where=u[interior] > 0, initial=0.0)) * scale
    return max_eq, max_ineq, max(0.0, -float(u.min()))


@pytest.mark.parametrize(
    "cells,extent",
    [
        ((7,), (2.0,)),
        ((5, 6), (2.0, 1.5)),
        ((5, 6, 7), (2.0, 1.5, 3.0)),
        ((6, 5, 4), (1.0, 2.5, 1.5)),
        ((17, 12, 9), (2.0, 1.5, 1.2)),
        ((33, 20), (2.0, 1.5)),
        ((8,), (2.0,)),
    ],
)
def test_certificate_matches_node_array_reference(cells, extent):
    grid = GridSpec(
        dim=len(cells), origin=np.zeros(len(cells)), extent=extent, cells=cells
    )
    prob = ObstacleProblem(grid=grid, g=np.zeros(grid.node_shape))
    rng = np.random.default_rng(len(cells) + sum(cells))
    faces = boundary_mask(grid) * rng.random(grid.node_shape)
    fields = {
        "signed": rng.standard_normal(grid.node_shape),
        "positive": rng.random(grid.node_shape),
        "contact": np.maximum(rng.standard_normal(grid.node_shape), 0.0),
        "zero": np.zeros(grid.node_shape),
        "faces only": faces,
    }
    for kind, u in fields.items():
        res = lcp_residual(prob, ScalarField(grid, u))
        got = np.array([res.max_eq, res.max_ineq, res.max_neg])
        ref = np.array(_ref_lcp_residual(prob, u))
        assert got.tobytes() == ref.tobytes(), kind  # bit for bit, signs of 0 too
    res = lcp_residual(prob, ScalarField(grid, fields["zero"]))
    assert not np.signbit(res.max_neg) and res.max_neg == 0.0
    assert lcp_residual(prob, ScalarField(grid, faces)).max_eq == 0.0


@pytest.mark.parametrize("name,dim,cells", [("radial2d", 2, 32), ("pinch3d", 3, 16)])
def test_certificate_checks_the_boundary_data_and_the_grid(name, dim, cells):
    prob = make_scenario(name, {}, box_grid(dim, cells)).problem
    # u = 0 meets every interior condition but not the Dirichlet data
    res = lcp_residual(prob, ScalarField(prob.grid, np.zeros(prob.grid.node_shape)))
    assert res.max_eq == res.max_ineq == res.max_neg == 0.0
    assert res.max_bc == res.max_violation == float(prob.g.max()) > 0.3
    solved = solve_psor(prob)
    assert solved.converged and solved.residual.max_bc == 0.0
    assert lcp_residual(prob, solved.u).max_bc == 0.0
    coarse = make_scenario(name, {}, box_grid(dim, 8)).problem
    for other, field in [
        (coarse, solved.u),
        (prob, ScalarField(box_grid(dim, cells, -0.5, 1.5), solved.u.values)),  # origin
        (prob, ScalarField(box_grid(dim, cells, -1.0, 1.5), solved.u.values)),  # extent
    ]:
        with pytest.raises(ValueError, match="grid"):
            lcp_residual(other, field)


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
    fine = solver._Level(grid, _dirichlet_start(prob), np.broadcast_to(1.0, grid.node_shape))
    buf = io.StringIO()
    buf.write("iter,max_eq,max_ineq,max_neg\n")
    it = 0
    while it < max_iter:
        fine.smooth(1, relax)
        it += 1
        if it % check_every == 0 or it == max_iter:
            res = lcp_residual(prob, ScalarField(grid, fine.unpack()))
            buf.write(
                f"{it},{res.max_eq:.17g},{res.max_ineq:.17g},{res.max_neg:.17g}\n"
            )
            if res.max_violation <= tol:
                break
    return fine.unpack(), it, buf.getvalue()


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
    assert len(solver._levels(prob.grid, relax)) == 1
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
    assert len(solver._levels(prob.grid, None)) > 1
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
    cells = solver._levels(prob.grid, None)
    assert len(cells) > 1
    ones = np.broadcast_to(1.0, prob.grid.node_shape)
    fine = solver._Level(prob.grid, _dirichlet_start(prob), ones)
    levels = [fine] + [fine.coarse(c) for c in cells[1:]]
    energies = [discrete_energy(prob, ScalarField(prob.grid, fine.unpack()))]
    for _ in range(cycles):
        solver._cycle(levels)
        energies.append(discrete_energy(prob, ScalarField(prob.grid, fine.unpack())))
    rises = np.diff(energies)
    assert np.all(rises <= 1e-12 * abs(energies[-1])), energies
    assert energies[-1] < energies[0]


def test_multigrid_levels_stop_at_odd_or_small_axes():
    cells = [tuple(int(n) for n in c) for c in solver._levels(box_grid(2, 96), None)]
    assert cells == [(96, 96), (48, 48), (24, 24), (12, 12)]
    grid = GridSpec(dim=2, origin=np.zeros(2), extent=(4.0, 1.0), cells=(256, 64))
    assert [int(c[1]) for c in solver._levels(grid, None)] == [64, 32, 16, 8]
    # halves only once before turning odd: one coarse level is too few, PSOR
    assert [tuple(c) for c in solver._levels(box_grid(2, 130), None)] == [(130, 130)]


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
    multigrid = len(solver._levels(prob.grid, None)) > 1
    assert multigrid == (cells >= solver._MG_MIN_CELLS)
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
