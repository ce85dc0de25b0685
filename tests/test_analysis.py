"""Blow-up fits, classification, the two-phase functional, rescaling."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obstacle_lab.errors import FitFailedError, InconclusiveError, OutOfDomainError
from obstacle_lab.grid import (
    GridSpec,
    ScalarField,
    ball_block,
    ball_quadrature,
    block_gradient,
    box_grid,
    cell_center_values,
    gradient_field,
    interpolate_many,
    node_block,
    sample,
    shifted_slices,
    unit_ball_volume,
)
from obstacle_lab.geometry import coincidence_mask, cross_section, free_boundary
from obstacle_lab.analysis import (
    acf,
    acf_monotonicity,
    classify_point,
    find_balanced_rescaling,
    fit_halfspace,
    fit_quadratic,
    fit_window,
    quadratic_model,
    reference_ellipsoid,
    refine_boundary_point,
    rescale,
)
from obstacle_lab import analysis
from obstacle_lab.scenarios import make_scenario
from obstacle_lab.solver import SolveOptions, optimal_relax


def test_rescale_quadratic_invariance():
    # u = |x|^2 is invariant under u(x0 + r y) / r^2 at x0 = 0
    g = box_grid(2, 128, -2.0, 2.0)
    u = sample(lambda P: np.sum(P**2, axis=1), g)
    win = fit_window(2)
    w = rescale(u, np.zeros(2), 0.5, win)
    # interpolation of the quadratic is O(h^2), amplified by 1/r^2
    assert np.allclose(w, np.sum(win.points**2, axis=1), atol=5e-3)


def test_rescale_window_must_stay_inside():
    g = box_grid(2, 16)
    u = sample(lambda P: np.sum(P**2, axis=1), g)
    with pytest.raises(OutOfDomainError):
        rescale(u, np.array([0.9, 0.0]), 0.5, fit_window(2))
    with pytest.raises(ValueError, match="^rescaling radius must be positive$"):
        rescale(u, np.zeros(2), 0.0, fit_window(2))


_NAN_BALL = r"ball B_0.5\(\[nan  0.  0.\]\) not contained in grid box"


# the domain checks read "not inside", so a NaN coordinate lies outside the box
@pytest.mark.parametrize(
    "call,error,message",
    [
        (
            lambda u, x: interpolate_many(u, [x]),
            OutOfDomainError,
            r"point \[nan  0.  0.\] outside grid box",
        ),
        (lambda u, x: ball_block(u.grid, x, 0.5), OutOfDomainError, _NAN_BALL),
        (lambda u, x: acf(u, x, 0.5), OutOfDomainError, _NAN_BALL),
        (
            lambda u, x: cross_section(coincidence_mask(u, 0.1), x[0], x, 0.45),
            ValueError,
            "slice coordinate nan outside the box",
        ),
    ],
    ids=["interpolate_many", "ball_block", "acf", "cross_section"],
)
def test_nan_coordinates_lie_outside_the_box(call, error, message):
    u = sample(lambda P: np.sum(P**2, axis=1) - 0.5, box_grid(3, 16))
    x = np.array([np.nan, 0.0, 0.0])
    with pytest.raises(error, match=f"^{message}$"):
        call(u, x)
    # classification skips every radius, as for any window leaving the box
    pc = classify_point(u, x, [0.5, 0.25], fit_window(3))
    assert pc.verdict == "undetermined" and pc.fits == []


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fit_window_stencil(dim):
    win = fit_window(dim)
    cells, half = analysis._WINDOW_CELLS, analysis._WINDOW_HALF
    lattice = box_grid(dim, cells, -half, half).node_points().reshape(-1, dim)
    inside = np.linalg.norm(lattice, axis=1) <= 1.0
    assert np.array_equal(win.X, lattice[inside])
    assert np.array_equal(win.points[win.ball], win.X)
    step = np.eye(dim) * 2.0 * half / cells
    for ax in range(dim):
        assert np.allclose(win.points[win.lo[:, ax]], win.X - step[ax], atol=1e-12)
        assert np.allclose(win.points[win.hi[:, ax]], win.X + step[ax], atol=1e-12)
    # the ball and the nodes next to it, each once, then the box corners
    assert len(np.unique(win.points, axis=0)) == len(win.points)
    used = np.unique(np.concatenate([win.ball, win.lo.ravel(), win.hi.ravel()]))
    assert np.array_equal(used, np.arange(len(win.points) - 2**dim))
    assert np.allclose(np.abs(win.points[-(2**dim):]), half)


def test_fit_quadratic_recovers_matrix():
    A = np.array([[0.3, 0.1], [0.1, 0.2]])
    win = fit_window(2)
    model, res = fit_quadratic(win, np.einsum("ki,ij,kj->k", win.points, A, win.points))
    assert np.allclose(model.A, A, atol=1e-10)
    assert res < 1e-10
    assert model.n == 0 and model.c_p > 0


_FINE_2D = box_grid(2, 128)


@given(
    angle=st.floats(-np.pi, np.pi),
    lam=st.floats(0.0, 0.5),
    r=st.floats(0.1, 0.5),
    s=st.tuples(*[st.floats(-1.0, 1.0)] * 2),
)
def test_fit_quadratic_is_invariant_under_rescaling(angle, lam, r, s):
    # the blow-up polynomial x^T A x (tr A = 1/2, so its Laplacian is 1)
    # centred at x0 rescales to itself about x0 at every r; multilinear
    # interpolation misses it by at most h^2 / 8, that is (h / r)^2 / 8
    # after the division by r^2
    e = np.array([np.cos(angle), np.sin(angle)])
    A = lam * np.outer(e, e) + (0.5 - lam) * np.outer([-e[1], e[0]], [-e[1], e[0]])
    x0 = np.array(s) * (1.0 - analysis._WINDOW_HALF * r)  # window box inside the grid
    u = sample(lambda P: np.einsum("ki,ij,kj->k", P - x0, A, P - x0), _FINE_2D)
    win = fit_window(2)
    model, res = fit_quadratic(win, rescale(u, x0, r, win))
    tol = (float(_FINE_2D.h.max()) / r) ** 2
    assert np.allclose(model.A, A, atol=tol)
    assert res <= tol / 8.0


def test_fit_quadratic_detects_kernel():
    win = fit_window(2)
    model, _ = fit_quadratic(win, win.points[:, 0] ** 2 / 2.0)
    assert model.n == 1
    assert abs(abs(model.kernel_basis[1, 0]) - 1.0) < 1e-8


def test_fit_quadratic_rejects_indefinite_data():
    win = fit_window(2)
    pts = win.points
    with pytest.raises(FitFailedError):
        fit_quadratic(win, 2.0 * pts[:, 0] ** 2 - 1.5 * pts[:, 1] ** 2)


@pytest.mark.parametrize("angle", [0.0, 0.7, 2.4, -1.1])
def test_fit_halfspace_recovers_direction(angle):
    e = np.array([np.cos(angle), np.sin(angle)])
    win = fit_window(2)
    model, res = fit_halfspace(win, np.maximum(win.points @ e, 0.0) ** 2 / 2.0)
    assert np.linalg.norm(model.e - e) < 1e-4
    assert res < 1e-6


def test_fit_halfspace_deterministic():
    win = fit_window(2)
    e = np.array([0.6, 0.8])
    w = np.maximum(win.points @ e, 0.0) ** 2 / 2.0
    m1, _ = fit_halfspace(win, w)
    m2, _ = fit_halfspace(win, w)
    assert np.array_equal(m1.e, m2.e)


def test_fit_halfspace_needs_a_positivity_region():
    # u = -|x|^2 rescales to -|y|^2: no window value is positive
    u = sample(lambda P: -np.sum(P**2, axis=1), box_grid(2, 32))
    win = fit_window(2)
    with pytest.raises(FitFailedError, match="^no positivity region above threshold$"):
        fit_halfspace(win, rescale(u, np.zeros(2), 0.5, win))


def test_quadratic_model_factory():
    m = quadratic_model(np.diag([0.5, 0.0]))
    assert m.n == 1 and m.c_p == pytest.approx(0.5)
    with pytest.raises(ValueError):
        quadratic_model(np.diag([0.5, -0.2]))


def test_classify_synthetic_halfspace_regular():
    g = box_grid(2, 256, -2.0, 2.0)
    e = np.array([1.0, 0.0])
    u = sample(lambda P: np.maximum(P @ e, 0.0) ** 2 / 2.0, g)
    pc = classify_point(u, np.zeros(2), [0.5, 0.3, 0.2], fit_window(2))
    assert pc.verdict == "regular"
    assert np.linalg.norm(pc.model.e - e) < 0.05


def test_classify_synthetic_quadratic_singular():
    g = box_grid(2, 256, -2.0, 2.0)
    u = sample(lambda P: P[:, 0] ** 2 / 2.0, g)
    pc = classify_point(u, np.zeros(2), [0.5, 0.3, 0.2], fit_window(2))
    assert pc.verdict == "singular"
    assert pc.model.n == 1
    assert np.linalg.norm(pc.model.A - np.diag([0.5, 0.0])) < 1e-3


def test_classify_overflowing_window_rms_is_undetermined():
    # w = 1e158 |y|^2 is finite but its mean square overflows: an infinite
    # tau_class would pass any residual, the inf of a failed fit included
    u = sample(lambda P: 1e158 * np.sum(P**2, axis=1), box_grid(2, 32))
    with np.errstate(over="ignore"):
        pc = classify_point(u, np.zeros(2), [0.25, 0.125], fit_window(2))
    assert pc.fits[-1].rms == np.inf
    assert pc.verdict == "undetermined" and pc.model is None


# Reference: classification on the whole _WINDOW_CELLS-cell window box.  It
# interpolates u at every lattice node, takes np.gradient of the whole box
# and selects the ball nodes by their norm, and each fit builds its own
# design and Gram matrices; classify_point must give the same bits from the
# ball nodes and their neighbours alone, with the algebra cached on the
# window.


def _ref_window_nodes(v):
    pts = v.grid.node_points().reshape(-1, v.grid.dim)
    sel = np.linalg.norm(pts, axis=1) <= 1.0
    return pts[sel], v.values.reshape(-1)[sel], sel


def _ref_fit_quadratic(v):
    dim = v.grid.dim
    X, y, _ = _ref_window_nodes(v)
    if len(y) < dim * (dim + 1) // 2 + 1:
        raise FitFailedError("too few nodes in the unit ball")
    cols = []
    last = X[:, dim - 1] ** 2
    for i in range(dim - 1):
        cols.append(X[:, i] ** 2 - last)
    for i in range(dim):
        for j in range(i + 1, dim):
            cols.append(2.0 * X[:, i] * X[:, j])
    M = np.stack(cols, axis=1)
    lam, V = np.linalg.eigh(M.T @ M)
    if lam.min() <= 1e-12 * lam.max():
        raise FitFailedError("degenerate quadratic fit window")
    target = y - 0.5 * last
    coef = ((V / lam) @ V.T) @ (target @ M)
    residual = float(np.sqrt(np.mean((M @ coef - target) ** 2)))
    A = np.zeros((dim, dim))
    for i in range(dim - 1):
        A[i, i] = coef[i]
    k = dim - 1
    for i in range(dim):
        for j in range(i + 1, dim):
            A[i, j] = A[j, i] = coef[k]
            k += 1
    A[dim - 1, dim - 1] = 0.5 - np.trace(A)
    h = float(v.grid.h.max())
    tau = 10.0 * (residual + h**2)
    return analysis._psd_model(A, tau, FitFailedError, project=True), residual


def _ref_fit_halfspace(v):
    dim = v.grid.dim
    X, y, sel = _ref_window_nodes(v)
    vmax = float(np.abs(y).max())
    if vmax == 0.0:
        raise FitFailedError("window field is identically zero")
    grads = gradient_field(v).reshape(-1, dim)[sel]
    tau = 1e-2 * vmax
    active = y > tau
    if not np.any(active):
        raise FitFailedError("no positivity region above threshold")
    gbar = grads[active].mean(axis=0)
    gscale = float(np.abs(grads[active]).mean()) + 1e-300
    if np.linalg.norm(gbar) <= 1e-9 * gscale:
        raise FitFailedError("no direction signal in the average gradient")
    e = gbar / np.linalg.norm(gbar)

    def misfit(ev):
        s = np.maximum(X @ ev, 0.0)
        d = s * s / 2.0 - y
        return s, d, float(d @ d)

    s, d, f = misfit(e)
    for _ in range(200):
        G = (d * s) @ X
        pos = s > 0.0
        H = (X[pos].T * (s[pos] ** 2 + d[pos])) @ X[pos]
        P = np.eye(dim) - np.outer(e, e)
        lam, V = np.linalg.eigh(P @ H @ P - (e @ G) * P + np.outer(e, e))
        g = P @ G
        if lam.min() > 0.0:
            b = g @ V
            if 0.5 * float(b @ (b / lam)) <= 1e-15 * f:
                break
            step = -(V @ (b / lam))
        else:
            curv = np.abs(lam - (e @ V) ** 2).max()
            if not curv > 0.0:
                break
            step = -g / curv
        t = 1.0
        while t >= 1e-16:
            cand = e + t * step
            cand /= np.linalg.norm(cand)
            sc, dc, fc = misfit(cand)
            if fc < f:
                e, s, d, f = cand, sc, dc, fc
                break
            t *= 0.5
        else:
            break
    return analysis.HalfSpaceModel(e=e), float(np.sqrt(f / len(y)))


def _ref_classify_point(u, x0, radii):
    dim = u.grid.dim
    x0 = np.asarray(x0, dtype=float).reshape(dim)
    half = analysis._WINDOW_HALF
    out = box_grid(dim, analysis._WINDOW_CELLS, -half, half)
    pts = out.node_points().reshape(-1, dim)
    table, fits = [], []
    for r in sorted(radii, reverse=True):
        r = float(r)
        try:
            vals = interpolate_many(u, x0 + r * pts) / r**2
        except OutOfDomainError:
            continue
        v = ScalarField(out, vals.reshape(out.node_shape))
        _, ball, _ = _ref_window_nodes(v)
        vrms = float(np.sqrt(np.mean(ball**2)))
        try:
            qmodel, qres = _ref_fit_quadratic(v)
        except FitFailedError:
            qmodel, qres = None, np.inf
        try:
            hmodel, hres = _ref_fit_halfspace(v)
        except FitFailedError:
            hmodel, hres = None, np.inf
        table.append((r, qres, hres))
        fits.append((vrms, qmodel, qres, hmodel, hres))
    if len(fits) < 2 or fits[-1][0] == 0.0:
        return "undetermined", None, table
    vrms, qmodel, qres, hmodel, hres = fits[-1]
    tau_class = 0.1 * vrms
    if qres <= tau_class and qres * 2.0 <= hres and qmodel is not None:
        return "singular", qmodel, table
    if hres <= tau_class and hres * 2.0 <= qres and hmodel is not None:
        return "regular", hmodel, table
    return "undetermined", None, table


def _assert_matches_reference(u, x0, radii):
    pc = classify_point(u, x0, radii, fit_window(u.grid.dim))
    verdict, model, table = _ref_classify_point(u, x0, radii)
    assert [(f.r, f.residual_quadratic, f.residual_halfspace) for f in pc.fits] == table
    assert pc.verdict == verdict
    assert type(pc.model) is type(model)
    if model is not None:
        for key, value in vars(model).items():
            assert np.array_equal(getattr(pc.model, key), value), key
    return pc


# 2D cases: a half-space blow-up with normal e and a quadratic one with
# eigenvalues lam, 1/2 - lam (indefinite for lam < 0), both centred at x0,
# either, both or neither, plus a cubic
_CASES_2D = dict(
    cells=st.sampled_from([16, 32, 64, 128]),
    x0=st.tuples(*[st.floats(-0.5, 0.5)] * 2),
    radii=st.lists(st.floats(0.05, 0.5), min_size=2, max_size=4),
    angle=st.floats(-np.pi, np.pi),
    lam=st.floats(-0.3, 0.5),
    cubic=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
    parts=st.sampled_from([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]),
)


def _field_2d(cells, x0, angle, lam, cubic, parts):
    x0 = np.array(x0)
    e = np.array([np.cos(angle), np.sin(angle)])
    A = lam * np.outer(e, e) + (0.5 - lam) * np.outer([-e[1], e[0]], [-e[1], e[0]])
    c1, c2 = cubic
    half, quadratic = parts

    def field(P):
        Q = P - x0
        return (
            half * np.maximum(Q @ e, 0.0) ** 2 / 2.0
            + quadratic * np.einsum("ki,ij,kj->k", Q, A, Q)
            + Q[:, 0] * Q[:, 1] * (c1 * Q[:, 0] + c2 * Q[:, 1])
        )

    return sample(field, box_grid(2, cells)), x0


_CASES_3D = pytest.mark.parametrize(
    "name,params,cells,x0,radii",
    [
        ("radial3d", {}, 48, [1 / 6, 1 / 3, 1 / 3], [0.25, 0.175, 0.125]),
        ("radial3d", {}, 48, [0.5, 0.0, 0.0], [0.6, 0.25, 0.125]),
        ("poly", {"a11": 0.25, "a22": 0.25}, 32, [0.0, 0.0, 0.3], [0.5, 0.35, 0.25]),
        ("poly", {"a11": 0.1, "a12": 0.05, "a22": 0.2, "a33": 0.2}, 24, [0.1, -0.2, 0.0], [0.7, 0.5]),
    ],
    ids=["radial3d-48", "radial3d-48-edge", "poly3d-kernel", "poly3d-definite"],
)


def _field_3d(name, params, cells):
    grid = box_grid(3, cells)
    return sample(make_scenario(name, params, grid).exact, grid)


@settings(max_examples=150)
@given(**_CASES_2D)
def test_classification_matches_full_box_reference_2d(radii, **case):
    _assert_matches_reference(*_field_2d(**case), radii)


def test_classification_skips_window_box_outside_domain():
    # at r = 0.45, B1 maps into [0.05, 0.95] x [-0.45, 0.45], inside the
    # domain, but the window box reaches x = 1.0625: the radius is skipped
    u = sample(lambda P: np.maximum(P[:, 0] - 0.5, 0.0) ** 2 / 2.0, box_grid(2, 64))
    pc = _assert_matches_reference(u, np.array([0.5, 0.0]), [0.45, 0.3, 0.2])
    assert [f.r for f in pc.fits] == [0.3, 0.2]
    assert pc.verdict == "regular"


@_CASES_3D
def test_classification_matches_full_box_reference_3d(name, params, cells, x0, radii):
    _assert_matches_reference(_field_3d(name, params, cells), np.array(x0), radii)


# Oracles: the fits as they were before the quadratic fit read a Gram
# matrix cached on the window and the half-space fit took Newton steps, an
# lstsq solve per call and at most 200 steps of projected gradient descent.
# The fits must reach their optima: residuals no larger, up to rounding,
# and the same verdicts and kernel dimensions.


def _oracle_fit_quadratic(window, w):
    X, y = window.X, w[window.ball]
    dim = X.shape[1]
    if len(y) < dim * (dim + 1) // 2 + 1:
        raise FitFailedError("too few nodes in the unit ball")

    ndiag = dim - 1  # free diagonal entries
    cols = []
    last = X[:, dim - 1] ** 2
    for i in range(ndiag):
        cols.append(X[:, i] ** 2 - last)
    for i in range(dim):
        for j in range(i + 1, dim):
            cols.append(2.0 * X[:, i] * X[:, j])
    target = y - 0.5 * last

    A = np.full((dim, dim), 0.0)
    if cols:
        M = np.stack(cols, axis=1)
        coef, _, rank, _ = np.linalg.lstsq(M, target, rcond=None)
        if rank < M.shape[1]:
            raise FitFailedError("degenerate quadratic fit window")
        for i in range(ndiag):
            A[i, i] = coef[i]
        k = ndiag
        for i in range(dim):
            for j in range(i + 1, dim):
                A[i, j] = A[j, i] = coef[k]
                k += 1
    A[dim - 1, dim - 1] = 0.5 - np.trace(A)

    model = np.einsum("ki,ij,kj->k", X, A, X)
    residual = float(np.sqrt(np.mean((model - y) ** 2)))

    h = float(window.h.max())
    tau = 10.0 * (residual + h**2)
    return analysis._psd_model(A, tau, FitFailedError, project=True), residual


def _oracle_fit_halfspace(window, w):
    X, y = window.X, w[window.ball]
    vmax = float(np.abs(y).max())
    if vmax == 0.0:
        raise FitFailedError("window field is identically zero")

    grads = (w[window.hi] - w[window.lo]) / (2.0 * window.h)
    tau = 1e-2 * vmax
    active = y > tau
    if not np.any(active):
        raise FitFailedError("no positivity region above threshold")
    gbar = grads[active].mean(axis=0)
    gscale = float(np.abs(grads[active]).mean()) + 1e-300
    if np.linalg.norm(gbar) <= 1e-9 * gscale:
        raise FitFailedError("no direction signal in the average gradient")
    e = gbar / np.linalg.norm(gbar)

    def objective(ev):
        """Mean squared misfit, with s = max(X ev, 0) and the misfit d."""
        s = np.maximum(X @ ev, 0.0)
        d = s**2 / 2.0 - y
        return float(np.mean(d**2)), s, d

    def gradient(s, d):
        return 2.0 * (d * s) @ X / len(y)

    # the gradient changes only with e, so it is taken once per accepted step
    f, s, d = objective(e)
    g = gradient(s, d)
    step = 1.0
    # a candidate whose bits equal a rejected one scores no better than f, so
    # it is rejected unscored; e itself scores f, no improvement either
    rejected = e
    for _ in range(200):
        gt = g - (g @ e) * e
        gnorm = np.linalg.norm(gt)
        if gnorm < 1e-14:
            break
        cand = e - step * gt
        cand /= np.linalg.norm(cand)
        if not np.array_equal(cand, rejected):
            fc, s, d = objective(cand)
            if fc < f:
                e, f, g = cand, fc, gradient(s, d)
                step *= 1.4
                continue
            rejected = cand
        step *= 0.5
        if step < 1e-16:
            break
    residual = float(np.sqrt(f))
    return analysis.HalfSpaceModel(e=e), residual


def _assert_reaches_oracle_optimum(u, x0, radii):
    window = fit_window(u.grid.dim)
    pc = classify_point(u, x0, radii, window)
    with mock.patch.object(analysis, "fit_quadratic", _oracle_fit_quadratic), \
            mock.patch.object(analysis, "fit_halfspace", _oracle_fit_halfspace):
        oracle = classify_point(u, x0, radii, window)
    assert pc.verdict == oracle.verdict
    assert [f.r for f in pc.fits] == [f.r for f in oracle.fits]
    for new, old in zip(pc.fits, oracle.fits):
        for key in ("residual_quadratic", "residual_halfspace"):
            assert getattr(new, key) <= getattr(old, key) * (1.0 + 1e-12) + 1e-15, key
        assert (new.quadratic is None) == (old.quadratic is None)
        if new.quadratic is not None:
            assert new.quadratic.n == old.quadratic.n


@settings(max_examples=150)
@given(**_CASES_2D)
def test_fits_reach_the_oracle_optimum_2d(radii, **case):
    u, x0 = _field_2d(**case)
    _assert_reaches_oracle_optimum(u, x0, radii)


@_CASES_3D
def test_fits_reach_the_oracle_optimum_3d(name, params, cells, x0, radii):
    _assert_reaches_oracle_optimum(_field_3d(name, params, cells), np.array(x0), radii)


def test_fits_call_no_lapack_routine_but_eigh(monkeypatch):
    # each LAPACK routine a process first calls pages in its code and
    # raises the peak RSS; the fits use eigh alone, which _psd_model needs
    def refuse(*args, **kwargs):
        raise AssertionError("a fit called a LAPACK routine other than eigh")

    for name in ("lstsq", "solve", "inv", "pinv", "svd", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, refuse)
    e2 = np.array([0.6, 0.8])
    u2 = sample(lambda P: np.maximum(P @ e2, 0.0) ** 2 / 2.0 + 0.05 * P[:, 0] ** 2, box_grid(2, 64))
    u3 = _field_3d("radial3d", {}, 24)
    for u, x0 in ((u2, np.zeros(2)), (u3, np.array([0.5, 0.0, 0.0]))):
        pc = classify_point(u, x0, [0.4, 0.3], fit_window(u.grid.dim))
        assert len(pc.fits) == 2
        for fit in pc.fits:
            assert fit.quadratic is not None and fit.halfspace is not None


def test_radial3d_halfspace_residual_falls_as_r_shrinks():
    # the trend a verdict over the radii reads: at a refined free-boundary
    # point of the sphere's exact field, the half-space residual falls at
    # every step as r shrinks and stays below the quadratic one
    grid = box_grid(3, 96)
    u = sample(make_scenario("radial3d", {}, grid).exact, grid)
    h = float(grid.h.max())
    x = refine_boundary_point(u, free_boundary(coincidence_mask(u, h * h / 4.0))[0])
    pc = classify_point(u, x, [0.25, 0.175, 0.125], fit_window(3))
    r, quadratic, halfspace = np.array(
        [(f.r, f.residual_quadratic, f.residual_halfspace) for f in pc.fits]
    ).T
    assert r.tolist() == [0.25, 0.175, 0.125]
    assert np.all(np.diff(halfspace) < 0.0)
    assert np.all(halfspace < quadratic)


def test_refine_boundary_point_flat_edge():
    # planar free boundary at x1 = 0.3: a candidate offset into the plateau
    # must snap back to the edge
    g = box_grid(2, 128)
    u = sample(lambda P: np.maximum(P[:, 0] - 0.3, 0.0) ** 2 / 2.0, g)
    x = refine_boundary_point(u, np.array([0.28, 0.1]))
    assert abs(x[0] - 0.3) < 5e-3


def _refine_full(u, x, grad):
    """refine_boundary_point from the gradient of the whole grid."""
    g = u.grid
    x = np.asarray(x, dtype=float).reshape(g.dim).copy()
    h = float(g.h.max())
    gfields = [ScalarField(g, grad[..., k]) for k in range(g.dim)]

    def grad_at(p):
        return np.array([interpolate_many(f, p[None])[0] for f in gfields])

    def val_at(p):
        return max(float(interpolate_many(u, p[None])[0]), 0.0)

    d = grad_at(x)
    if np.linalg.norm(d) < 1e-12:
        best = None
        for ax in range(g.dim):
            for sgn in (1.0, -1.0):
                p = x.copy()
                p[ax] += sgn * 3.0 * h
                if g.contains(p):
                    v = val_at(p)
                    if best is None or v > best[0]:
                        best = (v, p)
        if best is None or best[0] <= 0.0:
            return x
        d = grad_at(best[1])
        if np.linalg.norm(d) < 1e-12:
            return x
    d = d / np.linalg.norm(d)
    for _ in range(3):
        y = x + 3.0 * h * d
        if not g.contains(y):
            break
        gy = grad_at(y)
        nrm = np.linalg.norm(gy)
        v = val_at(y)
        if nrm < 1e-12 or v <= 0.0:
            break
        gy = gy / nrm
        x_new = y - np.sqrt(2.0 * v) * gy
        if not g.contains(x_new):
            break
        x, d = x_new, gy
    return x


@pytest.mark.parametrize(
    "name,dim,cells,extra",
    [
        # the plateau probe, and an edge point one cell from the box face
        ("radial2d", 2, 64, [[0.3, 0.0], [0.5, 1.0 - 2.0 / 64]]),
        ("radial3d", 3, 24, [[0.0, 0.2, 0.0], [0.5, 0.0, -1.0 + 2.0 / 24]]),
    ],
)
def test_refine_boundary_point_matches_full_grid(name, dim, cells, extra):
    g = box_grid(dim, cells)
    u = sample(make_scenario(name, {}, g).exact, g)
    fb = free_boundary(coincidence_mask(u, float(g.h.max()) ** 2 / 4.0))
    points = list(fb[:: max(1, len(fb) // 12)]) + [np.array(x) for x in extra]
    grad = gradient_field(u)
    for x in points:
        assert (refine_boundary_point(u, x) == _refine_full(u, x, grad)).all()
    # the box face point: a probe 3h out along the growth direction leaves the box
    edge = sample(lambda P: np.maximum(P[:, 0] - (1.0 - 4.0 / 64), 0.0) ** 2 / 2.0, box_grid(2, 64))
    for x in ([1.0 - 5.0 / 64, 0.3], [1.0 - 5.0 / 64, 1.0]):
        assert (refine_boundary_point(edge, x) == _refine_full(edge, x, gradient_field(edge))).all()


def ball_integral(grid, values, block, y, r, m):
    """ball_quadrature at the one radius r."""
    return ball_quadrature(grid, block, y, [r], m)(values)[0]


def _integrate_ball_full(g, y, r, m=0.0):
    """ball_integral over every cell center of the grid."""
    grid = g.grid
    y = np.asarray(y, dtype=float).reshape(grid.dim)
    if np.any(y - r < grid.origin - 1e-12) or np.any(y + r > grid.upper + 1e-12):
        raise OutOfDomainError(f"ball B_{r}({y}) not contained in grid box")
    vals = g.values
    for ax in range(grid.dim):
        lo, hi = shifted_slices(grid.dim, ax)
        vals = 0.5 * (vals[lo] + vals[hi])
    vals = vals.reshape(-1)
    dist = np.linalg.norm(grid.cell_centers().reshape(-1, grid.dim) - y, axis=1)
    inside = dist <= r
    vol = grid.cell_volume
    if m == 0.0:
        return float(vals[inside].sum() * vol)
    yidx = np.clip(np.floor((y - grid.origin) / grid.h).astype(int), 0, grid.cells - 1)
    yflat = int(np.ravel_multi_index(tuple(yidx), grid.cell_shape))
    weights = np.zeros_like(dist)
    np.divide(vol, dist**m, out=weights, where=dist > 0)
    omega = unit_ball_volume(grid.dim)
    rho = (vol / omega) ** (1.0 / grid.dim)
    weights[yflat] = grid.dim * omega * rho ** (grid.dim - m) / (grid.dim - m)
    inside[yflat] = True
    return float(np.dot(vals[inside], weights[inside]))


@pytest.mark.parametrize("dim", [2, 3])
def test_integrate_ball_matches_full_grid(dim):
    g = box_grid(dim, 20)
    f = sample(lambda P: np.cos(P[:, 0]) + P[:, -1] ** 2, g)
    cases = [(np.full(dim, 0.13), 0.4), (np.full(dim, 0.5), 0.5), (np.zeros(dim), 1.0),
             (np.full(dim, -0.95), 0.05), (np.full(dim, 0.02), 0.0)]
    for y, r in cases:
        block = ball_block(g, y, r)
        nodes = f.values[tuple(slice(s.start, s.stop + 1) for s in block)]
        for m in (0.0, 1.0):
            assert ball_integral(g, nodes, block, y, r, m) == _integrate_ball_full(f, y, r, m=m)
    with pytest.raises(OutOfDomainError, match="not contained"):
        ball_block(g, np.full(dim, 0.6), 0.5)


def _ball_integral_per_radius(grid, values, block, y, r, m):
    """ball_integral as it was before its geometry was built once per block:
    the block's cell centers, np.linalg.norm distances and the weights,
    rebuilt for this one radius."""
    axes = [grid.axis_cell_centers(ax)[s] for ax, s in enumerate(block)]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid.dim)
    vals = cell_center_values(values)
    dist = np.linalg.norm(centers - y, axis=1)
    inside = dist <= r
    vol = grid.cell_volume
    yidx = np.clip(np.floor((y - grid.origin) / grid.h).astype(int), 0, grid.cells - 1)
    yflat = int(np.ravel_multi_index(tuple(yidx - [s.start for s in block]), vals.shape))
    vals = vals.reshape(-1)
    if m == 0.0:
        return float(vals[inside].sum() * vol)
    weights = np.zeros_like(dist)
    np.divide(vol, dist**m, out=weights, where=dist > 0)
    omega = unit_ball_volume(grid.dim)
    rho = (vol / omega) ** (1.0 / grid.dim)
    weights[yflat] = grid.dim * omega * rho ** (grid.dim - m) / (grid.dim - m)
    inside[yflat] = True
    return float(np.dot(vals[inside], weights[inside]))


def _acf_per_radius(hfield, y, rs):
    """_acf with _ball_integral_per_radius for each radius and phase."""
    grid = hfield.grid
    for r in rs:
        block = ball_block(grid, y, r)
    outer, inner = node_block(grid, block)
    factors = []
    for sign in (1.0, -1.0):
        g = block_gradient(np.maximum(sign * hfield.values[outer], 0.0), grid, inner)
        dens = np.sum(g * g, axis=-1)
        m = max(grid.dim - 2, 0)
        factors.append([_ball_integral_per_radius(grid, dens, block, y, r, m) for r in rs])
    return [p * q / r**4 for r, p, q in zip(rs, *factors)]


@pytest.mark.parametrize(
    "grid",
    [
        GridSpec(2, [-1.0, -0.8], [2.0, 1.7], [24, 20]),
        GridSpec(3, [-1.0, -0.9, -1.1], [2.0, 1.7, 2.3], [16, 14, 18]),
    ],
    ids=["2d", "3d"],
)
def test_ball_quadrature_matches_per_radius_body(grid):
    f = sample(lambda P: np.sin(4.0 * P[:, 0] - P[:, -1]) + 0.2 * P[:, 1], grid)
    y = np.array([0.05, -0.02, 0.1][: grid.dim])
    hmin = float(grid.h.min())
    # a last-bit change in one distance rarely moves one integral, so many balls
    inner = np.random.default_rng(5).uniform(-0.15, 0.15, (12, grid.dim))
    cases = [(x, [0.2, 0.35, 0.5]) for x in inner] + [
        (y, [0.0, 0.2, 0.35, 0.6]),
        # points in the first and the last cell of the box: their cell is a
        # corner of the block
        (grid.origin + 0.4 * grid.h, [0.0, 0.1 * hmin, 0.3 * hmin]),
        (grid.upper - 0.3 * grid.h, [0.0, 0.2 * hmin]),
    ]
    for x, rs in cases:
        for r in rs:
            block = ball_block(grid, x, r)
            nodes = f.values[tuple(slice(s.start, s.stop + 1) for s in block)]
            for m in (0.0, 1.0):
                got = ball_integral(grid, nodes, block, x, r, m)
                assert got == _ball_integral_per_radius(grid, nodes, block, x, r, m)
    # the ACF reads both phases at ascending radii from one block
    rs = [4.0 * float(grid.h.max()), 0.6, 0.75]
    got = np.array(analysis._acf(f, y, rs))
    assert got.tobytes() == np.array(_acf_per_radius(f, y, rs)).tobytes()
    assert np.all(got > 0.0)


def _acf_reference(hfield, y, r):
    """acf with the gradients of both phases taken again for this radius."""
    m = max(hfield.grid.dim - 2, 0)
    factors = []
    for part in (np.maximum(hfield.values, 0.0), np.maximum(-hfield.values, 0.0)):
        gr = gradient_field(ScalarField(hfield.grid, part))
        dens = ScalarField(hfield.grid, np.sum(gr**2, axis=-1))
        factors.append(_integrate_ball_full(dens, y, r, m=m))
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


@pytest.mark.parametrize(
    "dim,y,radii",
    [
        (2, [0.5, 0.0], [0.5, 0.3]),  # the largest ball touches the box
        (3, [0.0, 0.0, -0.4], [0.6, 0.35]),
        (2, [-0.1, 0.25], [0.75, 0.2]),
        (3, [0.3, 0.3, 0.3], [0.7, 0.4, 0.25]),
    ],
)
def test_acf_matches_full_grid(dim, y, radii):
    g = box_grid(dim, 40)
    h = sample(lambda P: np.sin(4.0 * P[:, 0] - P[:, -1]) + 0.2 * P[:, 1], g)
    rep = acf_monotonicity(h, np.array(y), radii)
    assert rep.table == [(r, _acf_reference(h, np.array(y), r)) for r in sorted(radii)]
    assert all(p > 0.0 for _, p in rep.table)


def test_acf_phase_empty_in_block_only():
    # h < 0 on every node the balls read, h > 0 elsewhere on the grid
    g = box_grid(2, 32)
    h = sample(lambda P: P[:, 0] - 0.5, g)
    rep = acf_monotonicity(h, np.array([-0.5, 0.0]), [0.4, 0.25])
    assert rep.table == [(r, _acf_reference(h, np.array([-0.5, 0.0]), r)) for r in (0.25, 0.4)]
    assert [p for _, p in rep.table] == [0.0, 0.0]


def test_acf_check_order():
    g = box_grid(2, 32)
    one_signed = sample(lambda P: np.abs(P[:, 0]) + 0.1, g)
    two_signed = sample(lambda P: P[:, 0], g)
    # a phase empty on the whole grid: 0.0 even for balls that leave the box
    rep = acf_monotonicity(one_signed, np.array([0.9, 0.0]), [0.5, 0.3])
    assert rep.table == [(0.3, 0.0), (0.5, 0.0)]
    # the resolution floor comes first
    with pytest.raises(InconclusiveError, match="below 4h"):
        acf_monotonicity(one_signed, np.array([0.9, 0.0]), [0.5, 0.1])
    # the smallest ball that leaves the box is named
    with pytest.raises(OutOfDomainError, match=r"B_0\.5\("):
        acf_monotonicity(two_signed, np.array([0.6, 0.0]), [0.7, 0.3, 0.5])


def test_acf_resolution_floor():
    g = box_grid(2, 16)
    u = sample(lambda P: P[:, 0], g)
    with pytest.raises(InconclusiveError, match="below 4h"):
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
    # the lattice stored by columns measures the same r, bit for bit
    assert r == 0.20380859375000002


# the measuring lattice keeps only the ball, built slab by slab, and is
# interpolated in blocks: the peak stays near one copy of the whole
# lattice's coordinates, where the lattice built whole and interpolated at
# once took 4.5 of them; r keeps the bits of that build
def test_balanced_rescaling_memory_stays_near_the_lattice():
    xk = np.array([0.05, -0.02, 0.01])
    g = box_grid(3, 48)
    u = sample(lambda P: np.maximum(np.linalg.norm(P - xk, axis=1) - 0.1, 0.0) ** 2 / 2.0, g)
    args = dict(bracket=(0.05, 0.8), eps_u=0.1 * float(g.h.max()) ** 2, cells=16)
    assert find_balanced_rescaling(u, xk, **args) == 0.17176513671875002
    tracemalloc.start()
    try:
        find_balanced_rescaling(u, xk, **args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lattice = (4 * 16) ** 3 * 3 * 8  # bytes of every lattice point's coordinates
    assert peak < 1.5 * lattice


def test_balanced_rescaling_empty_set():
    g = box_grid(2, 64)
    u = sample(lambda P: np.sum(P**2, axis=1) + 1.0, g)
    with pytest.raises(InconclusiveError, match="bracket fails"):
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
    message = "^polynomial dimension must match the box dimension$"
    with pytest.raises(ValueError, match=message):
        reference_ellipsoid(quadratic_model(np.diag([0.2, 0.15, 0.15])), box)


@pytest.mark.parametrize(
    "cells,opts,message",
    [
        (64, SolveOptions(max_iter=1), "auxiliary solve did not converge"),
        (8, None, "coincidence set has empty interior; enlarge the box"),
    ],
    ids=["not-converged", "empty-interior"],
)
def test_reference_ellipsoid_inconclusive(cells, opts, message):
    # one sweep leaves the auxiliary solve short of its certificate; on 8
    # cells the offset obstacle's contact set is thinner than a cell
    with pytest.raises(InconclusiveError, match=f"^{message}$"):
        reference_ellipsoid(quadratic_model(np.diag([0.25, 0.25])), box_grid(2, cells), opts)
