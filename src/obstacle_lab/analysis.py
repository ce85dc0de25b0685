"""Blow-up analysis at free boundary points.

Rescaling windows, competing quadratic / half-space fits, the
regular-singular classification, the weighted two-phase monotonicity
functional, the quarter-volume rescaling finder, and the reference
ellipsoid of the lower-dimensional problem.

The blow-up fits assume Delta u = 1 on {u > 0}: quadratic models have
tr A = 1/2 and half-space models are max(x . e, 0)^2 / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitFailedError, InconclusiveError, OutOfDomainError
from .grid import (
    GridSpec,
    ScalarField,
    ball_block,
    ball_integral,
    block_gradient,
    boundary_mask,
    box_grid,
    gradient_field,  # bound here for the benchmark tracer (bench/spans.py)
    interpolate_gradient,
    interpolate_many,
    node_block,
    sample,
    unit_ball_volume,
)
from .solver import ObstacleProblem, SolveOptions, solve_psor

# fit window: nodes in the closed unit ball of a box slightly larger than B1
_WINDOW_HALF = 1.25
_WINDOW_CELLS = 32
# verdict: the winner's residual is at most _TAU_CLASS times the window RMS
# and at most 1 / _MARGIN of the loser's
_TAU_CLASS = 0.1
_MARGIN = 2.0


@dataclass
class BlowupPolynomial:
    """Quadratic model x^T A x with its degeneracy data."""

    A: np.ndarray
    n: int
    c_p: float
    kernel_basis: np.ndarray  # (dim, n), orthonormal columns


@dataclass
class HalfSpaceModel:
    """max(x . e, 0)^2 / 2."""

    e: np.ndarray


@dataclass
class PointClassification:
    verdict: str  # "regular" | "singular" | "undetermined"
    model: object | None
    residual_table: list  # (r, quadratic residual, half-space residual)


@dataclass
class AcfReport:
    table: list  # (r, phi)
    v_star: float


@dataclass(frozen=True)
class FitWindow:
    """The nodes of the fit lattice that the blow-up fits read.

    The lattice is the 32-cell grid on [-1.25, 1.25]^dim, with 8,733 ball
    nodes in 3D.  points holds, in C order, its nodes in the closed unit
    ball and their +-1 axis neighbours, then the 2^dim corners of the box,
    so a window whose box leaves the domain is rejected as a whole.  No
    ball node lies on the box boundary, so each has both neighbours on
    every axis.
    """

    points: np.ndarray  # (M, dim) lattice coordinates
    X: np.ndarray  # (N, dim) coordinates of the ball nodes, points[ball]
    ball: np.ndarray  # (N,) rows of points in the closed unit ball
    lo: np.ndarray  # (N, dim) rows of each ball node's -1 neighbour along each axis
    hi: np.ndarray  # (N, dim) rows of its +1 neighbour
    h: np.ndarray  # (dim,) lattice spacing


def fit_window(dim: int) -> FitWindow:
    """The FitWindow of the dim-dimensional fit lattice."""
    grid = box_grid(dim, _WINDOW_CELLS, -_WINDOW_HALF, _WINDOW_HALF)
    nodes = grid.node_points()
    ball = np.linalg.norm(nodes.reshape(-1, dim), axis=1).reshape(grid.node_shape) <= 1.0
    # np.roll wraps around the box, which no ball node touches
    keep = ball.copy()
    for ax in range(dim):
        keep |= np.roll(ball, 1, ax) | np.roll(ball, -1, ax)
    row = np.full(grid.node_shape, -1)
    row[keep] = np.arange(np.count_nonzero(keep))
    corners = nodes[np.ix_(*[[0, -1]] * dim)].reshape(-1, dim)
    return FitWindow(
        points=np.concatenate([nodes[keep], corners]),
        X=nodes[ball],
        ball=row[ball],
        lo=np.stack([np.roll(row, 1, ax)[ball] for ax in range(dim)], axis=-1),
        hi=np.stack([np.roll(row, -1, ax)[ball] for ax in range(dim)], axis=-1),
        h=grid.h,
    )


def rescale(u: ScalarField, x0, r: float, window: FitWindow) -> np.ndarray:
    """Values y -> u(x0 + r y) / r^2 at window.points."""
    if not (r > 0):
        raise ValueError("rescaling radius must be positive")
    x0 = np.asarray(x0, dtype=float).reshape(u.grid.dim)
    try:
        return interpolate_many(u, x0 + r * window.points) / r**2
    except OutOfDomainError as exc:
        raise OutOfDomainError(
            f"rescaling window (x0={x0}, r={r}) exits the domain"
        ) from exc


def _psd_model(A: np.ndarray, tau: float, error, project: bool) -> BlowupPolynomial:
    """Blow-up model of a symmetric matrix whose eigenvalues sit above -tau.

    An eigenvalue below -tau raises error; the rest are clamped at 0, and
    those below tau span the kernel.  With project, A is replaced by its
    PSD projection V diag(clamped) V^T.
    """
    w, V = np.linalg.eigh(A)
    if w.min() < -tau:
        raise error(f"negative eigenvalue {w.min():.3g} below -tau = {-tau:.3g}")
    w = np.where(w < 0.0, 0.0, w)
    if project:
        A = V @ np.diag(w) @ V.T
        A = 0.5 * (A + A.T)
    kernel = w < tau
    n = int(kernel.sum())
    c_p = float(w[~kernel].min()) if n < len(w) else 0.0
    return BlowupPolynomial(A=A, n=n, c_p=c_p, kernel_basis=V[:, kernel])


def quadratic_model(A) -> BlowupPolynomial:
    """Wrap a known symmetric PSD matrix as a quadratic blow-up model;
    eigenvalues below 1e-10 span the kernel."""
    A = np.asarray(A, dtype=float)
    return _psd_model(0.5 * (A + A.T), 1e-10, ValueError, project=False)


def fit_quadratic(window: FitWindow, w: np.ndarray) -> tuple[BlowupPolynomial, float]:
    """Least-squares x^T A x over the ball nodes, constrained to tr A = 1/2.

    w holds the field's values at window.points.  The last diagonal entry
    is eliminated through the trace constraint.  With
    tau = 10 (residual + h^2), eigenvalues below -tau reject the fit; those
    in [-tau, 0) are clamped to zero.
    """
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
    return _psd_model(A, tau, FitFailedError, project=True), residual


def fit_halfspace(window: FitWindow, w: np.ndarray) -> tuple[HalfSpaceModel, float]:
    """Best direction e for max(x.e, 0)^2 / 2 over the ball nodes.

    w holds the field's values at window.points.  At most 200 steps of
    projected gradient descent on the unit sphere with backtracking,
    initialized from the average central-difference gradient over the
    positivity region.  Deterministic.
    """
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
    return HalfSpaceModel(e=e), residual


def refine_boundary_point(u: ScalarField, x) -> np.ndarray:
    """Snap a rough free-boundary candidate onto the zero-set edge.

    A cell-face candidate can sit up to a collar width inside the plateau,
    which biases any fit anchored there.  Probing a few cells out along the
    growth direction gives a reliable positive value whose non-degeneracy
    distance sqrt(2 u) (Delta u = 1 on {u > 0}) locates the true edge far more
    precisely than the mask resolution; three such steps are taken.  Each
    probe reads the gradient on the nodes around its cell only.
    """
    g = u.grid
    x = np.asarray(x, dtype=float).reshape(g.dim).copy()
    h = float(g.h.max())

    def val_at(p):
        return max(float(interpolate_many(u, p[None])[0]), 0.0)

    d = interpolate_gradient(u, x)
    if np.linalg.norm(d) < 1e-12:
        # plateau point: probe axis neighbors for the growth direction
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
        d = interpolate_gradient(u, best[1])
        if np.linalg.norm(d) < 1e-12:
            return x
    d = d / np.linalg.norm(d)

    for _ in range(3):
        y = x + 3.0 * h * d
        if not g.contains(y):
            break
        gy = interpolate_gradient(u, y)
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


def classify_point(u: ScalarField, x0, radii, window: FitWindow) -> PointClassification:
    """Run both fits on a shrinking radii schedule and apply the verdict rule.

    window is fit_window(u.grid.dim), built once by the caller for all the
    points of a grid.  The winner at the smallest usable radius must fall
    below tau_class = _TAU_CLASS * (window RMS) and beat the loser by the
    factor _MARGIN; everything else is undetermined.
    """
    x0 = np.asarray(x0, dtype=float).reshape(u.grid.dim)
    table = []
    fits = []
    for r in sorted(radii, reverse=True):
        try:
            w = rescale(u, x0, float(r), window)
        except OutOfDomainError:
            continue
        vrms = float(np.sqrt(np.mean(w[window.ball] ** 2)))
        try:
            qmodel, qres = fit_quadratic(window, w)
        except FitFailedError:
            qmodel, qres = None, np.inf
        try:
            hmodel, hres = fit_halfspace(window, w)
        except FitFailedError:
            hmodel, hres = None, np.inf
        table.append((float(r), qres, hres))
        fits.append((float(r), vrms, qmodel, qres, hmodel, hres))

    if len(fits) < 2:
        return PointClassification("undetermined", None, table)

    r, vrms, qmodel, qres, hmodel, hres = fits[-1]  # smallest radius
    tau_class = _TAU_CLASS * vrms
    if vrms == 0.0:
        return PointClassification("undetermined", None, table)
    if qres <= tau_class and qres * _MARGIN <= hres and qmodel is not None:
        return PointClassification("singular", qmodel, table)
    if hres <= tau_class and hres * _MARGIN <= qres and hmodel is not None:
        return PointClassification("regular", hmodel, table)
    return PointClassification("undetermined", None, table)


def _acf(hfield: ScalarField, y, rs: list) -> list:
    """acf at each of the ascending radii rs, from the gradients of both
    phases on the node block of the largest ball."""
    grid = hfield.grid
    y = np.asarray(y, dtype=float).reshape(grid.dim)
    hmax = float(grid.h.max())
    if rs and rs[0] < 4.0 * hmax:
        raise InconclusiveError(f"radius {rs[0]} below 4h = {4 * hmax}")
    v = hfield.values
    if not (rs and np.any(v > 0) and np.any(v < 0)):
        return [0.0] * len(rs)  # no radius, or a phase empty on the whole grid
    for r in rs:  # the first ball that leaves the box raises
        block = ball_block(grid, y, r)
    outer, inner = node_block(grid, block)
    m = max(grid.dim - 2, 0)
    factors = []
    for sign in (1.0, -1.0):
        g = block_gradient(np.maximum(sign * v[outer], 0.0), grid, inner)
        g *= g
        dens = np.sum(g, axis=-1)
        factors.append([ball_integral(grid, dens, block, y, r, m) for r in rs])
    return [p * q / r**4 for r, p, q in zip(rs, *factors)]


def acf(hfield: ScalarField, y, r: float) -> float:
    """Weighted two-phase functional
    r^-4 * int_{B_r(y)} |grad h+|^2 w * int_{B_r(y)} |grad h-|^2 w,
    with weight w = |x - y|^(2 - dim).
    """
    return _acf(hfield, y, [r])[0]


def acf_monotonicity(hfield: ScalarField, y, radii) -> AcfReport:
    """Table of (r, phi) plus the worst almost-monotonicity violation
    v* = max_{r1 < r2} phi(r1) - (1 + r2^2) phi(r2).

    The two gradient densities are computed once for all radii.
    """
    rs = sorted(float(r) for r in radii)
    table = list(zip(rs, _acf(hfield, y, rs)))
    v_star = -np.inf
    for i in range(len(table)):
        for j in range(i + 1, len(table)):
            r2, p2 = table[j]
            v = table[i][1] - (1.0 + r2**2) * p2
            v_star = max(v_star, v)
    return AcfReport(table=table, v_star=float(v_star))


def find_balanced_rescaling(
    u: ScalarField,
    xk,
    bracket: tuple = (0.01, 1.0),
    eps_u: float = 1e-10,
    cells: int = 64,
) -> float:
    """Bisect r, at most 200 times, until |{u_{r,xk} = 0} cap B1| matches
    |B1| / 4.

    The measure is sampled on a lattice 4 times finer than the nominal
    (cells per axis) unit-ball grid; the tolerance is one nominal cell
    volume.  Requires the bracket measure(r_lo) >= target >= measure(r_hi).
    """
    dim = u.grid.dim
    xk = np.asarray(xk, dtype=float).reshape(dim)
    nominal = box_grid(dim, cells, -1.0, 1.0)
    tol_vol = nominal.cell_volume
    fine = box_grid(dim, cells * 4, -1.0, 1.0)
    centers = fine.cell_centers().reshape(-1, dim)
    centers = centers[np.linalg.norm(centers, axis=1) <= 1.0]
    subvol = fine.cell_volume

    target = 0.25 * unit_ball_volume(dim)
    r_lo, r_hi = float(bracket[0]), float(bracket[1])

    def measure(r):
        """Measure of {u(xk + r y) / r^2 <= eps_u / r^2} over |y| <= 1."""
        vals = interpolate_many(u, xk + r * centers)
        return float(np.count_nonzero(vals <= eps_u)) * subvol

    m_lo, m_hi = measure(r_lo), measure(r_hi)
    if not (m_lo >= target >= m_hi):
        raise InconclusiveError(
            f"bracket fails: measure({r_lo}) = {m_lo:.4g}, "
            f"measure({r_hi}) = {m_hi:.4g}, target = {target:.4g}"
        )
    best_r, best_gap = r_lo, abs(m_lo - target)
    for _ in range(200):
        mid = 0.5 * (r_lo + r_hi)
        m = measure(mid)
        gap = abs(m - target)
        if gap < best_gap:
            best_r, best_gap = mid, gap
        if gap <= tol_vol:
            return mid
        if m > target:
            r_lo = mid
        else:
            r_hi = mid
    if best_gap <= tol_vol:
        return best_r
    raise InconclusiveError(
        f"bisection stalled: best measure gap {best_gap:.4g} > {tol_vol:.4g}"
    )


def reference_ellipsoid(
    pprime: BlowupPolynomial, box: GridSpec, opts: SolveOptions | None = None
):
    """Diameter-1 ellipsoid from the lower-dimensional auxiliary problem.

    Solves the obstacle problem Delta u = chi{u > 0} with boundary data
    max(x^T A' x - s, 0), where s is 0.3 times the smallest boundary value
    of the quadratic, and fits its coincidence set at default_eps_u.  The
    raw quadratic is itself an exact solution with a measure-zero
    coincidence set, so the offset is what opens the set up; the shape is
    offset-independent up to discretization because the continuum
    ellipsoid family is unique up to scaling and translation.
    """
    from .geometry import coincidence_mask, default_eps_u, fit_ellipsoid, has_interior

    if pprime.A.shape[0] != box.dim:
        raise ValueError("polynomial dimension must match the box dimension")
    if not (pprime.c_p > 0.0 and pprime.n == 0):
        raise ValueError("auxiliary polynomial must be positive definite")
    opts = opts or SolveOptions()

    bnd = boundary_mask(box)
    q = sample(lambda P: np.einsum("ki,ij,kj->k", P, pprime.A, P), box, bnd).values
    g = np.maximum(q - 0.3 * float(q[bnd].min()), 0.0)
    result = solve_psor(ObstacleProblem(grid=box, g=g), opts)
    if not result.converged:
        raise InconclusiveError("auxiliary solve did not converge")
    mask = coincidence_mask(result.u, default_eps_u(box, opts.tol))
    if not has_interior(mask):
        raise InconclusiveError(
            "coincidence set has empty interior; enlarge the box"
        )
    ell = fit_ellipsoid(mask)
    scale = 1.0 / (2.0 * ell.semi_axes.max())
    ell.semi_axes = ell.semi_axes * scale
    return ell
