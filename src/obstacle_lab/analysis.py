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
    ball_quadrature,
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
class RadiusFit:
    """Both blow-up fits at one rescaling radius; a model is None, and its
    residual inf, when its fit failed."""

    r: float
    rms: float  # RMS of the rescaled field over the ball nodes
    quadratic: BlowupPolynomial | None
    residual_quadratic: float
    halfspace: HalfSpaceModel | None
    residual_halfspace: float


@dataclass
class PointClassification:
    verdict: str  # "regular" | "singular" | "undetermined"
    model: object | None
    fits: list  # RadiusFit per usable radius, largest radius first


@dataclass
class AcfReport:
    table: list  # (r, phi)
    v_star: float


@dataclass(frozen=True)
class FitWindow:
    """The nodes of the fit lattice that the blow-up fits read, and the
    quadratic fit's algebra on them.

    The lattice is the 32-cell grid on [-1.25, 1.25]^dim, with 8,733 ball
    nodes in 3D.  points holds, in C order, its nodes in the closed unit
    ball and their +-1 axis neighbours, then the 2^dim corners of the box,
    so a window whose box leaves the domain is rejected as a whole.  No
    ball node lies on the box boundary, so each has both neighbours on
    every axis.  design is the quadratic fit's design matrix M on X (see
    _quadratic_design) and gram_inv the inverse of M^T M, so a quadratic
    fit is two matrix-vector products.  points, lo and hi are stored column
    by column (Fortran order), so the rescaling and the gradients run one
    contiguous loop per axis; X and design keep the row layout that the
    matrix products read.
    """

    points: np.ndarray  # (P, dim) lattice coordinates
    X: np.ndarray  # (N, dim) coordinates of the ball nodes, points[ball]
    ball: np.ndarray  # (N,) rows of points in the closed unit ball
    lo: np.ndarray  # (N, dim) rows of each ball node's -1 neighbour along each axis
    hi: np.ndarray  # (N, dim) rows of its +1 neighbour
    h: np.ndarray  # (dim,) lattice spacing
    design: np.ndarray  # (N, k) M, with k = dim (dim + 1) / 2 - 1
    gram_inv: np.ndarray  # (k, k) inverse of M^T M


def _quadratic_design(X: np.ndarray) -> np.ndarray:
    """Columns of x^T A x - x_dim^2 / 2 over the free entries of A with
    tr A = 1/2: the first dim - 1 diagonal entries (the last one is
    eliminated through the trace), then the upper off-diagonal entries."""
    dim = X.shape[1]
    last = X[:, dim - 1] ** 2
    cols = [X[:, i] ** 2 - last for i in range(dim - 1)]
    for i in range(dim):
        for j in range(i + 1, dim):
            cols.append(2.0 * X[:, i] * X[:, j])
    return np.stack(cols, axis=1) if cols else np.empty((len(X), 0))


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
    X = nodes[ball]
    if len(X) < dim * (dim + 1) // 2 + 1:
        raise FitFailedError("too few nodes in the unit ball")
    M = _quadratic_design(X)
    lam, V = np.linalg.eigh(M.T @ M)
    if len(lam) and lam.min() <= 1e-12 * lam.max():
        raise FitFailedError("degenerate quadratic fit window")
    return FitWindow(
        points=np.asfortranarray(np.concatenate([nodes[keep], corners])),
        X=X,
        ball=row[ball],
        lo=np.stack([np.roll(row, 1, ax)[ball] for ax in range(dim)]).T,
        hi=np.stack([np.roll(row, -1, ax)[ball] for ax in range(dim)]).T,
        h=grid.h,
        design=M,
        gram_inv=(V / lam) @ V.T,
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
    is eliminated through the trace constraint, and the normal equations
    are solved with the window's cached design matrix and inverse Gram
    matrix.  With tau = 10 (residual + h^2), eigenvalues below -tau reject
    the fit; those in [-tau, 0) are clamped to zero.
    """
    X, M = window.X, window.design
    dim = X.shape[1]
    target = w[window.ball] - 0.5 * X[:, dim - 1] ** 2
    coef = window.gram_inv @ (target @ M)
    residual = float(np.sqrt(np.mean((M @ coef - target) ** 2)))

    A = np.zeros((dim, dim))
    A[np.diag_indices(dim - 1)] = coef[: dim - 1]
    iu = np.triu_indices(dim, 1)
    A[iu] = A[iu[::-1]] = coef[dim - 1 :]
    A[dim - 1, dim - 1] = 0.5 - np.trace(A)

    h = float(window.h.max())
    tau = 10.0 * (residual + h**2)
    return _psd_model(A, tau, FitFailedError, project=True), residual


def fit_halfspace(window: FitWindow, w: np.ndarray) -> tuple[HalfSpaceModel, float]:
    """Best direction e for max(x.e, 0)^2 / 2 over the ball nodes.

    w holds the field's values at window.points.  Starts from the average
    central-difference gradient over the positivity region, then takes at
    most 200 Newton steps on the unit sphere for F(e) = sum(d^2) / 2, with
    s = max(X e, 0) and d = s^2 / 2 - y: gradient G = sum(d s x), Hessian
    H = sum over s > 0 of (s^2 + d) x x^T, reduced Hessian
    P H P - (e . G) P + e e^T with P = I - e e^T.  Where the reduced Hessian
    is not positive definite, the step is the tangent gradient scaled by
    the largest tangent curvature.  Each step is halved until F falls.
    Stops when the Newton step predicts a fall of at most 1e-15 sum(d^2),
    or when no step lowers F.  Deterministic.
    """
    X, y = window.X, w[window.ball]
    vmax = float(np.abs(y).max())
    if vmax == 0.0:
        raise FitFailedError("window field is identically zero")

    tau = 1e-2 * vmax
    active = y > tau
    if not np.any(active):
        raise FitFailedError("no positivity region above threshold")
    # the gradients at the active nodes, one row per axis
    hi, lo = (np.compress(active, rows.T, axis=1) for rows in (window.hi, window.lo))
    grads = (w[hi] - w[lo]) / (2.0 * window.h[:, None])
    # cumsum adds the nodes in order, as mean(axis=0) does over (nodes, dim)
    # rows (the mean of a row would add them pairwise); gscale's pairwise
    # mean reads them in that (nodes, dim) order
    gbar = np.cumsum(grads, axis=1)[:, -1] / grads.shape[1]
    gscale = float(np.abs(grads.T, order="C").mean()) + 1e-300
    if np.linalg.norm(gbar) <= 1e-9 * gscale:
        raise FitFailedError("no direction signal in the average gradient")
    e = gbar / np.linalg.norm(gbar)

    def misfit(ev):
        """s = max(X ev, 0), the misfit d and sum(d^2)."""
        s = np.maximum(X @ ev, 0.0)
        d = s * s / 2.0 - y
        return s, d, float(d @ d)

    s, d, f = misfit(e)
    eye = np.eye(X.shape[1])
    for _ in range(200):
        G = (d * s) @ X
        pos = s > 0.0
        Xp = np.compress(pos, X, axis=0)  # X[pos], copying whole rows
        H = (Xp.T * (s[pos] ** 2 + d[pos])) @ Xp
        P = eye - np.outer(e, e)
        lam, V = np.linalg.eigh(P @ H @ P - (e @ G) * P + np.outer(e, e))
        g = P @ G
        if lam.min() > 0.0:
            b = g @ V
            if 0.5 * float(b @ (b / lam)) <= 1e-15 * f:  # predicted fall
                break
            step = -(V @ (b / lam))
        else:
            # curvature without the e e^T term: the tangent eigenvalues, 0 along e
            curv = np.abs(lam - (e @ V) ** 2).max()
            if not curv > 0.0:  # F is flat to second order on the tangent plane
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
            break  # no step lowers F
    residual = float(np.sqrt(f / len(y)))
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
    factor _MARGIN; everything else is undetermined, as is a window RMS of 0
    or not finite, so a failed fit (scored inf) never wins: a winner has a model.
    """
    x0 = np.asarray(x0, dtype=float).reshape(u.grid.dim)
    fits = []
    for r in sorted(radii, reverse=True):
        try:
            w = rescale(u, x0, float(r), window)
        except OutOfDomainError:
            continue
        vrms = float(np.sqrt(np.mean(w[window.ball] ** 2)))
        scored = []  # (model, residual) of each fit; a failed fit scores inf
        for fit in (fit_quadratic, fit_halfspace):
            try:
                scored.extend(fit(window, w))
            except FitFailedError:
                scored.extend((None, np.inf))
        fits.append(RadiusFit(float(r), vrms, *scored))

    if len(fits) < 2 or not 0.0 < fits[-1].rms < np.inf:
        return PointClassification("undetermined", None, fits)
    last = fits[-1]  # smallest radius
    qres, hres = last.residual_quadratic, last.residual_halfspace
    tau_class = _TAU_CLASS * last.rms
    if qres <= tau_class and qres * _MARGIN <= hres:
        return PointClassification("singular", last.quadratic, fits)
    if hres <= tau_class and hres * _MARGIN <= qres:
        return PointClassification("regular", last.halfspace, fits)
    return PointClassification("undetermined", None, fits)


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
    integrate = ball_quadrature(grid, block, y, rs, max(grid.dim - 2, 0))
    factors = []
    for sign in (1.0, -1.0):
        g = block_gradient(np.maximum(sign * v[outer], 0.0), grid, inner)
        g *= g
        factors.append(integrate(np.sum(g, axis=-1)))
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
    axes = [fine.axis_cell_centers(ax) for ax in range(dim)]
    ball = []  # the ball's cell centers, slab by slab along axis 0, in C order
    for x0 in axes[0]:
        slab = np.stack(np.meshgrid([x0], *axes[1:], indexing="ij"), axis=-1).reshape(-1, dim)
        ball.append(slab[np.linalg.norm(slab, axis=1) <= 1.0])
    # by columns: interpolate_many reads one axis of the points at a time
    centers = np.concatenate(ball, out=np.empty((sum(map(len, ball)), dim), order="F"))
    del ball
    subvol = fine.cell_volume

    target = 0.25 * unit_ball_volume(dim)
    r_lo, r_hi = float(bracket[0]), float(bracket[1])

    def measure(r):
        """Measure of {u(xk + r y) / r^2 <= eps_u / r^2} over |y| <= 1, from
        blocks of 2^14 points, so that no temporary grows with cells."""
        blocks = np.array_split(centers, range(1 << 14, len(centers), 1 << 14))
        n = sum(np.count_nonzero(interpolate_many(u, xk + r * y) <= eps_u) for y in blocks)
        return float(n) * subvol

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
