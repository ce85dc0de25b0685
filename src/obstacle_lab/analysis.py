"""Blow-up analysis at free boundary points.

Rescaling windows, competing quadratic / half-space fits, the
regular-singular classification, the weighted two-phase monotonicity
functional, the quarter-volume rescaling finder, and the reference
ellipsoid of the lower-dimensional problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    FitFailedError,
    InconclusiveError,
    NoBalancedScaleError,
    OutOfDomainError,
    ResolutionError,
)
from .grid import (
    GridSpec,
    Mask,
    ScalarField,
    boundary_mask,
    box_grid,
    gradient_field,
    integrate_ball,
    interpolate_many,
    unit_ball_volume,
)
from .solver import ObstacleProblem, SolveOptions, solve_psor

# fit window: nodes in the closed unit ball of a box slightly larger than B1
_WINDOW_HALF = 1.25
_WINDOW_CELLS = 48


@dataclass
class BlowupPolynomial:
    """Quadratic model x^T A x with its degeneracy data."""

    A: np.ndarray
    n: int
    c_p: float
    kernel_basis: np.ndarray  # (dim, n), orthonormal columns

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        return np.einsum("ki,ij,kj->k", x, self.A, x)


@dataclass
class HalfSpaceModel:
    """coeff * max(x . e, 0)^2 / 2."""

    e: np.ndarray
    coeff: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        return self.coeff * np.maximum(x @ self.e, 0.0) ** 2 / 2.0


@dataclass
class PointClassification:
    verdict: str  # "regular" | "singular" | "undetermined"
    model: object | None
    residual_table: list  # (r, quadratic residual, half-space residual)


@dataclass
class AcfReport:
    table: list  # (r, phi)
    v_star: float


def fit_window_grid(dim: int, cells: int = _WINDOW_CELLS) -> GridSpec:
    return box_grid(dim, cells, -_WINDOW_HALF, _WINDOW_HALF)


def rescale(
    u: ScalarField,
    x0,
    r: float,
    out_grid: GridSpec,
    rotation: np.ndarray | None = None,
) -> ScalarField:
    """Field y -> u(x0 + r R y) / r^2 on the output grid."""
    if not (r > 0):
        raise ValueError("rescaling radius must be positive")
    x0 = np.asarray(x0, dtype=float).reshape(u.grid.dim)
    pts = out_grid.node_points().reshape(-1, out_grid.dim)
    if rotation is not None:
        pts = pts @ np.asarray(rotation, dtype=float).T
    query = x0 + r * pts
    try:
        vals = interpolate_many(u, query) / r**2
    except OutOfDomainError as exc:
        raise OutOfDomainError(
            f"rescaling window (x0={x0}, r={r}) exits the domain"
        ) from exc
    return ScalarField(out_grid, vals.reshape(out_grid.node_shape))


def _window_nodes(v: ScalarField):
    pts = v.grid.node_points().reshape(-1, v.grid.dim)
    sel = np.linalg.norm(pts, axis=1) <= 1.0
    return pts[sel], v.values.reshape(-1)[sel], sel


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


def quadratic_model(A, tau: float = 1e-10) -> BlowupPolynomial:
    """Wrap a known symmetric PSD matrix as a quadratic blow-up model."""
    A = np.asarray(A, dtype=float)
    return _psd_model(0.5 * (A + A.T), tau, ValueError, project=False)


def fit_quadratic(
    v: ScalarField, trace_target: float
) -> tuple[BlowupPolynomial, float]:
    """Least-squares x^T A x over nodes in B1, constrained to tr A = target.

    The last diagonal entry is eliminated through the trace constraint.
    With tau = 10 (residual + h^2), eigenvalues below -tau reject the fit;
    those in [-tau, 0) are clamped to zero.
    """
    dim = v.grid.dim
    X, y, _ = _window_nodes(v)
    if len(y) < dim * (dim + 1) // 2 + 1:
        raise FitFailedError("too few nodes in the unit ball")

    ndiag = dim - 1  # free diagonal entries
    noff = dim * (dim - 1) // 2
    cols = []
    last = X[:, dim - 1] ** 2
    for i in range(ndiag):
        cols.append(X[:, i] ** 2 - last)
    for i in range(dim):
        for j in range(i + 1, dim):
            cols.append(2.0 * X[:, i] * X[:, j])
    target = y - trace_target * last

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
    A[dim - 1, dim - 1] = trace_target - np.trace(A)

    model = np.einsum("ki,ij,kj->k", X, A, X)
    residual = float(np.sqrt(np.mean((model - y) ** 2)))

    h = float(v.grid.h.max())
    tau = 10.0 * (residual + h**2)
    return _psd_model(A, tau, FitFailedError, project=True), residual


def fit_halfspace(
    v: ScalarField,
    coeff: float,
    max_iter: int = 200,
    tau_nu: float = 1e-9,
) -> tuple[HalfSpaceModel, float]:
    """Best direction e for coeff * max(x.e, 0)^2 / 2 over nodes in B1.

    Projected gradient descent on the unit sphere with backtracking,
    initialized from the average gradient over the positivity region.
    Deterministic.
    """
    if not (coeff > 0):
        raise ValueError("coeff must be positive")
    dim = v.grid.dim
    X, y, sel = _window_nodes(v)
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
    if np.linalg.norm(gbar) <= tau_nu * gscale:
        raise FitFailedError("no direction signal in the average gradient")
    e = gbar / np.linalg.norm(gbar)

    def objective(ev):
        model = coeff * np.maximum(X @ ev, 0.0) ** 2 / 2.0
        return float(np.mean((model - y) ** 2))

    def grad_obj(ev):
        s = np.maximum(X @ ev, 0.0)
        model = coeff * s**2 / 2.0
        return (2.0 * coeff) * ((model - y) * s) @ X / len(y)

    f = objective(e)
    step = 1.0
    for _ in range(max_iter):
        g = grad_obj(e)
        gt = g - (g @ e) * e
        gnorm = np.linalg.norm(gt)
        if gnorm < 1e-14:
            break
        cand = e - step * gt
        cand /= np.linalg.norm(cand)
        fc = objective(cand)
        if fc < f:
            e, f = cand, fc
            step *= 1.4
        else:
            step *= 0.5
            if step < 1e-16:
                break
    residual = float(np.sqrt(f))
    return HalfSpaceModel(e=e, coeff=coeff), residual


def refine_boundary_point(
    u: ScalarField, x, c_at_x0: float = 1.0, steps: int = 3
) -> np.ndarray:
    """Snap a rough free-boundary candidate onto the zero-set edge.

    A cell-face candidate can sit up to a collar width inside the plateau,
    which biases any fit anchored there.  Probing a few cells out along the
    growth direction gives a reliable positive value whose non-degeneracy
    distance sqrt(2 u / c) locates the true edge far more precisely than
    the mask resolution.
    """
    g = u.grid
    x = np.asarray(x, dtype=float).reshape(g.dim).copy()
    h = float(g.h.max())
    grad = gradient_field(u)
    gfields = [ScalarField(g, grad[..., k]) for k in range(g.dim)]

    def grad_at(p):
        return np.array([interpolate_many(f, p[None])[0] for f in gfields])

    def val_at(p):
        return max(float(interpolate_many(u, p[None])[0]), 0.0)

    d = grad_at(x)
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
        d = grad_at(best[1])
        if np.linalg.norm(d) < 1e-12:
            return x
    d = d / np.linalg.norm(d)

    for _ in range(steps):
        y = x + 3.0 * h * d
        if not g.contains(y):
            break
        gy = grad_at(y)
        nrm = np.linalg.norm(gy)
        v = val_at(y)
        if nrm < 1e-12 or v <= 0.0:
            break
        gy = gy / nrm
        x_new = y - np.sqrt(2.0 * v / c_at_x0) * gy
        if not g.contains(x_new):
            break
        x, d = x_new, gy
    return x


def classify_point(
    u: ScalarField,
    c_at_x0: float,
    x0,
    radii,
    window_cells: int = _WINDOW_CELLS,
    tau_class_factor: float = 0.1,
    margin: float = 2.0,
) -> PointClassification:
    """Run both fits on a shrinking radii schedule and apply the verdict rule.

    The winner at the smallest usable radius must fall below
    tau_class = tau_class_factor * (window RMS) and beat the loser by the
    margin factor; everything else is undetermined.
    """
    x0 = np.asarray(x0, dtype=float).reshape(u.grid.dim)
    out_grid = fit_window_grid(u.grid.dim, window_cells)
    table = []
    fits = []
    for r in sorted(radii, reverse=True):
        try:
            v = rescale(u, x0, float(r), out_grid)
        except OutOfDomainError:
            continue
        _, vals, _ = _window_nodes(v)
        vrms = float(np.sqrt(np.mean(vals**2)))
        try:
            qmodel, qres = fit_quadratic(v, c_at_x0 / 2.0)
        except FitFailedError:
            qmodel, qres = None, np.inf
        try:
            hmodel, hres = fit_halfspace(v, c_at_x0)
        except FitFailedError:
            hmodel, hres = None, np.inf
        table.append((float(r), qres, hres))
        fits.append((float(r), vrms, qmodel, qres, hmodel, hres))

    if len(fits) < 2:
        return PointClassification("undetermined", None, table)

    r, vrms, qmodel, qres, hmodel, hres = fits[-1]  # smallest radius
    tau_class = tau_class_factor * vrms
    if vrms == 0.0:
        return PointClassification("undetermined", None, table)
    if qres <= tau_class and qres * margin <= hres and qmodel is not None:
        return PointClassification("singular", qmodel, table)
    if hres <= tau_class and hres * margin <= qres and hmodel is not None:
        return PointClassification("regular", hmodel, table)
    return PointClassification("undetermined", None, table)


def acf(hfield: ScalarField, y, r: float) -> float:
    """Weighted two-phase functional
    r^-4 * int_{B_r(y)} |grad h+|^2 w * int_{B_r(y)} |grad h-|^2 w,
    with weight w = |x - y|^(2 - dim).
    """
    grid = hfield.grid
    hmax = float(grid.h.max())
    if r < 4.0 * hmax:
        raise ResolutionError(f"radius {r} below 4h = {4 * hmax}")
    m = grid.dim - 2
    factors = []
    for part in (np.maximum(hfield.values, 0.0), np.maximum(-hfield.values, 0.0)):
        if not np.any(part):
            return 0.0
        g = gradient_field(ScalarField(grid, part))
        dens = ScalarField(grid, np.sum(g**2, axis=-1))
        factors.append(integrate_ball(dens, y, r, m=max(m, 0)))
    return factors[0] * factors[1] / r**4


def acf_monotonicity(hfield: ScalarField, y, radii) -> AcfReport:
    """Table of (r, phi) plus the worst almost-monotonicity violation
    v* = max_{r1 < r2} phi(r1) - (1 + r2^2) phi(r2)."""
    rs = sorted(float(r) for r in radii)
    table = [(r, acf(hfield, y, r)) for r in rs]
    v_star = -np.inf
    for i in range(len(table)):
        for j in range(i + 1, len(table)):
            r2, p2 = table[j]
            v = table[i][1] - (1.0 + r2**2) * p2
            v_star = max(v_star, v)
    return AcfReport(table=table, v_star=float(v_star))


def _rescaled_zero_measure(
    u: ScalarField, xk, r: float, eps_u: float, sub_centers: np.ndarray, subvol: float
) -> float:
    """Measure of {u(xk + r y) / r^2 <= eps_u / r^2} over |y| <= 1.

    Sampled on a refined center lattice so the measure moves in steps well
    below one nominal cell volume as r varies.
    """
    xk = np.asarray(xk, dtype=float)
    vals = interpolate_many(u, xk + r * sub_centers)
    return float(np.count_nonzero(vals <= eps_u)) * subvol


def find_balanced_rescaling(
    u: ScalarField,
    xk,
    fraction: float = 0.25,
    bracket: tuple = (0.01, 1.0),
    eps_u: float = 1e-10,
    cells: int = 64,
    refine: int = 4,
    max_bisect: int = 200,
) -> float:
    """Bisect r until |{u_{r,xk} = 0} cap B1| matches fraction * |B1|.

    Tolerance: one cell volume of the nominal (cells per axis) unit-ball
    grid.  Requires the bracket measure(r_lo) >= target >= measure(r_hi).
    """
    dim = u.grid.dim
    xk = np.asarray(xk, dtype=float).reshape(dim)
    nominal = box_grid(dim, cells, -1.0, 1.0)
    tol_vol = nominal.cell_volume
    fine = box_grid(dim, cells * refine, -1.0, 1.0)
    centers = fine.cell_centers().reshape(-1, dim)
    centers = centers[np.linalg.norm(centers, axis=1) <= 1.0]
    subvol = fine.cell_volume

    target = fraction * unit_ball_volume(dim)
    r_lo, r_hi = float(bracket[0]), float(bracket[1])

    def measure(r):
        return _rescaled_zero_measure(u, xk, r, eps_u, centers, subvol)

    m_lo, m_hi = measure(r_lo), measure(r_hi)
    if not (m_lo >= target >= m_hi):
        raise NoBalancedScaleError(
            f"bracket fails: measure({r_lo}) = {m_lo:.4g}, "
            f"measure({r_hi}) = {m_hi:.4g}, target = {target:.4g}"
        )
    best_r, best_gap = r_lo, abs(m_lo - target)
    for _ in range(max_bisect):
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
    raise NoBalancedScaleError(
        f"bisection stalled: best measure gap {best_gap:.4g} > {tol_vol:.4g}"
    )


def reference_ellipsoid(
    pprime: BlowupPolynomial,
    box: GridSpec,
    opts: SolveOptions | None = None,
    offset_frac: float = 0.3,
    eps_u: float | None = None,
):
    """Diameter-1 ellipsoid from the lower-dimensional auxiliary problem.

    Solves the obstacle problem with unit coefficient and boundary data
    max(x^T A' x - s, 0), where s is a fraction of the smallest boundary
    value of the quadratic.  The raw quadratic is itself an exact solution
    with a measure-zero coincidence set, so the offset is what opens the
    set up; the shape is offset-independent up to discretization because
    the continuum ellipsoid family is unique up to scaling and translation.
    """
    from .geometry import coincidence_mask, default_eps_u, fit_ellipsoid, has_interior

    if pprime.A.shape[0] != box.dim:
        raise ValueError("polynomial dimension must match the box dimension")
    if not (pprime.c_p > 0.0 and pprime.n == 0):
        raise ValueError("auxiliary polynomial must be positive definite")
    opts = opts or SolveOptions()

    pts = box.node_points().reshape(-1, box.dim)
    q = np.einsum("ki,ij,kj->k", pts, pprime.A, pts).reshape(box.node_shape)
    s = offset_frac * float(q[boundary_mask(box)].min())
    g = np.maximum(q - s, 0.0)
    cfield = ScalarField(box, np.ones(box.node_shape))
    problem = ObstacleProblem(grid=box, c=cfield, c0=1.0, g=g)
    result = solve_psor(problem, opts)
    if not result.converged:
        raise InconclusiveError("auxiliary solve did not converge")
    if eps_u is None:
        eps_u = default_eps_u(box, opts.tol)
    mask = coincidence_mask(result.u, eps_u)
    if not has_interior(mask):
        raise InconclusiveError(
            "coincidence set has empty interior; enlarge the box or offset"
        )
    ell = fit_ellipsoid(mask)
    scale = 1.0 / (2.0 * ell.semi_axes.max())
    ell.semi_axes = ell.semi_axes * scale
    return ell
