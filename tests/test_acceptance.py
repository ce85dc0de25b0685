"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single pass/fail line (visible with -s) and asserts the
stated tolerance.  Heavy solves are shared through module-scoped fixtures.
"""

import json
import time

import numpy as np
import pytest

from obstacle_lab.analysis import (
    acf,
    acf_monotonicity,
    classify_point,
    find_balanced_rescaling,
    fit_window,
    quadratic_model,
    reference_ellipsoid,
    refine_boundary_point,
    rescale,
)
from obstacle_lab.cli import PhaseOutcome, _kernel_profile, main as cli_main
from obstacle_lab.errors import DegenerateDirectionError
from obstacle_lab.geometry import (
    Ellipsoid,
    coincidence_mask,
    cross_section_convergence,
    default_eps_u,
    diameter_asymptotics,
    free_boundary,
    hausdorff,
    kernel_profile,
    nu_direction,
    osc_nu,
    profile_asymptotics,
)
from obstacle_lab.grid import (
    Mask,
    ScalarField,
    box_grid,
    gradient_field,
    interpolate_many,
    sample,
    unit_ball_volume,
)
from obstacle_lab.scenarios import make_scenario
from obstacle_lab.solver import SolveOptions, solve_psor


def _verdict(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def _timed_solve(scenario):
    t0 = time.perf_counter()
    result = solve_psor(scenario.problem, SolveOptions())
    seconds = time.perf_counter() - t0
    assert result.converged
    return result, seconds


@pytest.fixture(scope="module")
def radial2d_256():
    grid = box_grid(2, 256)
    s = make_scenario("radial2d", {"R": 0.5}, grid)
    result, seconds = _timed_solve(s)
    return s, result, seconds


@pytest.fixture(scope="module")
def radial3d_96():
    grid = box_grid(3, 96)
    s = make_scenario("radial3d", {"R": 0.5}, grid)
    result, seconds = _timed_solve(s)
    return s, result, seconds


@pytest.fixture(scope="module")
def poly_256():
    grid = box_grid(2, 256)
    s = make_scenario("poly", {"a11": 0.5}, grid)
    result, _ = _timed_solve(s)
    return s, result


@pytest.fixture(scope="module")
def pinch_128():
    grid = box_grid(3, 128)
    s = make_scenario("pinch3d", {"eps": 0.05}, grid)
    result, _ = _timed_solve(s)
    return s, result


def test_c01_flat1d_exact_solution():
    grid = box_grid(1, 512)  # h = 1/256
    s = make_scenario("flat1d", {"beta": 0.125}, grid)
    result, seconds = _timed_solve(s)
    pts = grid.node_points().reshape(-1, 1)
    err = float(np.abs(result.u.values.reshape(-1) - s.exact(pts)).max())
    _verdict(
        "c01 1D contact problem matches the closed form",
        err <= 1e-3 and seconds < 1.0,
        f"max error {err:.2e} (<= 1e-3), runtime {seconds:.2f}s (< 1s)",
    )


def test_c02_radial2d_geometry_and_field(radial2d_256):
    s, result, seconds = radial2d_256
    grid = result.u.grid
    h = float(grid.h.max())
    mask = coincidence_mask(result.u, h * h / 4.0)
    disk = Ellipsoid(np.zeros(2), np.array([0.5, 0.5]), np.eye(2))
    dist = hausdorff(mask, disk)
    pts = grid.node_points().reshape(-1, 2)
    err = float(np.abs(result.u.values.reshape(-1) - s.exact(pts)).max())
    _verdict(
        "c02 2D radial contact set and field",
        dist <= 3 * h and err <= 5e-3 and seconds < 60.0,
        f"Hausdorff {dist:.4f} (<= {3 * h:.4f}), field error {err:.2e} "
        f"(<= 5e-3), runtime {seconds:.1f}s (< 60s)",
    )


def test_c03_radial3d_geometry(radial3d_96):
    _, result, seconds = radial3d_96
    grid = result.u.grid
    h = float(grid.h.max())
    mask = coincidence_mask(result.u, h * h / 4.0)
    ball = Ellipsoid(np.zeros(3), np.array([0.5, 0.5, 0.5]), np.eye(3))
    dist = hausdorff(mask, ball)
    _verdict(
        "c03 3D radial contact set",
        dist <= 3 * h and seconds < 300.0,
        f"Hausdorff {dist:.4f} (<= {3 * h:.4f}), runtime {seconds:.1f}s (< 300s)",
    )


def test_c04_two_phase_functional_closed_forms():
    g2 = box_grid(2, 512)  # h = 1/256
    lin2 = sample(lambda P: P[:, 0], g2)
    phi2 = acf(lin2, np.zeros(2), 1.0)
    ref2 = np.pi**2 / 4.0
    g3 = box_grid(3, 128)  # h = 1/64
    lin3 = sample(lambda P: P[:, 0], g3)
    phi3 = acf(lin3, np.zeros(3), 1.0)
    ref3 = np.pi**2
    one_signed = acf(sample(lambda P: np.abs(P[:, 0]), g2), np.zeros(2), 1.0)
    _verdict(
        "c04 two-phase functional closed forms",
        abs(phi2 - ref2) <= 0.02 * ref2
        and abs(phi3 - ref3) <= 0.05 * ref3
        and one_signed == 0.0,
        f"2D {phi2:.4f} vs {ref2:.4f} ({abs(phi2 / ref2 - 1):.2%} <= 2%), "
        f"3D {phi3:.4f} vs {ref3:.4f} ({abs(phi3 / ref3 - 1):.2%} <= 5%), "
        f"one-signed {one_signed}",
    )


def test_c05_two_phase_almost_monotone(radial2d_256):
    _, result, _ = radial2d_256
    grid = result.u.grid
    h = float(grid.h.max())
    # the tangential derivative changes sign across the x1-axis, so both
    # phases are present near the boundary point (0.5, 0)
    d2 = ScalarField(grid, gradient_field(result.u)[..., 1])
    x = np.array([0.5, 0.0])  # exact boundary point of the contact disk
    radii = [4 * h, 0.0625, 0.125, 0.1875, 0.25]
    rep = acf_monotonicity(d2, x, radii)
    peak = max(p for _, p in rep.table)
    _verdict(
        "c05 almost-monotone radial behavior of the two-phase functional",
        peak > 0.0 and rep.v_star <= 0.05 * peak,
        f"worst violation {rep.v_star:.3e} <= 0.05 * peak {0.05 * peak:.3e}",
    )


def test_c06_two_phase_scaling_identity(radial2d_256):
    _, result, _ = radial2d_256
    grid = result.u.grid
    x = np.array([0.5, 0.0])
    r = 0.2
    # tangential derivative again: both phases live inside every test ball
    d1 = ScalarField(grid, gradient_field(result.u)[..., 1])
    # commensurate output lattice: spacing exactly h / r and node-aligned
    # with the base grid at x, so both sides quantize the integration balls
    # through geometrically similar cell sets
    h = float(grid.h.max())
    cells = 54
    half = cells * h / r / 2.0
    out = box_grid(2, cells, -half, half)
    # the derivative of the rescaled field equals the rescaled derivative
    # (with one power of r), so transport the discrete derivative directly
    # and keep the same differencing error on both sides
    pts = out.node_points().reshape(-1, 2)
    dvals = interpolate_many(d1, x + r * pts) / r
    dv = ScalarField(out, dvals.reshape(out.node_shape))
    oks, details = [], []
    for rho in (0.5, 1.0):
        lhs = acf(dv, np.zeros(2), rho)
        rhs = acf(d1, x, r * rho)
        rel = abs(lhs - rhs) / rhs
        oks.append(rel <= 0.03)
        details.append(f"rho={rho}: rel err {rel:.4f}")
    _verdict(
        "c06 two-phase functional respects parabolic rescaling",
        all(oks),
        "; ".join(details) + " (<= 0.03)",
    )


def test_c07_point_classification(radial2d_256, poly_256):
    _, result, _ = radial2d_256
    grid = result.u.grid
    h = float(grid.h.max())
    radii = [0.25, 0.175, 0.125]
    window = fit_window(2)
    fb = free_boundary(coincidence_mask(result.u, h * h / 4.0))
    angles = np.arctan2(fb[:, 1], fb[:, 0])
    order = np.argsort(angles)
    picks = fb[order[:: max(1, len(order) // 20)]][:20]
    wrong = 0
    worst_e = 0.0
    for p in picks:
        x = refine_boundary_point(result.u, p)
        pc = classify_point(result.u, x, radii, window)
        normal = x / np.linalg.norm(x)
        if pc.verdict != "regular":
            wrong += 1
        else:
            worst_e = max(worst_e, float(np.linalg.norm(pc.model.e - normal)))

    _, presult = poly_256
    A0 = np.diag([0.5, 0.0])
    worst_A = 0.0
    n_ok = True
    for t in np.linspace(-0.6, 0.6, 13):
        pc = classify_point(presult.u, np.array([0.0, t]), radii, window)
        if pc.verdict != "singular":
            wrong += 1
        else:
            worst_A = max(worst_A, float(np.linalg.norm(pc.model.A - A0)))
            n_ok = n_ok and pc.model.n == 1

    _verdict(
        "c07 boundary-point classification",
        wrong == 0 and worst_e <= 0.1 and worst_A <= 0.05 and n_ok,
        f"{len(picks)} smooth + 13 degenerate points, {wrong} misclassified, "
        f"max |e - normal| {worst_e:.4f} (<= 0.1), "
        f"max matrix error {worst_A:.2e} (<= 0.05), kernel dim 1: {n_ok}",
    )


def test_c08_reference_ellipsoid_isotropy_and_stability():
    model = quadratic_model(np.eye(2) / 4.0)
    box1 = box_grid(2, 256)  # h = 1/128
    E1 = reference_ellipsoid(model, box1, SolveOptions())
    box2 = box_grid(2, 512, -2.0, 2.0)  # doubled box, same h
    E2 = reference_ellipsoid(model, box2, SolveOptions())
    h = float(box1.h.max())
    ratio = float(E1.semi_axes[0] / E1.semi_axes[1])
    drift = float(np.abs(E1.semi_axes - E2.semi_axes).max())
    _verdict(
        "c08 reference ellipsoid of an isotropic quadratic",
        ratio <= 1.05 and drift <= 2 * h,
        f"axis ratio {ratio:.4f} (<= 1.05), box-doubling drift {drift:.2e} "
        f"(<= {2 * h:.4f})",
    )


def test_c09_quarter_volume_rescaling():
    rho = 0.1
    xk = np.array([0.05, -0.02])
    g = box_grid(2, 256)
    u = sample(
        lambda P: np.maximum(np.linalg.norm(P - xk, axis=1) - rho, 0.0) ** 2 / 2.0,
        g,
    )
    h = float(g.h.max())
    cells = 32
    # eps_u ~ 0.04 h^2 centers the interpolated zero level set on the true
    # circle: smaller values keep only cells with all corners inside (a
    # deficit of about half a cell), larger ones thicken the set outward
    r = find_balanced_rescaling(
        u, xk, bracket=(0.05, 0.8), eps_u=0.04 * h * h, cells=cells
    )
    # the zero set rescaled by r is the disk of radius rho / r; its measure
    # must match a quarter of the unit-disk measure to within one cell of
    # the measuring lattice
    measure = np.pi * (rho / r) ** 2
    target = 0.25 * unit_ball_volume(2)
    tol = box_grid(2, cells, -1.0, 1.0).cell_volume
    gap = abs(measure - target)
    _verdict(
        "c09 quarter-volume balanced rescaling",
        gap <= tol,
        f"r = {r:.4f} (ideal 0.2), measure gap {gap:.2e} <= cell volume {tol:.2e}",
    )


def test_c10_pinch_slices_approach_the_disk(pinch_128):
    _, result = pinch_128
    grid = result.u.grid
    h = float(grid.h.max())
    disk = Ellipsoid(np.zeros(2), np.array([0.5, 0.5]), np.eye(2))
    reports = cross_section_convergence(
        coincidence_mask(result.u, h * h / 4.0),
        np.zeros(3),
        0.24,
        disk,
        [0.9, 0.7, 0.5, 0.3, 0.15],
    )
    closeness = [rep.closeness for rep in reports]
    ok = all(c is not None for c in closeness)
    seq = [float(c) for c in closeness if c is not None]
    steps_ok = all(b <= 1.1 * a for a, b in zip(seq, seq[1:]))
    final_ok = bool(seq) and seq[-1] <= 0.1
    _verdict(
        "c10 narrowing slices of the pinched tube approach the scaled disk",
        ok and steps_ok and final_ok,
        f"closeness sequence {['%.4f' % c for c in seq]} "
        "(non-increasing up to 10% slack, final <= 0.1)",
    )


def test_c11_square_root_diameter_law(pinch_128):
    ts = np.array([0.01, 0.02, 0.04, 0.06, 0.09, 0.12, 0.16])
    synth = diameter_asymptotics([(t, 2.0 * np.sqrt(t)) for t in ts])

    _, result = pinch_128
    grid = result.u.grid
    mask = coincidence_mask(result.u, float(grid.h.max()) ** 2 / 4.0)
    measured = profile_asymptotics(kernel_profile(mask, np.zeros(3), 0.24), grid)

    _verdict(
        "c11 square-root law of the tube diameter",
        abs(synth.exponent - 0.5) <= 0.02
        and abs(measured.exponent - 0.5) <= 0.15
        and measured.branch == "sqrt",
        f"synthetic exponent {synth.exponent:.4f} (0.5 +- 0.02), "
        f"measured exponent {measured.exponent:.4f} (0.5 +- 0.15), "
        f"branch {measured.branch!r}",
    )


def test_cli_profile_exponent_approaches_one_half(pinch_128):
    # the CLI's profile rule on pinch3d: the exponent's distance from 1/2
    # shrinks from 64 to 128 cells, as it does not when grid-noise
    # diameters of a few cells enter the fit
    coarse, _ = _timed_solve(make_scenario("pinch3d", {"eps": 0.05}, box_grid(3, 64)))
    gaps = []
    for u in (coarse.u, pinch_128[1].u):
        out = PhaseOutcome()
        mask = coincidence_mask(u, default_eps_u(u.grid, SolveOptions().tol))
        _kernel_profile(mask, np.zeros(3), 0.24, out)
        gaps.append(abs(out.summary["profile"]["exponent"] - 0.5))
    _verdict(
        "CLI profile exponent approaches 1/2 as the grid refines",
        gaps[1] < gaps[0],
        f"|exponent - 1/2| {gaps[0]:.4f} at 64 cells, {gaps[1]:.4f} at 128",
    )


def test_c12_direction_field_diagnostics():
    g = box_grid(2, 64)
    c = g.cell_centers()
    half = Mask(g, c[..., 1] >= 0.0)
    nu = nu_direction(half, np.zeros(2), 0.3)
    osc = osc_nu(half, np.zeros(2), 0.3)
    cylinder = Mask(g, np.abs(c[..., 0]) <= 0.3)
    try:
        nu_direction(cylinder, np.array([0.3, 0.0]), 0.4)
        raised = False
    except DegenerateDirectionError:
        raised = True
    g3 = box_grid(3, 32)
    c3 = g3.cell_centers()
    blob = ((c3[..., 0] - 0.3) ** 2 + c3[..., 1] ** 2 + (c3[..., 2] - 0.2) ** 2) <= 0.04
    x = np.array([0.3, 0.0, 0.45])
    nu_a = nu_direction(Mask(g3, blob), x, 0.4)
    rot = Mask(g3, np.rot90(blob, k=1, axes=(0, 1)))
    nu_b = nu_direction(rot, np.array([-x[1], x[0], x[2]]), 0.4)
    _verdict(
        "c12 direction-field diagnostics",
        nu[0] == -1.0
        and osc == 0.0
        and raised
        and np.allclose(nu_a, nu_b, atol=1e-12),
        f"half-space nu'' {nu[0]}, osc {osc}, cylinder rejected {raised}, "
        "rotation equivariance exact",
    )


def test_c13_deterministic_reports(tmp_path):
    body = (
        "[scenario]\nname = radial2d\nR = 0.5\n\n"
        "[grid]\ncells = 96\n\n"
        "[solver]\nrelax = auto\n\n"
        "[analysis]\nradii = 0.25 0.175 0.125\nmax_points = 3\n\n"
        "[output]\ndir = {out}\n"
    )
    outs = []
    for k in (1, 2):
        out = tmp_path / f"run{k}"
        cfg = tmp_path / f"run{k}.ini"
        cfg.write_text(body.format(out=out))
        assert cli_main(["run", str(cfg)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].glob("*.csv"))
    same = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
    )
    _verdict(
        "c13 byte-identical reports across repeated runs",
        len(names) >= 5 and same,
        f"{len(names)} CSV reports compared byte-for-byte",
    )
