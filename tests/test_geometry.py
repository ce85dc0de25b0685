"""Masks, cross sections, direction fields, ellipsoid fits, profiles."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from obstacle_lab.errors import DegenerateDirectionError, InconclusiveError
from obstacle_lab.grid import Mask, box_grid, sample, shifted_slices
from obstacle_lab.scenarios import make_scenario
from obstacle_lab.geometry import (
    CrossSection,
    Ellipsoid,
    _sq_dist_blocks,
    coincidence_mask,
    cross_section,
    cross_section_convergence,
    default_eps_u,
    diameter,
    diameter_asymptotics,
    fit_ellipsoid,
    free_boundary,
    has_interior,
    hausdorff,
    nu_direction,
    osc_nu,
    write_slice_svg,
)


def _disk_mask(cells=64, R=0.5, center=(0.0, 0.0)):
    g = box_grid(2, cells)
    c = g.cell_centers()
    return Mask(g, (c[..., 0] - center[0]) ** 2 + (c[..., 1] - center[1]) ** 2 <= R * R)


def test_ellipsoid_validation():
    with pytest.raises(ValueError):
        Ellipsoid(np.zeros(2), np.array([0.2, 0.5]), np.eye(2))  # unsorted
    with pytest.raises(ValueError):
        Ellipsoid(np.zeros(2), np.array([0.5, 0.2]), np.ones((2, 2)))
    with pytest.raises(ValueError, match="^semi-axes must be positive$"):
        Ellipsoid(np.zeros(2), np.array([0.5, 0.0]), np.eye(2))


def test_ellipsoid_boundary_points_on_surface():
    E = Ellipsoid(np.array([0.1, -0.2]), np.array([0.5, 0.25]), np.eye(2))
    pts = E.boundary_points()
    rel = (pts - E.center) / E.semi_axes
    assert np.allclose(np.linalg.norm(rel, axis=1), 1.0, atol=1e-12)
    assert E.diameter == pytest.approx(1.0)


def test_1d_ellipsoid_boundary_is_its_two_ends():
    E = Ellipsoid(np.array([0.5]), np.array([0.25]), np.array([[1.0]]))
    assert E.boundary_points().tolist() == [[0.25], [0.75]]


def test_coincidence_mask_corner_rule():
    g = box_grid(1, 4)
    u = sample(lambda P: np.maximum(P[:, 0], 0.0), g)
    mask = coincidence_mask(u, 1e-9)
    # only cells with every corner at zero qualify
    assert list(mask.flags) == [True, True, False, False]


def test_default_eps_u_scales():
    g = box_grid(2, 64)
    h = float(g.h.max())
    assert default_eps_u(g, 1e-10) == pytest.approx(h * h / 4.0)
    assert default_eps_u(g, 1e-3) == pytest.approx(1e-2)


def test_free_boundary_near_circle():
    mask = _disk_mask(128)
    fb = free_boundary(mask)
    r = np.linalg.norm(fb, axis=1)
    h = 2.0 / 128
    assert len(fb) > 100
    assert np.abs(r - 0.5).max() <= h


def _free_boundary_full(mask):
    """free_boundary from the face centers of the whole grid."""
    g = mask.grid
    centers = g.cell_centers()
    pts = []
    for ax in range(g.dim):
        lo, hi = shifted_slices(g.dim, ax)
        diff = mask.flags[lo] != mask.flags[hi]
        pts.append((0.5 * (centers[lo] + centers[hi]))[diff])
    return np.concatenate(pts, axis=0)


def _radial3d_mask(cells):
    g = box_grid(3, cells)
    u = sample(make_scenario("radial3d", {}, g).exact, g)
    return coincidence_mask(u, default_eps_u(g, 1e-10))


@pytest.mark.parametrize(
    "mask",
    [
        _disk_mask(64, 0.45, (0.1, -0.2)),
        _radial3d_mask(48),
        Mask(box_grid(3, 8), np.zeros((8, 8, 8), dtype=bool)),
        Mask(box_grid(2, 8), np.ones((8, 8), dtype=bool)),
    ],
    ids=["disk", "radial3d-48", "empty", "full"],
)
def test_free_boundary_matches_full_grid(mask):
    fb, ref = free_boundary(mask), _free_boundary_full(mask)
    assert fb.shape == ref.shape and fb.dtype == ref.dtype
    assert (fb == ref).all()
    flagged = mask.flagged_centers()
    assert flagged.shape == (int(mask.flags.sum()), mask.grid.dim)
    assert (flagged == mask.grid.cell_centers()[mask.flags]).all()


def test_has_interior():
    assert has_interior(_disk_mask())
    g = box_grid(2, 32)
    c = g.cell_centers()
    line = Mask(g, np.abs(c[..., 0]) < 0.04)  # single-cell-wide strip
    assert not has_interior(line)
    for dim in (1, 2, 3):
        g = box_grid(dim, 5)
        assert has_interior(Mask(g, np.ones(g.cell_shape, bool)))
        strip = np.zeros(g.cell_shape, bool)
        strip[0] = True  # one cell wide, along the border
        assert not has_interior(Mask(g, strip))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sq_dist_blocks_matches_broadcast(dim):
    rng = np.random.default_rng(dim)
    a = rng.uniform(-1.0, 1.0, (1100, dim))  # three blocks of rows, the last short
    b = rng.uniform(-1.0, 1.0, (37, dim))
    blocks = np.concatenate(list(_sq_dist_blocks(a, b)))
    assert np.array_equal(blocks, np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1))


def _all_pairs_diameter(mask):
    """diameter's rule over every pair of flagged centres."""
    pts = mask.flagged_centers()
    if len(pts) == 0:
        return 0.0
    d = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    return float(d.max()) + float(np.linalg.norm(mask.grid.h))


@given(
    flags=st.lists(st.integers(4, 9), min_size=1, max_size=3).flatmap(
        lambda shape: arrays(bool, tuple(shape), elements=st.sampled_from([True] * 3 + [False]))
    ),
    box=st.sampled_from([(-1.0, 1.0), (-0.3, 0.7), (0.1, 2.9)]),
)
@example(flags=np.zeros((4, 4), bool), box=(-1.0, 1.0))
@example(flags=np.eye(1, 7, 3, dtype=bool).reshape(7), box=(-1.0, 1.0))
@example(flags=np.ones((5, 6, 7), bool), box=(-0.3, 0.7))
def test_diameter_matches_all_pairs(flags, box):
    # edge cells alone give the all-pairs maximum, bit for bit
    mask = Mask(box_grid(flags.ndim, flags.shape, *box), flags)
    assert diameter(CrossSection(t=0.0, mask=mask)) == _all_pairs_diameter(mask)


def test_cross_section_and_diameter():
    g = box_grid(3, 64)
    c = g.cell_centers()
    mask = Mask(g, (c[..., 0] ** 2 + c[..., 1] ** 2 <= 0.09) & (np.abs(c[..., 2]) < 1.0))
    cs = cross_section(mask, 0.3, np.zeros(3), 0.45)
    d = diameter(cs)
    assert d == pytest.approx(0.6, abs=3 * float(np.linalg.norm(g.h)))
    empty = cross_section(Mask(g, np.zeros(g.cell_shape, bool)), 0.3, np.zeros(3), 0.45)
    assert diameter(empty) == 0.0


def test_cross_section_snaps_to_last_axis_cell_center():
    g = box_grid(3, 16)  # last-axis cell centers -0.9375, -0.8125, ..., 0.9375
    mask = Mask(g, np.ones(g.cell_shape, bool))
    centers = g.axis_cell_centers(2)
    for t in (0.3, -0.99, 1.0, centers[5]):
        cs = cross_section(mask, t, np.zeros(3), 0.45)
        assert cs.t == centers[np.argmin(np.abs(centers - t))]
        assert cs.mask.grid.dim == 2


@pytest.mark.parametrize("t", [1.01, -1.5])
def test_cross_section_outside_box(t):
    g = box_grid(3, 16)
    with pytest.raises(ValueError, match="outside the box"):
        cross_section(Mask(g, np.ones(g.cell_shape, bool)), t, np.zeros(3), 0.45)


def test_nu_direction_halfspace():
    g = box_grid(2, 64)
    c = g.cell_centers()
    mask = Mask(g, c[..., 1] >= 0.0)  # {y2 >= 0}: every (x - y)'' <= 0
    nu = nu_direction(mask, np.zeros(2), 0.3)
    assert nu[0] == -1.0
    assert osc_nu(mask, np.zeros(2), 0.3) <= 1e-12


def test_nu_direction_cylinder_degenerate():
    g = box_grid(2, 64)
    c = g.cell_centers()
    mask = Mask(g, np.abs(c[..., 0]) <= 0.3)  # symmetric along the kernel axis
    with pytest.raises(DegenerateDirectionError):
        nu_direction(mask, np.array([0.3, 0.0]), 0.4)


def test_nu_direction_rotation_equivariance():
    # 90-degree rotation in the prime plane (preserves the splitting)
    g = box_grid(3, 32)
    c = g.cell_centers()
    blob = (
        ((c[..., 0] - 0.3) ** 2 + c[..., 1] ** 2 + (c[..., 2] - 0.2) ** 2) <= 0.04
    )
    mask = Mask(g, blob)
    x = np.array([0.3, 0.0, 0.45])
    nu = nu_direction(mask, x, 0.4)
    rot = Mask(g, np.rot90(blob, k=1, axes=(0, 1)))
    xr = np.array([-x[1], x[0], x[2]])
    nur = nu_direction(rot, xr, 0.4)
    assert np.allclose(nu, nur, atol=1e-12)


def _nu_or_none(mask, x, d):
    try:
        return nu_direction(mask, x, d)
    except DegenerateDirectionError:
        return None


@given(dim=st.sampled_from([2, 3]), data=st.data())
def test_nu_direction_symmetries(dim, data):
    # x on a node and d**2 an odd number of h**2 / 8 keep every cell centre
    # off the sphere, whose squared distances are multiples of h**2 / 4
    g = box_grid(dim, 6)
    h = float(g.h[0])
    flags = data.draw(arrays(bool, (6,) * dim))
    nodes = data.draw(st.lists(st.integers(0, 6), min_size=dim, max_size=dim))
    x = -1.0 + h * np.array(nodes, dtype=float)
    d = h * np.sqrt(data.draw(st.integers(1, 40)) + 0.125)
    nu = _nu_or_none(Mask(g, flags), x, d)
    for ax in range(dim):
        sign = -1.0 if ax == dim - 1 else 1.0  # the last axis is the kernel
        xr = x.copy()
        xr[ax] = -xr[ax]
        nur = _nu_or_none(Mask(g, np.flip(flags, axis=ax)), xr, d)
        assert (nu is None) == (nur is None)
        assert nu is None or np.array_equal(nur, sign * nu)
    if dim == 3:
        perm = [1, 0, 2]
        nup = _nu_or_none(Mask(g, np.transpose(flags, perm)), x[perm], d)
        assert (nu is None) == (nup is None)
        assert nu is None or np.array_equal(nup, nu)


def test_osc_nu_opposed_blobs():
    g = box_grid(2, 64)
    c = g.cell_centers()
    blobs = ((c[..., 0] - 0.0) ** 2 + (c[..., 1] - 0.45) ** 2 <= 0.01) | (
        (c[..., 0] - 0.0) ** 2 + (c[..., 1] + 0.45) ** 2 <= 0.01
    )
    mask = Mask(g, blobs)
    osc = osc_nu(mask, np.zeros(2), 0.6)
    assert osc == pytest.approx(2.0, abs=0.1)


def test_osc_nu_empty_ball():
    g = box_grid(2, 16)
    with pytest.raises(DegenerateDirectionError, match="^no flagged cells in the ball$"):
        osc_nu(Mask(g, np.zeros(g.cell_shape, bool)), np.zeros(2), 0.5)


def test_osc_nu_every_sample_degenerate():
    # one layer of cells at x2 = 0.0625: about every flagged cell the ball
    # holds the same layer, whose (x - y)'' moment is zero
    g = box_grid(2, 16)
    flags = np.zeros(g.cell_shape, bool)
    flags[:, 8] = True
    with pytest.raises(DegenerateDirectionError, match="^all sampled cells degenerate$"):
        osc_nu(Mask(g, flags), np.array([0.0, 0.06]), 0.5)


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.6, 0.2), (0.75, 0.15)])
def test_fit_ellipsoid_recovery(a, b):
    g = box_grid(2, 256)
    c = g.cell_centers()
    th = 0.5  # rotate the ellipse off-axis
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rel = np.stack([c[..., 0] - 0.05, c[..., 1] + 0.1], axis=-1) @ R
    mask = Mask(g, (rel[..., 0] / a) ** 2 + (rel[..., 1] / b) ** 2 <= 1.0)
    E = fit_ellipsoid(mask)
    h = float(g.h.max())
    assert np.allclose(E.center, [0.05, -0.1], atol=h)
    assert np.allclose(sorted(E.semi_axes, reverse=True), [a, b], atol=2 * h)
    if a - b > 0.05:  # circle orientation is arbitrary
        major = E.rotation[:, 0]
        angle = np.arccos(min(1.0, abs(major @ R[:, 0])))
        assert angle < 0.05


def test_fit_ellipsoid_rejects_degenerate():
    g = box_grid(2, 32)
    c = g.cell_centers()
    with pytest.raises(InconclusiveError, match="cannot fit"):
        fit_ellipsoid(Mask(g, np.abs(c[..., 0]) < 0.04))


def test_hausdorff_metric_properties():
    masks = [
        _disk_mask(64, 0.4, (-0.2, 0.1)),
        _disk_mask(64, 0.3, (0.3, -0.1)),
        _disk_mask(64, 0.55),
    ]
    dab = hausdorff(masks[0], masks[1])
    dba = hausdorff(masks[1], masks[0])
    dbc = hausdorff(masks[1], masks[2])
    dac = hausdorff(masks[0], masks[2])
    assert dab == dba
    assert dac <= dab + dbc + 1e-12
    assert hausdorff(masks[0], masks[0]) == 0.0


def test_hausdorff_mask_vs_ellipsoid():
    mask = _disk_mask(128, 0.5)
    circle = Ellipsoid(np.zeros(2), np.array([0.5, 0.5]), np.eye(2))
    assert hausdorff(mask, circle) <= 2.0 * 2.0 / 128


def test_hausdorff_of_an_empty_mask():
    g = box_grid(2, 16)
    circle = Ellipsoid(np.zeros(2), np.array([0.5, 0.5]), np.eye(2))
    with pytest.raises(InconclusiveError, match="^empty boundary point cloud$"):
        hausdorff(Mask(g, np.zeros(g.cell_shape, bool)), circle)


def test_empty_cross_section_has_zero_diameter_and_no_closeness():
    # a tube of radius 0.5 about the x3-axis on the upper half of the box
    g = box_grid(3, 16)
    c = g.cell_centers()
    tube = Mask(g, (c[..., 0] ** 2 + c[..., 1] ** 2 <= 0.25) & (c[..., 2] > 0))
    disk = Ellipsoid(np.zeros(2), np.array([0.5, 0.5]), np.eye(2))
    near, empty = cross_section_convergence(tube, np.zeros(3), 0.5, disk, [-0.9, 0.5])
    assert near.d > 0.0 and near.closeness is not None
    assert empty.t == -0.9375
    assert empty.d == 0.0 and empty.closeness is None


_FULL_3D = Mask(box_grid(3, 8), np.ones((8, 8, 8), bool))


@pytest.mark.parametrize(
    "call,message",
    [
        (
            lambda: coincidence_mask(sample(lambda P: P[:, 0] ** 2, box_grid(1, 8)), 0.0),
            "eps_u must be positive",
        ),
        (lambda: nu_direction(_FULL_3D, np.zeros(3), 0.0), "d must be positive"),
        (lambda: osc_nu(_FULL_3D, np.zeros(3), -0.5), "d must be positive"),
        (
            lambda: cross_section_convergence(
                _FULL_3D, np.zeros(3), 0.5, Ellipsoid(np.zeros(2), np.ones(2), np.eye(2)), [0.5]
            ),
            "reference ellipsoid must have diameter 1",
        ),
        (
            lambda: diameter_asymptotics([(0.1, 0.2), (0.2, -0.1)]),
            "diameters must be nonnegative",
        ),
    ],
    ids=["eps_u", "nu_direction-d", "osc_nu-d", "reference-diameter", "negative-diameter"],
)
def test_geometry_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_diameter_asymptotics_sqrt_profile():
    ts = np.array([0.01, 0.02, 0.04, 0.06, 0.09, 0.12, 0.16])
    prof = [(t, 2.0 * np.sqrt(t)) for t in ts]
    dp = diameter_asymptotics(prof)
    assert dp.exponent == pytest.approx(0.5, abs=0.02)
    assert dp.coefficient == pytest.approx(2.0, abs=0.05)
    assert abs(dp.tip) < 1e-6
    assert dp.branch == "sqrt"


def test_diameter_asymptotics_linear_profile_flagged():
    prof = [(t, t) for t in (0.05, 0.1, 0.2, 0.4, 0.8)]
    dp = diameter_asymptotics(prof)
    assert dp.exponent == pytest.approx(1.0, abs=0.02)
    assert dp.branch == "mismatch"


def test_diameter_asymptotics_flat_profile():
    prof = [(t, 0.03) for t in (0.1, 0.2, 0.3, 0.4, 0.5)]
    dp = diameter_asymptotics(prof)
    assert dp.branch == "flat"


def test_diameter_asymptotics_needs_samples():
    with pytest.raises(InconclusiveError, match="need at least 4 positive samples"):
        diameter_asymptotics([(0.1, 0.2), (0.2, 0.3), (0.3, 0.0)])


def test_write_slice_svg(tmp_path):
    pts = np.array([[0.0, 0.0], [0.5, 0.1], [0.3, 0.6]])
    path = tmp_path / "slice.svg"
    write_slice_svg(path, pts)
    assert path.read_text() == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="400" height="400" '
        'viewBox="0 0 400 400">\n'
        '<circle cx="28.57" cy="371.43" r="1.5" fill="black"/>\n'
        '<circle cx="314.29" cy="314.29" r="1.5" fill="black"/>\n'
        '<circle cx="200.00" cy="28.57" r="1.5" fill="black"/>\n'
        "</svg>\n"
    )
