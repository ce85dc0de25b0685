"""Grid containers, interpolation, ball integration, and snapshot I/O."""

import numpy as np
import pytest

from obstacle_lab.errors import (
    NonFiniteFieldError,
    OutOfDomainError,
    SnapshotFormatError,
)
from obstacle_lab.grid import (
    GridSpec,
    Mask,
    ScalarField,
    box_grid,
    gradient_field,
    integrate_ball,
    interpolate,
    interpolate_many,
    read_snapshot,
    sample,
    shifted_slices,
    unit_ball_volume,
    write_snapshot,
)


def test_box_grid_basic():
    g = box_grid(2, 8)
    assert g.dim == 2
    assert np.allclose(g.h, 0.25)
    assert g.node_shape == (9, 9)
    assert g.cell_shape == (8, 8)
    assert g.cell_volume == pytest.approx(0.0625)


def test_grid_rejects_too_few_cells():
    with pytest.raises(ValueError):
        GridSpec(dim=1, origin=np.array([0.0]), extent=np.array([1.0]), cells=np.array([3]))


def test_grid_rejects_extreme_aspect():
    with pytest.raises(ValueError):
        GridSpec(
            dim=2,
            origin=np.zeros(2),
            extent=np.array([1.0, 1.0]),
            cells=np.array([8, 64]),
        )


def test_node_points_corners():
    g = box_grid(2, 4, -1.0, 1.0)
    pts = g.node_points()
    assert np.allclose(pts[0, 0], [-1.0, -1.0])
    assert np.allclose(pts[-1, -1], [1.0, 1.0])


def test_cell_centers_offset():
    g = box_grid(1, 4, 0.0, 1.0)
    assert np.allclose(g.axis_cell_centers(0), [0.125, 0.375, 0.625, 0.875])


def test_scalar_field_rejects_nan():
    g = box_grid(1, 4)
    vals = np.zeros(g.node_shape)
    vals[2] = np.nan
    with pytest.raises(NonFiniteFieldError):
        ScalarField(g, vals)


def test_sample_names_bad_node():
    g = box_grid(1, 4)

    def evil(P):
        out = np.ones(len(P))
        out[P[:, 0] > 0.9] = np.inf
        return out

    with pytest.raises(NonFiniteFieldError):
        sample(evil, g)


def test_interpolation_exact_on_linear():
    g = box_grid(2, 16)
    f = sample(lambda P: 2.0 * P[:, 0] - 3.0 * P[:, 1] + 1.0, g)
    pts = np.array([[0.13, -0.41], [0.999, 0.999], [-1.0, -1.0]])
    expect = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 1.0
    assert np.allclose(interpolate_many(f, pts), expect, atol=1e-12)
    assert interpolate(f, [0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)


def test_interpolation_out_of_domain():
    g = box_grid(2, 8)
    f = sample(lambda P: P[:, 0], g)
    with pytest.raises(OutOfDomainError):
        interpolate(f, [1.5, 0.0])


def test_gradient_exact_on_quadratic():
    g = box_grid(2, 16)
    f = sample(lambda P: P[:, 0] ** 2 + 0.5 * P[:, 1] ** 2, g)
    grad = gradient_field(f)
    pts = g.node_points()
    assert np.allclose(grad[..., 0], 2.0 * pts[..., 0], atol=1e-12)
    assert np.allclose(grad[..., 1], pts[..., 1], atol=1e-12)


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(np.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0)


def test_integrate_ball_constant():
    g = box_grid(2, 128)
    one = ScalarField(g, np.ones(g.node_shape))
    got = integrate_ball(one, [0.0, 0.0], 0.5)
    # boundary-cell quantization is O(h) on the disk perimeter
    assert got == pytest.approx(np.pi * 0.25, rel=8e-3)


def test_integrate_ball_weighted_constant():
    # int_{B_r} |x|^(-1) dx = 2 pi r in 2D, with the singular center cell
    # handled analytically
    g = box_grid(2, 128)
    one = ScalarField(g, np.ones(g.node_shape))
    got = integrate_ball(one, [0.0, 0.0], 0.5, m=1.0)
    assert got == pytest.approx(2.0 * np.pi * 0.5, rel=5e-3)


def test_mask_volume():
    g = box_grid(2, 4)
    flags = np.zeros(g.cell_shape, dtype=bool)
    flags[0, 0] = flags[1, 1] = True
    assert Mask(g, flags).volume == pytest.approx(2 * 0.25)


def test_snapshot_roundtrip(tmp_path):
    g = box_grid(2, 8, -0.5, 1.5)
    f = sample(lambda P: np.sin(P[:, 0]) + P[:, 1] ** 2, g)
    path = tmp_path / "field.dat"
    write_snapshot(f, path)
    back = read_snapshot(path)
    assert back.grid.dim == 2
    assert np.array_equal(back.grid.cells, g.cells)
    assert np.allclose(back.grid.origin, g.origin)
    assert np.array_equal(back.values, f.values)


def test_snapshot_truncation_reports_offset(tmp_path):
    g = box_grid(1, 8)
    f = sample(lambda P: P[:, 0] ** 2, g)
    path = tmp_path / "field.dat"
    write_snapshot(f, path)
    data = path.read_bytes()
    (tmp_path / "trunc.dat").write_bytes(data[: len(data) // 2])
    with pytest.raises(SnapshotFormatError) as err:
        read_snapshot(tmp_path / "trunc.dat")
    assert err.value.byte_offset is not None


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_text("not a header\n1 2 3\n")
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def test_shifted_slices():
    a = np.arange(5 * 6 * 7).reshape(5, 6, 7)
    lo, hi = shifted_slices(3, 1)
    assert np.array_equal(a[lo], a[:, :-1, :])
    assert np.array_equal(a[hi], a[:, 1:, :])
    minus, plus = shifted_slices(3, 2, interior=True)
    assert np.array_equal(a[minus], a[1:-1, 1:-1, :-2])
    assert np.array_equal(a[plus], a[1:-1, 1:-1, 2:])
