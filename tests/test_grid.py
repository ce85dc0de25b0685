"""Grid containers, interpolation, ball integration, and snapshot I/O."""

import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    interpolate_gradient,
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


@pytest.mark.parametrize(
    "origin,extent",
    [([np.nan], [2.0]), ([-np.inf], [2.0]), ([0.0, 0.0], [1.0, np.inf]), ([0.0], [np.nan])],
    ids=["nan-origin", "inf-origin", "inf-extent", "nan-extent"],
)
def test_grid_rejects_non_finite_box(origin, extent):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            GridSpec(len(origin), origin, extent, [8] * len(origin))


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


@pytest.mark.parametrize(
    "evaluator",
    [lambda P: P, lambda P: 1.0],
    ids=["per-coordinate", "scalar"],
)
def test_sample_rejects_wrong_shape(evaluator):
    with pytest.raises(ValueError, match="evaluator returned shape"):
        sample(evaluator, box_grid(2, 8))


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


def _full_gradient(f):
    return np.stack(np.gradient(f.values, *f.grid.h, edge_order=2), axis=-1)


@pytest.mark.parametrize("dim", [2, 3])
def test_gradient_blocks_match_full_grid(dim):
    g = box_grid(dim, 10)
    f = sample(lambda P: np.sin(3.0 * P[:, 0]) * np.exp(P[:, -1]) + P[:, 0] ** 3, g)
    full = _full_gradient(f)
    assert (gradient_field(f) == full).all()
    # blocks inside, on a box face and in a corner, and a single cell
    for lo, hi in [(3, 7), (0, 4), (6, 10), (0, 10), (9, 10), (0, 1)]:
        block = (slice(lo, hi),) * dim
        nodes = (slice(lo, hi + 1),) * dim
        assert (gradient_field(f, block) == full[nodes]).all()


def test_interpolate_gradient_matches_full_grid():
    g = box_grid(3, 12)
    f = sample(lambda P: np.cos(2.0 * P[:, 0]) * P[:, 1] + P[:, 2] ** 3, g)
    comps = [ScalarField(g, c) for c in np.moveaxis(_full_gradient(f), -1, 0)]
    pts = [[0.1, -0.3, 0.77], [-1.0, -1.0, -1.0], [1.0, 0.95, -0.99], [0.0, 0.0, 0.0]]
    for x in pts:
        ref = np.array([interpolate_many(c, np.array([x]))[0] for c in comps])
        assert (interpolate_gradient(f, x) == ref).all()
    with pytest.raises(OutOfDomainError):
        interpolate_gradient(f, [1.5, 0.0, 0.0])


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


@st.composite
def _fields(draw):
    """Any finite field on a 1-3D grid of 4-10 cells per axis, with a random
    origin and cell sizes within the aspect bound."""
    dim = draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(4, 10), min_size=dim, max_size=dim))
    origin = draw(st.lists(st.floats(-1e6, 1e6), min_size=dim, max_size=dim))
    h = draw(st.floats(1e-6, 1e6))
    stretch = draw(st.lists(st.floats(1.0, 3.9), min_size=dim, max_size=dim))
    grid = GridSpec(dim, origin, np.multiply(cells, h) * stretch, cells)
    shape = tuple(c + 1 for c in cells)
    values = draw(arrays(float, shape, elements=st.floats(allow_nan=False, allow_infinity=False)))
    return ScalarField(grid, values)


@given(field=_fields())
@example(
    field=ScalarField(
        box_grid(1, 4), [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.0]
    )
)
def test_snapshot_roundtrip_is_exact(tmp_path_factory, field):
    path = tmp_path_factory.mktemp("snap") / "f.dat"
    write_snapshot(field, path)
    body = path.read_text().split("\n", 1)[1]
    assert body == "".join(f"{v:.17g}\n" for v in field.values.reshape(-1))
    back = read_snapshot(path)
    for name in ("origin", "extent", "cells"):
        assert np.array_equal(getattr(back.grid, name), getattr(field.grid, name))
    assert np.array_equal(back.values.view(np.uint64), field.values.view(np.uint64))


def test_snapshot_reads_from_a_pipe(tmp_path):
    f = sample(lambda P: np.sin(P[:, 0]) + P[:, 1] ** 2, box_grid(2, 8))
    write_snapshot(f, tmp_path / "f.dat")
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    data = (tmp_path / "f.dat").read_bytes()
    writer = threading.Thread(target=pipe.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        back = read_snapshot(pipe)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
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


def test_snapshot_rejects_values_beyond_header(tmp_path):
    path = tmp_path / "f.dat"
    write_snapshot(sample(lambda P: P[:, 0], box_grid(2, 16)), path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("2 16 16", "2 8 8", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SnapshotFormatError, match="more than the 81 values") as err:
        read_snapshot(path)
    assert err.value.byte_offset is not None


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_text("not a header\n1 2 3\n")
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


# Each case edits the header line h and the value lines v (newlines kept) of
# a 1D 8-cell snapshot: h is 9 bytes, the nine value lines 178.
@pytest.mark.parametrize(
    "edit,message,offset",
    [
        pytest.param(lambda h, v: b"", "missing header line", 0, id="empty"),
        pytest.param(lambda h, v: h[:-1], "missing header line", 0, id="header-no-newline"),
        pytest.param(
            lambda h, v: b"not a header\n" + b"".join(v),
            "bad header: invalid literal for int() with base 10: 'not'",
            0,
            id="bad-header",
        ),
        pytest.param(
            lambda h, v: b"1 8 nan 2\n" + b"".join(v),
            "bad header: origin and extent must be finite",
            0,
            id="nan-origin",
        ),
        pytest.param(
            lambda h, v: h + b"".join(v[:4]) + v[4][:3],
            "truncated: expected 9 values, got 5",
            88,
            id="cut-mid-value",
        ),
        pytest.param(
            lambda h, v: h + b"".join(v[:4]),
            "truncated: expected 9 values, got 4",
            88,
            id="cut-at-line-end",
        ),
        pytest.param(
            lambda h, v: h + b"".join(v[:3]) + b"\n" + b"".join(v[4:]),
            "truncated: expected 9 values, got 3",
            68,
            id="blank-line",
        ),
        pytest.param(
            lambda h, v: h + b"".join(v[:3]) + b"abc\n" + b"".join(v[4:]),
            "bad value on line 5: b'abc'",
            68,
            id="garbage-value",
        ),
        pytest.param(
            lambda h, v: h + b"".join(v[:3]) + b"0.5 0.5\n" + b"".join(v[4:]),
            "bad value on line 5: b'0.5 0.5'",
            68,
            id="two-values-on-a-line",
        ),
        pytest.param(
            lambda h, v: h + b"".join(v) + v[0],
            "more than the 9 values the header declares",
            187,
            id="one-extra-value",
        ),
        pytest.param(
            lambda h, v: h + b"".join(v) + b"\n \n\n", None, None, id="trailing-blank-lines"
        ),
        pytest.param(
            lambda h, v: h + b"".join(v)[:-1], None, None, id="no-final-newline"
        ),
    ],
)
def test_snapshot_error_contract(tmp_path, edit, message, offset):
    f = sample(lambda P: P[:, 0] ** 2 + 0.1, box_grid(1, 8))
    path = tmp_path / "f.dat"
    write_snapshot(f, path)
    header, *values = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(edit(header, values))
    if message is None:
        assert np.array_equal(read_snapshot(path).values, f.values)
        return
    with pytest.raises(SnapshotFormatError) as err:
        read_snapshot(path)
    assert str(err.value) == message
    assert err.value.byte_offset == offset


def test_shifted_slices():
    a = np.arange(5 * 6 * 7).reshape(5, 6, 7)
    lo, hi = shifted_slices(3, 1)
    assert np.array_equal(a[lo], a[:, :-1, :])
    assert np.array_equal(a[hi], a[:, 1:, :])
    minus, plus = shifted_slices(3, 2, interior=True)
    assert np.array_equal(a[minus], a[1:-1, 1:-1, :-2])
    assert np.array_equal(a[plus], a[1:-1, 1:-1, 2:])
