"""Grid containers, interpolation, ball integration, and snapshot I/O."""

import itertools
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
    _multilinear,
    Mask,
    ScalarField,
    ball_block,
    ball_quadrature,
    boundary_mask,
    box_grid,
    gradient_field,
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


@pytest.mark.parametrize("half", [1e110, 1e-110], ids=["inf", "zero"])
def test_grid_rejects_cell_volume_outside_float64(half):
    # h^2 is finite and nonzero, h^3 is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="cell volume"):
            box_grid(3, 8, -half, half)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: GridSpec(0, [], [], []), r"dim must be 1, 2 or 3, got 0"),
        (lambda: GridSpec(4, [0.0] * 4, [1.0] * 4, [8] * 4), r"dim must be 1, 2 or 3, got 4"),
        (
            lambda: ScalarField(box_grid(2, 4), np.zeros((5, 4))),
            r"values shape \(5, 4\) != node shape \(5, 5\)",
        ),
        (
            lambda: Mask(box_grid(2, 4), np.zeros((5, 5), bool)),
            r"flags shape \(5, 5\) != cell shape \(4, 4\)",
        ),
    ],
    ids=["dim-0", "dim-4", "field-shape", "mask-shape"],
)
def test_grid_containers_reject_bad_input(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


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


@pytest.mark.parametrize("cells", [(4,), (5, 7), (4, 6, 5)])
def test_boundary_mask_is_true_exactly_on_the_faces(cells):
    g = GridSpec(len(cells), (0.0,) * len(cells), (1.0,) * len(cells), cells)
    m = boundary_mask(g)
    assert m.shape == tuple(n + 1 for n in cells) and m.dtype == bool
    for idx in itertools.product(*(range(n + 1) for n in cells)):
        assert m[idx] == any(i in (0, n) for i, n in zip(idx, cells)), idx


def test_sample_where_evaluates_only_the_chosen_nodes():
    g = GridSpec(dim=3, origin=(-1.0, 0.0, 0.5), extent=(2.0, 1.5, 1.0), cells=(6, 5, 4))
    data = lambda P: 1.0 + P[:, 0] * P[:, 1] - P[:, 2] ** 2
    where = boundary_mask(g)
    f = sample(data, g, where)
    assert np.array_equal(f.values[where], sample(data, g).values[where])
    assert np.all(f.values[~where] == 0.0)
    # a bad value names the same node and point as a full sample does
    evil = lambda P: np.where(P[:, 1] > 1.4, np.inf, 1.0)
    messages = []
    for mask in (where, None):
        with pytest.raises(NonFiniteFieldError) as exc:
            sample(evil, g, mask)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "at node (0, 5, 0), x=[-1.   1.5  0.5]" in messages[0]


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
    assert interpolate_many(f, [0.5, 0.5])[0] == pytest.approx(0.5, abs=1e-12)


def test_interpolation_out_of_domain():
    g = box_grid(2, 8)
    f = sample(lambda P: P[:, 0], g)
    with pytest.raises(OutOfDomainError):
        interpolate_many(f, [1.5, 0.0])


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


@pytest.mark.parametrize(
    "grid",
    [
        GridSpec(1, [-0.3], [1.7], [9]),
        GridSpec(2, [-1.0, 0.5], [2.0, 1.1], [8, 6]),
        GridSpec(3, [-1.0, 0.2, -0.4], [2.0, 0.9, 1.5], [8, 5, 7]),
    ],
    ids=["1d", "2d", "3d-unequal-h"],
)
def test_interpolate_gradient_matches_full_grid_at_faces(grid):
    """Points in the cells that touch each face and each corner of the box,
    where np.gradient takes its one-sided formula, on the cell faces too."""
    f = sample(lambda P: np.cos(2.0 * P[:, 0]) * np.exp(P[:, -1]) + P[:, 0] ** 3 * P[:, -1], grid)
    grads = np.gradient(f.values, *grid.h, edge_order=2)
    comps = [ScalarField(grid, c) for c in ([grads] if grid.dim == 1 else grads)]
    for cell in itertools.product(*[(0, n // 2, n - 1) for n in grid.cells.tolist()]):
        for frac in (0.0, 0.37, 1.0):
            x = grid.origin + (np.array(cell) + frac) * grid.h
            ref = np.array([interpolate_many(c, x[None])[0] for c in comps])
            assert interpolate_gradient(f, x).tobytes() == ref.tobytes()


def _per_corner_multilinear(values, i0, frac):
    """Multilinear interpolation corner by corner, with one fancy gather of
    values per corner: the loop the flat-index kernel must match bit for bit."""
    out = np.zeros(len(i0))
    for corner in itertools.product((0, 1), repeat=values.ndim):
        w = np.ones(len(i0))
        idx = []
        for ax, c in enumerate(corner):
            w *= frac[:, ax] if c else 1.0 - frac[:, ax]
            idx.append(i0[:, ax] + c)
        out += w * values[tuple(idx)]
    return out


@given(data=st.data())
def test_multilinear_matches_per_corner_loop(data):
    dim = data.draw(st.integers(1, 3), label="dim")
    shape = data.draw(st.lists(st.integers(2, 5), min_size=dim, max_size=dim), label="shape")
    base = data.draw(arrays(np.float64, shape, elements=st.floats(-1e6, 1e6)), label="base")
    layout = data.draw(st.sampled_from(["c", "moveaxis", "transposed"]), label="layout")
    values = {"c": base, "moveaxis": np.moveaxis(base, -1, 0), "transposed": base.T}[layout]
    m = data.draw(st.integers(1, 6), label="points")
    i0 = np.array(
        [[data.draw(st.integers(0, n - 2)) for n in values.shape] for _ in range(m)]
    ).reshape(m, dim)
    frac = data.draw(arrays(np.float64, (m, dim), elements=st.floats(0.0, 1.0)), label="frac")
    assert np.array_equal(
        _multilinear(values, i0.T, frac.T), _per_corner_multilinear(values, i0, frac)
    )


def _row_layout_interpolate(field, pts):
    """interpolate_many with the cell lookup on (M, dim) rows and the
    per-corner loop: the formulas the per-axis lookup must match bit for bit."""
    g = field.grid
    rel = (pts - g.origin) / g.h
    inside = np.all((rel >= -1e-9) & (rel <= g.cells + 1e-9), axis=1)
    if not inside.all():
        raise OutOfDomainError(f"point {pts[np.argmin(inside)]} outside grid box")
    i0 = np.clip(np.floor(rel).astype(int), 0, g.cells - 1)
    return _per_corner_multilinear(field.values, i0, rel - i0)


@given(data=st.data())
def test_interpolate_many_matches_row_layout_formulas(data):
    dim = data.draw(st.integers(1, 3), label="dim")
    axes = st.lists(st.integers(4, 7), min_size=dim, max_size=dim)
    cells = np.array(data.draw(axes, label="cells"))
    # cell sizes up to 3.8 apart, under the aspect bound 4 after rounding
    h = np.array(data.draw(st.lists(st.floats(0.25, 0.95), min_size=dim, max_size=dim), label="h"))
    origin = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim), label="origin")
    grid = GridSpec(dim, origin, h * cells, cells)
    values = data.draw(
        arrays(np.float64, grid.node_shape, elements=st.floats(-1e6, 1e6)), label="values"
    )
    field = ScalarField(grid, values)
    m = data.draw(st.integers(1, 6), label="points")
    # cell coordinates inside, on the faces and corners, and up to 1e-9
    # cells outside the box, or a little further, past the tolerance
    coords = [
        st.one_of(
            st.floats(0.0, float(n)),
            st.sampled_from([0.0, float(n)]),
            st.floats(-1e-9, 0.0),
            st.floats(float(n), n + 1e-9),
            st.floats(-3e-9, 0.0),
            st.floats(float(n), n + 3e-9),
        )
        for n in cells.tolist()
    ]
    t = np.array([[data.draw(c) for c in coords] for _ in range(m)]).reshape(m, dim)
    pts = grid.origin + t * grid.h
    if data.draw(st.booleans(), label="column by column"):
        pts = np.asfortranarray(pts)
    try:
        ref = _row_layout_interpolate(field, pts)
    except OutOfDomainError as exc:
        with pytest.raises(OutOfDomainError) as got:
            interpolate_many(field, pts)
        assert str(got.value) == str(exc)
    else:
        assert interpolate_many(field, pts).tobytes() == ref.tobytes()
    pts = np.array(pts)
    pts[data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, dim - 1))] = np.nan
    with pytest.raises(OutOfDomainError):
        interpolate_many(field, pts)


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(np.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0)


def _ball_integral(field, y, r, m=0.0):
    """ball_quadrature of field at the one radius r, over the node block of
    ball_block(y, r)."""
    y = np.asarray(y, dtype=float)
    block = ball_block(field.grid, y, r)
    nodes = tuple(slice(s.start, s.stop + 1) for s in block)
    return ball_quadrature(field.grid, block, y, [r], m)(field.values[nodes])[0]


def test_integrate_ball_constant():
    g = box_grid(2, 128)
    one = ScalarField(g, np.ones(g.node_shape))
    got = _ball_integral(one, [0.0, 0.0], 0.5)
    # boundary-cell quantization is O(h) on the disk perimeter
    assert got == pytest.approx(np.pi * 0.25, rel=8e-3)


def test_integrate_ball_weighted_constant():
    # int_{B_r} |x|^(-1) dx = 2 pi r in 2D, with the singular center cell
    # handled analytically
    g = box_grid(2, 128)
    one = ScalarField(g, np.ones(g.node_shape))
    got = _ball_integral(one, [0.0, 0.0], 0.5, m=1.0)
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
    header, body = path.read_bytes().split(b"\n", 1)
    assert header.startswith(b"obstacle-lab-snapshot 1 ")
    assert body == field.values.astype("<f8").tobytes()
    assert path.stat().st_size == len(header) + 1 + 8 * field.values.size
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


def test_snapshot_rejects_values_beyond_header(tmp_path):
    # a 16-cell body under an 8-cell header
    path = tmp_path / "f.dat"
    write_snapshot(sample(lambda P: P[:, 0], box_grid(2, 16)), path)
    path.write_bytes(path.read_bytes().replace(b" 2 16 16 ", b" 2 8 8 ", 1))
    with pytest.raises(SnapshotFormatError, match="^body is 2312 bytes, not 8 x 81 values$"):
        read_snapshot(path)


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_text("not a header\n1 2 3\n")
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


_ONE_D = b"obstacle-lab-snapshot 1 1 8 -1 2\n"


# Each case edits the header line h (newline kept) and the 72-byte body b of
# a 1D 8-cell snapshot, whose values are x^2 + 0.1 at its nine nodes.
@pytest.mark.parametrize(
    "edit,message",
    [
        pytest.param(lambda h, b: b"", "missing header line", id="empty"),
        pytest.param(lambda h, b: h[:-1], "missing header line", id="header-no-newline"),
        pytest.param(
            lambda h, b: h.replace(b"obstacle-lab-snapshot 1 ", b"") + b,
            "bad header: no 'obstacle-lab-snapshot 1' format token",
            id="missing-token",
        ),
        pytest.param(
            lambda h, b: h.replace(b" 1 1 ", b" 2 1 ", 1) + b,
            "bad header: no 'obstacle-lab-snapshot 1' format token",
            id="version-2",
        ),
        pytest.param(
            # the format before the binary body: no token, one %.17g value per line
            lambda h, b: b"1 8 -1 2\n" + b"".join(b"%.17g\n" % v for v in np.frombuffer(b)),
            "bad header: no 'obstacle-lab-snapshot 1' format token",
            id="ascii-v0",
        ),
        pytest.param(
            lambda h, b: b"obstacle-lab-snapshot 1 not a header\n" + b,
            "bad header: invalid literal for int() with base 10: 'not'",
            id="bad-header",
        ),
        pytest.param(
            lambda h, b: h.replace(b" 2\n", b"\n") + b,
            "bad header: wrong header token count",
            id="token-missing",
        ),
        pytest.param(
            lambda h, b: h.replace(b" -1 ", b" nan ") + b,
            "bad header: origin and extent must be finite",
            id="nan-origin",
        ),
        pytest.param(
            lambda h, b: b"obstacle-lab-snapshot 1 1 100000000000000000000 -1 2\n" + b,
            "bad header: Python int too large to convert to C long",
            id="cells-past-int64",
        ),
        pytest.param(
            lambda h, b: h + b[:-3], "body is 69 bytes, not 8 x 9 values", id="cut-mid-value"
        ),
        pytest.param(
            lambda h, b: h + b[:-16], "body is 56 bytes, not 8 x 9 values", id="cut-at-value-end"
        ),
        pytest.param(
            lambda h, b: h + b + b[:8], "body is 80 bytes, not 8 x 9 values", id="one-extra-value"
        ),
        pytest.param(
            lambda h, b: h + b + b"\n \n\n",
            "body is 76 bytes, not 8 x 9 values",
            id="trailing-blank-lines",
        ),
        pytest.param(
            # about 10^15 values (an 8 PiB array) declared over a one-value body
            lambda h, b: b"obstacle-lab-snapshot 1 3 99999 99999 99999 -1 -1 -1 2 2 2\n" + b[:8],
            "body is 8 bytes, not 8 x 1000000000000000 values",
            id="over-long-header",
        ),
    ],
)
def test_snapshot_error_contract(tmp_path, monkeypatch, edit, message):
    f = sample(lambda P: P[:, 0] ** 2 + 0.1, box_grid(1, 8))
    path = tmp_path / "f.dat"
    write_snapshot(f, path)
    header, body = path.read_bytes().split(b"\n", 1)
    assert header + b"\n" == _ONE_D and len(body) == 72
    path.write_bytes(edit(header + b"\n", body))

    def no_allocation(*args, **kwargs):
        raise AssertionError("values allocated before the file was rejected")

    monkeypatch.setattr(np, "empty", no_allocation)
    with pytest.raises(SnapshotFormatError) as err:
        read_snapshot(path)
    assert str(err.value) == message


def test_snapshot_nan_value_is_non_finite(tmp_path):
    # a well-formed file can still hold a NaN, which the field rejects
    f = sample(lambda P: P[:, 0] ** 2 + 0.1, box_grid(1, 8))
    path = tmp_path / "f.dat"
    write_snapshot(f, path)
    data = bytearray(path.read_bytes())
    data[len(_ONE_D) + 8 * 4 : len(_ONE_D) + 8 * 5] = np.array([np.nan], "<f8").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(NonFiniteFieldError):
        read_snapshot(path)


def test_shifted_slices():
    a = np.arange(5 * 6 * 7).reshape(5, 6, 7)
    lo, hi = shifted_slices(3, 1)
    assert np.array_equal(a[lo], a[:, :-1, :])
    assert np.array_equal(a[hi], a[:, 1:, :])
    minus, plus = shifted_slices(3, 2, interior=True)
    assert np.array_equal(a[minus], a[1:-1, 1:-1, :-2])
    assert np.array_equal(a[plus], a[1:-1, 1:-1, 2:])
