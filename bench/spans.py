"""Spans around calls into obstacle_lab's public functions, from outside.

The tracer replaces module attributes that callers resolve at call time
(``obstacle_lab.cli.solve_psor``, ``obstacle_lab.analysis.gradient_field``,
...) with wrappers that record a span per call.  Nothing inside the package
changes.  A span is ``[name, start, end, parent, note]``: ``parent`` is the
index of the enclosing span (-1 for the root) and ``note`` is a small
per-call fact (sweeps, points, verdict, file path), or "error" when the
call raised.  Spans stay in memory and are written out by the caller when
the run ends.

``summarize`` turns one run's spans into the per-layer metrics.  A layer is
the module that defines the function (``solver``, ``grid``, ``scenarios``,
``analysis``, ``geometry``, ``cli``).
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

ROOT = "cli.main"


def _solve_note(args, result):
    cells = args[0].grid.cells
    interior = 1
    for n in cells:
        interior *= int(n) - 1
    return [int(result.iterations), interior]


def _len(args, result):
    return int(len(result))


# (defining module, function, modules whose attribute is replaced, note)
# The target modules are those whose code calls the function by that name.
TARGETS = (
    ("solver", "solve_psor", ("cli", "analysis"), _solve_note),
    ("solver", "lcp_residual", ("solver",), None),
    ("grid", "write_snapshot", ("cli",), lambda a, r: str(a[1])),
    ("grid", "read_snapshot", ("cli",), lambda a, r: str(a[0])),
    ("grid", "gradient_field", ("cli", "analysis"), None),
    ("grid", "interpolate_many", ("analysis",), _len),
    ("scenarios", "make_scenario", ("cli",), None),
    ("analysis", "classify_point", ("cli",), lambda a, r: r.verdict),
    ("analysis", "refine_boundary_point", ("cli",), None),
    ("analysis", "acf_monotonicity", ("cli",), None),
    ("analysis", "reference_ellipsoid", ("cli",), None),
    ("geometry", "coincidence_mask", ("cli", "geometry"), None),
    ("geometry", "free_boundary", ("cli",), _len),
    ("geometry", "cross_section", ("cli", "geometry"), None),
    ("geometry", "cross_section_convergence", ("cli",), None),
    ("cli", "load_config", ("cli",), None),
    ("cli", "analysis_phase", ("cli",), None),
)


class Tracer:
    """Records spans while installed; ``uninstall`` restores every attribute."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result, ok = None, False
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if not ok:
                    span[4] = "error"
                elif note is not None:
                    span[4] = note(args, result)

        return traced

    def install(self):
        for layer, fn_name, callers, note in TARGETS:
            fn = getattr(importlib.import_module(f"obstacle_lab.{layer}"), fn_name)
            traced = self.wrap(f"{layer}.{fn_name}", fn, note)
            for caller in callers:
                mod = importlib.import_module(f"obstacle_lab.{caller}")
                self._saved.append((mod, fn_name, getattr(mod, fn_name)))
                setattr(mod, fn_name, traced)

    def uninstall(self):
        while self._saved:
            mod, fn_name, original = self._saved.pop()
            setattr(mod, fn_name, original)


def self_times(spans) -> list:
    """Duration of each span minus the part of it its children cover."""
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for k in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[k][1], reach), min(spans[k][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


LAYERS = ("solver", "grid", "scenarios", "analysis", "geometry", "cli")

# metric name -> unit, in the order they are printed
UNITS = {
    "solver.sweeps": "count",
    "solver.sweeps.solve1": "count",
    "solver.sweeps.solve2": "count",
    "solver.solve_psor.s": "s",
    "solver.sweep_ns_per_node": "ns",
    "solver.lcp_residual.calls": "count",
    "solver.lcp_residual.ms": "ms",
    "grid.write_snapshot.s": "s",
    "grid.write_snapshot.MBps": "MB/s",
    "grid.read_snapshot.s": "s",
    "grid.read_snapshot.MBps": "MB/s",
    "grid.gradient_field.calls": "count",
    "grid.gradient_field.s": "s",
    "grid.interpolate_many.calls": "count",
    "grid.interpolate_many.points": "count",
    "grid.interpolate_many.s": "s",
    "scenarios.make_scenario.s": "s",
    "analysis.classify_point.calls": "count",
    "analysis.classify_point.s": "s",
    "analysis.classify_point.errors": "count",
    "analysis.determined_ratio": "ratio",
    "analysis.refine_boundary_point.s": "s",
    "analysis.acf_monotonicity.s": "s",
    "analysis.reference_ellipsoid.s": "s",
    "geometry.coincidence_mask.s": "s",
    "geometry.free_boundary.s": "s",
    "geometry.free_boundary.points": "count",
    "geometry.cross_section.calls": "count",
    "geometry.cross_section.s": "s",
    "geometry.cross_section_convergence.s": "s",
    "cli.load_config.s": "s",
    "cli.analysis_phase.self_s": "s",
    "cli.unattributed_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}

# counts that must repeat exactly between runs of the same inputs
EXACT = (
    "solver.sweeps",
    "solver.lcp_residual.calls",
    "grid.gradient_field.calls",
    "grid.interpolate_many.points",
    "geometry.cross_section.calls",
    "analysis.classify_point.calls",
)


def summarize(spans, file_bytes: dict) -> dict:
    """Per-layer metrics of one traced run.

    ``file_bytes`` maps each snapshot path in a span note to its size.  The
    ``<layer>.self_s`` values plus ``cli.unattributed_s`` (the root span's
    self time) add up to the root span's duration when spans nest properly.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    notes = defaultdict(list)
    for (name, start, end, _, note), s in zip(spans, selfs):
        calls[name] += 1
        total[name] += end - start
        own[name] += s
        if note != "error":
            notes[name].append(note)

    def ratio(a, b):
        return a / b if b else 0.0

    def mb_per_s(name):
        return ratio(sum(file_bytes[p] for p in notes[name]) / 1e6, total[name])

    solves = notes["solver.solve_psor"]
    sweeps = [it for it, _ in solves] + [0, 0]
    node_sweeps = sum(it * nodes for it, nodes in solves)
    verdicts = notes["analysis.classify_point"]
    n_class = calls["analysis.classify_point"]
    root = next(i for i, sp in enumerate(spans) if sp[0] == ROOT)
    m = {
        "solver.sweeps": sum(sweeps),
        "solver.sweeps.solve1": sweeps[0],
        "solver.sweeps.solve2": sweeps[1],
        "solver.solve_psor.s": total["solver.solve_psor"],
        "solver.sweep_ns_per_node": 1e9 * ratio(own["solver.solve_psor"], node_sweeps),
        "solver.lcp_residual.calls": calls["solver.lcp_residual"],
        "solver.lcp_residual.ms": 1e3 * ratio(
            total["solver.lcp_residual"], calls["solver.lcp_residual"]
        ),
        "grid.write_snapshot.s": total["grid.write_snapshot"],
        "grid.write_snapshot.MBps": mb_per_s("grid.write_snapshot"),
        "grid.read_snapshot.s": total["grid.read_snapshot"],
        "grid.read_snapshot.MBps": mb_per_s("grid.read_snapshot"),
        "grid.gradient_field.calls": calls["grid.gradient_field"],
        "grid.gradient_field.s": total["grid.gradient_field"],
        "grid.interpolate_many.calls": calls["grid.interpolate_many"],
        "grid.interpolate_many.points": sum(notes["grid.interpolate_many"]),
        "grid.interpolate_many.s": total["grid.interpolate_many"],
        "scenarios.make_scenario.s": total["scenarios.make_scenario"],
        "analysis.classify_point.calls": n_class,
        "analysis.classify_point.s": total["analysis.classify_point"],
        "analysis.classify_point.errors": n_class - len(verdicts),
        "analysis.determined_ratio": ratio(
            sum(v in ("regular", "singular") for v in verdicts), n_class
        ),
        "analysis.refine_boundary_point.s": total["analysis.refine_boundary_point"],
        "analysis.acf_monotonicity.s": total["analysis.acf_monotonicity"],
        "analysis.reference_ellipsoid.s": total["analysis.reference_ellipsoid"],
        "geometry.coincidence_mask.s": total["geometry.coincidence_mask"],
        "geometry.free_boundary.s": total["geometry.free_boundary"],
        "geometry.free_boundary.points": sum(notes["geometry.free_boundary"]),
        "geometry.cross_section.calls": calls["geometry.cross_section"],
        "geometry.cross_section.s": total["geometry.cross_section"],
        "geometry.cross_section_convergence.s": total[
            "geometry.cross_section_convergence"
        ],
        "cli.load_config.s": total["cli.load_config"],
        "cli.analysis_phase.self_s": own["cli.analysis_phase"],
        "cli.unattributed_s": selfs[root],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            (s for (name, *_), s in zip(spans, selfs)
             if name.split(".")[0] == layer and name != ROOT),
            0.0,
        )
    return m
