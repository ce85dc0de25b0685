"""Benchmark obstacle-lab's CLI end to end, and layer by layer when traced.

    python3 bench/run_bench.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Inputs are drawn from the seed and written under
``.bench_work/`` at the repository root, which is removed at the end.

Each repetition is one fresh child process (``child.py``) that imports the
package and calls ``obstacle_lab.cli.main`` once; repetitions run one at a
time, a closed loop with one client, until ``--seconds`` have passed (at
least 3, or 2 pairs when traced).  Every invocation is checked outside the
timed region: the exit code, the output files, and the workload's own
checks on the first invocation, whose output files (all but the timings in
``report.json``) every later invocation must reproduce byte for byte.

``--trace 0`` reports the end-to-end metrics, medians over repetitions:
``run_s`` (the ``cli.main`` call), ``setup_s`` (spawn until the package is
imported, with extra import-only children so there are at least
SETUP_SAMPLES samples) and ``peak_rss_mb``.  ``--trace 1`` alternates
untraced and traced invocations and reports the per-layer metrics of
``spans.py``: medians over the traced ones, which must write the same bytes
as the untraced ones, repeat the exact counters, and have self times that
add up to their ``run_s``.  ``trace.overhead_s`` is the traced minus the
untraced median ``run_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give provenance, every repetition and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import EXACT, LAYERS, UNITS, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # a run must end within 180 s
CLOSURE_TOL = 1e-3  # relative gap allowed between summed self times and run_s
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Children:
    """Spawns child.py one at a time, each in its own directory."""

    def __init__(self, work: Path, t_begin: float):
        self.work = work
        self.t_begin = t_begin
        self.count = 0
        pythonpath = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.t_begin)

    def spawn(self, trace: bool, cli_args: list) -> tuple[Path, dict | None, str]:
        """Run one child; return its directory, its record and an error."""
        self.count += 1
        where = self.work / f"child{self.count}"
        where.mkdir()
        result = where / "result.json"
        cmd = [sys.executable, str(BENCH / "child.py"), str(result), str(SRC), "1" if trace else "0"]
        with open(where / "stdout", "w") as out, open(where / "stderr", "w") as err:
            t_spawn = time.perf_counter()
            try:
                proc = subprocess.run(
                    cmd + cli_args, cwd=where, env=self.env, stdout=out, stderr=err,
                    timeout=max(self.remaining(), 1.0),
                )
            except subprocess.TimeoutExpired:
                return where, None, "timed out"
        if proc.returncode != 0 or not result.exists():
            tail = (where / "stderr").read_text().strip().splitlines()[-3:]
            return where, None, f"child exited {proc.returncode}: {' | '.join(tail)}"
        record = json.loads(result.read_text())
        record["setup_s"] = record["t_ready"] - t_spawn
        return where, record, ""


def output_bytes(out: Path) -> dict:
    """Every output file but report.json, which holds timings."""
    if not out.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "report.json"}


class Judge:
    """Checks invocations: the first untraced one in full, the rest by bytes."""

    def __init__(self, w, params):
        self.w, self.params = w, params
        self.reference = None  # (invocation number, output bytes)

    def problems(self, number: int, traced: bool, record: dict, where: Path) -> list:
        from obstacle_lab.errors import ObstacleLabError
        from workloads import OUT, check

        out = where / OUT
        if record["rc"] != 0:
            return [f"exit code {record['rc']}, expected 0"]
        if self.reference is None:
            if traced:
                return ["no checked untraced output to compare with"]
            try:
                found = check(self.w, self.params, out)
            except (OSError, ValueError, KeyError, IndexError, ObstacleLabError) as exc:
                found = [f"check failed: {exc!r}"]
            if not found:
                self.reference = (number, output_bytes(out))
            return found
        ref_number, ref_bytes = self.reference
        got = output_bytes(out)
        differ = sorted(k for k in ref_bytes.keys() | got.keys() if ref_bytes.get(k) != got.get(k))
        if differ:
            return [f"outputs differ from invocation {ref_number}: {', '.join(differ)}"]
        return []


def measure(children: Children, judge: Judge, cli_args: list, seconds: float, trace: bool):
    """Invoke the CLI until ``seconds`` have passed; return invocations and notes.

    Each invocation is a dict with ``traced``, ``record`` (None when the
    child gave none), ``problems`` and, for a traced one with a record,
    ``layers``: its per-layer metrics.
    """
    pattern = (False, True) if trace else (False,)
    min_reps = 4 if trace else 3
    reps, notes = [], []
    t_measure = time.perf_counter()
    while True:
        n = len(reps)
        elapsed = time.perf_counter() - t_measure
        per_rep = elapsed / n if n else 0.0
        if n % len(pattern) == 0 and n >= min_reps and elapsed + per_rep * len(pattern) > seconds:
            break
        if n and per_rep > children.remaining():
            notes.append(f"stopped after {n} invocations to end in time")
            break
        traced = pattern[n % len(pattern)]
        where, record, error = children.spawn(traced, cli_args)
        rep = {"traced": traced, "record": record, "problems": [error] if error else []}
        reps.append(rep)
        if record is not None:
            rep["problems"] += judge.problems(n + 1, traced, record, where)
        if traced and record is not None:
            m = rep["layers"] = summarize(record["spans"], record["file_bytes"])
            closed = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["cli.unattributed_s"]
            if abs(closed - record["run_s"]) > CLOSURE_TOL * record["run_s"]:
                rep["problems"].append(
                    f"self times add up to {closed:.6f} s, run_s is {record['run_s']:.6f} s"
                )
        shutil.rmtree(where)
    return reps, notes


def layer_metrics(reps: list, untraced_run_s: list) -> tuple[dict, list]:
    """Medians of the traced invocations' layer metrics, and any problems."""
    layered = [r["layers"] for r in reps if "layers" in r]
    metrics = {
        k: (statistics.median_low if unit == "count" else statistics.median)([m[k] for m in layered])
        for k, unit in UNITS.items()
        if not k.startswith("trace.")
    }
    traced_run_s = statistics.median(r["record"]["run_s"] for r in reps if "layers" in r)
    metrics["trace.run_s"] = traced_run_s
    metrics["trace.overhead_s"] = traced_run_s - statistics.median(untraced_run_s)
    problems = []
    for k in EXACT:
        seen = sorted({m[k] for m in layered})
        if len(seen) > 1:
            problems.append(f"{k} differs between traced invocations: {seen}")
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_begin = time.perf_counter()

    if not (SRC / "obstacle_lab" / "cli.py").is_file():
        print(f"no obstacle_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    params = w.params(args.seed)
    work = ROOT / ".bench_work" / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "input").mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        cli_args = w.write_inputs(work / "input", params)
        input_s = time.perf_counter() - t0
        children = Children(work, t_begin)
        where, warm, error = children.spawn(False, [])  # compiles bytecode, fills caches
        if warm is None:
            print(f"cannot start the package: {error}", file=sys.stderr)
            return 3
        shutil.rmtree(where)

        judge = Judge(w, params)
        reps, notes = measure(children, judge, cli_args, args.seconds, bool(args.trace))
        timed = [r["record"] for r in reps if r["record"] is not None]
        untraced = [r["record"]["run_s"] for r in reps if r["record"] and not r["traced"]]
        if not untraced:
            print("no invocation completed: " + "; ".join(reps[0]["problems"]), file=sys.stderr)
            return 3
        setups = [rec["setup_s"] for rec in timed]
        problems = []
        if args.trace:
            if not any("layers" in r for r in reps):
                print("no traced invocation completed", file=sys.stderr)
                return 3
            metrics, problems = layer_metrics(reps, untraced)
            units = UNITS
            n_samples = dict.fromkeys(metrics, sum("layers" in r for r in reps))
        else:
            while len(setups) < SETUP_SAMPLES and children.remaining() > 5.0:
                where, probe, error = children.spawn(False, [])
                if probe is None:
                    problems.append(f"set-up probe failed: {error}")
                    break
                setups.append(probe["setup_s"])
                shutil.rmtree(where)
            metrics = {
                "run_s": statistics.median(untraced),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(rec["maxrss_kb"] / 1024.0 for rec in timed),
            }
            units = END_TO_END
            n_samples = {"run_s": len(untraced), "setup_s": len(setups), "peak_rss_mb": len(timed)}

        failed = sum(bool(r["problems"]) for r in reps)
        provenance = {
            "workload": w.name,
            "why": w.why,
            "seed": args.seed,
            "params": params,
            "command": w.command,
            "cells": list(w.cells),
            "nodes": [(c + 1) ** w.dim for c in w.cells],
            "input_bytes": {p.name: p.stat().st_size for p in sorted((work / "input").iterdir())},
            "output_bytes": {k: len(v) for k, v in judge.reference[1].items()} if judge.reference else {},
            "input_s": input_s,
            "invocations": len(reps),
            "traced_invocations": sum(r["traced"] for r in reps),
            "setup_samples": len(setups),
            "seconds": args.seconds,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        print("# provenance " + json.dumps(provenance))
        for i, r in enumerate(reps, 1):
            rec = r["record"] or {}
            status = "ok" if not r["problems"] else "FAIL " + "; ".join(r["problems"])
            print(
                f"# invocation {i} {'traced' if r['traced'] else 'untraced'}"
                f" setup_s={rec.get('setup_s', float('nan')):.4f}"
                f" run_s={rec.get('run_s', float('nan')):.4f} {status}"
            )
        for note in notes:
            print(f"# note: {note}")
        for problem in problems:
            print(f"# problem: {problem}")
        for k, v in metrics.items():
            print(f"{k} {v!r} {units[k]} (median of {n_samples[k]})")
        print(f"fail_frac {failed / len(reps)!r} ({failed} of {len(reps)} invocations failed)")
        print(json.dumps({
            "correct": failed == 0 and not problems,
            "attempted": len(reps),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
