"""One timed invocation of the obstacle-lab CLI, run in a fresh process.

    python child.py RESULT_JSON SRC_DIR TRACE [CLI_ARGS...]

Imports ``obstacle_lab.cli`` from SRC_DIR, notes when it is ready, calls
``cli.main(CLI_ARGS)`` and writes a JSON record to RESULT_JSON: the ready
time, the wall time of the call, its exit code, the process's peak RSS and,
with TRACE = 1, the spans recorded around the package's public functions.
Without CLI_ARGS it only imports, which measures set-up alone.

Only the standard library is imported before the package, so the ready
time is interpreter start-up plus the package import and nothing else.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    result_path, src, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    cli_args = sys.argv[4:]
    import obstacle_lab.cli as cli

    t_ready = time.perf_counter()
    record = {"t_ready": t_ready}
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"obstacle_lab imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 4
    if cli_args:
        tracer = None
        entry = cli.main
        if trace:
            from spans import ROOT, Tracer

            tracer = Tracer()
            tracer.install()
            entry = tracer.wrap(ROOT, cli.main)
        t0 = time.perf_counter()
        try:
            rc = entry(cli_args)
        except SystemExit as exc:
            rc = exc.code
        finally:
            run_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        record.update(
            rc=rc,
            run_s=run_s,
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if tracer is not None:
            paths = {n for name, *_, n in tracer.spans if name.endswith("_snapshot")}
            record["spans"] = tracer.spans
            record["file_bytes"] = {
                p: os.path.getsize(p) for p in paths if p and os.path.exists(p)
            }
    with open(result_path, "w") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
