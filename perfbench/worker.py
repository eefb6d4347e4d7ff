"""Fresh-interpreter worker, started by the benchmark with PYTHONPATH=src.

    worker.py ready                      import the package and exit
    worker.py sweep PAIRS_JSON           one sweep pass
    worker.py trace WORKLOAD JOBS_JSON SPANS_PATH
                                         the jobs untraced, then traced

Each mode prints one JSON object as its last stdout line.  Only the work of
a job is timed; digests of its output are taken after the clock stops.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time


def verdict_digest(reports) -> str:
    """sha256 over the (relation_id, verdict, mode, caveat) list of a job."""
    rows = [[r.relation_id, r.verdict.value, r.mode.value, r.caveat] for r in reports]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def sweep(pairs) -> dict:
    from wigneralg.two_mode import audit_two_mode, build_two_mode

    jobs = []
    for d1, d2 in pairs:
        start = time.perf_counter()
        reports = audit_two_mode(build_two_mode(d1, d2))
        wall = time.perf_counter() - start
        jobs.append(
            {"pair": [d1, d2], "wall_s": wall, "sha256": verdict_digest(reports), "verdicts": len(reports)}
        )
    return {"jobs": jobs}


def trace(workload: str, jobs, spans_path: str) -> dict:
    start = time.perf_counter()
    import wigneralg.cli as cli

    import_s = time.perf_counter() - start
    import io
    from contextlib import redirect_stdout

    import wigneralg.two_mode as two_mode
    from tracer import Tracer

    def run_job(job) -> dict:
        if workload == "two-mode-sweep":
            # looked up on the module at call time, so the traced pass sees the wrappers
            reports = two_mode.audit_two_mode(two_mode.build_two_mode(*job))
            return {"sha256": verdict_digest(reports), "verdicts": len(reports), "bytes": 0}
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.run(list(job))
        data = buf.getvalue().encode("utf-8")
        return {
            "exit_code": code,
            "stdout_sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }

    def timed(tracer=None):
        walls, outputs = [], []
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            t0 = time.perf_counter()
            out = run_job(job)
            walls.append(time.perf_counter() - t0)
            outputs.append(out)
        return walls, outputs

    untraced_walls, untraced_out = timed()
    tracer = Tracer()
    tracer.install()
    try:
        traced_walls, traced_out = timed(tracer)
    finally:
        tracer.uninstall()
    return {
        "cli_import_s": import_s,
        "untraced_walls": untraced_walls,
        "traced_walls": traced_walls,
        "untraced_outputs": untraced_out,
        "traced_outputs": traced_out,
        "metrics": tracer.metrics(),
        "missing_targets": tracer.missing,
        "spans": tracer.write_spans(spans_path),
    }


def main(argv) -> int:
    mode = argv[0]
    if mode == "ready":
        import wigneralg.two_mode  # noqa: F401

        print(json.dumps({"ready": True}))
    elif mode == "sweep":
        print(json.dumps(sweep(json.loads(argv[1]))))
    elif mode == "trace":
        print(json.dumps(trace(argv[1], json.loads(argv[2]), argv[3])))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
