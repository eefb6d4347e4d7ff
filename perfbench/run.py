"""Benchmark of wigneralg: three closed-loop workloads, untraced or traced.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from anywhere; the checkout is the directory above this file.  With
``--trace 0`` the run measures the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` it runs the workload's jobs once untraced and once with span
wrappers installed and reports the per-layer metrics.  A report for people
comes first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run also
writes a result file under ``.perfbench_out/results/``.  Exit code 0 when
every job matched its pinned reference, 1 when one did not, 2 when the
checkout has no package or reference to run.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import random
import sys
import time
from typing import Dict, List, Tuple

import stats
import workloads as wl

BENCHMARK = wl.ROOT / "BENCHMARK.json"
RESULTS = wl.OUT / "results"


def environment(args: argparse.Namespace) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        **wl.source_info(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def untraced(workload: str, args, reference: dict) -> Tuple[dict, dict, List[str]]:
    """End-to-end metrics from one untraced run, plus the run's samples."""
    run = wl.measure(workload, args.seed, args.seconds, reference)
    jobs = run["jobs"]
    walls = [job.wall_s for job in jobs]
    busy = sum(walls)
    values = {
        "setup_s": stats.median(run["setup_samples"]),
        "job_p50_s": stats.median(walls),
        "relations_per_s": sum(job.verdicts for job in jobs) / busy,
        "peak_rss_mb": max(job.max_rss_mb for job in jobs),
        "mismatch_ratio": wl.mismatch_ratio([job.matched for job in jobs]),
    }
    notes = [f"{len(jobs)} jobs in {run['units']} units over {run['measured_s']:.1f} s"]
    tail = stats.tail(walls)
    if tail is not None:
        pct, value, beyond = tail
        values["job_tail_s"] = value
        notes.append(f"job_tail_s is p{pct:g} of {len(walls)} jobs, {beyond} beyond it")
    else:
        notes.append(f"job_tail_s not reported: {len(walls)} jobs leave fewer than ten beyond any tail")
    bytes_out = sum(job.bytes_out for job in jobs)
    if bytes_out:
        values["export_mb_per_s"] = bytes_out / wl.MB / busy
    samples = {
        "units": run["units"],
        "setup_samples_s": run["setup_samples"],
        "jobs": [
            {"key": j.key, "wall_s": j.wall_s, "matched": j.matched, "max_rss_mb": j.max_rss_mb, "detail": j.detail}
            for j in jobs
        ],
    }
    failed = sum(1 for job in jobs if not job.matched)
    return values, {"attempted": len(jobs), "failed": failed, "samples": samples}, notes


def traced(workload: str, args, reference: dict) -> Tuple[dict, dict, List[str]]:
    """Per-layer metrics: the workload's first unit run untraced, then traced."""
    jobs = next(wl.units(workload, random.Random(args.seed)))
    wl.OUT.mkdir(exist_ok=True)
    spans_path = wl.OUT / f"spans-{workload}-seed{args.seed}.json"
    result = wl.run_process(wl.worker_cmd("trace", workload, json.dumps(jobs), str(spans_path)))
    try:
        payload = json.loads(result.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"traced worker failed (exit {result.exit_code}): {result.stderr.strip()[-400:]}")
    matches = []
    for outputs in (payload["untraced_outputs"], payload["traced_outputs"]):
        for job, out in zip(jobs, outputs):
            if workload == "two-mode-sweep":
                matches.append(wl.pair_matches(reference, job, out["sha256"]))
            else:
                matches.append(wl.cli_matches(reference, job, out["exit_code"], out["stdout_sha256"]))
    traced_wall = sum(payload["traced_walls"])
    values: Dict[str, float] = dict(payload["metrics"])
    values["cli.import_s"] = payload["cli_import_s"]
    values["serialize.bytes_out"] = sum(out["bytes"] for out in payload["traced_outputs"])
    values["trace.overhead_ratio"] = traced_wall / sum(payload["untraced_walls"])
    values["trace.wall_s"] = traced_wall
    values["mismatch_ratio"] = wl.mismatch_ratio(matches)
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    notes = [
        f"{len(jobs)} jobs traced, {payload['spans']} spans written to {spans_path.relative_to(wl.ROOT)}",
        f"self times of all traced layers cover {self_total / traced_wall:.1%} of traced job wall time,"
        f" the tracer's matrix scans {values['trace.scan_s'] / traced_wall:.1%}",
    ]
    if payload["missing_targets"]:
        notes.append("targets not found: " + ", ".join(payload["missing_targets"]))
    failed = sum(1 for ok in matches if not ok)
    return values, {"attempted": len(matches), "failed": failed, "samples": payload}, notes


def report_lines(workload: str, values: dict, spec: List[dict], traced_wall: float) -> List[str]:
    lines = []
    for metric in spec:
        name = metric["name"]
        value = values.get(name)
        text = "n/a" if value is None else f"{value:.6g}"
        share = ""
        if value is not None and traced_wall and name.endswith((".self_s", ".wall_s")):
            share = f"  ({value / traced_wall:6.1%} of traced wall)"
        lines.append(f"  {workload:15} {name:44} {text:>12} {metric['unit']}{share}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (wl.SRC / "wigneralg" / "__init__.py").is_file():
        print(f"error: no wigneralg package under {wl.SRC}", file=sys.stderr)
        return 2
    if not wl.REFERENCE.is_file() or not BENCHMARK.is_file():
        print("error: perfbench/reference.json or BENCHMARK.json is missing", file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        benchmark = json.load(fh)
    reference = wl.load_reference()
    # the build step: byte-compile the package so no timed job compiles it
    compileall.compile_dir(str(wl.SRC), quiet=1)

    spec = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment(args)
    metrics: Dict[str, dict] = {}
    attempted = failed = 0
    RESULTS.mkdir(parents=True, exist_ok=True)
    for workload in names:
        started = time.time()
        values, counts, notes = (traced if args.trace else untraced)(workload, args, reference)
        attempted += counts["attempted"]
        failed += counts["failed"]
        listed = {m["name"] for m in spec}
        extra = {k: v for k, v in values.items() if k not in listed}
        absent = sorted(listed - set(values))
        if absent:
            notes.append("not measured, reported as 0: " + ", ".join(absent))
        print(f"{workload}: seed {args.seed}, " + "; ".join(notes))
        shown = spec + [{"name": "mismatch_ratio", "unit": "ratio"}]
        shown += [m for m in wl.INFO_METRICS if m["name"] in extra]
        print("\n".join(report_lines(workload, values, shown, values.get("trace.wall_s", 0.0))))
        for metric in spec:
            key = metric["name"] if len(names) == 1 else f"{workload}.{metric['name']}"
            metrics[key] = {"value": values.get(metric["name"], 0), "unit": metric["unit"]}
        record = {
            "workload": workload,
            "started_unix": started,
            "environment": {**env, "loadavg_end": list(os.getloadavg())},
            "attempted": counts["attempted"],
            "failed": counts["failed"],
            "metrics": {m["name"]: values.get(m["name"], 0) for m in spec},
            "extra_metrics": extra,
            "notes": notes,
            "samples": counts["samples"],
        }
        path = RESULTS / f"{workload}.seed{args.seed}.trace{args.trace}.{time.time_ns()}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
