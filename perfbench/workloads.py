"""The three workloads: their inputs, how one job runs, and its reference check.

Every workload is a closed loop with one client: the next job starts only
after the previous one has finished.  The parent process imports nothing from
wigneralg; each job or pass runs in a fresh interpreter with
``PYTHONPATH=<checkout>/src``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
WORKER = HERE / "worker.py"

WORKLOADS = ("verify-default", "two-mode-sweep", "export-large")

VERIFY_ARGV = ("verify", "--all", "--format", "json")
VERSION_ARGV = ("--version",)
SWEEP_PAIRS = tuple((d1, d2) for d1 in range(2, 11) for d2 in range(2, 11))
# JSON jobs at 20x20/20x21 and CSV jobs at 16x17/17x17 cost about the same
# time (~2.6 s on a 2-core machine at the seed commit), so the median job stays
# put whichever menu items the seed draws.  Each round runs one job of each
# format, so every run has the same format mix.
EXPORT_JSON_DIMS = ((20, 20), (20, 21), (21, 20))
EXPORT_CSV_DIMS = ((17, 17), (16, 17), (17, 16))
EXPORT_CSV_NUS = ("0.25", "0.5", "1.5")

# End-to-end metrics reported beside BENCHMARK.json's list on the workloads
# they apply to, so not fit for a list every workload must fill: the tail
# needs ten jobs beyond it (only the sweep has them), and only CLI jobs print.
# They carry no bound: compare.py shows their medians but gives no verdict.
INFO_METRICS = (
    {"name": "job_tail_s", "unit": "s"},
    {"name": "export_mb_per_s", "unit": "MB/s"},
)

MB = 1e6
# Set-up spawns per run, spread over the run so that their median sees the
# same stretch of machine speed as the jobs do.
SETUP_SPAWNS = 25
JOB_TIMEOUT_S = 150.0


def export_argv(dims: Tuple[int, int], nu: Optional[str] = None) -> Tuple[str, ...]:
    argv = ("two-mode", "--dims", str(dims[0]), str(dims[1]))
    return argv if nu is None else argv + ("--format", "csv", "--nu", nu)


def export_menu() -> List[Tuple[str, ...]]:
    menu = [export_argv(d) for d in EXPORT_JSON_DIMS]
    menu += [export_argv(d, nu) for d in EXPORT_CSV_DIMS for nu in EXPORT_CSV_NUS]
    return menu


def units(workload: str, rng: random.Random):
    """Endless stream of units of work; a run measures whole units only.

    A unit is one verify job, one export round (a JSON and a CSV job in seeded
    order), or one sweep pass (all 81 pairs in seeded order, one worker).
    """
    while True:
        if workload == "verify-default":
            yield [VERIFY_ARGV]
        elif workload == "export-large":
            pair = [
                export_argv(rng.choice(EXPORT_JSON_DIMS)),
                export_argv(rng.choice(EXPORT_CSV_DIMS), rng.choice(EXPORT_CSV_NUS)),
            ]
            rng.shuffle(pair)
            yield pair
        elif workload == "two-mode-sweep":
            order = list(SWEEP_PAIRS)
            rng.shuffle(order)
            yield order
        else:
            raise ValueError(f"unknown workload {workload!r}")


# -- references -----------------------------------------------------------


def cli_key(argv: Sequence[str]) -> str:
    return " ".join(argv)


def pair_key(pair: Sequence[int]) -> str:
    return f"{pair[0]}x{pair[1]}"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def cli_matches(reference: dict, argv: Sequence[str], exit_code: int, stdout_sha256: str) -> bool:
    entry = reference["cli"].get(cli_key(argv))
    return (
        entry is not None
        and entry["exit_code"] == exit_code
        and entry["stdout_sha256"] == stdout_sha256
    )


def pair_matches(reference: dict, pair: Sequence[int], digest: str) -> bool:
    entry = reference["pairs"].get(pair_key(pair))
    return entry is not None and entry["sha256"] == digest


def mismatch_ratio(matches: Sequence[bool]) -> float:
    return sum(1 for ok in matches if not ok) / len(matches)


def source_info() -> Dict[str, Optional[str]]:
    """Git commit of the checkout, if it is a git work tree, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    git_sha = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            git_sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest()}


# -- processes ------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ProcessResult:
    stdout: bytes
    exit_code: int
    wall_s: float
    max_rss_mb: float
    stderr: str


def run_process(cmd: Sequence[str]) -> ProcessResult:
    """Run cmd to completion; wall time, exit code, stdout and peak RSS."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(cmd), stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT
        )
        # a hung child is killed, so the wait below always returns
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return ProcessResult(out, proc.returncode, wall, usage.ru_maxrss * 1024 / MB, stderr)


def cli_cmd(argv: Sequence[str]) -> List[str]:
    return [sys.executable, "-m", "wigneralg", *argv]


def worker_cmd(*args: str) -> List[str]:
    return [sys.executable, str(WORKER), *args]


def setup_cmd(workload: str) -> List[str]:
    """A fresh interpreter made ready for a first job.

    CLI workloads run `wigneralg --version`; the sweep runs a worker that
    imports the package and exits.
    """
    return worker_cmd("ready") if workload == "two-mode-sweep" else cli_cmd(VERSION_ARGV)


def setup_sample(cmd: Sequence[str]) -> float:
    result = run_process(cmd)
    if result.exit_code != 0:
        raise RuntimeError(f"set-up command failed: {result.stderr.strip()}")
    return result.wall_s


@dataclass
class Job:
    key: str
    wall_s: float
    matched: bool
    verdicts: int
    bytes_out: int
    max_rss_mb: float
    detail: str = ""


def run_cli_job(reference: dict, argv: Sequence[str]) -> Job:
    result = run_process(cli_cmd(argv))
    ok = cli_matches(reference, argv, result.exit_code, sha256(result.stdout))
    entry = reference["cli"].get(cli_key(argv), {})
    detail = "" if ok else f"exit {result.exit_code}, stderr {result.stderr.strip()[-200:]!r}"
    return Job(
        cli_key(argv),
        result.wall_s,
        ok,
        entry.get("verdicts", 0) if ok else 0,
        len(result.stdout),
        result.max_rss_mb,
        detail,
    )


def run_sweep_pass(reference: dict, order: Sequence[Tuple[int, int]]) -> List[Job]:
    """One fresh worker runs every pair of the pass."""
    result = run_process(worker_cmd("sweep", json.dumps(order)))
    jobs: List[Job] = []
    try:
        payload = json.loads(result.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        payload = {"jobs": []}
    done = {tuple(item["pair"]): item for item in payload["jobs"]}
    for pair in order:
        item = done.get(tuple(pair))
        if item is None:
            jobs.append(Job(pair_key(pair), 0.0, False, 0, 0, result.max_rss_mb,
                            f"worker exit {result.exit_code}: {result.stderr.strip()[-200:]!r}"))
            continue
        ok = pair_matches(reference, pair, item["sha256"])
        jobs.append(
            Job(pair_key(pair), item["wall_s"], ok, item["verdicts"] if ok else 0, 0, result.max_rss_mb)
        )
    return jobs


def measure(workload: str, seed: int, seconds: float, reference: dict) -> Dict[str, object]:
    """Untraced run: whole units until `seconds` is spent, set-up samples between them.

    Before each unit the run takes set-up samples until it has its share of
    SETUP_SPAWNS for the time spent so far, and tops them up at the end.  One
    untimed spawn first warms the file cache.
    """
    cmd = setup_cmd(workload)
    setup_sample(cmd)
    rng = random.Random(seed)
    setup: List[float] = []
    jobs: List[Job] = []
    unit_walls: List[float] = []
    start = time.perf_counter()
    for unit in units(workload, rng):
        elapsed = time.perf_counter() - start
        estimate = sorted(unit_walls)[len(unit_walls) // 2] if unit_walls else 0.0
        if unit_walls and elapsed + estimate > seconds:
            break
        while len(setup) < SETUP_SPAWNS * elapsed / seconds:
            setup.append(setup_sample(cmd))
        t0 = time.perf_counter()
        if workload == "two-mode-sweep":
            jobs.extend(run_sweep_pass(reference, unit))
        else:
            jobs.extend(run_cli_job(reference, argv) for argv in unit)
        unit_walls.append(time.perf_counter() - t0)
    while len(setup) < SETUP_SPAWNS:
        setup.append(setup_sample(cmd))
    return {
        "setup_samples": setup,
        "jobs": jobs,
        "units": len(unit_walls),
        "measured_s": time.perf_counter() - start,
    }
