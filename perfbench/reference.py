"""Regenerate perfbench/reference.json, the pinned outputs every run checks.

    python3 perfbench/reference.py

Records, for every job input a workload can generate, what the package
printed when the reference was taken: exit code and stdout sha256 for each
CLI command line, and the digest of the (relation_id, verdict, mode, caveat)
list for each two-mode pair.  Regenerate only on purpose, at a commit whose
outputs are known to be right, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys

import workloads as wl


def main() -> int:
    pairs = list(wl.SWEEP_PAIRS) + list(wl.EXPORT_JSON_DIMS) + list(wl.EXPORT_CSV_DIMS)
    result = wl.run_process(wl.worker_cmd("sweep", json.dumps(pairs)))
    if result.exit_code != 0:
        print(result.stderr, file=sys.stderr)
        return 1
    jobs = json.loads(result.stdout.splitlines()[-1])["jobs"]
    reference = {
        "regenerate": "python3 perfbench/reference.py",
        "recorded_at": wl.source_info(),
        "pairs": {
            wl.pair_key(job["pair"]): {"sha256": job["sha256"], "verdicts": job["verdicts"]}
            for job in jobs
        },
        "cli": {},
    }
    for argv in [wl.VERIFY_ARGV] + wl.export_menu():
        out = wl.run_process(wl.cli_cmd(argv))
        if argv == wl.VERIFY_ARGV:
            sections = json.loads(out.stdout)["sections"]
            verdicts = sum(len(reports) for reports in sections.values())
        else:
            dims = (int(argv[2]), int(argv[3]))
            verdicts = reference["pairs"][wl.pair_key(dims)]["verdicts"]
        reference["cli"][wl.cli_key(argv)] = {
            "exit_code": out.exit_code,
            "stdout_sha256": wl.sha256(out.stdout),
            "stdout_bytes": len(out.stdout),
            "verdicts": verdicts,
        }
        print(f"{wl.cli_key(argv)}: exit {out.exit_code}, {len(out.stdout)} bytes", file=sys.stderr)
    wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
