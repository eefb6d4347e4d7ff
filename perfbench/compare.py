"""Compare two sets of untraced runs, one row per workload.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of result files written by run.py (for example
a copy of ``.perfbench_out/results`` taken after running each commit).  Runs
of the same workload pair up by seed, in the order they were started, so run
the two commits alternately on the same seeds.  For every end-to-end metric
of BENCHMARK.json, and mismatch_ratio, the verdict is one of:

  gain           >= 10 pairs, the change wins >= 9/10 of them (ties count
                 for neither), and the medians differ by more than the
                 parent's interquartile distance
  no regression  the change's median is within the metric's bound
  regression     worse than the bound allows, or any job mismatched
  unresolved     the parent's own spread exceeds the bound

job_tail_s and export_mb_per_s, where a workload reports them, have no bound
and are shown as "info": both medians and the parent's spread, no verdict.

Exit code 1 when any metric of any workload regressed.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import stats
import workloads as wl


def load_runs(directory: Path) -> Dict[str, List[dict]]:
    """Untraced result files by workload, paired order: seed, then start time."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["environment"]["trace"] == 0:
            runs[record["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda r: (r["environment"]["seed"], r["started_unix"]))
    return runs


def pair_up(parent: List[dict], change: List[dict]) -> List[Tuple[dict, dict]]:
    pending: Dict[int, List[dict]] = defaultdict(list)
    for record in change:
        pending[record["environment"]["seed"]].append(record)
    pairs = []
    for record in parent:
        queue = pending[record["environment"]["seed"]]
        if queue:
            pairs.append((record, queue.pop(0)))
    return pairs


def value(record: dict, name: str):
    return record["metrics"].get(name, record["extra_metrics"].get(name))


def compare(parent_dir: Path, change_dir: Path, spec: List[dict]) -> Dict[str, Dict[str, dict]]:
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    out: Dict[str, Dict[str, dict]] = {}
    for workload in wl.WORKLOADS:
        pairs = pair_up(parent_runs.get(workload, []), change_runs.get(workload, []))
        if not pairs:
            continue
        row: Dict[str, dict] = {}
        for metric in list(spec) + list(wl.INFO_METRICS):
            values = [(value(a, metric["name"]), value(b, metric["name"])) for a, b in pairs]
            values = [(a, b) for a, b in values if a is not None and b is not None]
            if not values:
                continue
            parent, change = [a for a, _ in values], [b for _, b in values]
            if "bound" in metric:
                row[metric["name"]] = stats.compare_metric(parent, change, metric["better"], metric["bound"])
            else:
                row[metric["name"]] = {
                    "verdict": "info",
                    "pairs": len(values),
                    "parent_median": stats.median(parent),
                    "change_median": stats.median(change),
                    "parent_spread": stats.relative_spread(parent),
                }
        mismatched = [
            (a["extra_metrics"].get("mismatch_ratio", 0), b["extra_metrics"].get("mismatch_ratio", 0))
            for a, b in pairs
        ]
        worst = max(b for _, b in mismatched)
        row["mismatch_ratio"] = {
            "verdict": "regression" if worst > 0 else "no regression",
            "pairs": len(pairs),
            "parent_median": stats.median([a for a, _ in mismatched]),
            "change_median": stats.median([b for _, b in mismatched]),
            "worse_by": worst,
        }
        out[workload] = row
    return out


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["end_to_end"]
    result = compare(Path(argv[0]), Path(argv[1]), spec)
    if not result:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    for workload, row in result.items():
        pairs = next(iter(row.values()))["pairs"]
        cells = [
            f"{name}: {r['verdict']} ({r['parent_median']:.4g} -> {r['change_median']:.4g})"
            for name, r in row.items()
        ]
        print(f"{workload} [{pairs} pairs] " + " | ".join(cells))
    print(json.dumps(result, sort_keys=True))
    regressed = any(r["verdict"] == "regression" for row in result.values() for r in row.values())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
