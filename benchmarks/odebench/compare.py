"""Compare two sets of odebench reports: ``compare.py A.jsonl B.jsonl``.

Each file holds the reports ``run.py --out`` appended, one JSON object per
line — typically ten seeds of one commit.  A is the parent (or the first
A/A set), B the change.  One row per (end-to-end metric, workload):

``ok``          B's median is no worse than A's by more than the bound
``regression``  it is worse by more than the bound in BENCHMARK.json
``unresolved``  the run-to-run spread (interquartile range over median, the
                wider of the two sides) exceeds the bound, so the runs cannot
                tell — neither "unchanged" nor "regressed" may be claimed

A workload with any failed operation in B is a regression whatever its
timings.  The exit code is 1 when any row is a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_reports(path: str) -> List[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def collect(reports: List[dict]) -> Tuple[Dict[Tuple[str, str], List[float]],
                                           Dict[str, int]]:
    """``(workload, metric) -> values`` and ``workload -> failed operations``
    over every untraced report."""
    values: Dict[Tuple[str, str], List[float]] = {}
    failed: Dict[str, int] = {}
    for report in reports:
        if report.get("trace"):
            continue   # end-to-end numbers come from untraced runs only
        for name, entry in report["workloads"].items():
            failed[name] = failed.get(name, 0) + entry["failed"]
            for metric, cell in entry["metrics"].items():
                values.setdefault((name, metric), []).append(cell["value"])
    return values, failed


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for under 2 runs)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    base, new = statistics.median(a), statistics.median(b)
    worse = (new - base) / base if better == "lower" else (base - new) / base
    return "regression" if worse > bound else "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(SPEC_PATH, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    a_values, _ = collect(load_reports(argv[0]))
    b_values, b_failed = collect(load_reports(argv[1]))
    regressions = 0
    print(f"{'workload':15s} {'metric':12s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_values or key not in b_values:
                continue
            a, b = a_values[key], b_values[key]
            result = verdict(a, b, metric["better"], metric["bound"])
            regressions += result == "regression"
            base, new = statistics.median(a), statistics.median(b)
            print(f"{workload:15s} {metric['name']:12s} {base:12.4f} "
                  f"{new:12.4f} {(new - base) / base:+8.1%} "
                  f"{max(spread(a), spread(b)):7.1%} {metric['bound']:6.0%}  "
                  f"{result} (n={len(a)}/{len(b)})")
        if workload in b_failed:
            result = "regression" if b_failed[workload] else "ok"
            regressions += result == "regression"
            print(f"{workload:15s} {'failed':12s} {'':12s} "
                  f"{b_failed[workload]:12d} {'':8s} {'':7s} {'0':>6s}  {result}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
