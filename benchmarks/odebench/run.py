"""odebench: the gated benchmark of the browse, select and write paths.

    python3 benchmarks/odebench/run.py [--workload W] [--seed N]
                                       [--seconds S] [--trace 0|1] [--out F]

One run sets a workload up (several times, ``setup_s`` is the median), warms
it, measures a closed loop for ``--seconds`` and checks every reply against
an oracle.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
repeats the workload under the span recorder, replays a sample of its
requests one layer lower at a time, and reports the per-layer metrics.
Without ``--workload`` all four run, each in a process of its own.  The last
line of standard output of a workload's run is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.
README.md has the metric and workload tables.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-ups per run; ``setup_s`` is their median.  The lab set-up takes a
#: twentieth of a second, so it can afford more repeats than the
#: 10 000-object ingest.
SETUP_REPEATS = {"browse-local": 15}
DEFAULT_SETUP_REPEATS = 3


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale=None, setup_repeats: int = 0,
                 warmup: Optional[float] = None) -> Dict[str, Any]:
    """One full run of one workload; returns its report entry.  The last
    three parameters are the smoke test's: a small dataset, one set-up and a
    short warm-up."""
    import harness
    import layers
    import workloads

    scale = scale or workloads.FULL
    warmup = harness.WARMUP_SECONDS if warmup is None else warmup
    repeats = 1 if trace else (
        setup_repeats or SETUP_REPEATS.get(name, DEFAULT_SETUP_REPEATS))
    spec = load_spec()
    with harness.work_directory() as work, harness.watchdog():
        setup_times: List[float] = []
        workload = None
        try:
            for repeat in range(repeats):
                if workload is not None:
                    workload.close()
                workload = workloads.WORKLOADS[name](seed, scale)
                elapsed, _ = harness.timed(
                    lambda: workload.setup(work / f"setup{repeat}"))
                setup_times.append(elapsed)
            workers = workload.workers()
            if trace:
                window, metrics, detail = layers.traced_run(
                    workload, workers, seconds, warmup, work, spec)
            else:
                window = harness.closed_loop(workers, seconds, warmup)
                rss_mb = workload.rss_mb()   # before any shutdown
                workload.finish(window)
                metrics = {
                    "setup_s": harness.median(setup_times),
                    "ops_per_s": window.ops_per_s(),
                    "op_ms_p50": harness.median(window.latencies_ms()),
                    "rss_mb": rss_mb,
                }
                detail = window.detail()
                detail["setup_s_each"] = setup_times
                detail.update(workload.extra_detail(window))
        finally:
            if workload is not None:
                workload.close()
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with "
            f"BENCHMARK.json")
    return {
        "workload": name,
        "correct": window.failed == 0,
        "attempted": window.attempted,
        "failed": window.failed,
        "failed_ratio": harness.ratio(window.failed, window.attempted),
        "errors": window.errors,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
        "detail": detail,
    }


def print_table(entry: Dict[str, Any]) -> None:
    out = sys.stderr
    print(f"== {entry['workload']}: attempted {entry['attempted']}, "
          f"failed {entry['failed']} "
          f"(failed_ratio {entry['failed_ratio']:.6f}), "
          f"{entry['detail'].get('samples', 0)} timed samples", file=out)
    for key, metric in entry["metrics"].items():
        print(f"   {key:40s} {metric['value']:14.4f} {metric['unit']}", file=out)
    for error in entry["errors"]:
        print(f"   !! {error}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append the full report to this file, one JSON "
                             "line per invocation (compare.py reads it)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("odebench: no src/repro beside the benchmark - nothing to "
              "measure", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is None:
        # One fresh process per workload, exactly as the driver runs them:
        # the generator's own peak memory is a metric of browse-local, and a
        # workload run earlier in the same process would raise it.
        passed = [arg for key in ("seed", "seconds", "trace", "out")
                  if getattr(args, key) is not None
                  for arg in (f"--{key}", str(getattr(args, key)))]
        codes = [subprocess.call([sys.executable, __file__,
                                  "--workload", name] + passed)
                 for name in names]
        return 1 if any(codes) else 0
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    seconds = args.seconds or float(spec["run_seconds"])

    import harness

    entry = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print_table(entry)
    print(json.dumps({key: entry[key] for key in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    if args.out:
        report = {"environment": harness.environment(args.seed),
                  "seconds": seconds, "trace": args.trace,
                  "workloads": {args.workload: entry}}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(report) + "\n")
    return 0 if entry["correct"] else 1


def _reexec_with_fixed_hash_seed() -> None:
    """String hashing is randomized per process; fix it for the generator
    (the server child gets the same through its environment)."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


if __name__ == "__main__":
    _reexec_with_fixed_hash_seed()
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
