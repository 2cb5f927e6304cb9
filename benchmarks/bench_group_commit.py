"""GROUP-COMMIT: commit throughput as concurrent writers share fsyncs.

With many concurrent writers, one leader fsyncing a whole batch of
COMMIT records amortizes the dominant cost of a small transaction — the
fsync — across every writer in the batch, so commit throughput scales
with writer count instead of serializing on the disk.  A lone writer
pays one fsync per commit.

This benchmark measures commit throughput, p95 commit latency and the
batch sizes reached at 1, 4 and 16 writer threads against a store built
with its defaults.  Writers follow the server's pipelining model: stage
under a shared writer lock (cheap — overlay apply plus an epoch mint),
then wait on the commit barrier with the lock released.

Run directly for the full measurement::

    PYTHONPATH=src python benchmarks/bench_group_commit.py --duration 5

or via pytest (short smoke durations) with the other benchmarks.
Results land in ``benchmarks/artifacts/BENCH_group_commit.json``.
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from pathlib import Path
from typing import Dict, List

from repro.ode.codec import encode_object
from repro.ode.oid import Oid
from repro.ode.store import ObjectStore

WRITER_COUNTS = (1, 4, 16)


def _write_workload(store: ObjectStore, stage_lock: threading.Lock,
                    worker: int, deadline: float,
                    latencies: List[float], errors: List[str]) -> None:
    """One writer: stage under the lock, wait on the barrier outside it."""
    try:
        count = 0
        while time.perf_counter() < deadline:
            oid = Oid("bench", "employee", worker * 1_000_000 + count % 64)
            payload = encode_object(oid, "employee",
                                    {"worker": worker, "i": count})
            started = time.perf_counter()
            with stage_lock:
                store.begin()
                store.put(oid, payload)
                epoch = store.commit_stage()
            store.commit_wait(epoch)
            latencies.append(time.perf_counter() - started)
            count += 1
    except Exception as exc:  # pragma: no cover - failure detail
        errors.append(f"writer {worker}: {type(exc).__name__}: {exc}")


def _percentile(values: List[float], percent: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(len(ordered) * percent / 100.0))
    return ordered[index]


def run_level(root: Path, writers: int,
              duration: float) -> Dict[str, float]:
    """One level: *writers* commit loops against one store."""
    directory = root / f"w{writers}"
    store = ObjectStore(directory)
    try:
        stage_lock = threading.Lock()
        latencies: List[float] = []
        errors: List[str] = []
        deadline = time.perf_counter() + duration
        threads = [
            threading.Thread(
                target=_write_workload,
                args=(store, stage_lock, worker, deadline, latencies, errors))
            for worker in range(writers)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(duration + 30)
        elapsed = time.perf_counter() - started
        if errors:
            raise RuntimeError("; ".join(errors[:3]))
        stats = store.group_commit_stats()
        return {
            "writers": writers,
            "commits": len(latencies),
            "commits_per_sec": len(latencies) / elapsed if elapsed else 0.0,
            "mean_ms": (sum(latencies) / len(latencies) * 1e3
                        if latencies else 0.0),
            "p95_ms": _percentile(latencies, 95) * 1e3,
            "syncs": stats["syncs"],
            "batches": stats["batches"],
            "batch_size_mean": stats["batch_size_mean"],
            "batch_size_max": stats["batch_size_max"],
        }
    finally:
        store.close()


def run_all(root: Path, duration: float) -> List[Dict[str, float]]:
    return [run_level(root, writers, duration) for writers in WRITER_COUNTS]


def format_results(results: List[Dict[str, float]]) -> str:
    lines = ["writers  commits/s  p95(ms)  syncs  mean batch"]
    for row in results:
        lines.append(
            f"{row['writers']:>7}  "
            f"{row['commits_per_sec']:>9.0f}  {row['p95_ms']:>7.2f}  "
            f"{row['syncs']:>5}  {row['batch_size_mean']:>10.1f}")
    return "\n".join(lines)


def write_artifact(results: List[Dict[str, float]],
                   duration: float) -> Path:
    artifacts = Path(__file__).parent / "artifacts"
    artifacts.mkdir(exist_ok=True)
    path = artifacts / "BENCH_group_commit.json"
    path.write_text(json.dumps({
        "benchmark": "group_commit",
        "duration_per_level": duration,
        "results": results,
    }, indent=2) + "\n")
    return path


# -- pytest entry point (short smoke duration) ----------------------------------

def test_group_commit_smoke(tmp_path):
    """Every level commits, and 16 writers really share fsyncs."""
    results = run_all(tmp_path, duration=0.3)
    assert [row["writers"] for row in results] == list(WRITER_COUNTS)
    for row in results:
        assert row["commits"] > 0
    assert results[0]["syncs"] == results[0]["commits"]  # a lone writer
    assert results[-1]["batch_size_mean"] > 1  # batches really formed
    write_artifact(results, 0.3)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=5.0,
                        help="seconds per writer-count level")
    args = parser.parse_args()
    import tempfile

    root = Path(tempfile.mkdtemp(prefix="odeview-bench-group-commit-"))
    results = run_all(root, args.duration)
    print(format_results(results))
    path = write_artifact(results, args.duration)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
