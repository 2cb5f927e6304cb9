"""CDC-FANOUT: push-based change propagation vs a polling browser fleet.

The CDC tentpole claim: a fleet of idle browsers kept fresh by server
push costs bytes proportional to the *change rate*, while the same
fleet polling costs bytes proportional to the *fleet size times the
poll rate* — and push delivers each change in one network hop instead
of half a poll interval.  This benchmark runs one writer committing a
fixed number of spaced-out updates against N otherwise-idle browser
connections, twice:

push
    every browser holds a CDC subscription (``subscribe``); refresh
    latency is commit-to-event-delivery.
poll
    every browser re-fetches its displayed object every
    ``--poll-interval`` seconds (the pre-CDC strategy); refresh latency
    is commit-to-first-poll-that-sees-the-new-value.

Bytes are read from the client registry's ``net.client.bytes_in/out``
counters; the writer's own traffic is measured in a calibration pass
(zero browsers) and subtracted, so the reported cost is the fan-out's
alone.  A third pass asserts the backpressure contract: a wedged
subscriber (never reads its socket) must not change the writer's
commit latency.

Run directly::

    PYTHONPATH=src python benchmarks/bench_cdc_fanout.py --duration 5

Results land in ``benchmarks/artifacts/BENCH_cdc.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

DEFAULT_BROWSERS = 16
DEFAULT_COMMITS = 20
DEFAULT_POLL_INTERVAL = 0.2


def _fleet_bytes() -> int:
    from repro.obs import get_registry

    registry = get_registry()
    return (registry.counter("net.client.bytes_in").value
            + registry.counter("net.client.bytes_out").value)


def _percentile(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(len(ordered) * fraction))
    return ordered[index]


class _Writer:
    """Commits *count* updates, evenly spaced across *duration*."""

    def __init__(self, port: int, count: int, duration: float):
        self.port = port
        self.count = count
        self.duration = duration
        self.commit_seconds: List[float] = []
        #: perf_counter as each commit is sent, not as it is acked: a
        #: push can reach a browser before the writer reads its reply.
        self.commit_times: List[float] = []

    def run(self) -> None:
        from repro.net.remote import RemoteDatabase
        from repro.ode.oid import Oid

        database = RemoteDatabase.connect("127.0.0.1", self.port, "lab")
        try:
            gap = self.duration / max(self.count, 1)
            # Always the same object: pollers can watch one displayed
            # buffer for changes, exactly like a browser window would.
            oid = Oid("lab", "employee", 0)
            started_at = time.perf_counter()
            for index in range(self.count):
                started = time.perf_counter()
                database.objects.update(
                    oid, {"name": f"v{started_at:.0f}-{index}"})
                self.commit_seconds.append(time.perf_counter() - started)
                self.commit_times.append(started)
                time.sleep(gap)
        finally:
            database.close()


def _run_push(port: int, browsers: int, commits: int,
              duration: float) -> Dict[str, Any]:
    from repro.net.remote import RemoteDatabase

    fleet = [RemoteDatabase.connect("127.0.0.1", port, "lab")
             for _ in range(browsers)]
    arrivals: List[float] = []
    arrivals_lock = threading.Lock()

    def on_event(_event) -> None:
        now = time.perf_counter()
        with arrivals_lock:
            arrivals.append(now)

    subscriptions = [database.subscribe(on_event=on_event)
                     for database in fleet]
    bytes_before = _fleet_bytes()
    writer = _Writer(port, commits, duration)
    writer.run()
    # allow the last pushes to land
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        with arrivals_lock:
            if len(arrivals) >= commits * browsers:
                break
        time.sleep(0.02)
    bytes_total = _fleet_bytes() - bytes_before
    for subscription in subscriptions:
        subscription.close()
    for database in fleet:
        database.close()
    # each arrival pairs with the newest commit at or before it
    latencies = []
    with arrivals_lock:
        for arrival in arrivals:
            commit = max((t for t in writer.commit_times if t <= arrival),
                         default=None)
            if commit is not None:
                latencies.append(arrival - commit)
    return {
        "regime": "push",
        "browsers": browsers,
        "commits": commits,
        "events_delivered": len(arrivals),
        "bytes_total": bytes_total,
        "mean_commit_ms": statistics.mean(writer.commit_seconds) * 1000,
        "mean_refresh_ms": (statistics.mean(latencies) * 1000
                            if latencies else 0.0),
        "p95_refresh_ms": _percentile(latencies, 0.95) * 1000,
    }


def _run_poll(port: int, browsers: int, commits: int, duration: float,
              poll_interval: float) -> Dict[str, Any]:
    from repro.net.remote import RemoteDatabase
    from repro.ode.oid import Oid

    stop = threading.Event()
    detections: List[float] = []
    detections_lock = threading.Lock()
    watched = Oid("lab", "employee", 0)

    def poller(worker: int) -> None:
        database = RemoteDatabase.connect("127.0.0.1", port, "lab")
        try:
            last = None
            while not stop.is_set():
                database.objects.cache.evict(watched)  # poll = re-fetch
                value = database.objects.get_buffer(watched).value("name")
                if last is not None and value != last:
                    with detections_lock:
                        detections.append(time.perf_counter())
                last = value
                stop.wait(poll_interval)
        finally:
            database.close()

    bytes_before = _fleet_bytes()
    threads = [threading.Thread(target=poller, args=(worker,), daemon=True)
               for worker in range(browsers)]
    for thread in threads:
        thread.start()
    writer = _Writer(port, commits, duration)
    writer.run()
    time.sleep(poll_interval * 2)  # let the fleet see the final value
    stop.set()
    for thread in threads:
        thread.join(timeout=10.0)
    bytes_total = _fleet_bytes() - bytes_before
    # pollers detect value *changes* on the watched object; latency
    # pairs each detection with the newest commit before it.
    latencies = []
    with detections_lock:
        for detection in detections:
            commit = max((t for t in writer.commit_times if t <= detection),
                         default=None)
            if commit is not None:
                latencies.append(detection - commit)
    return {
        "regime": "poll",
        "browsers": browsers,
        "commits": commits,
        "poll_interval_s": poll_interval,
        "detections": len(detections),
        "bytes_total": bytes_total,
        "mean_commit_ms": statistics.mean(writer.commit_seconds) * 1000,
        "mean_refresh_ms": (statistics.mean(latencies) * 1000
                            if latencies else 0.0),
        "p95_refresh_ms": _percentile(latencies, 0.95) * 1000,
    }


def _run_wedged(port: int, commits: int, duration: float) -> Dict[str, Any]:
    """Commit latency with a subscriber that never drains its socket."""
    from repro.net import protocol as P
    from repro.net.client import OdeClient

    wedged = OdeClient("127.0.0.1", port).connect()
    wedged.call(P.OP_CDC_SUBSCRIBE, {"db": "lab"})
    try:
        writer = _Writer(port, commits, duration)
        writer.run()
        return {
            "regime": "wedged-subscriber",
            "commits": commits,
            "mean_commit_ms": statistics.mean(writer.commit_seconds) * 1000,
            "max_commit_ms": max(writer.commit_seconds) * 1000,
        }
    finally:
        wedged.close()


def run_all(root: Path, browsers: int, commits: int, duration: float,
            poll_interval: float) -> Dict[str, Any]:
    from repro.net.server import OdeServer

    server = OdeServer(root)
    server.start()
    try:
        # calibration: the writer's own wire cost, no fan-out at all
        bytes_before = _fleet_bytes()
        calibration = _Writer(server.port, commits, duration)
        calibration.run()
        writer_bytes = _fleet_bytes() - bytes_before

        push = _run_push(server.port, browsers, commits, duration)
        poll = _run_poll(server.port, browsers, commits, duration,
                         poll_interval)
        wedged = _run_wedged(server.port, commits, duration)
        for row in (push, poll):
            fanout = max(row["bytes_total"] - writer_bytes, 0)
            row["fanout_bytes"] = fanout
            row["bytes_per_change"] = fanout / max(commits, 1)
        return {
            "benchmark": "cdc-fanout",
            "writer_bytes": writer_bytes,
            "baseline_mean_commit_ms": statistics.mean(
                calibration.commit_seconds) * 1000,
            "push": push,
            "poll": poll,
            "wedged": wedged,
        }
    finally:
        server.shutdown()


def format_results(results: Dict[str, Any]) -> str:
    push, poll = results["push"], results["poll"]
    lines = [
        "regime  browsers  bytes/change  mean-refresh  p95-refresh  "
        "mean-commit",
        f"push    {push['browsers']:>8}  {push['bytes_per_change']:>11.0f}"
        f"  {push['mean_refresh_ms']:>10.1f}ms  "
        f"{push['p95_refresh_ms']:>9.1f}ms  {push['mean_commit_ms']:>9.2f}ms",
        f"poll    {poll['browsers']:>8}  {poll['bytes_per_change']:>11.0f}"
        f"  {poll['mean_refresh_ms']:>10.1f}ms  "
        f"{poll['p95_refresh_ms']:>9.1f}ms  {poll['mean_commit_ms']:>9.2f}ms",
        f"wedged subscriber: mean commit "
        f"{results['wedged']['mean_commit_ms']:.2f}ms "
        f"(baseline {results['baseline_mean_commit_ms']:.2f}ms)",
    ]
    return "\n".join(lines)


def write_artifact(results: Dict[str, Any]) -> Path:
    artifacts = Path(__file__).parent / "artifacts"
    artifacts.mkdir(exist_ok=True)
    path = artifacts / "BENCH_cdc.json"
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


# -- pytest entry point (short smoke duration) ----------------------------------

def test_cdc_fanout_smoke(tmp_path):
    """Push must beat polling on fan-out bytes per change, and a wedged
    subscriber must not blow up commit latency."""
    from repro.data.labdb import make_lab_database

    make_lab_database(tmp_path).close()
    results = run_all(tmp_path, browsers=4, commits=5, duration=1.0,
                      poll_interval=0.1)
    push, poll = results["push"], results["poll"]
    assert push["events_delivered"] > 0
    assert push["bytes_per_change"] < poll["bytes_per_change"]
    # wedged: same order of magnitude as the baseline, not seconds
    assert results["wedged"]["max_commit_ms"] < 1000.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=5.0,
                        help="seconds of writer activity per regime")
    parser.add_argument("--browsers", type=int, default=DEFAULT_BROWSERS)
    parser.add_argument("--commits", type=int, default=DEFAULT_COMMITS)
    parser.add_argument("--poll-interval", type=float,
                        default=DEFAULT_POLL_INTERVAL)
    parser.add_argument("--root", type=Path, default=None,
                        help="existing database root (default: temp lab db)")
    args = parser.parse_args()
    if args.root is None:
        from repro.data.labdb import make_lab_database

        root = Path(tempfile.mkdtemp(prefix="odeview-bench-cdc-"))
        make_lab_database(root).close()
    else:
        root = args.root
    results = run_all(root, args.browsers, args.commits, args.duration,
                      args.poll_interval)
    print(format_results(results))
    path = write_artifact(results)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
