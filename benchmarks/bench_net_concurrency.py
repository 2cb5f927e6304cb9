"""NET-CONC / NET-ASYNC: many OdeView clients browsing one served database.

The paper's premise is multi-user: several OdeView front ends examining
the same Ode databases.  Two measurements live here:

* the original thread-client benchmark — requests per second and p95
  request latency at 1, 4, and 16 concurrent clients running a mixed
  browse workload (point fetches, counts, batched cluster scans);
* the connection-count sweep (``--sweep``) — an asyncio load generator
  drives 64/256/1024/4096 concurrent connections against the server
  in two regimes: *saturated* (closed loop, every client hammering —
  the throughput measurement) and *paced* (a fixed total offered load
  spread across the connections — "do idle connections cost latency":
  the event loop should hold p95 flat).  Results land in
  ``benchmarks/artifacts/BENCH_net_async.json``; the committed copy
  also holds the rows of the thread-per-connection core that the sweep
  retired (reproducible at commit ``f2b9201``).

Run directly for the full measurement::

    PYTHONPATH=src python benchmarks/bench_net_concurrency.py --duration 10
    PYTHONPATH=src python benchmarks/bench_net_concurrency.py --sweep

or via pytest (short smoke durations) with the other benchmarks.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.data.labdb import make_lab_database
from repro.net import protocol as P
from repro.net.remote import RemoteDatabase
from repro.net.server import OdeServer

CLIENT_COUNTS = (1, 4, 16)

#: Connection counts for the sweep.  A level the server cannot host
#: (fd exhaustion, listener failure) is recorded as an error row, not
#: a crash.
SWEEP_COUNTS = (64, 256, 1024, 4096)

#: Total offered load (requests/second across ALL connections) in the
#: paced regime; per-connection rate shrinks as the count grows, which
#: is exactly the many-mostly-idle-browsers shape of the paper.
PACED_OPS_PER_SEC = 400.0

#: Connections established per wave while ramping a level up.
CONNECT_WAVE = 128


def _browse_workload(port: int, duration: float, worker: int,
                     latencies: List[float], errors: List[str]) -> None:
    """One client's browse loop: fetch, count, and scan until time is up."""
    rng = random.Random(worker)
    try:
        database = RemoteDatabase.connect("127.0.0.1", port, "lab")
        try:
            objects = database.objects
            cluster = objects.cluster("employee")
            deadline = time.perf_counter() + duration
            while time.perf_counter() < deadline:
                started = time.perf_counter()
                choice = rng.random()
                if choice < 0.6:
                    # point fetch; cache cleared so it hits the wire
                    objects.cache.purge()
                    objects.get_buffer(cluster.oid(rng.randrange(55)))
                elif choice < 0.9:
                    objects.count("employee")
                else:
                    objects.cache.purge()
                    objects.scan("employee")
                latencies.append(time.perf_counter() - started)
        finally:
            database.close()
    except Exception as exc:
        errors.append(f"worker {worker}: {type(exc).__name__}: {exc}")


def _percentile(values: List[float], percent: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(len(ordered) * percent / 100.0))
    return ordered[index]


def run_level(root: Path, clients: int, duration: float) -> Dict[str, float]:
    """One concurrency level: *clients* browse loops for *duration* secs."""
    server = OdeServer(root)
    server.start()
    try:
        latencies: List[float] = []
        errors: List[str] = []
        threads = [
            threading.Thread(
                target=_browse_workload,
                args=(server.port, duration, worker, latencies, errors))
            for worker in range(clients)
        ]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(duration + 30)
        wall = time.perf_counter() - wall_start
        if errors:
            raise RuntimeError("; ".join(errors[:3]))
        return {
            "clients": clients,
            "requests": len(latencies),
            "throughput": len(latencies) / wall if wall else 0.0,
            "mean_ms": (sum(latencies) / len(latencies) * 1e3
                        if latencies else 0.0),
            "p95_ms": _percentile(latencies, 95) * 1e3,
        }
    finally:
        server.shutdown()


def run_all(root: Path, duration: float) -> List[Dict[str, float]]:
    return [run_level(root, clients, duration)
            for clients in CLIENT_COUNTS]


def format_results(results: List[Dict[str, float]]) -> str:
    lines = ["clients  requests  ops/sec   mean(ms)  p95(ms)"]
    for row in results:
        lines.append(
            f"{row['clients']:>7}  {row['requests']:>8}  "
            f"{row['throughput']:>7.0f}  {row['mean_ms']:>8.2f}  "
            f"{row['p95_ms']:>7.2f}")
    return "\n".join(lines)


# -- the connection-count sweep (asyncio load generator) -------------------------
#
# Thread clients cannot drive 4096 connections from one process, so the
# sweep uses raw protocol frames over asyncio sockets.  Each connection
# runs either a closed loop (saturated) or a paced loop (one request
# every ``clients / PACED_OPS_PER_SEC`` seconds with a random phase, so
# total offered load is constant while the connection count varies).


async def _read_reply(reader: asyncio.StreamReader,
                      reassembler: "P.FrameReassembler") -> "P.Frame":
    while True:
        frame = reassembler.next_frame()
        if frame is not None:
            return frame
        data = await reader.read(64 * 1024)
        if not data:
            raise ConnectionError("server closed the connection")
        reassembler.feed(data)


async def _sweep_client(reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter,
                        worker: int, stop_at: float,
                        interval: float, oids: List[str],
                        latencies: List[float], errors: List[str]) -> None:
    rng = random.Random(worker)
    reassembler = P.FrameReassembler()
    request_id = 0
    try:
        if interval > 0.0:
            # Random phase spreads the paced arrivals; a client whose
            # phase lands past stop_at simply stays an idle connection.
            await asyncio.sleep(rng.random() * interval)
        while time.perf_counter() < stop_at:
            request_id += 1
            if rng.random() < 0.7:
                opcode = P.OP_GET_OBJECT
                payload: Dict[str, Any] = {"db": "lab",
                                           "oid": rng.choice(oids)}
            else:
                opcode = P.OP_COUNT
                payload = {"db": "lab", "class": "employee"}
            started = time.perf_counter()
            writer.write(P.encode_frame(request_id, opcode, payload))
            await writer.drain()
            frame = await _read_reply(reader, reassembler)
            latencies.append(time.perf_counter() - started)
            if frame.opcode == P.OP_ERROR:
                raise RuntimeError(f"server error: {frame.payload}")
            if interval > 0.0:
                await asyncio.sleep(interval)
    except asyncio.CancelledError:
        raise
    except Exception as exc:
        errors.append(f"worker {worker}: {type(exc).__name__}: {exc}")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass


async def _run_sweep_mode(port: int, clients: int, duration: float,
                          offered: Optional[float],
                          oids: List[str]) -> Dict[str, Any]:
    errors: List[str] = []
    conns: List = []
    try:
        # Ramp up in waves so the listen backlog is not hit by one
        # giant burst.
        for base in range(0, clients, CONNECT_WAVE):
            wave = await asyncio.gather(
                *[asyncio.open_connection("127.0.0.1", port)
                  for _ in range(min(CONNECT_WAVE, clients - base))],
                return_exceptions=True)
            for item in wave:
                if isinstance(item, BaseException):
                    errors.append(f"connect: {type(item).__name__}: {item}")
                else:
                    conns.append(item)
            await asyncio.sleep(0.05)
        interval = (len(conns) / offered) if offered and conns else 0.0
        latencies: List[float] = []
        started = time.perf_counter()
        stop_at = started + duration
        tasks = [
            asyncio.ensure_future(_sweep_client(
                reader, writer, worker, stop_at, interval, oids,
                latencies, errors))
            for worker, (reader, writer) in enumerate(conns)
        ]
        if tasks:
            done, pending = await asyncio.wait(tasks,
                                               timeout=duration + 60.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=5.0)
        wall = time.perf_counter() - started
        result: Dict[str, Any] = {
            "connected": len(conns),
            "requests": len(latencies),
            "ops_per_sec": len(latencies) / wall if wall else 0.0,
            "mean_ms": (sum(latencies) / len(latencies) * 1e3
                        if latencies else 0.0),
            "p50_ms": _percentile(latencies, 50) * 1e3,
            "p95_ms": _percentile(latencies, 95) * 1e3,
            "p99_ms": _percentile(latencies, 99) * 1e3,
            "errors": len(errors),
        }
        if errors:
            result["error_sample"] = errors[:3]
        if offered:
            result["offered_ops_per_sec"] = offered
        return result
    finally:
        for reader_writer in conns:
            try:
                reader_writer[1].close()
            except Exception:
                pass


def _oid_pool(port: int) -> List[str]:
    database = RemoteDatabase.connect("127.0.0.1", port, "lab")
    try:
        cluster = database.objects.cluster("employee")
        return [str(cluster.oid(number)) for number in cluster.numbers()]
    finally:
        database.close()


def run_sweep_level(root: Path, clients: int, duration: float,
                    repeats: int = 1) -> List[Dict[str, Any]]:
    """Both regimes at one connection count against a fresh server.

    With ``repeats > 1`` each regime runs that many times and the
    median-throughput run is kept (raw per-run samples attached) —
    single-core boxes shared with other tenants are noisy enough that
    one 4-second run can swing 2x.  A level the server cannot host
    at all (listener falls over, fd exhaustion, ...) is recorded as a
    row with ``"error"`` set rather than aborting the sweep.
    """
    rows: List[Dict[str, Any]] = []
    try:
        server = OdeServer(root)
        server.start()
    except Exception as exc:
        return [{"clients": clients, "mode": mode,
                 "error": f"{type(exc).__name__}: {exc}"}
                for mode in ("saturated", "paced")]
    try:
        oids = _oid_pool(server.port)
        for mode, offered in (("saturated", None),
                              ("paced", PACED_OPS_PER_SEC)):
            attempts: List[Dict[str, Any]] = []
            failure: Optional[str] = None
            for _attempt in range(max(1, repeats)):
                try:
                    attempts.append(asyncio.run(_run_sweep_mode(
                        server.port, clients, duration, offered, oids)))
                except Exception as exc:
                    failure = f"{type(exc).__name__}: {exc}"
            if not attempts:
                rows.append({"clients": clients, "mode": mode,
                             "error": failure})
                continue
            attempts.sort(key=lambda r: r["ops_per_sec"])
            chosen = dict(attempts[len(attempts) // 2])
            if len(attempts) > 1:
                chosen["ops_samples"] = [round(a["ops_per_sec"], 1)
                                         for a in attempts]
                chosen["p95_samples"] = sorted(
                    round(a["p95_ms"], 2) for a in attempts)
            rows.append({"clients": clients, "mode": mode, **chosen})
    finally:
        server.shutdown()
    return rows


def run_sweep(root: Path, duration: float,
              counts: Sequence[int] = SWEEP_COUNTS,
              repeats: int = 1) -> Dict[str, Any]:
    rows: List[Dict[str, Any]] = []
    for clients in counts:
        rows.extend(run_sweep_level(root, clients, duration, repeats))
    return {
        "benchmark": "NET-ASYNC connection-count sweep",
        "duration_seconds": duration,
        "repeats": repeats,
        "paced_ops_per_sec": PACED_OPS_PER_SEC,
        "python": sys.version.split()[0],
        "rows": rows,
        "summary": _sweep_summary(rows),
    }


def _sweep_summary(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The acceptance ratios, computed once so readers don't have to."""
    def find(clients: int, mode: str) -> Optional[Dict]:
        for row in rows:
            if (row["clients"] == clients and row["mode"] == mode
                    and "error" not in row):
                return row
        return None

    summary: Dict[str, Any] = {}
    low = find(256, "paced")
    high = find(1024, "paced")
    if low and high and low["p95_ms"]:
        summary["async_paced_p95_ratio_1024_vs_256"] = round(
            high["p95_ms"] / low["p95_ms"], 2)
    top = find(max(SWEEP_COUNTS), "saturated")
    if top:
        summary["async_max_clients_sustained"] = top["connected"]
        summary["async_max_clients_errors"] = top["errors"]
    return summary


def format_sweep(payload: Dict[str, Any]) -> str:
    lines = ["clients  mode       conns  requests  ops/sec"
             "   p50(ms)  p95(ms)  err"]
    for row in payload["rows"]:
        if "error" in row:
            lines.append(f"{row['clients']:>7}  {row['mode']:<9}  "
                         f"FAILED: {row['error']}")
            continue
        lines.append(
            f"{row['clients']:>7}  {row['mode']:<9}  "
            f"{row['connected']:>5}  {row['requests']:>8}  "
            f"{row['ops_per_sec']:>7.0f}  {row['p50_ms']:>7.2f}  "
            f"{row['p95_ms']:>7.2f}  {row['errors']:>3}")
    lines.append(f"summary: {json.dumps(payload['summary'])}")
    return "\n".join(lines)


# -- pytest entry points (short smoke durations) --------------------------------

def test_net_async_sweep_smoke(tmp_path):
    """A miniature sweep completes and writes sane JSON."""
    make_lab_database(tmp_path).close()
    payload = run_sweep(tmp_path, duration=0.5, counts=(4, 8))
    rows = [row for row in payload["rows"] if "error" not in row]
    assert len(rows) == 4  # 2 levels x 2 modes
    for row in rows:
        assert row["connected"] == row["clients"]
        if row["mode"] == "saturated":
            assert row["requests"] > 0
            assert row["errors"] == 0
    artifacts = Path(__file__).parent / "artifacts"
    artifacts.mkdir(exist_ok=True)
    (artifacts / "net_async_smoke.json").write_text(
        json.dumps(payload, indent=2) + "\n")


def test_net_concurrency_smoke(tmp_path):
    """All three levels complete a short run with sane numbers."""
    make_lab_database(tmp_path).close()
    results = run_all(tmp_path, duration=0.5)
    assert [row["clients"] for row in results] == list(CLIENT_COUNTS)
    for row in results:
        assert row["requests"] > 0
        assert row["throughput"] > 0
        assert row["p95_ms"] >= row["mean_ms"] * 0.1
    artifacts = Path(__file__).parent / "artifacts"
    artifacts.mkdir(exist_ok=True)
    (artifacts / "net_concurrency_smoke.txt").write_text(
        format_results(results) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=None,
                        help="seconds per concurrency level "
                             "(default: 10 classic, 4 sweep)")
    parser.add_argument("--root", type=Path, default=None,
                        help="existing database root (default: temp lab db)")
    parser.add_argument("--sweep", action="store_true",
                        help="run the 64/256/1024/4096 connection-count "
                             "sweep instead of the classic benchmark")
    parser.add_argument("--repeats", type=int, default=3,
                        help="sweep runs per cell; the median-throughput "
                             "run is reported (default 3)")
    args = parser.parse_args()
    if args.root is None:
        import tempfile

        root = Path(tempfile.mkdtemp(prefix="odeview-bench-net-"))
        make_lab_database(root).close()
    else:
        root = args.root
    artifacts = Path(__file__).parent / "artifacts"
    artifacts.mkdir(exist_ok=True)
    if args.sweep:
        payload = run_sweep(root, args.duration or 4.0,
                            repeats=args.repeats)
        print(format_sweep(payload))
        (artifacts / "BENCH_net_async.json").write_text(
            json.dumps(payload, indent=2) + "\n")
        return 0
    results = run_all(root, args.duration or 10.0)
    print(format_results(results))
    (artifacts / "net_concurrency.txt").write_text(
        format_results(results) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
