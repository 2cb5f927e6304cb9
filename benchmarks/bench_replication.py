"""REPL-SCALE: read throughput across WAL-shipping read replicas.

The PR 6 tentpole claim: replicas that apply shipped WAL units and
serve lock-free snapshot reads let read throughput scale past one
server process, while the epoch floor keeps every session's reads
monotonic with read-your-writes.  This benchmark runs one continuous
writer plus 16 reader processes against 0, 1 and 2 replicas and
reports aggregate reads/s, the scaling factor against the no-replica
baseline, and the worst apply lag (in epochs) observed on any replica
while the writer was running.

Every server and every reader is a separate OS process — the servers
via ``python -m repro serve``, the readers by re-invoking this file
with ``--reader`` — so the scaling measured is real CPU scaling, not
thread scheduling inside one interpreter.

Run directly for the full measurement::

    PYTHONPATH=src python benchmarks/bench_replication.py --duration 5

or as a short pytest smoke run::

    PYTHONPATH=src python -m pytest benchmarks/bench_replication.py -q

Results land in ``benchmarks/artifacts/BENCH_replication.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPLICA_COUNTS = (0, 1, 2)
DEFAULT_READERS = 16

_SRC = Path(__file__).resolve().parent.parent / "src"


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_server(root: Path, port: int,
                  replica_of: Optional[int] = None) -> subprocess.Popen:
    command = [sys.executable, "-m", "repro", "serve", str(root),
               "127.0.0.1", str(port)]
    if replica_of is not None:
        command += ["--replica-of", f"127.0.0.1:{replica_of}"]
    return subprocess.Popen(command, env=_env(),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)


def _wait_ready(port: int, timeout: float = 30.0) -> None:
    from repro.net.client import OdeClient

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            OdeClient("127.0.0.1", port, timeout=1.0, retries=0).connect().close()
            return
        except Exception:
            time.sleep(0.1)
    raise RuntimeError(f"server on port {port} never came up")


def _stop_server(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)


# -- the subprocess workloads ----------------------------------------------------

def _reader_main(args: argparse.Namespace) -> int:
    """One reader process: routed uncached reads until the deadline."""
    from repro.net.remote import RemoteDatabase

    replicas: List[Tuple[str, int]] = []
    if args.replicas:
        for entry in args.replicas.split(","):
            host, port = entry.rsplit(":", 1)
            replicas.append((host, int(port)))
    rng = random.Random(args.worker)
    database = RemoteDatabase.connect(
        "127.0.0.1", args.port, "lab", replicas=replicas or None)
    try:
        objects = database.objects
        cluster = objects.cluster("employee")
        requests = 0
        deadline = time.perf_counter() + args.duration
        while time.perf_counter() < deadline:
            objects.cache.purge()  # force the wire, not the cache
            if rng.random() < 0.5:
                objects.get_buffer(cluster.oid(rng.randrange(55)))
            else:
                objects.count("employee")
            requests += 1
        print(json.dumps({"requests": requests,
                          "epoch_floor": database.client.epoch_floor}))
        return 0
    finally:
        database.close()


def _write_workload(port: int, stop: threading.Event,
                    commits: List[int], errors: List[str]) -> None:
    """The continuous writer: autocommit salary updates, back to back."""
    from repro.net.remote import RemoteDatabase
    from repro.ode.oid import Oid

    rng = random.Random(99)
    try:
        database = RemoteDatabase.connect("127.0.0.1", port, "lab")
        try:
            count = 0
            while not stop.is_set():
                oid = Oid("lab", "employee", rng.randrange(55))
                database.objects.update(
                    oid, {"salary": float(rng.randrange(1, 100))})
                count += 1
            commits.append(count)
        finally:
            database.close()
    except Exception as exc:
        errors.append(f"writer: {type(exc).__name__}: {exc}")


def _lag_sampler(ports: List[int], stop: threading.Event,
                 max_lag: List[int]) -> None:
    """Poll every replica's stats; keep the worst apply lag seen."""
    from repro.net import protocol as P
    from repro.net.client import OdeClient

    clients = [OdeClient("127.0.0.1", port, retries=0) for port in ports]
    try:
        while not stop.is_set():
            for client in clients:
                try:
                    stats = client.call(P.OP_STATS, {"db": "lab"})
                    lag = stats.get("replication", {}).get("lag", 0)
                    if isinstance(lag, int) and lag > max_lag[0]:
                        max_lag[0] = lag
                except Exception:
                    pass
            stop.wait(0.05)
    finally:
        for client in clients:
            client.close()


# -- running levels --------------------------------------------------------------

def run_level(root: Path, replicas: int, readers: int,
              duration: float) -> Dict[str, float]:
    """One level: a primary, *replicas* replica servers, *readers* reader
    processes and one continuous writer."""
    primary_port = _free_port()
    servers = [_spawn_server(root, primary_port)]
    replica_ports: List[int] = []
    try:
        _wait_ready(primary_port)
        for _ in range(replicas):
            port = _free_port()
            replica_root = Path(tempfile.mkdtemp(prefix="odeview-replica-"))
            servers.append(_spawn_server(replica_root, port,
                                         replica_of=primary_port))
            replica_ports.append(port)
        for port in replica_ports:
            _wait_ready(port)

        stop = threading.Event()
        commits: List[int] = []
        errors: List[str] = []
        max_lag = [0]
        writer = threading.Thread(
            target=_write_workload,
            args=(primary_port, stop, commits, errors))
        sampler = threading.Thread(
            target=_lag_sampler, args=(replica_ports, stop, max_lag))
        writer.start()
        sampler.start()

        replica_arg = ",".join(f"127.0.0.1:{port}" for port in replica_ports)
        reader_procs = [
            subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--reader", "--port", str(primary_port),
                 "--replicas", replica_arg,
                 "--duration", str(duration), "--worker", str(worker)],
                env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for worker in range(readers)
        ]
        requests = 0
        for proc in reader_procs:
            out, err = proc.communicate(timeout=duration + 60)
            if proc.returncode != 0:
                raise RuntimeError(
                    f"reader failed: {err.decode(errors='replace')[-500:]}")
            requests += json.loads(out)["requests"]
        stop.set()
        writer.join(30)
        sampler.join(30)
        if errors:
            raise RuntimeError("; ".join(errors))
        return {
            "replicas": replicas,
            "readers": readers,
            "requests": requests,
            "reads_per_s": requests / duration,
            "writer_commits": commits[0] if commits else 0,
            "max_apply_lag_epochs": max_lag[0],
        }
    finally:
        for proc in servers:
            _stop_server(proc)


def run_all(root: Path, readers: int,
            duration: float) -> List[Dict[str, float]]:
    results = []
    for replicas in REPLICA_COUNTS:
        row = run_level(root, replicas, readers, duration)
        baseline = results[0]["reads_per_s"] if results else row["reads_per_s"]
        row["scaling_vs_baseline"] = (
            row["reads_per_s"] / baseline if baseline else 0.0)
        results.append(row)
    return results


def format_results(results: List[Dict[str, float]]) -> str:
    lines = ["replicas  readers  requests  reads/s  scaling  commits  max-lag"]
    for row in results:
        lines.append(
            f"{row['replicas']:>8}  {row['readers']:>7}  "
            f"{row['requests']:>8}  {row['reads_per_s']:>7.0f}  "
            f"{row['scaling_vs_baseline']:>6.2f}x  "
            f"{row['writer_commits']:>7}  "
            f"{row['max_apply_lag_epochs']:>7}")
    return "\n".join(lines)


def write_artifact(results: List[Dict[str, float]],
                   duration: float) -> Path:
    artifacts = Path(__file__).parent / "artifacts"
    artifacts.mkdir(exist_ok=True)
    path = artifacts / "BENCH_replication.json"
    path.write_text(json.dumps({
        "benchmark": "replication",
        "duration_per_level": duration,
        # Scaling across replica *processes* is bounded by the cores
        # available to run them; read the scaling column against this.
        "cpu_count": os.cpu_count(),
        "results": results,
    }, indent=2) + "\n")
    return path


# -- pytest entry point (short smoke duration) ----------------------------------

def test_replication_smoke(tmp_path):
    """Readers make progress at every replica count; the writer too."""
    from repro.data.labdb import make_lab_database

    make_lab_database(tmp_path).close()
    results = []
    for replicas in (0, 1):
        results.append(run_level(tmp_path, replicas, readers=2,
                                 duration=0.5))
    for row in results:
        assert row["requests"] > 0
        assert row["writer_commits"] > 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=5.0,
                        help="seconds per replica-count level")
    parser.add_argument("--readers", type=int, default=DEFAULT_READERS)
    parser.add_argument("--root", type=Path, default=None,
                        help="existing database root (default: temp lab db)")
    parser.add_argument("--reader", action="store_true",
                        help=argparse.SUPPRESS)  # subprocess entry
    parser.add_argument("--port", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--replicas", type=str, default="",
                        help=argparse.SUPPRESS)
    parser.add_argument("--worker", type=int, default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.reader:
        return _reader_main(args)
    if args.root is None:
        from repro.data.labdb import make_lab_database

        root = Path(tempfile.mkdtemp(prefix="odeview-bench-repl-"))
        make_lab_database(root).close()
    else:
        root = args.root
    results = run_all(root, args.readers, args.duration)
    print(format_results(results))
    path = write_artifact(results, args.duration)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
