"""Shared machinery of odebench: work directory, server child, closed loop,
span recorder and the statistics every workload reports.

Nothing here knows a workload.  The harness touches the program only from
outside — it starts the public ``OdeServer`` in a child process, times calls
into public functions and differences public counters.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Everything a run writes lives here (inside the checkout, git-ignored).
WORK = ROOT / ".odebench_work"

#: Slices the measured window is cut into; their rates go to ``detail`` to
#: show whether a window was disturbed.
SLICES = 6
#: Seconds of untimed load before the window: fills the server's MVCC read
#: cache, the client buffer caches and the allocator's arenas.
WARMUP_SECONDS = 2.0
#: Connections of a networked workload.  Two cores: the server child takes
#: one, the generator's threads share the other.
CONNECTIONS = min(2, os.cpu_count() or 1)
#: A workload that has not finished by now is killed (the driver allows 180).
WATCHDOG_SECONDS = 170
#: A worker stops after this many failed operations: the run is lost anyway,
#: and a dead connection must not burn a client timeout per operation.
MAX_FAILURES = 50


class OracleMismatch(Exception):
    """A reply disagreed with the harness's model of the right answer."""


class WatchdogTimeout(Exception):
    """The workload overran its budget."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise OracleMismatch(message)


# -- statistics ------------------------------------------------------------------

def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(0, min(len(ordered) - 1, int(round(p / 100.0 * len(ordered))) - 1))
    return ordered[rank]


def tail(samples: Sequence[float]) -> Dict[str, float]:
    """The highest percentile that still has ten samples beyond it."""
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(ordered) * (1 - p / 100.0) >= 10:
            return {"percentile": p, "value": percentile(ordered, p)}
    return {}


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- environment -----------------------------------------------------------------

def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=5, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"   # the driver's checkout is not a git repository


def _tmp_filesystem() -> str:
    best = ("", "unknown")
    target = str(WORK.resolve())
    try:
        with open("/proc/mounts", "r", encoding="utf-8") as fh:
            for line in fh:
                _dev, mount, fstype = line.split()[:3]
                if target.startswith(mount) and len(mount) > len(best[0]):
                    best = (mount, fstype)
    except OSError:
        pass
    return best[1]


def environment(seed: int) -> Dict[str, Any]:
    """What a reader needs to judge whether two reports are comparable."""
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "seed": seed,
        "io_model": "async",
        "connections": CONNECTIONS,
        "tmp_filesystem": _tmp_filesystem(),
        "loadavg_1min": load,
        "noisy": load > nproc,
    }


# -- work directory and signals ----------------------------------------------------

@contextmanager
def work_directory() -> Iterator[Path]:
    """A private directory for one run; ``tempfile`` is pointed into it so
    the program's own temporary files stay inside the checkout too."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    previous = tempfile.tempdir
    tempfile.tempdir = str(path)
    try:
        yield path
    finally:
        tempfile.tempdir = previous
        shutil.rmtree(path, ignore_errors=True)


@contextmanager
def watchdog(seconds: int = WATCHDOG_SECONDS) -> Iterator[None]:
    """Turn an overrun or a SIGTERM into an exception in the main thread,
    so every ``finally`` below it (kill the child, drop the directory) runs."""
    def _overrun(_signum, _frame):
        raise WatchdogTimeout(f"workload still running after {seconds} s")

    def _terminated(_signum, _frame):
        raise KeyboardInterrupt("terminated")

    old_alarm = signal.signal(signal.SIGALRM, _overrun)
    old_term = signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old_alarm)
        signal.signal(signal.SIGTERM, old_term)


# -- the server child ---------------------------------------------------------------

class ServerChild:
    """One ``OdeServer`` in a child process, reached over loopback."""

    HANDSHAKE_SECONDS = 60.0

    def __init__(self, root: Path):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                   TMPDIR=tempfile.gettempdir())
        env.pop("ODE_IO_MODEL", None)
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "server_child.py"), str(root)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        try:
            self.port = self._handshake()
        except BaseException:
            self.stop()
            raise

    def _handshake(self) -> int:
        ready, _, _ = select.select(
            [self._proc.stdout], [], [], self.HANDSHAKE_SECONDS)
        line = self._proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError(
                f"server child gave no port (exit code {self._proc.poll()})")
        return int(json.loads(line)["port"])

    def rss_mb(self) -> float:
        return peak_rss_mb(self._proc.pid)

    def stop(self) -> None:
        """Ask for a clean shutdown (close stdin), kill if it does not come."""
        proc = self._proc
        if proc.poll() is None:
            try:
                proc.stdin.close()
            except OSError:
                pass
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
        proc.stdout.close()


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of *pid* in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- spans -----------------------------------------------------------------------------

_NO_SPAN = nullcontext()


class Tracer:
    """In-memory span recorder: name, start, end, parent span, operation id.

    Spans nest per thread; the operation id is the root span of the user
    operation, so all spans of one click share it.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)   # ``next`` on it is atomic

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        operation = stack[0] if stack else span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, operation, name, start, end))

    def wrap(self, target: Any, attribute: str, name: str) -> None:
        """Put a span around a bound public method of one *instance*."""
        inner = getattr(target, attribute)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(target, attribute, traced)

    def durations(self, name: str) -> List[float]:
        return [end - start for _i, _p, _o, n, start, end in self.spans
                if n == name]

    def self_times(self, name: str) -> List[float]:
        """Each *name* span's duration minus what its child spans cover."""
        covered: Dict[int, float] = {}
        for _i, parent, _o, _n, start, end in self.spans:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
        return [(end - start) - covered.get(span_id, 0.0)
                for span_id, _p, _o, n, start, end in self.spans if n == name]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, operation, name, start, end in self.spans:
                fh.write(json.dumps({
                    "span": span_id, "parent": parent, "op": operation,
                    "name": name, "start": start, "end": end}) + "\n")


# -- the closed loop ---------------------------------------------------------------------

class Worker:
    """One closed-loop client: ``step`` performs and checks one operation
    and returns its kind.  ``counted`` workers feed ``ops_per_s`` and
    ``op_ms_p50``; the others (the write-watch watcher) only feed
    ``attempted``/``failed``."""

    counted = True
    #: Set by the loop on a traced run.
    tracer: Optional[Tracer] = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else _NO_SPAN

    def step(self) -> Optional[str]:
        """One operation; ``None`` when there was nothing to do."""
        raise NotImplementedError


class Window:
    """What one closed-loop run measured."""

    def __init__(self, start: float, seconds: float):
        self.start = start
        self.seconds = seconds
        #: (end time, latency seconds, kind) of counted, correct operations
        #: that completed inside the window.
        self.samples: List[Tuple[float, float, str]] = []
        #: Operations of counted workers, including the ones cut by an edge.
        self.counted_ops = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []   # the first few, for the report

    def fail(self, error: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(error)

    def slice_rates(self) -> List[float]:
        width = self.seconds / SLICES
        counts = [0] * SLICES
        for end, _latency, _kind in self.samples:
            counts[min(SLICES - 1, int((end - self.start) / width))] += 1
        return [count / width for count in counts]

    def ops_per_s(self) -> float:
        """Completions over the whole window.  Not the median of the slice
        rates: one 0.4 s scan among 5 ms probes makes a two-second slice hold
        anything from 40 to 80 operations, and across seeds that median
        spread more than twice as wide as this count."""
        return len(self.samples) / self.seconds

    def latencies_ms(self, kind: Optional[str] = None) -> List[float]:
        return [latency * 1e3 for _end, latency, k in self.samples
                if kind is None or k == kind]

    def detail(self) -> Dict[str, Any]:
        latencies = self.latencies_ms()
        kinds = sorted({kind for _e, _l, kind in self.samples})
        return {
            "samples": len(latencies),
            "slice_ops_per_s": self.slice_rates(),
            "op_ms_tail": tail(latencies),
            "op_ms_p50_by_kind": {
                kind: {"p50": median(self.latencies_ms(kind)),
                       "samples": len(self.latencies_ms(kind))}
                for kind in kinds},
        }


def _drive(worker: Worker, stop_at: float, log: List) -> None:
    failures = 0
    while failures < MAX_FAILURES:
        start = time.perf_counter()
        if start >= stop_at:
            return
        try:
            with worker.span("op"):
                kind = worker.step()
            error = None
        except Exception as exc:  # a failed operation is a result, not a crash
            kind, error = "failed", f"{type(exc).__name__}: {exc}"
            failures += 1
        if kind is None:
            continue   # the worker had nothing to do (an idle poll)
        log.append((start, time.perf_counter(), kind, error))


def closed_loop(workers: Sequence[Worker], seconds: float,
                warmup: float = WARMUP_SECONDS,
                tracer: Optional[Tracer] = None) -> Window:
    """Run every worker back to back (zero think time) for *warmup* +
    *seconds*; operations that complete inside the last *seconds* are timed,
    every operation is checked."""
    begin_at = time.perf_counter() + warmup
    stop_at = begin_at + seconds
    logs: List[List] = [[] for _ in workers]
    threads = []
    for worker, log in zip(workers, logs):
        worker.tracer = tracer
        threads.append(threading.Thread(
            target=_drive, args=(worker, stop_at, log), daemon=True))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window = Window(begin_at, seconds)
    for worker, log in zip(workers, logs):
        for start, end, kind, error in log:
            window.attempted += 1
            window.counted_ops += worker.counted and start >= begin_at
            if error is not None:
                window.fail(error)
            elif worker.counted and begin_at <= end <= stop_at:
                window.samples.append((end, end - start, kind))
    return window


def timed(function: Callable[[], Any]) -> Tuple[float, Any]:
    start = time.perf_counter()
    result = function()
    return time.perf_counter() - start, result
