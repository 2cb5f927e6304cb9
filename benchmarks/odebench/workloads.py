"""The four odebench workloads: seeded input generators and their oracles.

Each workload owns a model of the right answers that does not come from the
program: the synthetic dataset follows formulas (``value = seq * 37 % 1000``,
``tag = seq % 16``, ``source = seq % sensors``), written values are recorded
before they are sent, and the lab session's expected windows are derived
from one independent pass over the database before the session opens it.
The seed drives only these generators; the program sees generated inputs.
"""

from __future__ import annotations

import itertools
import os
import queue
import random
from collections import deque
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.session import UserSession
from repro.errors import OdeError
from repro.data.labdb import make_lab_database
from repro.data.synthetic import make_synthetic_database
from repro.net.remote import RemoteDatabase
from repro.ode.database import Database
from repro.ode.oid import Oid

from harness import (
    CONNECTIONS,
    OracleMismatch,
    ServerChild,
    Tracer,
    Window,
    Worker,
    check,
    median,
    peak_rss_mb,
    tail,
)

DB = "synthetic"
HOST = "127.0.0.1"


@dataclass(frozen=True)
class Scale:
    """Dataset size.  ``FULL`` is about 1 MB of objects against the server's
    256 KiB buffer pool and 4096-entry MVCC read cache — larger than the
    program's caches; the 100 sensors fit the 512-entry client cache, the
    readings do not."""

    readings: int = 10000
    sensors: int = 100


FULL = Scale()
SMOKE = Scale(readings=500, sensors=10)


def seeded_cycle(rng: random.Random, shares: Dict[str, int]) -> Iterator[str]:
    """Operation kinds forever: one cycle with exact shares, in seeded order.

    A fixed cycle, not a draw per operation: every window then holds the
    same mix whatever the seed, and only the order and the keys vary.
    """
    cycle = [kind for kind, count in shares.items() for _ in range(count)]
    rng.shuffle(cycle)
    return itertools.cycle(cycle)


# -- the synthetic dataset and its formulas --------------------------------------------

def build_synthetic(root: Path, scale: Scale) -> None:
    """The public bulk-ingest path: one transaction of ``new_object`` calls,
    then ``create_index`` on the attribute the selections probe."""
    root.mkdir(parents=True, exist_ok=True)
    database = make_synthetic_database(
        root, readings=scale.readings, sensors=scale.sensors)
    try:
        database.create_index("reading", "value")
    finally:
        database.close()


def reading_oid(seq: int) -> Oid:
    return Oid(DB, "reading", seq)


def sensor_oid(index: int) -> Oid:
    return Oid(DB, "sensor", index)


def formula_value(seq: int) -> int:
    return seq * 37 % 1000


def formula_tag(seq: int) -> str:
    return f"t{seq % 16:x}"


def check_reading(buffer, seq: int, scale: Scale,
                  value: Optional[int] = None) -> None:
    values = buffer.values
    want = formula_value(seq) if value is None else value
    check(buffer.oid == reading_oid(seq) and values["seq"] == seq
          and values["value"] == want and values["tag"] == formula_tag(seq)
          and values["source"] == sensor_oid(seq % scale.sensors),
          f"reading {seq}: got {buffer.oid} {values}")


def check_sensor(buffer, index: int) -> None:
    values = buffer.values
    check(buffer.oid == sensor_oid(index)
          and values["label"] == f"sensor-{index:03d}"
          and values["zone"] == index % 5,
          f"sensor {index}: got {buffer.oid} {values}")


# -- workload base classes ----------------------------------------------------------------

class Workload:
    """Set-up, workers, teardown and the layer probes of one workload."""

    name = ""

    def __init__(self, seed: int, scale: Scale):
        self.seed = seed
        self.scale = scale

    def setup(self, directory: Path) -> None:
        """Everything before the first operation; timed as ``setup_s``."""
        raise NotImplementedError

    def workers(self) -> List[Worker]:
        raise NotImplementedError

    def rss_mb(self) -> float:
        raise NotImplementedError

    def finish(self, window: Window) -> None:
        """Checks that need the window over (adds to attempted/failed)."""

    def extra_detail(self, window: Window) -> Dict[str, object]:
        """Workload-specific numbers for the untraced report's ``detail``."""
        return {}

    def instrument(self, tracer: Tracer) -> None:
        """Wrap spans around the layer calls this workload makes."""

    def close(self) -> None:
        raise NotImplementedError


class Networked(Workload):
    """A workload over loopback: dataset, one server child, connections."""

    connections = CONNECTIONS
    #: ``worker_class(db, rng, scale)`` drives one connection.
    worker_class = None

    def __init__(self, seed: int, scale: Scale):
        super().__init__(seed, scale)
        self.child: Optional[ServerChild] = None
        self.dbs: List[RemoteDatabase] = []

    def setup(self, directory: Path) -> None:
        self.directory = directory
        build_synthetic(directory, self.scale)
        self.child = ServerChild(directory)
        self.dbs.append(RemoteDatabase.connect(HOST, self.child.port, DB))

    def connect_all(self) -> None:
        while len(self.dbs) < self.connections:
            self.dbs.append(RemoteDatabase.connect(HOST, self.child.port, DB))

    def workers(self) -> List[Worker]:
        self.connect_all()
        return [self.worker_class(db, random.Random(f"{self.seed}/{index}"),
                                  self.scale)
                for index, db in enumerate(self.dbs)]

    def rss_mb(self) -> float:
        return self.child.rss_mb()

    def instrument(self, tracer: Tracer) -> None:
        for db in self.dbs:
            tracer.wrap(db.client, "call", "net.call")

    def close(self) -> None:
        for db in self.dbs:
            db.close()
        self.dbs = []
        if self.child is not None:
            self.child.stop()
            self.child = None


# -- browse-remote ---------------------------------------------------------------------------

class BrowseRemoteWorker(Worker):
    SHARES = {"follow": 12, "cursor": 5, "batch": 2, "count": 1}
    CURSOR_STEPS = 8
    BATCH = 64

    def __init__(self, db: RemoteDatabase, rng: random.Random, scale: Scale):
        self.objects = db.objects
        self.rng = rng
        self.scale = scale
        self.kinds = seeded_cycle(rng, self.SHARES)
        self.cursor = self.objects.cursor("reading")

    def step(self) -> str:
        kind = next(self.kinds)
        getattr(self, "_" + kind)()
        return kind

    def _follow(self) -> None:
        seq = self.rng.randrange(self.scale.readings)
        reading = self.objects.get_buffer(reading_oid(seq))
        check_reading(reading, seq, self.scale)
        source = self.objects.get_buffer(reading.values["source"])
        check_sensor(source, seq % self.scale.sensors)

    def _cursor(self) -> None:
        seq = self.rng.randrange(self.scale.readings - self.CURSOR_STEPS)
        self.cursor.seek(reading_oid(seq))
        for step in range(1, self.CURSOR_STEPS + 1):
            got = self.cursor.next()
            check(got == reading_oid(seq + step),
                  f"cursor step {step} after {seq}: got {got}")

    def _batch(self) -> None:
        first = self.rng.randrange(self.scale.readings - self.BATCH)
        oids = [reading_oid(first + i) for i in range(self.BATCH)]
        buffers = self.objects.get_buffers(oids)
        check(len(buffers) == self.BATCH, f"batch of {len(buffers)}")
        for offset, buffer in enumerate(buffers):
            check_reading(buffer, first + offset, self.scale)

    def _count(self) -> None:
        got = self.objects.count("reading")
        check(got == self.scale.readings, f"count {got}")


class BrowseRemote(Networked):
    name = "browse-remote"
    worker_class = BrowseRemoteWorker


# -- select-mixed ----------------------------------------------------------------------------

class SelectWorker(Worker):
    #: 70 % cheap probes (eq, eq_seq): the median operation then lies well
    #: inside the probe latencies.  At 60 % it sat in the gap between the
    #: 5 ms probes and the 15 ms ranges and moved by a third between seeds.
    SHARES = {"eq": 12, "eq_seq": 2, "lt10": 3, "lt100": 2, "tag": 1}
    EXPLAIN_EVERY = 20

    def __init__(self, db: RemoteDatabase, rng: random.Random, scale: Scale):
        self.objects = db.objects
        self.rng = rng
        self.scale = scale
        self.kinds = seeded_cycle(rng, self.SHARES)
        self.steps = 0
        self.by_value: Dict[int, List[int]] = {}
        for seq in range(scale.readings):
            self.by_value.setdefault(formula_value(seq), []).append(seq)

    def _below(self, bound: int) -> List[int]:
        return sorted(seq for value in range(bound)
                      for seq in self.by_value.get(value, ()))

    def query(self, kind: str) -> Tuple[str, List[int]]:
        """One seeded condition and the rows the formulas say it selects."""
        rng = self.rng
        if kind == "eq":
            key = rng.randrange(1000)
            return f"value == {key}", list(self.by_value.get(key, ()))
        if kind == "lt10":
            return "value < 10", self._below(10)
        if kind == "lt100":
            return "value < 100", self._below(100)
        if kind == "eq_seq":
            key = rng.randrange(1000)
            limit = rng.randrange(1, self.scale.readings)
            return (f"value == {key} && seq < {limit}",
                    [s for s in self.by_value.get(key, ()) if s < limit])
        digit = rng.randrange(16)
        return (f'tag == "t{digit:x}"',
                list(range(digit, self.scale.readings, 16)))

    def step(self) -> str:
        kind = next(self.kinds)
        self.steps += 1
        condition, expected = self.query(kind)
        rows = self.objects.select_pushdown("reading", condition)
        got = sorted(buffer.values["seq"] for buffer in rows)
        check(got == expected,
              f"{condition}: {len(got)} rows, expected {len(expected)}")
        for buffer in rows:
            check_reading(buffer, buffer.values["seq"], self.scale)
        if self.steps % self.EXPLAIN_EVERY == 0:
            plan = self.objects.explain("reading", condition)
            check(plan["cardinality"] == self.scale.readings
                  and plan["access"] in ("index-eq", "index-range", "scan"),
                  f"explain {condition}: {plan}")
        return kind


class SelectMixed(Networked):
    name = "select-mixed"
    #: One connection.  The event-loop server runs selections inline, so two
    #: closed-loop connections fall into lock step and a probe's latency is
    #: 5 ms or 10 ms or 300 ms by what the other connection happens to run;
    #: the median then sits on the edge between those modes and moved by 29 %
    #: between seeds.  One connection times the query engine itself, which is
    #: what this workload is for; browse-remote keeps the concurrent readers.
    connections = 1
    worker_class = SelectWorker


# -- write-watch -----------------------------------------------------------------------------

@dataclass
class Commit:
    """One acknowledged commit, as the writer saw it."""

    epoch: int
    sent: float          # the commit-carrying request left the writer
    acked: float         # its reply arrived: the write is durable
    writes: Dict[int, int]   # reading seq -> value written


class WriteModel:
    """What the writer sent and what the watcher saw, shared by both."""

    FIRST_VALUE = 1000   # above every formula value, and rising: a later
    #                      write to an object always carries a larger value

    def __init__(self, scale: Scale):
        self.scale = scale
        self.next_value = self.FIRST_VALUE
        self.created = 0
        self.commits: List[Commit] = []
        self.latest: Dict[int, int] = {}       # seq -> last acknowledged value
        self.sent: Dict[int, List[int]] = {}   # seq -> every value ever sent
        self.event_at: Dict[int, float] = {}   # epoch -> watcher's on_event time
        self.seen: List[Tuple[int, int, int]] = []   # (epoch, seq, value read)

    def value_for(self, seq: int) -> int:
        """Mint a value and record it *before* it is sent, so the watcher can
        never read a value the model does not know."""
        value = self.next_value
        self.next_value += 1
        self.sent.setdefault(seq, []).append(value)
        return value


class Writer(Worker):
    SHARES = {"update": 7, "new": 1, "txn": 2}
    TXN_UPDATES = 8

    def __init__(self, db: RemoteDatabase, rng: random.Random,
                 model: WriteModel, wal_path: Path):
        self.objects = db.objects
        self.rng = rng
        self.model = model
        self.scale = model.scale
        self.kinds = seeded_cycle(rng, self.SHARES)
        self.wal_path = wal_path
        #: WAL file growth per commit, sampled on traced runs only.
        self.wal_growth: List[int] = []

    def step(self) -> str:
        kind = next(self.kinds)
        before = self._wal_size()
        getattr(self, "_" + kind)()
        if before is not None:
            grown = self._wal_size() - before
            if grown > 0:   # a checkpoint truncated the log in between
                self.wal_growth.append(grown)
        return kind

    def _wal_size(self) -> Optional[int]:
        if self.tracer is None:
            return None
        try:
            return os.stat(self.wal_path).st_size
        except OSError:
            return 0

    def _acknowledged(self, sent: float, writes: Dict[int, int]) -> None:
        acked = time.perf_counter()
        self.model.commits.append(
            Commit(self.objects.epoch, sent, acked, writes))
        self.model.latest.update(writes)

    def _update(self) -> None:
        seq = self.rng.randrange(self.scale.readings)
        value = self.model.value_for(seq)
        sent = time.perf_counter()
        buffer = self.objects.update(reading_oid(seq), {"value": value})
        self._acknowledged(sent, {seq: value})
        check_reading(buffer, seq, self.scale, value=value)

    def _new(self) -> None:
        seq = self.scale.readings + self.model.created
        value = self.model.value_for(seq)
        sent = time.perf_counter()
        oid = self.objects.new_object("reading", {
            "seq": seq, "value": value, "tag": formula_tag(seq),
            "source": sensor_oid(seq % self.scale.sensors)})
        self.model.created += 1
        self._acknowledged(sent, {seq: value})
        check(oid == reading_oid(seq), f"new object {oid}, expected seq {seq}")

    def _txn(self) -> None:
        seqs = self.rng.sample(range(self.scale.readings), self.TXN_UPDATES)
        writes = {seq: self.model.value_for(seq) for seq in seqs}
        self.objects.begin()
        for seq, value in writes.items():
            self.objects.update(reading_oid(seq), {"value": value})
        sent = time.perf_counter()
        self.objects.commit()
        self._acknowledged(sent, writes)


class Watcher(Worker):
    """Connection B: push-invalidated cache, re-reads whatever changed."""

    counted = False

    def __init__(self, db: RemoteDatabase, model: WriteModel):
        self.objects = db.objects
        self.model = model
        self.events: "queue.Queue" = queue.Queue()
        self.recent: deque = deque(maxlen=256)   # for cdc.bytes_per_change
        # The cache-coupled form of ``db.subscribe``: by the time
        # ``on_refresh`` runs, the named objects are evicted, so the
        # re-read below must come from the server.
        self.subscription = db.watch(clusters=["reading"],
                                     on_refresh=self._on_event)

    def _on_event(self, event) -> None:
        """Network thread: stamp and hand over, nothing else."""
        self.model.event_at.setdefault(event.epoch, time.perf_counter())
        self.events.put(event)

    def step(self) -> Optional[str]:
        while self.subscription.poll() is not None:
            pass   # the subscription's own queue is not the one consumed
        try:
            event = self.events.get(timeout=0.2)
        except queue.Empty:
            return None
        check(not event.resync and not event.lost,
              f"change feed broke at epoch {event.epoch}")
        self.recent.append(event)
        for text in event.oids():
            oid = Oid.parse(text)
            value = self.objects.get_buffer(oid).values["value"]
            self.model.seen.append((event.epoch, oid.number, value))
        return "refresh"


class WriteWatch(Networked):
    name = "write-watch"
    connections = 2   # a writer and a watcher, whatever the core count

    def workers(self) -> List[Worker]:
        self.connect_all()
        self.model = WriteModel(self.scale)
        self.writer = Writer(self.dbs[0], random.Random(f"{self.seed}/0"),
                             self.model, self.directory / f"{DB}.odb" / "wal.log")
        self.watcher = Watcher(self.dbs[1], self.model)
        return [self.writer, self.watcher]

    def finish(self, window: Window) -> None:
        self._check_watcher(window)
        self.close()   # clean shutdown; the reopen reads only what is on disk
        self._check_reopened(window)

    def _check_watcher(self, window: Window) -> None:
        """Every re-read saw the value of its commit, or a later one."""
        model = self.model
        # The last commit's push may still be in flight; the client's pump
        # thread stamps it the moment it lands.
        deadline = time.perf_counter() + 2.0
        while (model.commits and model.commits[-1].epoch not in model.event_at
               and time.perf_counter() < deadline):
            time.sleep(0.01)
        written_at = {commit.epoch: commit.writes for commit in model.commits}
        for epoch, seq, value in model.seen:
            window.attempted += 1
            floor = written_at.get(epoch, {}).get(seq)
            if (floor is None or value < floor
                    or value not in model.sent.get(seq, ())):
                window.fail(f"watcher read {value} for reading {seq} at "
                            f"epoch {epoch}, commit wrote {floor}")
        missed = sum(1 for commit in model.commits
                     if commit.epoch not in model.event_at)
        window.attempted += 1
        if missed:
            window.fail(f"{missed} commits never reached the watcher")

    def _check_reopened(self, window: Window) -> None:
        """Every acknowledged write is there after a restart."""
        model = self.model
        with Database.open(self.directory / f"{DB}.odb") as database:
            objects = database.objects
            window.attempted += 1
            count = objects.count("reading")
            if count != self.scale.readings + model.created:
                window.fail(f"reopened count {count}")
            for seq, value in model.latest.items():
                window.attempted += 1
                try:
                    check_reading(objects.get_buffer(reading_oid(seq)), seq,
                                  self.scale, value=value)
                except (OracleMismatch, OdeError) as exc:
                    window.fail(f"after reopen: {exc}")

    def commits_in(self, window: Window) -> List[Commit]:
        """The commits sent and acknowledged inside the window that the
        watcher was told about."""
        stop = window.start + window.seconds
        return [c for c in self.model.commits
                if c.sent >= window.start and c.acked <= stop
                and c.epoch in self.model.event_at]

    def refresh_ms(self, window: Window) -> List[float]:
        """Writer's send -> watcher's event, per commit."""
        return [(self.model.event_at[c.epoch] - c.sent) * 1e3
                for c in self.commits_in(window)]

    def extra_detail(self, window: Window) -> Dict[str, object]:
        refresh = self.refresh_ms(window)
        return {"refresh_ms_p50": median(refresh),
                "refresh_ms_samples": len(refresh),
                "refresh_ms_tail": tail(refresh)}


# -- browse-local ----------------------------------------------------------------------------

class LabModel:
    """The lab database as one independent pass over it sees it."""

    def __init__(self, directory: Path):
        with Database.open(directory / "lab.odb") as database:
            objects = database.objects
            self.employees: List[Tuple[Oid, str, str, str]] = []
            for oid in objects.cluster("employee").oids():
                employee = objects.get_buffer(oid).values
                department = objects.get_buffer(employee["dept"]).values
                manager = objects.get_buffer(department["mgr"]).values
                self.employees.append((oid, employee["name"],
                                       department["dname"], manager["name"]))


class Clicker(Worker):
    """The paper's session (Figs 6-10): sequence the employee object set
    with its dept -> mgr reference chain displayed, render after each click."""

    SHARES = {"next": 3, "previous": 1}
    TOGGLE_EVERY = 16

    def __init__(self, session: UserSession, browser, model: LabModel,
                 rng: random.Random):
        self.session = session
        self.browser = browser
        self.model = model
        self.kinds = seeded_cycle(rng, self.SHARES)
        self.index = 0   # setup clicked ``next`` once: the first employee
        self.clicks = 0
        self.rendering = ""

    def step(self) -> str:
        self.clicks += 1
        last = len(self.model.employees) - 1
        if self.clicks % self.TOGGLE_EVERY == 0:
            kind = "toggle"
        elif self.index == last:
            kind = "reset"
        else:
            kind = next(self.kinds)
            if kind == "previous" and self.index <= 0:
                kind = "next"
        if kind == "toggle":
            self.session.click_format_button(self.browser, "picture")
        else:
            self.session.click_control(self.browser, kind)
            self.index = {"next": self.index + 1, "previous": self.index - 1,
                          "reset": -1}[kind]
        with self.span("windowing.render"):
            self.rendering = self.session.app.render()
        self._check()
        return kind

    def _check(self) -> None:
        rendering = self.rendering
        if self.index < 0:
            check("(no current object)" in rendering, "reset left an object")
            return
        oid, name, department, manager = self.model.employees[self.index]
        total = len(self.model.employees)
        for expected in (f"object: {oid}  [{self.index + 1}/{total}]",
                         name, department, manager):
            check(expected in rendering,
                  f"click {self.clicks}: {expected!r} not on screen")


class BrowseLocal(Workload):
    name = "browse-local"

    def __init__(self, seed: int, scale: Scale):
        super().__init__(seed, scale)
        self.session: Optional[UserSession] = None

    def setup(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        make_lab_database(directory).close()
        self.model = LabModel(directory)
        self.session = UserSession(directory, screen_width=220)
        session = self.session
        session.click_database_icon("lab")
        self.lab = session.app.session("lab")
        self.browser = self.lab.open_object_set("employee")
        session.click_control(self.browser, "next")
        session.click_format_button(self.browser, "text")
        session.click_format_button(self.browser, "picture")
        self.dept = session.click_reference_button(self.browser, "dept")
        session.click_format_button(self.dept, "text")
        self.mgr = session.click_reference_button(self.dept, "mgr")
        session.click_format_button(self.mgr, "text")
        session.app.render()   # the first window is on screen

    def workers(self) -> List[Worker]:
        self.clicker = Clicker(self.session, self.browser, self.model,
                               random.Random(f"{self.seed}/0"))
        return [self.clicker]

    def rss_mb(self) -> float:
        return peak_rss_mb(os.getpid())

    def instrument(self, tracer: Tracer) -> None:
        tracer.wrap(self.browser, "sequence", "core.sync.sequence")
        tracer.wrap(self.lab.registry, "display", "dynlink.display")
        tracer.wrap(self.session.app.screen, "set_content", "windowing.update")
        tracer.wrap(self.session.app.screen, "create", "windowing.update")

    def close(self) -> None:
        if self.session is not None:
            self.session.shutdown()
            self.session = None


WORKLOADS = {cls.name: cls
             for cls in (BrowseRemote, BrowseLocal, SelectMixed, WriteWatch)}
