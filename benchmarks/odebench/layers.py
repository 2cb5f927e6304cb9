"""The traced run: spans around the harness's calls into each layer, public
counter deltas, and the *layer ladder*.

The ladder replays a sample of the requests the traced window sent, one layer
lower each time and in this process: the wire call (its recorded round trip)
-> ``ServerSession.dispatch`` -> ``ObjectManager`` / ``SelectionPlanner`` ->
the codec.  A layer's own cost is its level minus the level below.  The
replay runs against a second, identically built copy of the dataset, so it
never disturbs the server that is being measured.

Every per-layer metric of BENCHMARK.json is reported on every workload; a
layer the workload does not touch reports 0 — which is the prediction
("a net optimisation must show no change on browse-local") made checkable.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.cdc.summary import ChangeSummary, summary_to_wire
from repro.core.queryplan import SelectionPlanner, sargable, split_conjuncts
from repro.core.sync import subtree_refresh_counts
from repro.net import protocol as P
from repro.net.server import OdeServer
from repro.net.session import ServerSession
from repro.obs import get_registry
from repro.ode.codec import decode_object, encode_object
from repro.ode.oid import Oid
from repro.ode.opp.parser import parse_expression
from repro.ode.opp.predicate import PredicateEvaluator
from repro.ode.opp.typecheck import check_selection_predicate

import harness
import workloads
from harness import Tracer, Window, median, ratio

#: Requests of connection 0 replayed by the ladder.
LADDER_REQUESTS = 400
#: Selections replayed at the planner level (a forced scan costs ~0.1 s).
LADDER_SELECTS = 40
#: Distinct conditions timed against their forced alternative plan.
MISPLAN_QUERIES = 6
#: The chosen plan is a misplan when the alternative beats it by this much.
MISPLAN_MARGIN = 1.25
CODEC_OBJECTS = 200

_CURSOR_OPCODES = (P.OP_CURSOR_NEXT, P.OP_CURSOR_SEEK)


def _us(seconds: List[float]) -> float:
    return median(seconds) * 1e6


# -- counters ---------------------------------------------------------------------------------

def _counters(workload) -> Dict[str, float]:
    """Every public counter the layer metrics difference, flattened."""
    registry = get_registry()
    out: Dict[str, float] = {}
    for name, value in registry.snapshot_prefix("net.client.").items():
        if not isinstance(value, dict):
            out[name] = value
    out["calls"] = sum(value for name, value in out.items()
                       if name.startswith("net.client.requests."))
    if isinstance(workload, workloads.Networked):
        stats = workload.dbs[0].server_stats()
        caches = [db.objects.cache for db in workload.dbs]
        out["cache.hits"] = sum(cache.hits for cache in caches)
        out["cache.misses"] = sum(cache.misses for cache in caches)
        pool, commit = stats["pool"], stats["group_commit"]
        out["mvcc.read_fallbacks"] = stats["mvcc"]["read_fallbacks"]
        out["cdc.events"] = stats["cdc"]["events"]
        out["cdc.coalesced"] = stats["cdc"]["coalesced"]
        for key in ("commits", "syncs", "wait_count"):
            out[f"wal.{key}"] = commit[key]
        out["wal.wait_ms_total"] = commit["wait_count"] * commit["wait_mean_ms"]
    else:
        pool = workload.lab.database.store.pool.stats
        pool = {"hits": pool.hits, "misses": pool.misses,
                "evictions": pool.evictions}
        out["mvcc.read_fallbacks"] = registry.counter(
            "mvcc.read_fallbacks").value
    for key in ("hits", "misses", "evictions"):
        out[f"pool.{key}"] = pool[key]
    return out


def _record_calls(client, sample: List[Tuple[int, Dict, Dict, float]]) -> None:
    """Keep (opcode, payload, reply, round trip) of every call on *client*."""
    inner = client.call

    def recording(opcode, payload=None):
        start = time.perf_counter()
        reply = inner(opcode, payload)
        sample.append((opcode, payload or {}, reply,
                       time.perf_counter() - start))
        return reply

    client.call = recording


def _replayable(sample: List[Tuple]) -> List[Tuple]:
    """The longest prefix within the limit that ends outside a transaction."""
    cut, open_txn = 0, False
    for index, (opcode, _p, _r, _t) in enumerate(sample[:LADDER_REQUESTS]):
        if opcode == P.OP_BEGIN:
            open_txn = True
        elif opcode in (P.OP_COMMIT, P.OP_ABORT):
            open_txn = False
        if not open_txn:
            cut = index + 1
    return sample[:cut]


# -- the ladder -----------------------------------------------------------------------------------

def _ladder(sample: List[Tuple], replay_root: Path, tracer: Tracer,
            scale) -> Dict[str, float]:
    out: Dict[str, float] = {}
    server = OdeServer(replay_root, port=0, io_model="async")
    server.start()
    session = ServerSession(server, 1)
    try:
        database = server.hosted(workloads.DB).database
        objects = database.objects
        if any(opcode in _CURSOR_OPCODES for opcode, _p, _r, _t in sample):
            # The recorded connection opened exactly one cursor, id 1.
            session.dispatch(P.OP_CURSOR_OPEN,
                             {"db": workloads.DB, "class": "reading"})

        # level 1: the same requests, dispatched without the wire
        overheads = []
        for opcode, payload, _reply, rtt in sample:
            with tracer.span("ladder.dispatch"):
                elapsed, _ = harness.timed(
                    lambda: session.dispatch(opcode, dict(payload)))
            overheads.append(rtt - elapsed)
        out["net.rtt_ms"] = median([rtt for _o, _p, _r, rtt in sample]) * 1e3
        out["net.wire_overhead_ms"] = median(overheads) * 1e3

        # level 2a: the same key sequence, straight at the object manager —
        # shifted by half the cluster, so that level 1 has not already pulled
        # these readings into the MVCC read cache (the server's path is
        # miss-heavy, and that is the path to time)
        for opcode, payload, _reply, _rtt in sample:
            if opcode == P.OP_GET_OBJECT:
                oid = Oid.parse(payload["oid"])
                if oid.cluster == "reading":
                    oid = workloads.reading_oid(
                        (oid.number + scale.readings // 2) % scale.readings)
                with tracer.span("ladder.objectmanager"), objects.pinned():
                    objects.get_buffer(oid)
        out["ode.store.get_buffer_us"] = _us(
            tracer.durations("ladder.objectmanager"))

        # level 2b: the same conditions, straight at parser and planner
        selects = [payload["condition"] for opcode, payload, _r, _t in sample
                   if opcode == P.OP_SELECT][:LADDER_SELECTS]
        if selects:
            out.update(_select_ladder(selects, database, tracer, scale))

        # the frame codec, on the recorded frames
        for opcode, payload, reply, _rtt in sample:
            with tracer.span("ladder.frame_codec"):
                for frame_op, body in ((opcode, payload), (P.OP_REPLY, reply)):
                    reassembler = P.FrameReassembler()
                    reassembler.feed(P.encode_frame(1, frame_op, body))
                    reassembler.next_frame()
        out["net.frame_codec_us"] = _us(tracer.durations("ladder.frame_codec"))
    finally:
        session.close()
        server.shutdown()
    return out


def _select_ladder(conditions: List[str], database, tracer: Tracer,
                   scale) -> Dict[str, float]:
    objects = database.objects
    planner = SelectionPlanner(database)
    index = objects.indexes.get("reading", "value")
    examined = results = probes = 0
    for condition in conditions:
        with tracer.span("ladder.opp.compile"):
            expr = parse_expression(condition)
            check_selection_predicate(expr, "reading", database.schema)
            PredicateEvaluator(objects).compile(expr)
        with objects.pinned():
            with tracer.span("ladder.queryplan.plan"):
                plan = planner.plan("reading", expr)
            with tracer.span("ladder.queryplan.execute"):
                rows = list(planner.execute(plan))
        results += len(rows)
        if plan.access == "scan":
            examined += plan.cardinality
            continue
        probes += 1
        examined += len(plan.candidates)
        attribute, op, literal = sargable(split_conjuncts(expr)[0])
        with tracer.span("ladder.index.probe"):
            if op == "==":
                index.equal(literal)
            else:   # the templates only use ``<``
                index.range(high=literal, include_high=False)

    # predicate evaluation alone, over rows already in memory
    rows = [objects.get_buffer(workloads.reading_oid(seq))
            for seq in range(min(500, scale.readings))]
    predicate = PredicateEvaluator(objects).compile(
        parse_expression(conditions[0]))
    elapsed, _ = harness.timed(lambda: [predicate(row) for row in rows])

    # chosen plan against the forced alternative, best of two each
    misplans = 0
    for condition in list(dict.fromkeys(conditions))[:MISPLAN_QUERIES]:
        expr = parse_expression(condition)
        with objects.pinned():
            chosen = planner.plan("reading", expr)
            force = "scan" if chosen.access != "scan" else "index"
            if planner.plan("reading", expr, force=force).access == chosen.access:
                continue   # no alternative access path exists
        times = {}
        for label, forced in (("chosen", None), ("other", force)):
            times[label] = min(
                harness.timed(lambda: planner.select(
                    "reading", expr, force=forced))[0] for _ in range(2))
        misplans += times["chosen"] > MISPLAN_MARGIN * times["other"]

    return {
        "ode.opp.compile_us": _us(tracer.durations("ladder.opp.compile")),
        "ode.opp.eval_us_per_row": elapsed / len(rows) * 1e6,
        "ode.index.probe_us": _us(tracer.durations("ladder.index.probe")),
        "ode.index.rows_examined_per_result": ratio(examined, results),
        "core.queryplan.plan_us": _us(tracer.durations("ladder.queryplan.plan")),
        "core.queryplan.access_mix": ratio(probes, len(conditions)),
        "core.queryplan.misplans": float(misplans),
    }


def _codec(objects: List[Tuple[str, str, Dict[str, Any]]],
           tracer: Tracer) -> Dict[str, float]:
    """``encode_object`` / ``decode_object`` per sampled object."""
    for oid_text, class_name, values in objects[:CODEC_OBJECTS]:
        oid = Oid.parse(oid_text)
        with tracer.span("ladder.codec.encode"):
            data = encode_object(oid, class_name, values)
        with tracer.span("ladder.codec.decode"):
            decode_object(data)
    return {"ode.codec.encode_us": _us(tracer.durations("ladder.codec.encode")),
            "ode.codec.decode_us": _us(tracer.durations("ladder.codec.decode"))}


def _sampled_objects(sample: List[Tuple]) -> List[Tuple[str, str, Dict]]:
    found = []
    for _opcode, _payload, reply, _rtt in sample:
        values = list(reply.get("buffers", ()))
        if "buffer" in reply:
            values.append(reply["buffer"])
        found.extend((v["oid"], v["class"], v["values"]) for v in values)
        if len(found) >= CODEC_OBJECTS:
            break
    return found


# -- per-workload layer metrics -------------------------------------------------------------------

def _networked_metrics(workload, traced: Window, delta: Dict[str, float],
                       sample: List[Tuple], replay_root: Path,
                       tracer: Tracer) -> Dict[str, float]:
    ops = traced.counted_ops
    calls = delta["calls"] - 1   # the delta spans one of its own STATS calls
    out = {
        "net.frames_per_op": ratio(
            2 * calls + delta["net.client.push_events"], ops),
        "net.bytes_per_op": ratio(
            delta["net.client.bytes_in"] + delta["net.client.bytes_out"], ops),
        "net.client_cache_hit_ratio": ratio(
            delta["cache.hits"], delta["cache.hits"] + delta["cache.misses"]),
        "net.retries": delta["net.client.retries"],
        "ode.store.pool_hit_ratio": ratio(
            delta["pool.hits"], delta["pool.hits"] + delta["pool.misses"]),
        "ode.store.pool_evictions": delta["pool.evictions"],
        "ode.store.mvcc_read_fallbacks": delta["mvcc.read_fallbacks"],
    }
    replay = _replayable(sample)
    out.update(_ladder(replay, replay_root, tracer, workload.scale))
    out.update(_codec(_sampled_objects(replay), tracer))
    if isinstance(workload, workloads.WriteWatch):
        out.update(_write_metrics(workload, traced, delta))
    return out


def _write_metrics(workload, traced: Window,
                   delta: Dict[str, float]) -> Dict[str, float]:
    model = workload.model
    commits = workload.commits_in(traced)
    frame_bytes = changes = 0
    for event in workload.watcher.recent:
        summary = ChangeSummary(event.epoch, event.changes)
        frame_bytes += len(P.encode_frame(0, P.OP_CDC_EVENT, {
            "db": workloads.DB, "sub": 1, **summary_to_wire(summary)}))
        changes += summary.oid_count
    return {
        "ode.wal.syncs_per_commit": ratio(delta["wal.syncs"],
                                          delta["wal.commits"]),
        "ode.wal.bytes_per_commit": median(workload.writer.wal_growth),
        "ode.wal.commit_wait_ms": ratio(delta["wal.wait_ms_total"],
                                        delta["wal.wait_count"]),
        "cdc.events_per_commit": ratio(delta["cdc.events"],
                                       delta["wal.commits"]),
        "cdc.coalesced": delta["cdc.coalesced"],
        "cdc.bytes_per_change": ratio(frame_bytes, changes),
        "cdc.deliver_ms": median(
            [(model.event_at[c.epoch] - c.acked) * 1e3 for c in commits]),
        "cdc.refresh_ms_p50": median(workload.refresh_ms(traced)),
    }


def _local_metrics(workload, delta: Dict[str, float], refreshed: List[int],
                   tracer: Tracer) -> Dict[str, float]:
    objects = workload.lab.database.objects
    sampled = []
    for oid, _name, _dept, _mgr in workload.model.employees:
        buffer = objects.get_buffer(oid)
        sampled.append((str(oid), buffer.class_name, dict(buffer.values)))
    out = {
        "core.sync.sequence_us": _us(tracer.self_times("core.sync.sequence")),
        "core.sync.nodes_refreshed_per_click": ratio(
            sum(refreshed), len(refreshed)),
        "dynlink.display_us": _us(tracer.durations("dynlink.display")),
        # since the process began: one per class that ships a display module
        "dynlink.loads": float(get_registry().counter("dynlink.loads").value),
        "windowing.render_us": _us(tracer.durations("windowing.render")),
        "ode.store.pool_hit_ratio": ratio(
            delta["pool.hits"], delta["pool.hits"] + delta["pool.misses"]),
        "ode.store.pool_evictions": delta["pool.evictions"],
        "ode.store.mvcc_read_fallbacks": delta["mvcc.read_fallbacks"],
    }
    out.update(_codec(sampled, tracer))
    return out


def _count_refreshes(workload, refreshed: List[int]) -> None:
    """Note how many nodes each sequencing click refreshed, by differencing
    the navigation tree's public refresh counts around the click."""
    browser = workload.browser
    inner = browser.sequence   # already span-wrapped by instrument()

    def counting(op):
        before = subtree_refresh_counts(browser.node)
        report = inner(op)
        after = subtree_refresh_counts(browser.node)
        refreshed.append(sum(1 for path, count in after.items()
                             if count > before.get(path, 0)))
        return report

    browser.sequence = counting


# -- the traced run ---------------------------------------------------------------------------------

def traced_run(workload, workers, seconds: float, warmup: float, work: Path,
               spec: Dict[str, Any]):
    """Half the window untraced, half traced, then the ladder.

    Returns ``(window, metrics, detail)``; the window carries both halves'
    attempted/failed counts.
    """
    half = seconds / 2.0
    networked = isinstance(workload, workloads.Networked)
    replay_root = work / "replay"
    if networked:
        workloads.build_synthetic(replay_root, workload.scale)

    plain = harness.closed_loop(workers, half, warmup)
    tracer = Tracer()
    workload.instrument(tracer)
    sample: List[Tuple] = []
    refreshed: List[int] = []
    if networked:
        _record_calls(workload.dbs[0].client, sample)
    else:
        _count_refreshes(workload, refreshed)
    before = _counters(workload)
    traced = harness.closed_loop(workers, half, warmup=0.0, tracer=tracer)
    after = _counters(workload)
    delta = {key: after[key] - before.get(key, 0) for key in after}

    metrics = {m["name"]: 0.0 for m in spec["per_layer"]}
    if networked:
        sample = [entry for entry in sample if entry[0] != P.OP_STATS]
        metrics.update(_networked_metrics(
            workload, traced, delta, sample, replay_root, tracer))
    else:
        metrics.update(_local_metrics(workload, delta, refreshed, tracer))
    metrics["trace_overhead_ratio"] = ratio(traced.ops_per_s(),
                                            plain.ops_per_s())

    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.errors = plain.errors + traced.errors
    workload.finish(traced)
    trace_path = harness.WORK / f"trace-{workload.name}.jsonl"
    tracer.write(trace_path)
    detail = traced.detail()
    detail.update({
        "trace_file": str(trace_path.relative_to(harness.ROOT)),
        "spans": len(tracer.spans),
        "ladder_requests": len(_replayable(sample)) if networked else 0,
        "untraced_ops_per_s": plain.ops_per_s(),
        "traced_ops_per_s": traced.ops_per_s(),
    })
    return traced, metrics, detail
