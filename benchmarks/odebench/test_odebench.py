"""Smoke self-test of odebench (under 30 s):

    PYTHONPATH=src python -m pytest benchmarks/odebench -q

Each workload runs for one second on a 500-reading dataset, untraced and
traced; the output names must be exactly the ones BENCHMARK.json promises,
nothing may fail — and a reply corrupted on purpose must be caught.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.net import protocol as P  # noqa: E402

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(name: str, trace: bool):
    return run.run_workload(name, seed=7, seconds=1.0, trace=trace,
                            scale=workloads.SMOKE, setup_repeats=1,
                            warmup=0.2)


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_names_and_no_failures(name):
    entry = _run(name, trace=False)
    assert entry["failed"] == 0 and entry["correct"], entry["errors"]
    assert entry["attempted"] > 0
    assert set(entry["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        cell = entry["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"]
        assert cell["value"] > 0, metric["name"]   # these are never zero


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_names_and_trace(name):
    entry = _run(name, trace=True)
    assert entry["failed"] == 0, entry["errors"]
    assert set(entry["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert entry["metrics"]["trace_overhead_ratio"]["value"] > 0
    trace_file = harness.ROOT / entry["detail"]["trace_file"]
    assert trace_file.stat().st_size > 0
    # the layers a workload bypasses report exactly zero
    if name == "browse-local":
        assert entry["metrics"]["net.frames_per_op"]["value"] == 0
        assert entry["metrics"]["core.sync.sequence_us"]["value"] > 0
    else:
        assert entry["metrics"]["net.rtt_ms"]["value"] > 0
        assert entry["metrics"]["windowing.render_us"]["value"] == 0


def test_corrupted_reply_is_caught():
    workload = workloads.BrowseRemote(seed=7, scale=workloads.SMOKE)
    with harness.work_directory() as work:
        try:
            workload.setup(work / "setup")
            workers = workload.workers()
            client = workload.dbs[0].client
            genuine = client.call

            def corrupting(opcode, payload=None):
                reply = genuine(opcode, payload)
                if opcode == P.OP_GET_OBJECT:
                    reply["buffer"]["values"]["zone"] = -1
                    reply["buffer"]["values"]["value"] = -1
                return reply

            client.call = corrupting
            window = harness.closed_loop(workers, 0.5, warmup=0.0)
        finally:
            workload.close()
    assert window.failed > 0
    assert any("OracleMismatch" in error for error in window.errors)
