"""ABL-PROC: what the object-interactor's crash boundary costs per call.

Times the two requests an object browser sends its interactor (paper
§4.6) through :meth:`ProcessManager.call` against the same registry
called directly, in one process on the lab database: ``display`` of an
already-read employee buffer (as ``ObjectBrowser`` passes it) and
``formats``.  Prints the mean µs per call of each of three runs of
5 000 calls.

    PYTHONPATH=src python benchmarks/bench_abl_process_isolation.py
"""

from __future__ import annotations

import tempfile
import time

from repro.data.labdb import make_lab_database
from repro.dynlink.protocol import DisplayRequest
from repro.dynlink.registry import DisplayRegistry
from repro.ode.oid import Oid
from repro.procmodel.interactors import ObjectInteractor
from repro.procmodel.manager import ProcessManager

CALLS = 5000
RUNS = 3


def _mean_us(call) -> float:
    started = time.perf_counter()
    for _ in range(CALLS):
        call()
    return (time.perf_counter() - started) / CALLS * 1e6


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        database = make_lab_database(root)
        try:
            registry = DisplayRegistry(database)
            manager = ProcessManager()
            manager.spawn(ObjectInteractor("oi", database, "employee",
                                           registry))
            buffer = database.objects.get_buffer(Oid.parse("lab:employee:7"))
            request = DisplayRequest(window_prefix="bench")
            pairs = {
                "display": (
                    lambda: manager.call("oi", "display", oid=str(buffer.oid),
                                         buffer=buffer, request=request),
                    lambda: registry.display(buffer, request)),
                "formats": (
                    lambda: manager.call("oi", "formats"),
                    lambda: registry.formats("employee")),
            }
            for through, direct in pairs.values():
                through(), direct()  # load the display module once
            for run in range(1, RUNS + 1):
                for kind, (through, direct) in pairs.items():
                    print(f"run {run} {kind}: through the manager "
                          f"{_mean_us(through):.1f} µs, direct "
                          f"{_mean_us(direct):.1f} µs")
        finally:
            database.close()


if __name__ == "__main__":
    main()
