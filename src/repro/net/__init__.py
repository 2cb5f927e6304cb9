"""repro.net — the Ode page/object server and its remote-database client.

The paper's architecture is multi-process: OdeView's master and per-class
interactors are *clients* of the Ode database.  This package gives the
reproduction the same shape over a real network boundary:

* :mod:`repro.net.protocol` — a length-prefixed binary wire protocol
  (request id, opcode, CRC) whose payloads are
  :mod:`repro.ode.codec` values;
* :mod:`repro.net.server` / :mod:`repro.net.aserver` —
  :class:`OdeServer`, hosting one or more databases from one ``asyncio``
  event loop with concurrent lock-free readers and serialized writers,
  and the loop's per-connection layer;
* :mod:`repro.net.session` — the per-connection server session (the
  network analogue of the db-interactor/object-interactor pair, serving
  the sequencing cursors ``RemoteObjectManager.cursor`` opens);
* :mod:`repro.net.client` — :class:`OdeClient`, the connection object:
  timeouts, bounded retry with backoff, request pipelining;
* :mod:`repro.net.remote` — :class:`RemoteDatabase` /
  :class:`RemoteObjectManager`, drop-in replacements for
  :class:`~repro.ode.database.Database` / the object manager, so browsers,
  synchronized browsing, and the display protocol run unchanged over the
  network.
"""

from repro.net.client import OdeClient
from repro.net.remote import RemoteDatabase, RemoteObjectManager
from repro.net.server import OdeServer

__all__ = [
    "OdeClient",
    "OdeServer",
    "RemoteDatabase",
    "RemoteObjectManager",
]
