"""repro.cdc: push-based change-data-capture.

The delivery layer between the commit stream and the browsers.  On the
server, each subscription is one :class:`ChangeCursor` over the store's
change log (:class:`~repro.ode.changelog.ChangeLog`, the same log replica
fetches read): the connection's pump reads it on the event loop,
summarizes each committed unit once into a compact
``(epoch, cluster, oids)`` delta and pushes it as an unsolicited
``OP_CDC_EVENT`` frame.  On the client, :class:`Subscription` hands
those to window trees and the epoch-keyed buffer cache, so thousands of
front ends refresh reactively instead of polling — and invalidate
precisely instead of wholesale.

Both directions degrade gracefully under load: a cursor the log's floor
overtakes, and a client queue that overflows, each collapse into a
single "resync from epoch E" event, so a slow browser never blocks a
commit and never silently misses a change.
"""

from repro.cdc.subscription import ChangeEvent, Subscription
from repro.cdc.summary import (
    ChangeCursor,
    ChangeSummary,
    summarize_unit,
    summary_from_wire,
    summary_to_wire,
)

__all__ = [
    "ChangeCursor",
    "ChangeEvent",
    "ChangeSummary",
    "Subscription",
    "summarize_unit",
    "summary_from_wire",
    "summary_to_wire",
]
