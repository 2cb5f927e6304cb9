"""repro.cdc: push-based change-data-capture.

The delivery layer between the commit stream and the browsers: the
server side (:class:`ChangeRouter`) summarizes every published commit
into a compact ``(epoch, cluster, oids)`` delta and fans it out over
the wire as unsolicited ``OP_CDC_EVENT`` frames; the client side
(:class:`Subscription`) hands those to window trees and the epoch-keyed
buffer cache, so thousands of front ends refresh reactively instead of
polling — and invalidate precisely instead of wholesale.

Both directions degrade gracefully under load: every queue is bounded
and collapses into a single "resync from epoch E" event on overflow, so
a slow browser never blocks a commit and never silently misses a
change.
"""

from repro.cdc.router import (
    QUEUE_CAPACITY,
    CdcSubscriber,
    ChangeRouter,
)
from repro.cdc.subscription import ChangeEvent, Subscription
from repro.cdc.summary import (
    ChangeSummary,
    summarize_unit,
    summary_from_wire,
    summary_to_wire,
)

__all__ = [
    "QUEUE_CAPACITY",
    "CdcSubscriber",
    "ChangeEvent",
    "ChangeRouter",
    "ChangeSummary",
    "Subscription",
    "summarize_unit",
    "summary_from_wire",
    "summary_to_wire",
]
