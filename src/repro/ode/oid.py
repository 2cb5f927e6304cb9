"""Object identifiers.

Every persistent Ode object is identified by an :class:`Oid`: the database it
lives in, the cluster (named after the object's class — paper §2), and a
monotonically increasing number unique within the cluster.  OIDs are
immutable, hashable, orderable (cluster iteration order is OID order), and
round-trip through a compact string form used by buttons of window kind
``OID`` (paper §4.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OdeError


#: Suffix marking a shadow cluster that stores snapshots of versioned
#: objects (see :mod:`repro.ode.versions`).  Shadow clusters are an
#: implementation detail: public listings filter them out.
VERSION_CLUSTER_SUFFIX = "#v"


def version_cluster(class_name: str) -> str:
    """Name of the shadow cluster holding versions of ``class_name``."""
    return class_name + VERSION_CLUSTER_SUFFIX


def is_version_cluster(cluster: str) -> bool:
    """True when ``cluster`` is a shadow version cluster."""
    return cluster.endswith(VERSION_CLUSTER_SUFFIX)


@dataclass(frozen=True, order=True)
class Oid:
    """Identity of one persistent object."""

    database: str
    cluster: str
    number: int

    def __post_init__(self) -> None:
        if not self.database or not self.cluster:
            raise OdeError(f"Oid needs non-empty database and cluster: {self!r}")
        if self.number < 0:
            raise OdeError(f"Oid number must be non-negative: {self!r}")
        if ":" in self.database or ":" in self.cluster:
            raise OdeError(f"Oid parts must not contain ':': {self!r}")

    def __str__(self) -> str:
        return f"{self.database}:{self.cluster}:{self.number}"

    @classmethod
    def parse(cls, text: str) -> "Oid":
        """Inverse of ``str(oid)``."""
        parts = text.split(":")
        if len(parts) != 3:
            raise OdeError(f"malformed OID string {text!r}")
        database, cluster, number = parts
        if database and cluster and number.isascii() and number.isdigit():
            # What __post_init__ checks is known already (the split
            # leaves no ':'), so set the fields as the frozen __init__
            # does, without the checks.
            oid = object.__new__(cls)
            object.__setattr__(oid, "database", database)
            object.__setattr__(oid, "cluster", cluster)
            object.__setattr__(oid, "number", int(number))
            return oid
        try:
            return cls(database, cluster, int(number))
        except ValueError as exc:
            raise OdeError(f"malformed OID string {text!r}") from exc
