"""The db-interactor and object-interactor processes.

"When the user selects a database, a 'db-interactor' process is created
that provides the interface for the user to interact with that database...
When the user wishes to examine objects of a particular class, an
'object-interactor' process is spawned.  This process dynamically loads and
executes the display function defined by the class designer and also
provides sequencing operations to scan all the persistent objects of that
class." (paper §4.6)

The db-interactor answers schema-level requests (class info, class
definitions, the schema graph); the object-interactor runs one class's
display function, so a buggy display module crashes exactly one
object-interactor.  Sequencing lives with the window tree, in
:class:`repro.core.navigation.SetNode`, which already holds the set's
members and position; an interactor keeps no position and pins no snapshot.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import ProcessError
from repro.dynlink.registry import DisplayRegistry
from repro.dynlink.protocol import DisplayRequest
from repro.ode.database import Database
from repro.ode.oid import Oid
from repro.procmodel.actor import Actor


class DbInteractor(Actor):
    """Schema-level interaction with one open database (paper §4.6)."""

    def __init__(self, name: str, database: Database):
        super().__init__(name)
        self.database = database

    def handle(self, kind: str, payload: Dict[str, Any]) -> Any:
        schema = self.database.schema
        if kind == "schema_graph":
            return {
                "nodes": schema.class_names(),
                "edges": schema.edges(),
            }
        if kind == "class_info":
            class_name = payload["class_name"]
            return {
                "name": class_name,
                "superclasses": schema.superclasses(class_name),
                "subclasses": schema.subclasses(class_name),
                "count": self.database.objects.count(class_name),
                "versioned": schema.get_class(class_name).versioned,
            }
        if kind == "class_definition":
            from repro.ode.opp.printer import class_definition_source

            return class_definition_source(schema, payload["class_name"])
        raise ProcessError(f"db-interactor: unknown request {kind!r}")


class ObjectInteractor(Actor):
    """Object-level interaction with one class's cluster (paper §4.6).

    Executes the class's display function through the registry its
    browser passes in.  Display-function bugs crash this actor only.
    """

    def __init__(self, name: str, database: Database, class_name: str,
                 registry: Optional[DisplayRegistry] = None):
        super().__init__(name)
        self.database = database
        self.class_name = class_name
        self.registry = registry or DisplayRegistry(database)

    def handle(self, kind: str, payload: Dict[str, Any]) -> Any:
        if kind == "display":
            # The paper's code fragment: get the buffer, load the display
            # function, call it with a pointer to the buffer.  A caller
            # that already read the buffer passes it along.
            buffer = payload.get("buffer")
            if buffer is None:
                buffer = self.database.objects.get_buffer(
                    Oid.parse(payload["oid"]))
            request: DisplayRequest = payload["request"]
            return self.registry.display(buffer, request)
        if kind == "formats":
            return self.registry.formats(self.class_name)
        raise ProcessError(f"object-interactor: unknown request {kind!r}")
