"""The OdeView application.

"Upon entering OdeView, the user is presented with a scrollable 'database'
window containing the names and iconified images of the current Ode
databases" (paper §3.1, Figure 1).  Clicking an icon opens the database:
a db-interactor process is spawned and the schema window appears (§4.6).
"Note that we can be examining several databases and their schemas
simultaneously" (§3.4) — sessions are independent and concurrently open.
"""

from __future__ import annotations

import copy
import itertools
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import OdeViewError
from repro.core.navigation import SetNode
from repro.core.objectbrowser import DisplayStateMemory, ObjectBrowser, UiContext
from repro.core.schemabrowser import SchemaBrowser
from repro.core.selection import SelectionBuilder
from repro.dynlink.registry import DisplayRegistry
from repro.ode.database import Database, ICON_FILE, discover_databases
from repro.procmodel.interactors import DbInteractor
from repro.procmodel.manager import ProcessManager
from repro.windowing.screen import Screen
from repro.windowing.textbackend import TextBackend
from repro.windowing.wintypes import at, below, button, panel, text_window


class DbSession:
    """One open database: db-interactor, schema browser, object browsers."""

    def __init__(self, app: "OdeView", source: Union[Path, object]):
        self.app = app
        if isinstance(source, (str, Path)):
            self.database = Database.open(Path(source))
        else:
            # An already-open database: local or a repro.net RemoteDatabase.
            self.database = source
        self.name = self.database.name
        self._interactor_name = f"dbi.{self.name}"
        app.processes.spawn(DbInteractor(self._interactor_name, self.database))
        self.registry = DisplayRegistry(self.database)
        self.schema = SchemaBrowser(
            app.ctx, self.database, self._interactor_name,
            on_objects=self.open_object_set,
        )
        self.object_sets: List[ObjectBrowser] = []
        self._set_counter = itertools.count(0)

    # -- object browsing entry point (the 'objects' button, §3.2) ----------------

    def open_object_set(self, class_name: str,
                        selection: Optional[SelectionBuilder] = None
                        ) -> ObjectBrowser:
        """Open an object-set window over a class's cluster, or over the
        matches of *selection*: one planned selection per (re)load."""
        self.database.schema.get_class(class_name)
        path = f"{self.name}.{class_name}.set{next(self._set_counter)}"
        frozen = copy.copy(selection)   # later edits do not reach the set
        node = SetNode(self.database.objects, class_name, path, source=(
            None if frozen is None
            else lambda: [buffer.oid for buffer in frozen.execute()]))
        browser = ObjectBrowser(self.app.ctx, self.database, node, self.registry)
        self.object_sets.append(browser)
        return browser

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        screen = self.app.ctx.screen
        for browser in list(self.object_sets):
            browser.destroy()
        self.object_sets.clear()
        for window_name in (
            [self.schema.schema_window_name()]
            + self.schema.info_open
            + self.schema.def_open
        ):
            if screen.has(window_name):
                screen.destroy(window_name)
        if self.app.processes.has(self._interactor_name):
            self.app.processes.remove(self._interactor_name)
        self.database.close()


class OdeView:
    """The graphical front end to Ode."""

    DATABASE_WINDOW = "databases"

    def __init__(self, root_dir: Union[str, Path], backend=None,
                 screen_width: int = 150, privileged: bool = False):
        self.root = Path(root_dir)
        self.screen = Screen(backend or TextBackend(), width=screen_width)
        self.processes = ProcessManager()
        self.ctx = UiContext(
            screen=self.screen,
            processes=self.processes,
            display_state=DisplayStateMemory(),
            privileged=privileged,
        )
        self.sessions: Dict[str, DbSession] = {}
        self._build_database_window()

    # -- the database window (Figure 1) --------------------------------------------

    def database_directories(self) -> List[Path]:
        return discover_databases(self.root)

    def _icon_text(self, directory: Path) -> str:
        icon_path = directory / ICON_FILE
        if icon_path.exists():
            text = icon_path.read_text(encoding="utf-8").strip()
            if text:
                return text.split("\n")[0]
        return "[db]"

    def _build_database_window(self) -> None:
        if self.screen.has(self.DATABASE_WINDOW):
            self.screen.destroy(self.DATABASE_WINDOW)
        directories = self.database_directories()
        children = []
        previous = None
        for directory in directories:
            db_name = directory.name.removesuffix(".odb")
            icon_name = f"{self.DATABASE_WINDOW}.icon.{db_name}"
            label = f"{self._icon_text(directory)} {db_name}"
            placement = at(0, 0) if previous is None else below(previous)
            children.append(button(icon_name, label, f"open:{db_name}",
                                   placement=placement))
            previous = icon_name
        if not children:
            children.append(
                text_window(f"{self.DATABASE_WINDOW}.empty",
                            "(no Ode databases found)", placement=at(0, 0))
            )
        self.screen.create(
            panel(self.DATABASE_WINDOW, tuple(children),
                  title="Ode databases")
        )
        for directory in directories:
            db_name = directory.name.removesuffix(".odb")
            self.screen.on_click(
                f"{self.DATABASE_WINDOW}.icon.{db_name}",
                lambda _event, n=db_name: self.open_database(n),
            )

    def refresh_database_window(self) -> None:
        """Re-scan the root directory (a new database was created)."""
        self._build_database_window()

    # -- sessions ----------------------------------------------------------------------

    def open_database(self, name: str) -> DbSession:
        """Click a database icon: open it and show its schema window."""
        if name in self.sessions:
            return self.sessions[name]
        for directory in self.database_directories():
            if directory.name.removesuffix(".odb") == name:
                session = DbSession(self, directory)
                self.sessions[name] = session
                return session
        raise OdeViewError(f"no database named {name!r} under {self.root}")

    def attach_database(self, database) -> DbSession:
        """Open a session over an already-open database object.

        This is how a remote database joins the application: the caller
        connects a :class:`repro.net.remote.RemoteDatabase` and attaches
        it; browsers, schema windows, and display functions run over it
        exactly as over a local one.
        """
        if database.name in self.sessions:
            raise OdeViewError(f"database {database.name!r} is already open")
        session = DbSession(self, database)
        self.sessions[database.name] = session
        return session

    def connect_database(self, host: str, port: int, name: str,
                         **kwargs) -> DbSession:
        """Connect to an OdeServer and open one of its databases."""
        from repro.net.remote import RemoteDatabase

        return self.attach_database(
            RemoteDatabase.connect(host, port, name, **kwargs))

    def close_database(self, name: str) -> None:
        session = self.sessions.pop(name, None)
        if session is None:
            raise OdeViewError(f"database {name!r} is not open")
        session.close()

    def session(self, name: str) -> DbSession:
        try:
            return self.sessions[name]
        except KeyError:
            raise OdeViewError(f"database {name!r} is not open") from None

    # -- interaction -----------------------------------------------------------------------

    def click(self, window_name: str) -> None:
        self.screen.click(window_name)

    def render(self) -> str:
        return self.screen.render()

    def shutdown(self) -> None:
        for name in list(self.sessions):
            self.close_database(name)
