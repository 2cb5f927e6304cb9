"""An interactive terminal front end for OdeView.

Run ``python -m repro <root-directory>`` to browse the Ode databases under
a directory from a command prompt.  Every command maps onto the same
public API the windowed session driver uses, so the CLI is a third
"version of OdeView" in the paper's sense — a different interface over the
identical display protocol.

Commands::

  help                       this text
  databases                  list databases (the Figure 1 window)
  open <db>                  open a database (schema window appears)
  close <db>                 close a database
  schema <db>                redraw the schema window
  zoom <db> in|out           zoom the schema window
  info <db> <class>          class information window (Figures 3/5)
  def <db> <class>           class definition window (Figure 4)
  objects <db> <class>       open an object-set window; becomes current
  select <db> <class> <pred> open a filtered object set (condition box)
  next | prev | reset        sequence the current object set
  show <format>              toggle a display format on the current set
  follow <attr>              follow a reference; child becomes current
  back                       make the parent browser current again
  use <n>                    switch current browser (see 'browsers')
  browsers                   list open object browsers
  project <a,b,...>          project the current browser onto attributes
  unproject                  clear the projection
  scroll <window> <delta>    scroll a scrollable window
  raise <window>             bring a top-level window to the front
  stats <db>                 open/refresh the database statistics window
  vacuum <db>                rewrite the page file densely
  connect <host> <port> <db> open a database served by an OdeServer
  render                     draw the screen
  quit                       leave

Besides the REPL, two network entry points::

  python -m repro serve <root> [host] [port]    host databases over TCP
      [--replica-of host:port]                  ... as a read replica
      [--replica-peers host:port,...]           failover candidates the
                                                applier may re-home to
  python -m repro connect <host> <port> <db>    browse a served database
  python -m repro connect <host> <port> <db> --follow [cluster,...]
                                                tail the change feed (CDC)
  python -m repro promote <host> <port>         promote a replica to
                                                primary at the next term
"""

from __future__ import annotations

import shlex
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import OdeError, OdeViewError
from repro.core.app import OdeView
from repro.core.objectbrowser import ObjectBrowser
from repro.core.selection import SelectionBuilder


class CommandError(OdeViewError):
    """Bad CLI input (unknown command, wrong arguments)."""


class OdeViewCli:
    """A line-command driver over one OdeView application."""

    def __init__(self, root: str, screen_width: int = 150,
                 privileged: bool = False):
        self.app = OdeView(root, screen_width=screen_width,
                           privileged=privileged)
        self.browsers: List[ObjectBrowser] = []
        self.current: Optional[ObjectBrowser] = None
        self._stats_windows: Dict[str, object] = {}
        self.done = False

    # -- dispatch --------------------------------------------------------------

    def execute(self, line: str) -> str:
        """Run one command line; returns the text to show the user."""
        words = shlex.split(line)
        if not words:
            return ""
        command, args = words[0], words[1:]
        handler = self._handlers().get(command)
        if handler is None:
            raise CommandError(
                f"unknown command {command!r}; try 'help'")
        return handler(args)

    def run(self, stdin=None, stdout=None) -> None:  # pragma: no cover - repl
        stdin = stdin or sys.stdin
        stdout = stdout or sys.stdout
        stdout.write("OdeView. Type 'help' for commands.\n")
        stdout.write(self.execute("databases") + "\n")
        while not self.done:
            stdout.write("odeview> ")
            stdout.flush()
            line = stdin.readline()
            if not line:
                break
            try:
                result = self.execute(line)
            except OdeError as exc:
                result = f"error: {exc}"
            if result:
                stdout.write(result + "\n")
        self.app.shutdown()

    def _handlers(self) -> Dict[str, Callable[[List[str]], str]]:
        return {
            "help": self.cmd_help,
            "databases": self.cmd_databases,
            "open": self.cmd_open,
            "close": self.cmd_close,
            "schema": self.cmd_schema,
            "zoom": self.cmd_zoom,
            "info": self.cmd_info,
            "def": self.cmd_def,
            "objects": self.cmd_objects,
            "select": self.cmd_select,
            "next": self.cmd_next,
            "prev": self.cmd_prev,
            "reset": self.cmd_reset,
            "show": self.cmd_show,
            "follow": self.cmd_follow,
            "back": self.cmd_back,
            "use": self.cmd_use,
            "browsers": self.cmd_browsers,
            "project": self.cmd_project,
            "unproject": self.cmd_unproject,
            "scroll": self.cmd_scroll,
            "raise": self.cmd_raise,
            "stats": self.cmd_stats,
            "vacuum": self.cmd_vacuum,
            "connect": self.cmd_connect,
            "render": self.cmd_render,
            "quit": self.cmd_quit,
        }

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _need(args: List[str], count: int, usage: str) -> None:
        if len(args) < count:
            raise CommandError(f"usage: {usage}")

    def _current(self) -> ObjectBrowser:
        if self.current is None:
            raise CommandError("no current object set; use 'objects' first")
        return self.current

    def _track(self, browser: ObjectBrowser) -> ObjectBrowser:
        if browser not in self.browsers:
            self.browsers.append(browser)
        self.current = browser
        return browser

    @staticmethod
    def _status(browser: ObjectBrowser) -> str:
        current = browser.node.current
        if current is None:
            return f"{browser.path}: (before first)"
        return f"{browser.path}: {current}"

    # -- commands -------------------------------------------------------------------

    def cmd_help(self, _args: List[str]) -> str:
        return __doc__.split("Commands::", 1)[1].strip("\n")

    def cmd_databases(self, _args: List[str]) -> str:
        directories = self.app.database_directories()
        if not directories:
            return "(no Ode databases found)"
        lines = ["databases:"]
        for directory in directories:
            name = directory.name.removesuffix(".odb")
            state = "open" if name in self.app.sessions else "closed"
            lines.append(f"  {self.app._icon_text(directory)} {name} ({state})")
        return "\n".join(lines)

    def cmd_open(self, args: List[str]) -> str:
        self._need(args, 1, "open <db>")
        session = self.app.open_database(args[0])
        classes = ", ".join(session.database.schema.class_names())
        return f"opened {args[0]}; classes: {classes}"

    def cmd_close(self, args: List[str]) -> str:
        self._need(args, 1, "close <db>")
        session = self.app.session(args[0])
        self.browsers = [b for b in self.browsers
                         if b not in session.object_sets]
        if self.current in session.object_sets:
            self.current = self.browsers[-1] if self.browsers else None
        self.app.close_database(args[0])
        return f"closed {args[0]}"

    def cmd_schema(self, args: List[str]) -> str:
        self._need(args, 1, "schema <db>")
        self.app.session(args[0]).schema.rebuild()
        return self.app.render()

    def cmd_zoom(self, args: List[str]) -> str:
        self._need(args, 2, "zoom <db> in|out")
        schema = self.app.session(args[0]).schema
        if args[1] == "in":
            schema.zoom_in()
        elif args[1] == "out":
            schema.zoom_out()
        else:
            raise CommandError("usage: zoom <db> in|out")
        return self.app.render()

    def cmd_info(self, args: List[str]) -> str:
        self._need(args, 2, "info <db> <class>")
        self.app.session(args[0]).schema.open_class_info(args[1])
        return self.app.render()

    def cmd_def(self, args: List[str]) -> str:
        self._need(args, 2, "def <db> <class>")
        self.app.session(args[0]).schema.open_class_definition(args[1])
        return self.app.render()

    def cmd_objects(self, args: List[str]) -> str:
        self._need(args, 2, "objects <db> <class>")
        browser = self.app.session(args[0]).open_object_set(args[1])
        self._track(browser)
        return (f"object set over {args[1]} "
                f"({browser.node.member_count()} objects); "
                f"formats: {', '.join(browser.formats)}")

    def cmd_select(self, args: List[str]) -> str:
        self._need(args, 3, "select <db> <class> <predicate>")
        db, class_name = args[0], args[1]
        condition = " ".join(args[2:])
        session = self.app.session(db)
        builder = SelectionBuilder(session.database, class_name,
                                   session.registry,
                                   privileged=self.app.ctx.privileged)
        builder.set_condition(condition)
        browser = session.open_object_set(class_name, selection=builder)
        self._track(browser)
        return (f"selected {browser.node.member_count()} of "
                f"{session.database.objects.count(class_name)} "
                f"{class_name} objects")

    def cmd_next(self, _args: List[str]) -> str:
        browser = self._current()
        browser.next()
        return self._status(browser)

    def cmd_prev(self, _args: List[str]) -> str:
        browser = self._current()
        browser.previous()
        return self._status(browser)

    def cmd_reset(self, _args: List[str]) -> str:
        browser = self._current()
        browser.reset()
        return self._status(browser)

    def cmd_show(self, args: List[str]) -> str:
        self._need(args, 1, "show <format>")
        browser = self._current()
        browser.toggle_format(args[0])
        state = "open" if args[0] in browser.open_formats else "closed"
        return f"{args[0]} display {state}\n" + self.app.render()

    def cmd_follow(self, args: List[str]) -> str:
        self._need(args, 1, "follow <attr>")
        child = self._current().open_reference(args[0])
        self._track(child)
        return self._status(child)

    def cmd_back(self, _args: List[str]) -> str:
        browser = self._current()
        parent_path = browser.node.parent.path if browser.node.parent else None
        if parent_path is None:
            raise CommandError("already at a root object set")
        for candidate in self.browsers:
            if candidate.path == parent_path:
                self.current = candidate
                return self._status(candidate)
        raise CommandError("parent browser is gone")

    def cmd_use(self, args: List[str]) -> str:
        self._need(args, 1, "use <n>")
        try:
            index = int(args[0])
            browser = self.browsers[index]
        except (ValueError, IndexError):
            raise CommandError("usage: use <n>  (see 'browsers')") from None
        self.current = browser
        return self._status(browser)

    def cmd_browsers(self, _args: List[str]) -> str:
        if not self.browsers:
            return "(no open object browsers)"
        lines = []
        for index, browser in enumerate(self.browsers):
            marker = "*" if browser is self.current else " "
            lines.append(f"{marker}[{index}] {self._status(browser)}")
        return "\n".join(lines)

    def cmd_project(self, args: List[str]) -> str:
        self._need(args, 1, "project <a,b,...>")
        attributes = [part.strip() for part in " ".join(args).split(",")
                      if part.strip()]
        browser = self._current()
        browser.project(attributes)
        return f"projected onto {attributes}\n" + self.app.render()

    def cmd_unproject(self, _args: List[str]) -> str:
        browser = self._current()
        browser.clear_projection()
        return "projection cleared"

    def cmd_scroll(self, args: List[str]) -> str:
        self._need(args, 2, "scroll <window> <delta>")
        try:
            delta = int(args[1])
        except ValueError:
            raise CommandError("usage: scroll <window> <delta>") from None
        offset = self.app.screen.scroll(args[0], delta)
        return f"{args[0]} scrolled to line {offset}\n" + self.app.render()

    def cmd_raise(self, args: List[str]) -> str:
        self._need(args, 1, "raise <window>")
        self.app.screen.raise_window(args[0])
        return self.app.render()

    def cmd_stats(self, args: List[str]) -> str:
        self._need(args, 1, "stats <db>")
        from repro.core.statistics import StatisticsWindow

        session = self.app.session(args[0])
        window = self._stats_windows.get(args[0])
        if window is None:
            window = StatisticsWindow(session)
            self._stats_windows[args[0]] = window
        else:
            window.refresh()
        return self.app.render()

    def cmd_vacuum(self, args: List[str]) -> str:
        self._need(args, 1, "vacuum <db>")
        session = self.app.session(args[0])
        reclaimed = session.database.vacuum()
        fragmentation = session.database.server_stats()["fragmentation"]
        return (f"vacuumed {args[0]}: {reclaimed} page(s) reclaimed, "
                f"fragmentation now {fragmentation:.0%}")

    def cmd_connect(self, args: List[str]) -> str:
        self._need(args, 3, "connect <host> <port> <db>")
        host, port, name = args[0], args[1], args[2]
        try:
            port_number = int(port)
        except ValueError:
            raise CommandError(f"port must be a number, not {port!r}") from None
        session = self.app.connect_database(host, port_number, name)
        classes = ", ".join(session.database.schema.class_names())
        return (f"connected to {name} at {host}:{port_number}; "
                f"classes: {classes}")

    def cmd_render(self, _args: List[str]) -> str:
        return self.app.render()

    def cmd_quit(self, _args: List[str]) -> str:
        self.done = True
        return "bye"


_SERVE_USAGE = ("usage: python -m repro serve <root> [host] [port] "
                "[--replica-of host:port] [--replica-peers host:port,...]")


def _host_port(text: str) -> Tuple[str, int]:
    host, port = text.rsplit(":", 1)
    return host, int(port)


#: ``serve`` flag -> (OdeServer keyword, value parser, what the value is).
_SERVE_FLAGS = {
    "--replica-of": ("replica_of", _host_port, "host:port"),
    "--replica-peers": (
        "replica_peers",
        lambda text: [_host_port(peer) for peer in text.split(",")],
        "host:port[,host:port...]"),
}


def _parse_serve_args(argv: List[str]) -> Dict[str, Any]:
    """``serve``'s arguments as :class:`OdeServer` keywords.

    Raises :class:`CommandError` carrying the line to print before
    exiting 2: a flag's value hint, or the usage for anything else —
    an unknown ``--flag`` is never taken for a positional.
    """
    kwargs: Dict[str, Any] = {}
    positional: List[str] = []
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("--"):
            positional.append(token)
            continue
        if token not in _SERVE_FLAGS:
            raise CommandError(_SERVE_USAGE)
        keyword, parse, hint = _SERVE_FLAGS[token]
        try:
            kwargs[keyword] = parse(next(tokens))
        except (StopIteration, ValueError):
            raise CommandError(f"{token} needs {hint}") from None
    if not 1 <= len(positional) <= 3:
        raise CommandError(_SERVE_USAGE)
    kwargs["root"] = positional[0]
    kwargs["host"] = positional[1] if len(positional) > 1 else "127.0.0.1"
    try:
        # Default port: 'Ode' on a phone pad.
        kwargs["port"] = int(positional[2]) if len(positional) > 2 else 6455
    except ValueError:
        raise CommandError(_SERVE_USAGE) from None
    return kwargs


def _main_serve(argv: List[str]) -> int:  # pragma: no cover - entry
    """``python -m repro serve`` — see :data:`_SERVE_USAGE`."""
    from repro.net.server import OdeServer

    try:
        server = OdeServer(**_parse_serve_args(argv))
    except CommandError as exc:
        print(exc, file=sys.stderr)
        return 2
    server.start()
    print(f"serving {', '.join(server.database_names())} "
          f"on {server.host}:{server.port} as {server.role} (ctrl-c to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _follow_changes(host: str, port: int, name: str,
                    clusters: Optional[List[str]],
                    max_events: Optional[int] = None,
                    out=None) -> int:
    """Tail a database's CDC feed to stdout (``connect --follow``).

    One line per change event: epoch, then cluster=oid,oid pairs (or
    ``resync`` / ``lost`` markers).  Stops after *max_events* lines if
    given, else on ctrl-c or when the connection is lost.
    """
    from repro.net.remote import RemoteDatabase

    out = out if out is not None else sys.stdout
    database = RemoteDatabase.connect(host, port, name)
    try:
        subscription = database.subscribe(clusters=clusters)
        which = ", ".join(clusters) if clusters else "all clusters"
        print(f"following {name} at {host}:{port} ({which}) "
              f"from epoch {subscription.epoch}", file=out, flush=True)
        printed = 0
        while max_events is None or printed < max_events:
            event = subscription.get(timeout=1.0)
            if event is None:
                if not subscription.alive:
                    print("connection lost", file=out, flush=True)
                    return 1
                continue
            if event.lost:
                print("connection lost", file=out, flush=True)
                return 1
            if event.resync:
                print(f"epoch {event.epoch} resync "
                      f"(delta detail lost; refresh everything)",
                      file=out, flush=True)
            else:
                detail = " ".join(
                    f"{cluster}={','.join(oids)}"
                    for cluster, oids in sorted(event.changes.items()))
                print(f"epoch {event.epoch} {detail}", file=out, flush=True)
            printed += 1
        return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0
    finally:
        database.close()


def _main_promote(argv: List[str], out=None) -> int:
    """``python -m repro promote <host> <port>`` — controlled failover.

    Tells a running replica server to stop following its upstream,
    durably mint the next fenced primary term in every database's WAL,
    and start accepting writes.  Prints the new per-database terms; by
    the time they print, the fence is on disk.
    """
    from repro.errors import OdeError
    from repro.net import protocol as P
    from repro.net.client import OdeClient

    out = out if out is not None else sys.stdout
    if len(argv) != 2:
        print("usage: python -m repro promote <host> <port>",
              file=sys.stderr)
        return 2
    host = argv[0]
    try:
        port = int(argv[1])
    except ValueError:
        print(f"port must be a number, not {argv[1]!r}", file=sys.stderr)
        return 2
    client = OdeClient(host, port, retries=0)
    try:
        reply = client.call(P.OP_REPL_PROMOTE, {})
    except OdeError as exc:
        print(f"promotion failed: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    was = reply.get("role", "replica")
    for name, term in sorted((reply.get("terms") or {}).items()):
        print(f"{name}: promoted to primary at term {term} (was {was})",
              file=out, flush=True)
    return 0


def _main_connect(argv: List[str]) -> int:  # pragma: no cover - entry
    """``python -m repro connect <host> <port> <db> [--follow [cluster,...]]``."""
    import tempfile

    follow = None
    if "--follow" in argv:
        index = argv.index("--follow")
        rest = argv[index + 1:index + 2]
        if rest and not rest[0].startswith("-"):
            follow = [name for name in rest[0].split(",") if name]
            argv = argv[:index] + argv[index + 2:]
        else:
            follow = []  # no cluster filter: follow everything
            argv = argv[:index] + argv[index + 1:]
    if len(argv) != 3:
        print("usage: python -m repro connect <host> <port> <db> "
              "[--follow [cluster,...]]", file=sys.stderr)
        return 2
    if follow is not None:
        try:
            port_number = int(argv[1])
        except ValueError:
            print(f"port must be a number, not {argv[1]!r}", file=sys.stderr)
            return 2
        return _follow_changes(argv[0], port_number, argv[2],
                               clusters=follow or None)
    # The database window needs a root; a remote session browses none of it.
    cli = OdeViewCli(tempfile.mkdtemp(prefix="odeview-remote-"))
    print(cli.execute(f"connect {argv[0]} {argv[1]} {argv[2]}"))
    cli.run()
    return 0


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - entry
    argv = argv if argv is not None else sys.argv[1:]
    if argv and argv[0] == "serve":
        return _main_serve(argv[1:])
    if argv and argv[0] == "connect":
        return _main_connect(argv[1:])
    if argv and argv[0] == "promote":
        return _main_promote(argv[1:])
    if len(argv) != 1:
        print("usage: python -m repro <root-directory> | "
              "serve <root> [host] [port] | connect <host> <port> <db> | "
              "promote <host> <port>",
              file=sys.stderr)
        return 2
    cli = OdeViewCli(argv[0])
    cli.run()
    return 0
