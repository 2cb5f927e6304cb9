"""Tests for the interactive CLI front end."""

import pytest

from repro.cli import CommandError, OdeViewCli, _main_serve, _parse_serve_args


@pytest.fixture
def cli(lab_root):
    driver = OdeViewCli(lab_root, screen_width=200)
    yield driver
    driver.app.shutdown()


class TestBasics:
    def test_empty_line_is_noop(self, cli):
        assert cli.execute("") == ""

    def test_unknown_command_rejected(self, cli):
        with pytest.raises(CommandError):
            cli.execute("frobnicate")

    def test_help(self, cli):
        text = cli.execute("help")
        assert "open <db>" in text
        assert "follow <attr>" in text

    def test_databases(self, cli):
        text = cli.execute("databases")
        assert "[ATT] lab (closed)" in text
        cli.execute("open lab")
        assert "lab (open)" in cli.execute("databases")

    def test_quit(self, cli):
        assert cli.execute("quit") == "bye"
        assert cli.done


class TestSchemaCommands:
    def test_open_lists_classes(self, cli):
        out = cli.execute("open lab")
        assert "employee" in out and "manager" in out

    def test_info(self, cli):
        cli.execute("open lab")
        out = cli.execute("info lab employee")
        assert "objects in cluster : 55" in out

    def test_def(self, cli):
        cli.execute("open lab")
        out = cli.execute("def lab employee")
        assert "persistent class employee {" in out

    def test_zoom(self, cli):
        cli.execute("open lab")
        out = cli.execute("zoom lab out")
        assert "[emp]" in out
        with pytest.raises(CommandError):
            cli.execute("zoom lab sideways")

    def test_missing_args_rejected(self, cli):
        with pytest.raises(CommandError):
            cli.execute("open")
        with pytest.raises(CommandError):
            cli.execute("info lab")


class TestObjectCommands:
    def test_objects_next_show(self, cli):
        cli.execute("open lab")
        out = cli.execute("objects lab employee")
        assert "55 objects" in out
        assert "text, picture" in out
        assert "(before first)" in cli.execute("browsers")
        out = cli.execute("next")
        assert "lab:employee:0" in out
        out = cli.execute("show text")
        assert "rakesh" in out

    def test_prev_and_reset(self, cli):
        cli.execute("open lab")
        cli.execute("objects lab employee")
        cli.execute("next")
        cli.execute("next")
        assert "lab:employee:0" in cli.execute("prev")
        assert "(before first)" in cli.execute("reset")

    def test_sequencing_without_browser_rejected(self, cli):
        with pytest.raises(CommandError):
            cli.execute("next")

    def test_follow_and_back(self, cli):
        cli.execute("open lab")
        cli.execute("objects lab employee")
        cli.execute("next")
        out = cli.execute("follow dept")
        assert "lab:department:0" in out
        out = cli.execute("back")
        assert "lab:employee:0" in out
        with pytest.raises(CommandError):
            cli.execute("back")  # root set has no parent

    def test_use_and_browsers(self, cli):
        cli.execute("open lab")
        cli.execute("objects lab employee")
        cli.execute("objects lab department")
        listing = cli.execute("browsers")
        assert "[0]" in listing and "[1]" in listing
        assert "*[1]" in listing  # department is current
        cli.execute("use 0")
        assert "*[0]" in cli.execute("browsers")
        with pytest.raises(CommandError):
            cli.execute("use 99")

    def test_select(self, cli):
        cli.execute("open lab")
        out = cli.execute("select lab employee 'id >= 50'")
        assert "selected 5 of 55" in out
        assert "lab:employee:50" in cli.execute("next")

    def test_project_and_unproject(self, cli):
        cli.execute("open lab")
        cli.execute("objects lab employee")
        cli.execute("next")
        cli.execute("show text")
        out = cli.execute("project name,id")
        assert "rakesh" in out
        assert "hired" not in out.split("project")[-1]
        assert cli.execute("unproject") == "projection cleared"

    def test_close_forgets_browsers(self, cli):
        cli.execute("open lab")
        cli.execute("objects lab employee")
        cli.execute("close lab")
        assert cli.execute("browsers") == "(no open object browsers)"
        with pytest.raises(CommandError):
            cli.execute("next")

    def test_render(self, cli):
        cli.execute("open lab")
        out = cli.execute("render")
        assert "lab: class relationships" in out


class TestScroll:
    def test_scroll_definition_source(self, cli):
        cli.execute("open lab")
        cli.execute("def lab employee")
        out = cli.execute("scroll lab.def.employee.source 3")
        assert "scrolled to line 3" in out

    def test_scroll_bad_delta_rejected(self, cli):
        cli.execute("open lab")
        cli.execute("def lab employee")
        with pytest.raises(CommandError):
            cli.execute("scroll lab.def.employee.source sideways")

    def test_scroll_non_scrollable_rejected(self, cli):
        from repro.errors import WindowError

        cli.execute("open lab")
        with pytest.raises(WindowError):
            cli.execute("scroll databases.icon.lab 1")


class TestStatsAndRaise:
    def test_stats_opens_window(self, cli):
        cli.execute("open lab")
        out = cli.execute("stats lab")
        assert "lab: statistics" in out
        assert "cluster employee" in out

    def test_stats_refreshes(self, cli):
        cli.execute("open lab")
        cli.execute("stats lab")
        session = cli.app.session("lab")
        session.database.objects.new_object("employee", {"id": 901})
        out = cli.execute("stats lab")
        assert "56 objects" in out

    def test_raise(self, cli):
        cli.execute("open lab")
        out = cli.execute("raise databases")
        assert "Ode databases" in out


class TestVacuum:
    def test_vacuum_reports(self, cli):
        cli.execute("open lab")
        session = cli.app.session("lab")
        oids = [session.database.objects.new_object("employee", {"id": 800 + n})
                for n in range(30)]
        for oid in oids:
            session.database.objects.delete(oid)
        out = cli.execute("vacuum lab")
        assert "vacuumed lab" in out
        assert "fragmentation now" in out

    def test_browsing_survives_vacuum(self, cli):
        cli.execute("open lab")
        cli.execute("objects lab employee")
        cli.execute("next")
        cli.execute("vacuum lab")
        out = cli.execute("show text")
        assert "rakesh" in out


class TestConnect:
    """The CLI's remote path: a database served in-process browses to
    the same screens as a local copy of it."""

    @pytest.fixture
    def clis(self, tmp_path):
        import shutil

        from repro.data.labdb import make_lab_database
        from repro.net.server import OdeServer

        make_lab_database(tmp_path / "served").close()
        shutil.copytree(tmp_path / "served", tmp_path / "local")
        (tmp_path / "client").mkdir()
        server = OdeServer(tmp_path / "served")
        server.start()
        local = OdeViewCli(str(tmp_path / "local"), screen_width=200)
        remote = OdeViewCli(str(tmp_path / "client"), screen_width=200)
        try:
            yield local, remote, server.port
        finally:
            remote.app.shutdown()
            local.app.shutdown()
            server.shutdown()

    def test_connect_lists_the_served_classes(self, clis):
        local, remote, port = clis
        out = remote.execute(f"connect 127.0.0.1 {port} lab")
        assert out.startswith(f"connected to lab at 127.0.0.1:{port}; ")
        assert out.endswith(local.execute("open lab").split(": ", 1)[1])

    def test_remote_screens_match_the_local_copy(self, clis):
        local, remote, port = clis
        local.execute("open lab")
        remote.execute(f"connect 127.0.0.1 {port} lab")
        for line in ("objects lab employee", "next", "follow dept"):
            assert remote.execute(line) == local.execute(line), line

    def test_non_numeric_port_rejected(self, clis):
        _local, remote, _port = clis
        with pytest.raises(CommandError, match="port must be a number"):
            remote.execute("connect 127.0.0.1 http lab")


class TestServeArguments:
    def test_positionals_and_defaults(self):
        assert _parse_serve_args(["/data"]) == {
            "root": "/data", "host": "127.0.0.1", "port": 6455}
        assert _parse_serve_args(["/data", "0.0.0.0", "7000"]) == {
            "root": "/data", "host": "0.0.0.0", "port": 7000}

    def test_known_flags_in_any_position(self):
        assert _parse_serve_args([
            "--replica-of", "10.0.0.1:6455", "/data",
            "--replica-peers", "a:1,b:2",
        ]) == {
            "root": "/data", "host": "127.0.0.1", "port": 6455,
            "replica_of": ("10.0.0.1", 6455),
            "replica_peers": [("a", 1), ("b", 2)],
        }

    @pytest.mark.parametrize("argv, message", [
        (["/data", "--replica-of", "nocolon"], "--replica-of needs host:port"),
        (["/data", "--replica-of", "host:http"], "--replica-of needs host:port"),
        (["/data", "--replica-of"], "--replica-of needs host:port"),
        (["/data", "--replica-peers", "a:1,b"], "--replica-peers needs"),
    ])
    def test_bad_flag_value_names_the_flag(self, argv, message):
        with pytest.raises(CommandError, match=message):
            _parse_serve_args(argv)

    @pytest.mark.parametrize("argv", [
        ["--bogus", "x"],
        ["--io-model", "threaded", "x"],
        [],
        ["/data", "host", "port"],
        ["/data", "host", "1", "extra"],
    ])
    def test_anything_else_is_a_usage_error(self, argv):
        with pytest.raises(CommandError, match="usage: python -m repro serve"):
            _parse_serve_args(argv)

    def test_removed_cdc_flush_flag_exits_with_usage(self, capsys):
        """The CDC flush tick is gone: its old flag is an unknown flag,
        so ``serve`` prints the usage and exits 2 before opening
        anything."""
        assert _main_serve(["/data", "--cdc-flush-ms", "50"]) == 2
        assert "usage: python -m repro serve" in capsys.readouterr().err
