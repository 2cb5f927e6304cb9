"""Tests for the database lock file and persistent index definitions."""

import json
import os

import pytest

from repro.errors import StorageError
from repro.ode.classdef import Attribute, OdeClass
from repro.ode.database import Database
from repro.ode.types import IntType


@pytest.fixture
def made(tmp_path):
    with Database.create(tmp_path / "x.odb") as database:
        database.define_class(OdeClass("thing", attributes=(
            Attribute("n", IntType()),)))
        for n in range(10):
            database.objects.new_object("thing", {"n": n % 3})
    return tmp_path / "x.odb"


class TestLock:
    def test_second_open_rejected_while_locked(self, made):
        first = Database.open(made)
        try:
            with pytest.raises(StorageError):
                Database.open(made)
        finally:
            first.close()

    def test_failed_open_releases_lock(self, made):
        # A zero-frame buffer pool aborts __init__ after the lock is
        # taken; the database must stay openable afterwards.
        with pytest.raises(Exception):
            Database.open(made, pool_capacity=0)
        second = Database.open(made)
        second.close()

    def test_close_releases_lock(self, made):
        Database.open(made).close()
        second = Database.open(made)
        second.close()

    def test_stale_lock_stolen(self, made):
        # a pid that cannot be running (max pid + unlikely)
        (made / "lock").write_text("999999999")
        database = Database.open(made)
        assert (made / "lock").read_text() == str(os.getpid())
        database.close()

    def test_garbage_lock_stolen(self, made):
        (made / "lock").write_text("not-a-pid")
        Database.open(made).close()

    def test_lock_removed_after_close(self, made):
        database = Database.open(made)
        assert (made / "lock").exists()
        database.close()
        assert not (made / "lock").exists()


class TestStaleLockRecovery:
    """Hardening for stale-lock stealing (crash recovery, paper ops)."""

    def test_live_foreign_process_rejected(self, made):
        # pid 1 always runs and is never us; os.kill(1, 0) raising
        # PermissionError must count as "alive", not "stale"
        (made / "lock").write_text("1")
        with pytest.raises(StorageError, match="locked by running"):
            Database.open(made)
        # the foreign lock was left untouched
        assert (made / "lock").read_text() == "1"

    def test_genuinely_dead_process_stolen(self, made):
        import subprocess
        import sys

        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()  # the pid existed and is now certainly dead
        (made / "lock").write_text(str(proc.pid))
        database = Database.open(made)
        try:
            assert (made / "lock").read_text() == str(os.getpid())
            assert database.objects.count("thing") == 10
        finally:
            database.close()

    def test_own_crashed_pid_stolen(self, made):
        # a previous session of this same process crashed without
        # releasing; the pid matches us but the directory is not open
        (made / "lock").write_text(str(os.getpid()))
        Database.open(made).close()
        assert not (made / "lock").exists()

    def test_negative_pid_treated_as_garbage(self, made):
        (made / "lock").write_text("-5")
        Database.open(made).close()

    def test_empty_lock_file_stolen(self, made):
        (made / "lock").write_text("")
        Database.open(made).close()

    def test_steal_preserves_data(self, made):
        (made / "lock").write_text("999999999")
        with Database.open(made) as database:
            assert database.objects.count("thing") == 10
            database.objects.new_object("thing", {"n": 1})
        with Database.open(made) as database:
            assert database.objects.count("thing") == 11


class TestPersistentIndexes:
    def test_create_index_survives_reopen(self, made):
        with Database.open(made) as database:
            database.create_index("thing", "n")
            assert database.objects.indexes.get("thing", "n").equal("x") == []
        with Database.open(made) as database:
            index = database.objects.indexes.get("thing", "n")
            assert index is not None
            assert len(index) == 10
            assert index.equal(0) == [0, 3, 6, 9]

    def test_definition_file_written(self, made):
        with Database.open(made) as database:
            database.create_index("thing", "n")
        definitions = json.loads((made / "indexes.json").read_text())
        assert definitions == [["thing", "n"]]

    def test_drop_index_forgets_definition(self, made):
        with Database.open(made) as database:
            database.create_index("thing", "n")
            database.drop_index("thing", "n")
        with Database.open(made) as database:
            assert database.objects.indexes.get("thing", "n") is None

    def test_duplicate_definition_not_written_twice(self, made):
        with Database.open(made) as database:
            database.create_index("thing", "n")
            database.drop_index("thing", "n")
            database.objects.indexes.create_index("thing", "n")  # runtime only
            database.create_index2 = None  # noqa - no accidental attr use
        with Database.open(made) as database:
            # the runtime-only index was not persisted
            assert database.objects.indexes.get("thing", "n") is None

    def test_rebuilt_index_tracks_new_writes(self, made):
        with Database.open(made) as database:
            database.create_index("thing", "n")
        with Database.open(made) as database:
            oid = database.objects.new_object("thing", {"n": 99})
            assert database.objects.indexes.get("thing", "n").equal(99) == \
                [oid.number]

    def test_corrupt_definitions_reported(self, made):
        (made / "indexes.json").write_text("{{{")
        with pytest.raises(StorageError):
            Database.open(made)

    def test_definition_for_dropped_class_skipped(self, made):
        with Database.open(made) as database:
            database.create_index("thing", "n")
        # simulate a stale definition for a class that no longer exists
        (made / "indexes.json").write_text('[["ghost", "n"], ["thing", "n"]]')
        with Database.open(made) as database:
            assert database.objects.indexes.get("thing", "n") is not None
