"""Many clients, one server: integrity under concurrent browse + write."""

import threading

from repro.net.remote import RemoteDatabase

DEPT = {"dname": "tmp", "location": "x", "employees": [], "mgr": None,
        "budget": 0.0}


def test_concurrent_browsers_and_a_writer(served_lab):
    """4 browsing clients and 1 writing client run together cleanly.

    Readers must always observe a consistent department count (writes
    are transactional and serialized), and every client's scan of the
    employee cluster must be complete.
    """
    port = served_lab.port
    errors = []
    counts = []
    commits = []
    stop = threading.Event()

    def browser(worker: int) -> None:
        try:
            db = RemoteDatabase.connect("127.0.0.1", port, "lab")
            try:
                while not stop.is_set():
                    oids = db.objects.cluster("employee").oids()
                    if len(oids) != 55:
                        errors.append(f"worker {worker}: {len(oids)} oids")
                    counts.append(db.objects.count("department"))
            finally:
                db.close()
        except Exception as exc:  # surfaces in the main thread's assert
            errors.append(f"worker {worker}: {type(exc).__name__}: {exc}")

    def writer() -> None:
        try:
            db = RemoteDatabase.connect("127.0.0.1", port, "lab")
            try:
                for _round in range(5):
                    db.objects.begin()
                    oid = db.objects.new_object("department", dict(DEPT))
                    db.objects.commit()
                    db.objects.begin()
                    db.objects.delete(oid)
                    db.objects.commit()
                    commits.append(oid)
            finally:
                db.close()
        except Exception as exc:
            errors.append(f"writer: {type(exc).__name__}: {exc}")
        finally:
            stop.set()

    threads = [threading.Thread(target=browser, args=(n,)) for n in range(4)]
    threads.append(threading.Thread(target=writer))
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not errors
    assert len(commits) == 5  # the readers never starved the writer...
    assert counts             # ...nor it them
    # counts only ever show 7 (steady) or 8 (mid-write) departments
    assert set(counts) <= {7, 8}
    # and the server is still healthy afterwards
    db = RemoteDatabase.connect("127.0.0.1", port, "lab")
    try:
        assert db.objects.count("department") == 7
        assert db.objects.count("employee") == 55
    finally:
        db.close()


def test_cursor_stepping_during_vacuum(served_lab):
    """Cursor steps hold the database read lock, vacuum the write lock:
    a browsing session never observes the store mid-swap."""
    port = served_lab.port
    errors = []
    stop = threading.Event()

    def stepper(worker: int) -> None:
        try:
            db = RemoteDatabase.connect("127.0.0.1", port, "lab")
            try:
                while not stop.is_set():
                    cursor = db.objects.cursor("employee")
                    seen = 0
                    while cursor.next() is not None:
                        seen += 1
                    if seen != 55:
                        errors.append(f"worker {worker}: stepped {seen} oids")
                    cursor.close()
            finally:
                db.close()
        except Exception as exc:
            errors.append(f"worker {worker}: {type(exc).__name__}: {exc}")

    def vacuumer() -> None:
        try:
            db = RemoteDatabase.connect("127.0.0.1", port, "lab")
            try:
                for _round in range(5):
                    db.vacuum()
            finally:
                db.close()
        except Exception as exc:
            errors.append(f"vacuum: {type(exc).__name__}: {exc}")
        finally:
            stop.set()

    threads = [threading.Thread(target=stepper, args=(n,)) for n in range(2)]
    threads.append(threading.Thread(target=vacuumer))
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not errors
