"""Shared fixtures: demo databases and OdeView applications."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.app import OdeView
from repro.core.session import UserSession
from repro.data.documents import make_documents_database
from repro.data.labdb import make_lab_database
from repro.data.universitydb import make_university_database
from repro.errors import FaultInjectedError
from repro.ode.database import Database

# Tier-1 draws the same examples on every run (and replays no local
# example database), so green or red never depends on the draw.  Tier-2
# jobs pass ``--hypothesis-profile=random`` to search afresh under the
# ``--hypothesis-seed`` they echo.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile("tier1")


class _TransientFault:
    """A fault gate that fails the next crossing of *site* once
    :attr:`armed` is set, with a transient :attr:`error`; every other
    crossing passes through."""

    error = FaultInjectedError

    def __init__(self, site: str):
        self.site = site
        self.armed = False

    def __call__(self, site, data, default):
        if self.armed and site == self.site:
            self.armed = False
            raise self.error(f"injected at {site}")
        return default() if data is None else default(data)


@pytest.fixture
def transient_fault():
    """``transient_fault(site)`` builds a one-shot transient fault gate."""
    return _TransientFault


@pytest.fixture
def lab_root(tmp_path):
    """A directory holding a freshly built (and closed) lab database."""
    make_lab_database(tmp_path).close()
    return tmp_path


@pytest.fixture
def lab_db(tmp_path):
    """An open lab database."""
    database = make_lab_database(tmp_path)
    yield database
    database.close()


@pytest.fixture
def uni_db(tmp_path):
    database = make_university_database(tmp_path)
    yield database
    database.close()


@pytest.fixture
def docs_db(tmp_path):
    database = make_documents_database(tmp_path)
    yield database
    database.close()


@pytest.fixture
def empty_db(tmp_path):
    database = Database.create(tmp_path / "empty.odb")
    yield database
    database.close()


@pytest.fixture
def app(lab_root):
    application = OdeView(lab_root, screen_width=150)
    yield application
    application.shutdown()


@pytest.fixture
def user_session(lab_root):
    with UserSession(lab_root, screen_width=150) as session:
        yield session
