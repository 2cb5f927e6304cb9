"""Fixtures: a running OdeServer over a lab database (long-poll tests)."""

from __future__ import annotations

import pytest

from repro.data.labdb import make_lab_database
from repro.net.server import OdeServer


@pytest.fixture
def served_lab(tmp_path):
    """A lab database hosted by a running server; yields the server."""
    make_lab_database(tmp_path).close()
    server = OdeServer(tmp_path)
    server.start()
    yield server
    server.shutdown()
