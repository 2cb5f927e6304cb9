"""The client's frame reader against a scripted peer.

One ``FrameReassembler`` per connection parses every frame the client
reads; a partial frame waits in it for whichever reader comes next, the
push pump or a caller.  The peer here is a bare socket server that
answers HELLO and hands every later request to a test's script, so the
tests control exactly how the bytes are cut and paced.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.errors import NetworkError, OdeError, ProtocolError
from repro.net import protocol as P
from repro.net.client import OdeClient


class ScriptedPeer:
    """Accepts connections; answers HELLO, then calls
    ``script(conn, frame, connection_number)`` for each request."""

    def __init__(self, script):
        self._script = script
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.1)
        self.port = self._listener.getsockname()[1]
        self.connections = 0
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._accept, daemon=True)]
        self._threads[0].start()

    def _accept(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.connections += 1
            thread = threading.Thread(
                target=self._serve, args=(conn, self.connections),
                daemon=True)
            self._threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket, number: int) -> None:
        conn.settimeout(5.0)
        frames = P.FrameReassembler()
        with conn:
            while not self._stop.is_set():
                try:
                    frame = P.recv_frame(conn, frames)
                except (OdeError, OSError):
                    return
                if frame.opcode == P.OP_HELLO:
                    conn.sendall(P.encode_frame(
                        frame.request_id, P.OP_REPLY,
                        {"version": P.PROTOCOL_VERSION}))
                else:
                    self._script(conn, frame, number)

    def close(self) -> None:
        self._stop.set()
        self._listener.close()
        for thread in self._threads:
            thread.join(timeout=6.0)


@pytest.fixture
def peer_factory():
    peers = []

    def make(script):
        peer = ScriptedPeer(script)
        peers.append(peer)
        return peer

    yield make
    for peer in peers:
        peer.close()


def _reply(frame: P.Frame, payload) -> bytes:
    return P.encode_frame(frame.request_id, P.OP_REPLY, payload)


def _push(epoch: int) -> bytes:
    return P.encode_frame(0, P.OP_CDC_EVENT, {
        "db": "lab", "sub": 1, "epoch": epoch,
        "changes": {"employee": ["lab:employee:1"]}, "resync": False})


class TestSplitPushes:
    def test_push_split_across_a_long_gap_is_delivered(self, peer_factory):
        """The second half of a push arrives 0.6 s after the first: the
        pump leaves the half in the buffer, and the session survives."""
        def script(conn, frame, _number):
            if frame.opcode == P.OP_CDC_SUBSCRIBE:
                conn.sendall(_reply(frame, {"sub": 1, "epoch": 0}))
                data = _push(7)
                half = len(data) // 2
                conn.sendall(data[:half])
                time.sleep(0.6)
                conn.sendall(data[half:])

        peer = peer_factory(script)
        client = OdeClient("127.0.0.1", peer.port, timeout=2.0).connect()
        try:
            subscription = client.subscribe("lab")
            event = subscription.get(timeout=5.0)
            assert event is not None and not event.lost
            assert event.epoch == 7
            assert client.generation == 0
            assert peer.connections == 1
        finally:
            client.close()

    def test_reply_and_push_in_one_write_are_both_delivered(
            self, peer_factory):
        def script(conn, frame, _number):
            if frame.opcode == P.OP_CDC_SUBSCRIBE:
                conn.sendall(_reply(frame, {"sub": 1, "epoch": 0}))
            elif frame.opcode == P.OP_PING:
                conn.sendall(_reply(frame, {"pong": True}) + _push(3))

        peer = peer_factory(script)
        client = OdeClient("127.0.0.1", peer.port, timeout=2.0).connect()
        try:
            subscription = client.subscribe("lab")
            assert client.call(P.OP_PING) == {"pong": True}
            # dispatched before the call returned, not left for the pump
            event = subscription.get(timeout=0)
            assert event is not None and event.epoch == 3
            assert client.generation == 0
        finally:
            client.close()

    def test_unsolicited_reply_behind_a_reply_drops_the_connection(
            self, peer_factory):
        """A second reply in the buffer means the stream is out of step."""
        def script(conn, frame, number):
            extra = _reply(frame, {"stray": True}) if number == 1 else b""
            conn.sendall(_reply(frame, {"pong": True}) + extra)

        peer = peer_factory(script)
        client = OdeClient("127.0.0.1", peer.port, timeout=2.0,
                           retries=0).connect()
        try:
            with pytest.raises(ProtocolError, match="out of step"):
                client.call(P.OP_PING)
            assert client.generation == 1
            assert client.call(P.OP_PING) == {"pong": True}
        finally:
            client.close()


class TestSlowReplies:
    def test_trickled_reply_is_read_whole(self, peer_factory):
        """4 bytes every 30 ms, for longer than the client timeout in
        all: every recv that returns bytes restarts the wait."""
        timeout = 0.2

        def script(conn, frame, _number):
            data = _reply(frame, {"rows": list(range(20))})
            for start in range(0, len(data), 4):
                conn.sendall(data[start:start + 4])
                time.sleep(0.03)

        peer = peer_factory(script)
        client = OdeClient("127.0.0.1", peer.port, timeout=timeout,
                           retries=0).connect()
        try:
            start = time.monotonic()
            assert client.call(P.OP_PING) == {"rows": list(range(20))}
            assert time.monotonic() - start > 2 * timeout
            assert client.generation == 0
        finally:
            client.close()

    def test_stalled_reply_fails_after_one_timeout(self, peer_factory):
        """Half a reply, then silence: the call fails after one client
        timeout, and the next call reconnects."""
        timeout = 0.5

        def script(conn, frame, number):
            data = _reply(frame, {"pong": number})
            if number == 1:
                conn.sendall(data[:len(data) // 2])
                time.sleep(3 * timeout)
            else:
                conn.sendall(data)

        peer = peer_factory(script)
        client = OdeClient("127.0.0.1", peer.port, timeout=timeout,
                           retries=0).connect()
        try:
            start = time.monotonic()
            with pytest.raises(NetworkError, match="timed out"):
                client.call(P.OP_PING)
            assert time.monotonic() - start < 1.5 * timeout
            assert client.generation == 1
            assert client.call(P.OP_PING) == {"pong": 2}
            assert peer.connections == 2
        finally:
            client.close()
