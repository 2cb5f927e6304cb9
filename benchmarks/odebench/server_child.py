"""The server child: hosts the databases under one root on a free port.

Run as ``python server_child.py <root>`` with ``repro`` importable.  The
generator and the server must not share an interpreter lock, so the server
lives in this process; the parent talks to it over loopback only.

Protocol with the parent: one JSON line ``{"port": N}`` on stdout once the
server accepts connections, then the child blocks reading stdin.  EOF on
stdin — the parent closed the pipe, or died — is the order to shut down, so
no exit path of the parent can leave an orphan server behind.
"""

import json
import sys


def main() -> int:
    from repro.net.server import OdeServer

    # The public defaults, spelled out where the environment could override
    # them: event-loop core, fsync per commit (window 0), 64-page pool,
    # 4096-entry MVCC cache.
    server = OdeServer(sys.argv[1], port=0, io_model="async")
    server.start()
    try:
        print(json.dumps({"port": server.port}), flush=True)
        sys.stdin.read()
    finally:
        server.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
