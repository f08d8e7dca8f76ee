"""Load generator of the ``tcp-workflow`` workload, run as its own process.

Reads one JSON config line and then newline-delimited frame lines on
stdin, connects to the server, and sends the frames over that one
connection in two phases:

* paced: an open loop that writes ``per_tick`` frames every ``tick_ns``,
  on a schedule fixed before the first write, whatever the server does;
* full speed: after a pause, the rest in ``batch``-frame writes as fast as
  the socket accepts them.

Frames are written raw in batches (not through ``TcpSink``, which flushes
after every frame) and with Nagle's algorithm off, so the generator adds
no batching delay of its own. Prints one JSON line: the schedule origin,
the actual start of every paced write, and the full-speed phase start.
"""

from __future__ import annotations

import json
import socket
import sys
import time


def main() -> int:
    head, _, body = sys.stdin.buffer.read().partition(b"\n")
    config = json.loads(head)
    lines = body.splitlines(keepends=True)
    paced = config["paced_frames"]
    per_tick = config["per_tick"]
    batch = config["batch"]
    tick_ns = config["tick_ns"]
    paced_writes = [b"".join(lines[i : i + per_tick]) for i in range(0, paced, per_tick)]
    full_writes = [b"".join(lines[i : i + batch]) for i in range(paced, len(lines), batch)]

    clock = time.monotonic_ns
    with socket.create_connection(("127.0.0.1", config["port"]), timeout=60.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        origin = clock() + config["start_delay_ns"]
        sent_ns = []
        for k, blob in enumerate(paced_writes):
            due = origin + k * tick_ns
            now = clock()
            if now < due:
                time.sleep((due - now) / 1e9)
            sent_ns.append(clock())
            sock.sendall(blob)
        time.sleep(config["pause_s"])
        full_start_ns = clock()
        for blob in full_writes:
            sock.sendall(blob)
        full_sent_ns = clock()
        sock.shutdown(socket.SHUT_WR)
    print(
        json.dumps(
            {
                "origin_ns": origin,
                "sent_ns": sent_ns,
                "full_start_ns": full_start_ns,
                "full_sent_ns": full_sent_ns,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
