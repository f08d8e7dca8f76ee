"""Server process of the ``tcp-workflow`` workload.

Protocol on stdin/stdout, one JSON line each way per step:

1. Config in: the serialized trie, whether to trace, how many set-up
   repeats. Set-up is timed that many times: ``load_trie`` + ``Engine`` +
   ``StreamServer.start`` + one loopback connect, each probe torn down
   again. Then the server the run uses is started; out goes its port and
   the set-up times.
2. ``{"expect": n, "timeout_s": t}`` in: wait until the engine has
   returned from ``n`` ``process`` calls, counted by the benchmark's own
   stamps (the server's ``metrics`` answer can arrive before the last
   queued frame is processed), stop the server, and send out the run's
   record: the return stamp and cost of every processed frame, peak RSS,
   buffer figures and, when tracing, the per-frame decode and process
   spans.
"""

from __future__ import annotations

import json
import socket
import sys
import time
from contextlib import nullcontext
from statistics import median

from common import RESULTS_DIR, audit_buffer_bounds, peak_rss_mb
from tracing import BenchEngine, Tracer, engine_layer_metrics, engine_state_metrics, installed
from trie_align import EngineConfig, StreamServer, load_trie


def _start(payload: bytes, tracer: Tracer | None):
    trie = load_trie(payload)
    loaded = time.perf_counter()
    engine = BenchEngine(EngineConfig(trie=trie), tracer=tracer, stamp=True)
    server = StreamServer(engine)
    server.start()
    return engine, server, loaded


def main() -> int:
    config = json.loads(sys.stdin.readline())
    payload = config["trie"].encode("utf-8")
    tracer = Tracer() if config["trace"] else None

    setup_s = []
    load_s = []
    for _ in range(config["setup_repeats"]):
        started = time.perf_counter()
        _, probe, loaded = _start(payload, None)
        with socket.create_connection(probe.address, timeout=10.0):
            setup_s.append(time.perf_counter() - started)
        load_s.append(loaded - started)
        probe.stop()

    with installed(tracer) if tracer is not None else nullcontext():
        engine, server, _ = _start(payload, tracer)
        print(json.dumps({"port": server.address[1]}), flush=True)
        request = json.loads(sys.stdin.readline())
        deadline = time.monotonic() + request["timeout_s"]
        while len(engine.done_ns) < request["expect"] and time.monotonic() < deadline:
            time.sleep(0.005)
        server.stop()

    record = {
        "setup_s": median(setup_s),
        "trie.load_s": median(load_s),
        "done_ns": engine.done_ns,
        "costs": engine.costs,
        "frames_malformed": server.frames_malformed,
        "peak_rss_mb": peak_rss_mb(),
        "buffer_bound_violations": audit_buffer_bounds(engine),
        "layers": engine_state_metrics(engine),
    }
    if tracer is not None:
        n = len(engine.done_ns)
        record["layers"].update(engine_layer_metrics(tracer.summary(), tracer))
        record["decode_start_ns"] = tracer.column("stream.decode", "start_ns", n)
        record["decode_end_ns"] = tracer.column("stream.decode", "end_ns", n)
        record["process_start_ns"] = tracer.column("engine.process", "start_ns", n)
        record["process_end_ns"] = tracer.column("engine.process", "end_ns", n)
        tracer.dump(RESULTS_DIR / "tcp-workflow.server.spans")
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
