"""The benchmark's hooks still reach the package.

``benchmarks/tracing.py`` records a run from outside: it subclasses
``Engine`` and replaces ``trie_align.engine.expand_model_moves``,
``Trie.path_match`` and ``trie_align.stream.parse_frame`` by name. A
refactor that calls one of them some other way leaves its counters at zero
and shows up only as a failed benchmark run; these tests catch it in the
suite.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import socket
from pathlib import Path

import pytest

from trie_align import Engine, EngineConfig, StreamServer
from trie_align.cli import simulate_stream

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    return importlib.import_module("tracing")


def noisy_stream(trie, n):
    return list(simulate_stream(trie, noise_level=0.3, seed=7, max_events=n, duration=None))


# SHA-256 of the wire lines of noisy_stream(workflow_trie, 20_000), joined by
# newlines: the benchmark's inputs come from this generator, so its events
# must not move.
PINNED_STREAM_SHA256 = "1ef7cf7e3f6aba515ee08958070caf4a17a5a0ae2c3ca689d5cb5e2dee88c1f9"


def test_simulated_stream_is_pinned(workflow_trie):
    keyword = noisy_stream(workflow_trie, 20_000)
    positional = simulate_stream(workflow_trie, 0.3, 7, 20_000, None)  # benchmarks/tcp.py's form
    for events in (keyword, positional):
        wire = "\n".join(ev.to_json_line() for ev in events)
        assert hashlib.sha256(wire.encode("utf-8")).hexdigest() == PINNED_STREAM_SHA256


def test_traced_engine_counts_every_call(tracing, workflow_trie):
    events = noisy_stream(workflow_trie, 400)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        engine = tracing.BenchEngine(EngineConfig(trie=workflow_trie), tracer=tracer, stamp=True)
        results = [engine.process(ev.case_id, ev.activity, ev.timestamp) for ev in events]
    summary = tracer.summary()
    misses = sum(not r.sync for r in results)

    assert summary["engine.process"]["calls"] == engine.calls == len(events)
    assert summary["engine.process"]["outcome_sum"] == len(events) - misses
    # Every missed event searches from at least one state; a hit never searches.
    assert misses > 0
    assert summary["engine.expand"]["calls"] >= misses
    assert tracer.path_match_calls > 0
    assert 0 < tracer.path_match_hits <= tracer.path_match_calls
    # The stamped costs are an untraced engine's.
    plain = Engine(EngineConfig(trie=workflow_trie))
    assert engine.costs == [plain.process(ev.case_id, ev.activity).best_cost for ev in events]


def test_traced_server_decodes_every_line_once(tracing, workflow_trie):
    events = noisy_stream(workflow_trie, 50)
    wire = "".join(ev.to_json_line() + "\n" for ev in events) + '{"cmd":"metrics"}\n'
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        engine = tracing.BenchEngine(EngineConfig(trie=workflow_trie), tracer=tracer, stamp=True)
        server = StreamServer(engine, port=0)
        server.start()
        try:
            with socket.create_connection(server.address, timeout=10.0) as client:
                client.sendall(wire.encode("utf-8"))
                with client.makefile("r", encoding="utf-8") as reader:
                    answer = json.loads(reader.readline())
        finally:
            server.stop()
    summary = tracer.summary()

    assert answer["events_processed"] == 50
    assert answer["frames_malformed"] == 0
    assert summary["stream.decode"]["calls"] == 51  # 50 frames and the metrics line
    assert summary["engine.process"]["calls"] == engine.calls == len(engine.done_ns) == 50
