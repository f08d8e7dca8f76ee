from __future__ import annotations

import contextlib
import json
import logging
import math
import socket
import struct
import threading
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trie_align.stream as stream_mod

from trie_align import (
    DecayPolicy,
    Engine,
    EngineConfig,
    Event,
    Noiser,
    ProcessResult,
    StreamServer,
    build_trie,
    parse_event_log,
    parse_frame,
    parse_proxy_log,
)
from trie_align.stream import (
    EngineSink,
    FrameError,
    TcpSink,
    replay,
    simulate_stream,
)

SAMPLE_LOG = """\
case,activity,timestamp
1,a,2022-08-01 15:00
1,b,2022-08-01 15:02
2,a,2022-08-01 15:03
2,b,2022-08-01 15:06
1,c,2022-08-01 15:06
"""


# Keys of the server's metrics report; replay over an EngineSink reports all but frames_malformed.
RUN_METRICS_KEYS = {
    "events_processed",
    "computation_micros",
    "idle_micros",
    "wall_micros",
    "mean_event_micros",
    "p50_event_micros",
    "max_event_micros",
    "max_buffer_states",
    "max_resident_cases",
    "frames_malformed",
}


def sample_events():
    return parse_event_log(SAMPLE_LOG)


def delivered(events, interleave=None):
    """The events as replay sends them to a sink."""
    seen = []
    replay(events, types.SimpleNamespace(send=seen.append), interleave=interleave)
    return seen


class TestFrames:
    def test_json_line_round_trip(self):
        for ev in (Event("17", "a", "2022-08-01 15:00"), Event("17", "a")):
            assert parse_frame(ev.to_json_line()) == ev

    def test_timestamp_optional(self):
        assert parse_frame('{"case": "1", "activity": "a"}') == Event("1", "a")

    def test_control_line_yields_command(self):
        assert parse_frame('{"cmd":"metrics"}') == "metrics"
        assert parse_frame('{"cmd": "shutdown", "case": "1", "activity": "a"}') == "shutdown"

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2]",
            '{"case": "1"}',
            '{"activity": "a"}',
            '{"case": "", "activity": "a"}',
            '{"case": "1", "activity": "a", "ts": 5}',
            '{"cmd": 5}',
        ],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(FrameError):
            parse_frame(line)


class ScriptedEngine:
    """Stands in for an engine: each processed event takes ``seconds`` and syncs."""

    peak_total_states = 0

    def __init__(self, seconds=0.0):
        self.seconds = seconds
        self.calls = []

    def process(self, case_id, activity, timestamp=None):
        self.calls.append((case_id, activity, timestamp))
        if self.seconds:
            time.sleep(self.seconds)
        return ProcessResult(True, (), len(self.calls))

    def case_ids(self):
        return []


def metered(micros):
    """The meter's sink after it recorded each scripted latency."""
    sink = EngineSink(ScriptedEngine())
    for value in micros:
        sink.record(value)
    return sink


def nearest_rank(values, p):
    """The p-th percentile: the value at 1-based rank ceil(p * n / 100); 0 when empty."""
    if not values:
        return 0.0
    return sorted(values)[math.ceil(p * len(values) / 100) - 1]


class TestLatencySummary:
    def test_empty(self):
        metrics = metered([]).report(wall=0.0)
        assert metrics["events_processed"] == 0
        assert (metrics["mean_event_micros"], metrics["p50_event_micros"]) == (0.0, 0.0)
        assert (metrics["max_event_micros"], metrics["computation_micros"]) == (0.0, 0.0)

    def test_single_value(self):
        metrics = metered([7.5]).report(wall=10.0)
        assert metrics["events_processed"] == 1
        assert metrics["mean_event_micros"] == metrics["p50_event_micros"] == 7.5
        assert metrics["max_event_micros"] == 7.5

    def test_even_length_takes_nearest_rank(self):
        # n = 4: p50 is rank ceil(2.0) = 2, the lower middle value.
        micros = [4.0, 1.0, 3.0, 2.0]
        metrics = metered(micros).report(wall=20.0)
        assert metrics["p50_event_micros"] == nearest_rank(micros, 50) == 2.0
        assert (metrics["mean_event_micros"], metrics["max_event_micros"]) == (2.5, 4.0)

    def test_p50_rank_on_twenty_values(self):
        # n = 20: p50 is rank 10.
        micros = [float(v) for v in range(20, 0, -1)]
        metrics = metered(micros).report(wall=300.0)
        assert metrics["p50_event_micros"] == nearest_rank(micros, 50) == 10.0
        assert metrics["max_event_micros"] == 20.0

    def test_window_keeps_the_latest_events(self):
        # Integer-valued latencies, so every sum is exact. The slow early
        # events leave the window but stay in the count, the sum and the max.
        window = 65_536
        micros = [1e6 + i for i in range(1_000)] + [float(i % 977) for i in range(window)]
        sink = metered(micros)
        assert len(sink.window) == window
        assert sink.processed == len(micros)
        assert sink.computation == sum(micros)
        metrics = sink.report(wall=sum(micros))
        assert metrics["events_processed"] == len(micros)
        assert metrics["computation_micros"] == sum(micros)
        assert metrics["mean_event_micros"] == round(sum(micros) / len(micros), 3)
        assert metrics["max_event_micros"] == max(micros) == 1e6 + 999
        assert metrics["p50_event_micros"] == nearest_rank(micros[-window:], 50)
        assert metrics["p50_event_micros"] != nearest_rank(micros, 50)


class TestEngineSink:
    def test_send_returns_the_result_and_records_one_latency_per_call(self):
        engine = ScriptedEngine(seconds=0.001)
        sink = EngineSink(engine)
        results = [sink.send(Event("c", "a", "2022-08-01 15:00")) for _ in range(3)]
        assert results == [ProcessResult(True, (), k) for k in (1, 2, 3)]
        # The sink never passes the timestamp: the engine does not read it.
        assert engine.calls == [("c", "a", None)] * 3
        assert sink.processed == len(sink.window) == 3
        assert min(sink.window) >= 1_000.0
        assert sink.computation == sum(sink.window)
        assert sink.peak == max(sink.window)


class TestInterleaving:
    def test_by_timestamp_matches_file_order_on_ties(self):
        # Rows out of timestamp order, a tie across cases, and two rows
        # without a timestamp: those go last, in file order.
        events = parse_event_log(
            "case,activity,timestamp\n"
            "1,a,2022-08-01 15:00\n"
            "2,x,\n"
            "1,b,2022-08-01 15:06\n"
            "2,a,2022-08-01 15:03\n"
            "1,y,\n"
            "2,b,2022-08-01 15:06\n"
            "1,c,2022-08-01 15:06\n"
        )
        assert [(f.case_id, f.activity) for f in delivered(events, "by-timestamp")] == [
            ("1", "a"),
            ("2", "a"),
            ("1", "b"),
            ("2", "b"),
            ("1", "c"),
            ("2", "x"),
            ("1", "y"),
        ]
        assert delivered(events) == events

    def test_empty_log(self):
        assert delivered([]) == delivered([], "by-timestamp") == []

    @given(
        st.lists(
            st.builds(
                Event,
                st.sampled_from(["1", "2", "3"]),
                st.sampled_from(["a", "b"]),
                st.sampled_from([None, "", "2022-08-01 15:00", "2022-08-01 15:06", "15:03"]),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_by_timestamp_is_the_stable_two_part_key_sort(self, events):
        # The reference order: one key tuple per event, untimestamped last.
        expected = sorted(events, key=lambda ev: (ev.timestamp is None, ev.timestamp or ""))
        got = delivered(events, "by-timestamp")
        assert [id(ev) for ev in got] == [id(ev) for ev in expected]
        assert delivered(iter(events), "by-timestamp") == expected

    @pytest.mark.parametrize("interleave", [None, "by-timestamp"])
    def test_replays_the_parsed_events_themselves(self, interleave):
        parsed = sample_events()
        replayed = delivered(parsed, interleave)
        assert len(replayed) == len(parsed)
        assert all(any(ev is p for p in parsed) for ev in replayed)
        assert len({id(ev) for ev in replayed}) == len(parsed)


class TestReplay:
    def test_exactly_once_in_order_delivery(self, workflow_trie):
        class Recorder:
            def __init__(self):
                self.seen = []

            def send(self, frame):
                self.seen.append((frame.case_id, frame.activity))
                return None

        recorder = Recorder()
        metrics = replay(sample_events(), recorder)
        assert metrics["events_processed"] == 5
        assert recorder.seen == [(ev.case_id, ev.activity) for ev in sample_events()]
        per_case: dict[str, list[str]] = {}
        for case_id, activity in recorder.seen:
            per_case.setdefault(case_id, []).append(activity)
        assert per_case == {"1": ["a", "b", "c"], "2": ["a", "b"]}

    def test_by_timestamp_replay_delivers_in_timestamp_order(self):
        class TimestampRecorder:
            def __init__(self):
                self.seen = []

            def send(self, frame):
                assert not self.seen or self.seen[-1][2] <= frame.timestamp
                self.seen.append((frame.case_id, frame.activity, frame.timestamp))

        recorder = TimestampRecorder()
        metrics = replay(sample_events(), recorder, interleave="by-timestamp")
        assert metrics["events_processed"] == 5
        assert [(case, act) for case, act, _ in recorder.seen] == [
            ("1", "a"),
            ("1", "b"),
            ("2", "a"),
            ("2", "b"),
            ("1", "c"),
        ]

    def test_unknown_interleave_mode_raises(self):
        for mode in ("shuffled", "round-robin"):
            with pytest.raises(ValueError, match="unknown interleave mode"):
                replay(sample_events(), None, interleave=mode)

    @pytest.mark.parametrize("rate", [0, -5.0, math.nan])
    def test_drive_rejects_a_rate_that_is_not_positive(self, workflow_trie, rate):
        sink = EngineSink(Engine(EngineConfig(trie=workflow_trie)))
        with pytest.raises(ValueError, match="rate must be a positive number"):
            replay(sample_events(), sink, rate=rate)
        assert sink.processed == 0
        assert not sink.window

    def test_engine_sink_metrics(self, workflow_trie):
        engine = Engine(EngineConfig(trie=workflow_trie, decay=DecayPolicy(df=0, min_dt=2)))
        sink = EngineSink(engine)
        metrics = replay(sample_events(), sink)
        assert metrics.keys() == RUN_METRICS_KEYS - {"frames_malformed"}
        assert metrics["events_processed"] == 5
        assert metrics["mean_event_micros"] > 0
        assert metrics["p50_event_micros"] <= metrics["max_event_micros"]
        assert metrics["max_buffer_states"] >= metrics["max_resident_cases"] == 2
        assert metrics["computation_micros"] + metrics["idle_micros"] == pytest.approx(
            metrics["wall_micros"], rel=0.25
        )

    def test_empty_replay(self, workflow_trie):
        engine = Engine(EngineConfig(trie=workflow_trie))
        metrics = replay([], EngineSink(engine))
        assert metrics["events_processed"] == 0
        assert metrics["computation_micros"] == 0

    def test_throttled_replay_accrues_idle_time(self, workflow_trie):
        engine = Engine(EngineConfig(trie=workflow_trie))
        metrics = replay(sample_events(), EngineSink(engine), rate=200.0)
        assert metrics["idle_micros"] > 0
        assert metrics["wall_micros"] >= 4 * 5000  # four inter-event gaps at 5 ms


class TestNoise:
    def test_zero_level_is_identity(self):
        trace = list("abcde")
        assert Noiser("abcde", 0.0, seed=1).apply(trace) == trace

    def test_forced_deletion_empties_trace(self, monkeypatch):
        monkeypatch.setattr(stream_mod, "_ALL_OPS", (stream_mod.DELETE,))
        out = Noiser("ab", 1.0, seed=3).apply(["a", "b"])
        assert out == []

    def test_seeded_runs_are_bit_reproducible(self):
        one = Noiser("abcde", 0.3, seed=42)
        two = Noiser("abcde", 0.3, seed=42)
        traces = [list("abcdeabcde") for _ in range(20)]
        assert [one.apply(t) for t in traces] == [two.apply(t) for t in traces]

    def test_mutation_count_within_binomial_interval(self):
        # 10,000 positions at 5%: binomial mean 500, sd ~21.8; 99% interval.
        noiser = Noiser("abcde", 0.05, seed=42)
        for _ in range(1000):
            noiser.apply(list("abcdeabcde"))
        n, p = noiser.positions, 0.05
        assert n == 10_000
        sd = math.sqrt(n * p * (1 - p))
        low, high = n * p - 2.576 * sd, n * p + 2.576 * sd
        assert low <= noiser.mutations <= high

    def test_insert_can_introduce_fresh_symbols(self, monkeypatch):
        monkeypatch.setattr(stream_mod, "_ALL_OPS", (stream_mod.INSERT,))
        noiser = Noiser("ab", 1.0, seed=0)
        out = noiser.apply(list("abababab"))
        assert len(out) == 16
        assert any(symbol.startswith("noise_") for symbol in out)

    def test_swap_exchanges_neighbors(self, monkeypatch):
        monkeypatch.setattr(stream_mod, "_ALL_OPS", (stream_mod.SWAP,))
        out = Noiser("ab", 1.0, seed=5).apply(["a", "b"])
        assert out == ["b", "a"]

    def test_level_validation(self):
        with pytest.raises(ValueError):
            Noiser("ab", 1.5)


class TestSimulateStream:
    @pytest.mark.parametrize(
        "bad",
        [
            {"noise_level": 1.5},
            {"max_events": 0},
            # Never iterated: a NaN duration would never end the stream.
            {"duration": float("nan")},
        ],
    )
    def test_bad_arguments_raise_before_any_event(self, workflow_trie, bad):
        kwargs = {"noise_level": 0.1, "seed": 1, "max_events": 10, "duration": None, **bad}
        with pytest.raises(ValueError):
            simulate_stream(workflow_trie, **kwargs)


@pytest.fixture
def running_server(workflow_trie):
    engine = Engine(EngineConfig(trie=workflow_trie, decay=DecayPolicy(df=0, min_dt=2)))
    server = StreamServer(engine, port=0)
    server.start()
    yield server
    server.stop()


def send_lines(address, lines: list[str]) -> list[str]:
    """Send raw lines; returns one response line per trailing read request."""
    with socket.create_connection(address, timeout=5.0) as sock:
        file = sock.makefile("rw", encoding="utf-8", newline="\n")
        for line in lines:
            file.write(line + "\n")
        file.flush()
        return [file.readline()]


class TestStreamServer:
    def test_frames_feed_engine_in_order(self, running_server, workflow_trie):
        frames = [Event("c1", a).to_json_line() for a in "ab"]
        answer = send_lines(running_server.address, frames + ['{"cmd":"metrics"}'])
        metrics = json.loads(answer[0])
        assert RUN_METRICS_KEYS <= metrics.keys()
        assert metrics["events_processed"] == 2
        assert running_server.engine.conformance_cost("c1") == 0

    def test_server_and_drive_report_through_one_meter(self, workflow_trie):
        # The same noisy frames, replayed in process and served over TCP.
        noiser = Noiser("abcde", 0.2, seed=4)
        noised = [noiser.apply(list("abdbce")) for _ in range(40)]
        # One event per case per round, so the 40 cases overlap.
        frames = parse_event_log(
            "case,activity\n"
            + "".join(
                f"c{i},{trace[pos]}\n"
                for pos in range(max(map(len, noised)))
                for i, trace in enumerate(noised)
                if pos < len(trace)
            )
        )
        policy = DecayPolicy()
        sink = EngineSink(Engine(EngineConfig(trie=workflow_trie, decay=policy)))
        replayed = replay(frames, sink)
        assert replayed["computation_micros"] == round(sink.computation, 1)

        server = StreamServer(Engine(EngineConfig(trie=workflow_trie, decay=policy)), port=0)
        server.start()
        try:
            lines = [frame.to_json_line() for frame in frames] + ['{"cmd":"metrics"}']
            send_lines(server.address, lines)
        finally:
            served = server.stop()
        for key in ("events_processed", "max_buffer_states", "max_resident_cases"):
            assert served[key] == replayed[key]
        assert served["events_processed"] == len(frames) > 150
        assert served["computation_micros"] == round(server._sink.computation, 1)

    def test_each_line_is_decoded_once(self, running_server, monkeypatch):
        decodes = []

        def counting_loads(text, *args, **kwargs):
            decodes.append(text)
            return json.loads(text, *args, **kwargs)

        monkeypatch.setattr(
            stream_mod, "json", types.SimpleNamespace(loads=counting_loads, dumps=json.dumps)
        )
        frames = [Event("c5", a).to_json_line() for a in "abce"]
        answer = send_lines(running_server.address, frames + ['{"cmd":"metrics"}'])
        monkeypatch.undo()
        assert json.loads(answer[0])["events_processed"] == 4
        assert len(decodes) == len(frames) + 1

    def test_metrics_waits_for_frame_in_engine(self, workflow_trie):
        # The consumer has taken the frame off the queue but not finished it.
        class SlowEngine(Engine):
            def process(self, case_id, activity, timestamp=None):
                time.sleep(0.2)
                return super().process(case_id, activity, timestamp)

        server = StreamServer(SlowEngine(EngineConfig(trie=workflow_trie)), port=0)
        server.start()
        try:
            lines = [Event("c1", "a").to_json_line(), '{"cmd":"metrics"}']
            metrics = json.loads(send_lines(server.address, lines)[0])
            assert metrics["events_processed"] == 1
        finally:
            server.stop()

    def test_engine_rejected_frame_releases_metrics(self, workflow_trie):
        class RejectingEngine(Engine):
            def process(self, case_id, activity, timestamp=None):
                if activity == "boom":
                    raise RuntimeError("rejected")
                return super().process(case_id, activity, timestamp)

        server = StreamServer(RejectingEngine(EngineConfig(trie=workflow_trie)), port=0)
        server.start()
        try:
            lines = [Event("c1", "boom").to_json_line(), '{"cmd":"metrics"}']
            metrics = json.loads(send_lines(server.address, lines)[0])
            assert metrics["events_processed"] == 0
            assert metrics["frames_malformed"] == 1
        finally:
            server.stop()

    def test_malformed_frame_is_counted_and_skipped(self, running_server):
        lines = [
            Event("c2", "a").to_json_line(),
            "this is not json",
            Event("c2", "b").to_json_line(),
            '{"cmd":"metrics"}',
        ]
        metrics = json.loads(send_lines(running_server.address, lines)[0])
        assert metrics["events_processed"] == 2
        assert metrics["frames_malformed"] == 1

    def test_unknown_command_is_counted_and_left_unanswered(self, running_server):
        lines = ['{"cmd":"reboot"}', Event("c2", "a").to_json_line(), '{"cmd":"metrics"}']
        # The first line back is the metrics answer: the unknown command got none.
        metrics = json.loads(send_lines(running_server.address, lines)[0])
        assert metrics["events_processed"] == 1
        assert metrics["frames_malformed"] == 1

    def test_unterminated_line_over_the_cap_closes_its_connection(self, running_server):
        with socket.create_connection(running_server.address, timeout=5.0) as flood:
            with contextlib.suppress(BrokenPipeError, ConnectionResetError):
                flood.sendall(b"x" * (2 << 20))
            # Closed by the server: EOF or a reset, never a timeout.
            with contextlib.suppress(ConnectionResetError):
                assert flood.recv(4096) == b""
        lines = [Event("c1", "a").to_json_line(), '{"cmd":"metrics"}']
        metrics = json.loads(send_lines(running_server.address, lines)[0])
        assert metrics["events_processed"] == 1
        assert metrics["frames_malformed"] == 1

    def test_reset_connection_is_dropped_and_the_server_stays_up(self, running_server, caplog):
        caplog.set_level(logging.DEBUG, logger="trie_align.stream")
        reset = socket.create_connection(running_server.address, timeout=5.0)
        with reset:
            # An answered request proves the server holds the connection before the reset.
            reset.sendall(b'{"cmd":"metrics"}\n')
            reset.makefile().readline()
            # Linger 0 makes close() send a reset instead of a FIN.
            reset.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        deadline = time.monotonic() + 5.0
        while not any("connection ended" in r.getMessage() for r in caplog.records):
            assert time.monotonic() < deadline, "the server never read the reset"
            time.sleep(0.01)
        lines = [Event("c1", "a").to_json_line(), '{"cmd":"metrics"}']
        metrics = json.loads(send_lines(running_server.address, lines)[0])
        assert metrics["events_processed"] == 1
        assert metrics["frames_malformed"] == 0

    def test_shutdown_flushes_final_report(self, workflow_trie):
        engine = Engine(EngineConfig(trie=workflow_trie))
        server = StreamServer(engine, port=0)
        server.start()
        try:
            lines = [Event("c1", "a").to_json_line(), '{"cmd":"shutdown"}']
            final = json.loads(send_lines(server.address, lines)[0])
            assert final["events_processed"] == 1
            assert server.wait(timeout=5.0)
        finally:
            server.stop()

    def test_stop_closes_connections_and_joins_readers(self, workflow_trie):
        server = StreamServer(Engine(EngineConfig(trie=workflow_trie)), port=0)
        before = set(threading.enumerate())
        server.start()
        try:
            with socket.create_connection(server.address, timeout=5.0) as client:
                # A metrics answer proves the reader is up; the client stays connected.
                client.sendall(b'{"cmd":"metrics"}\n')
                reply = b""
                while not reply.endswith(b"\n"):
                    chunk = client.recv(4096)
                    assert chunk, "server closed before answering"
                    reply += chunk
                server.stop()
                assert [t for t in threading.enumerate() if t not in before] == []
                assert client.recv(4096) == b""  # EOF, not a hang
        finally:
            server.stop()

    def test_one_thread_serves_every_connection(self, workflow_trie):
        server = StreamServer(Engine(EngineConfig(trie=workflow_trie)), port=0)
        before = set(threading.enumerate())
        server.start()
        try:
            with contextlib.ExitStack() as stack:
                for _ in range(3):
                    client = stack.enter_context(socket.create_connection(server.address, 5.0))
                    client.sendall(b'{"cmd":"metrics"}\n')
                    file = stack.enter_context(client.makefile("r", encoding="utf-8"))
                    assert json.loads(file.readline())["events_processed"] == 0
                started = [t for t in threading.enumerate() if t not in before]
                assert len(started) == 1
        finally:
            server.stop()
        assert not started[0].is_alive()

    def test_stop_keeps_every_frame_already_sent(self, workflow_trie):
        # 5,000 cases of a, b, c, e: the client sends them all and closes,
        # and stop() comes before the server has read most of them.
        n_cases = 5_000
        wire = "".join(
            Event(f"c{i}", a).to_json_line() + "\n" for i in range(n_cases) for a in "abce"
        )
        server = StreamServer(Engine(EngineConfig(trie=workflow_trie)), port=0)
        server.start()
        try:
            with socket.create_connection(server.address, timeout=5.0) as client:
                client.sendall(wire.encode("utf-8"))
        finally:
            report = server.stop()
        assert report["events_processed"] == 4 * n_cases
        assert report["frames_malformed"] == 0

    def test_multibyte_label_split_across_reads(self):
        # The trie knows the label, so a mangled decode would cost a log move.
        trie = build_trie(parse_proxy_log("prüfen\n"))
        server = StreamServer(Engine(EngineConfig(trie=trie)), port=0)
        server.start()
        line = '{"case":"u1","activity":"prüfen"}\n'.encode("utf-8")
        cut = line.index("ü".encode("utf-8")) + 1  # inside the two-byte character
        try:
            with socket.create_connection(server.address, timeout=5.0) as client:
                client.sendall(line[:cut])
                time.sleep(0.05)  # the server reads the first part on its own
                client.sendall(line[cut:] + b'{"cmd":"metrics"}\n')
                with client.makefile("r", encoding="utf-8") as file:
                    metrics = json.loads(file.readline())
        finally:
            server.stop()
        assert metrics["events_processed"] == 1
        assert metrics["frames_malformed"] == 0
        assert server.engine.conformance_cost("u1") == 0

    def test_last_line_without_newline_is_processed(self, running_server):
        with socket.create_connection(running_server.address, timeout=5.0) as client:
            client.sendall(Event("c1", "a").to_json_line().encode("utf-8"))
            client.shutdown(socket.SHUT_WR)
            assert client.recv(4096) == b""  # the server has read to EOF and closed
        assert running_server.stop()["events_processed"] == 1

    def test_idle_connection_does_not_delay_metrics(self, running_server):
        with socket.create_connection(running_server.address, timeout=5.0) as idle:
            idle.sendall(b'{"case":"c1",')  # half a line, then nothing
            started = time.perf_counter()
            lines = [Event("c2", "a").to_json_line(), '{"cmd":"metrics"}']
            metrics = json.loads(send_lines(running_server.address, lines)[0])
            assert time.perf_counter() - started < 1.0
        assert metrics["events_processed"] == 1

    def test_client_that_never_reads_loses_only_its_connection(self, running_server, monkeypatch):
        monkeypatch.setattr(stream_mod, "_ANSWER_TIMEOUT", 0.2)
        with socket.socket() as greedy:
            greedy.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            greedy.settimeout(5.0)
            greedy.connect(running_server.address)
            # Metrics requests whose answers are never read, until the server resets.
            with pytest.raises((ConnectionResetError, BrokenPipeError)):
                for _ in range(10_000):
                    greedy.sendall(b'{"cmd":"metrics"}\n' * 100)
        lines = [Event("c1", "a").to_json_line(), '{"cmd":"metrics"}']
        assert json.loads(send_lines(running_server.address, lines)[0])["events_processed"] == 1

    def test_only_the_consumer_touches_the_engine(self, workflow_trie):
        threads: set[int] = set()

        class RecordingEngine(Engine):
            def process(self, case_id, activity, timestamp=None):
                threads.add(threading.get_ident())
                return super().process(case_id, activity, timestamp)

            def case_ids(self):
                threads.add(threading.get_ident())
                return super().case_ids()

        engine = RecordingEngine(EngineConfig(trie=workflow_trie))
        server = StreamServer(engine, port=0)
        server.start()
        try:
            lines = [Event(f"c{i}", "a").to_json_line() for i in range(5)]
            metrics = json.loads(send_lines(server.address, lines + ['{"cmd":"metrics"}'])[0])
            assert metrics["events_processed"] == 5
            assert len(threads) == 1
            assert threading.get_ident() not in threads
        finally:
            server.stop()

    def test_non_utf8_line_is_counted_and_skipped(self, running_server):
        with socket.create_connection(running_server.address, timeout=5.0) as client:
            client.sendall(b'\xff\xfe\n{"cmd":"metrics"}\n')
            with client.makefile("r", encoding="utf-8") as file:
                metrics = json.loads(file.readline())
        assert metrics["frames_malformed"] == 1

    def test_tcp_sink_round_trip(self, running_server):
        host, port = running_server.address
        sink = TcpSink(host, port)
        for activity in "abce":
            sink.send(Event("c9", activity))
        metrics = sink.request_metrics()
        sink.close()
        assert metrics["events_processed"] == 4
        assert running_server.engine.conformance_cost("c9") == 0

    def test_tcp_sink_raises_when_the_server_closes_without_answering(self):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)

            def read_one_line_and_close():
                conn, _ = listener.accept()
                with conn, conn.makefile("rb") as file:
                    file.readline()

            closer = threading.Thread(target=read_one_line_and_close, daemon=True)
            closer.start()
            sink = TcpSink(*listener.getsockname())
            try:
                with pytest.raises(ConnectionError, match="closed the connection before answering"):
                    sink.request_metrics()
            finally:
                sink.close()
                closer.join(timeout=5.0)
        assert not closer.is_alive()

    def test_tcp_sink_connect_failure_reports_retries(self, monkeypatch):
        monkeypatch.setattr(stream_mod, "_CONNECT_RETRY_DELAY", 0.01)
        pauses: list[float] = []
        monkeypatch.setattr(stream_mod.time, "sleep", pauses.append)
        with pytest.raises(ConnectionError, match="3 attempts"):
            TcpSink("127.0.0.1", 9)
        assert pauses == [0.01, 0.01]  # none after the last attempt
