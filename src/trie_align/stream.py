"""Stream replay, noise injection, and the TCP ingestion server.

Wire protocol: newline-delimited UTF-8 JSON, one frame per line, e.g.
``{"case": "17", "activity": "a", "ts": "2022-08-01 15:00"}`` (``ts``
optional). Two control lines are understood by the server:
``{"cmd": "metrics"}`` answers with a metrics report on the same
connection, ``{"cmd": "shutdown"}`` answers with the final report and
stops the server. A command rides the same FIFO queue as the frames, so
its answer counts every frame queued before it, and the one consumer
thread that owns the engine computes it. Each line is decoded once, by
:func:`parse_frame`. Malformed lines (non-UTF-8 bytes included) are
counted, logged, and skipped; they never take the engine down.

Replay can drive an in-process engine or a remote TCP endpoint, in
round-robin or timestamp order, throttled or flat out. The latency
metrics only ever count engine processing time; waiting for the throttle
or the socket is reported as idle time.
"""

from __future__ import annotations

import json
import logging
import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .engine import Engine
from .events import Trace

logger = logging.getLogger("trie_align.stream")

INSERT = "insert"
DELETE = "delete"
SWAP = "swap"

_ALL_OPS = (INSERT, DELETE, SWAP)


class FrameError(ValueError):
    """Raised for a wire line that is not a valid stream frame."""


@dataclass(frozen=True)
class StreamFrame:
    """One wire-level event record."""

    case_id: str
    activity: str
    timestamp: str | None = None

    def to_json_line(self) -> str:
        doc: dict = {"case": self.case_id, "activity": self.activity}
        if self.timestamp is not None:
            doc["ts"] = self.timestamp
        return json.dumps(doc, separators=(",", ":"))


def parse_frame(line: str) -> StreamFrame | str:
    """Parse one wire line into a frame, or a control line into its command.

    A control line is any JSON object with a ``cmd`` key.

    Raises:
        FrameError: for bad JSON, a non-object, a non-string ``cmd``, or
            missing/empty fields.
    """
    try:
        doc = json.loads(line)
    except ValueError as exc:
        raise FrameError(f"bad JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FrameError("frame must be a JSON object")
    if "cmd" in doc:
        cmd = doc["cmd"]
        if not isinstance(cmd, str):
            raise FrameError("'cmd' must be a string")
        return cmd
    case_id = doc.get("case")
    activity = doc.get("activity")
    if not isinstance(case_id, str) or not case_id:
        raise FrameError("missing or empty 'case'")
    if not isinstance(activity, str) or not activity:
        raise FrameError("missing or empty 'activity'")
    ts = doc.get("ts")
    if ts is not None and not isinstance(ts, str):
        raise FrameError("'ts' must be a string")
    return StreamFrame(case_id, activity, ts)


# -- noise ----------------------------------------------------------------


@dataclass(frozen=True)
class NoiseConfig:
    """Per-position mutation settings for pre-stream trace corruption.

    Each trace position independently mutates with probability ``level``;
    the operation is drawn uniformly from ``ops``. Inserts draw uniformly
    from the given alphabet plus one fresh symbol unknown to the model.
    Runs with the same seed are bit-reproducible.
    """

    level: float
    ops: tuple[str, ...] = _ALL_OPS
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.level <= 1.0:
            raise ValueError("noise level must be a probability in [0, 1]")
        if not self.ops:
            raise ValueError("at least one noise operation must be enabled")
        for op in self.ops:
            if op not in _ALL_OPS:
                raise ValueError(f"unknown noise operation {op!r}")


class Noiser:
    """Stateful noise injector; one RNG stream across a whole corpus.

    ``mutations`` counts fired mutations, which is exactly binomial in the
    number of positions seen.
    """

    def __init__(self, config: NoiseConfig, alphabet: Sequence[str]) -> None:
        import random

        self.config = config
        self._alphabet = list(alphabet)
        self._rng = random.Random(config.seed)
        self._fresh_counter = 0
        self.mutations = 0
        self.positions = 0

    def _random_activity(self) -> str:
        idx = self._rng.randrange(len(self._alphabet) + 1)
        if idx == len(self._alphabet):
            self._fresh_counter += 1
            return f"noise_{self._fresh_counter}"
        return self._alphabet[idx]

    def apply(self, trace: Sequence[str]) -> list[str]:
        """Return a mutated copy of ``trace``; the input is untouched."""
        rng = self._rng
        level = self.config.level
        ops = self.config.ops
        fired: dict[int, str] = {}
        for idx in range(len(trace)):
            self.positions += 1
            if rng.random() < level:
                fired[idx] = ops[rng.randrange(len(ops))]
                self.mutations += 1

        out: list[str] = []
        i = 0
        while i < len(trace):
            op = fired.get(i)
            if op == DELETE:
                i += 1
            elif op == INSERT:
                out.append(self._random_activity())
                out.append(trace[i])
                i += 1
            elif op == SWAP and i + 1 < len(trace):
                # The displaced neighbor is emitted as-is; its own draw is consumed.
                out.append(trace[i + 1])
                out.append(trace[i])
                i += 2
            else:
                out.append(trace[i])
                i += 1
        return out


def inject_noise(trace: Sequence[str], config: NoiseConfig, alphabet: Sequence[str]) -> list[str]:
    """One-shot noise injection with a fresh RNG seeded from the config."""
    return Noiser(config, alphabet).apply(trace)


# -- replay ----------------------------------------------------------------

ROUND_ROBIN = "round-robin"
BY_TIMESTAMP = "by-timestamp"


def latency_summary(micros: Sequence[float]) -> tuple[float, float, float, float]:
    """Mean, p50, p95 and max of per-event micros; all zero when empty.

    Percentiles take the nearest rank on the sorted list: the p-th is the
    value at 1-based rank ceil(p * n / 100).
    """
    n = len(micros)
    if not n:
        return 0.0, 0.0, 0.0, 0.0
    ordered = sorted(micros)
    p50 = ordered[-(-50 * n // 100) - 1]
    p95 = ordered[-(-95 * n // 100) - 1]
    return sum(ordered) / n, p50, p95, ordered[-1]


@dataclass
class RunMetrics:
    """Replay/serve measurements; computation excludes all waiting."""

    events_processed: int = 0
    computation_micros: float = 0.0
    idle_micros: float = 0.0
    wall_micros: float = 0.0
    mean_event_micros: float = 0.0
    p50_event_micros: float = 0.0
    max_event_micros: float = 0.0
    max_buffer_states: int = 0
    max_resident_cases: int = 0
    frames_malformed: int = 0

    def to_dict(self) -> dict:
        return {
            "events_processed": self.events_processed,
            "computation_micros": round(self.computation_micros, 1),
            "idle_micros": round(self.idle_micros, 1),
            "wall_micros": round(self.wall_micros, 1),
            "mean_event_micros": round(self.mean_event_micros, 3),
            "p50_event_micros": round(self.p50_event_micros, 3),
            "max_event_micros": round(self.max_event_micros, 3),
            "max_buffer_states": self.max_buffer_states,
            "max_resident_cases": self.max_resident_cases,
            "frames_malformed": self.frames_malformed,
        }


def interleave_round_robin(traces: Iterable[Trace]) -> list[StreamFrame]:
    """Global order taking one pending event per case per round."""
    queues = [list(tr.events) for tr in traces]
    frames: list[StreamFrame] = []
    position = 0
    while True:
        emitted = False
        for events in queues:
            if position < len(events):
                ev = events[position]
                frames.append(StreamFrame(ev.case_id, ev.activity, ev.timestamp))
                emitted = True
        if not emitted:
            return frames
        position += 1


def interleave_by_timestamp(traces: Iterable[Trace]) -> list[StreamFrame]:
    """Global order sorted by timestamp; ties keep original file order."""
    events = [ev for tr in traces for ev in tr.events]
    events.sort(
        key=lambda ev: (
            ev.timestamp is None,
            ev.timestamp or "",
            ev.stream_seq if ev.stream_seq is not None else 0,
        )
    )
    return [StreamFrame(ev.case_id, ev.activity, ev.timestamp) for ev in events]


class EngineSink:
    """Feeds frames straight into an in-process engine, collecting latency."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.latencies: list[float] = []
        self.results_costs: list[int] = []

    def send(self, frame: StreamFrame) -> float:
        result = self.engine.process(frame.case_id, frame.activity, frame.timestamp)
        self.results_costs.append(result.best_cost)
        self.latencies.append(result.processing_micros)
        return result.processing_micros


class TcpSink:
    """Writes frames to a remote newline-delimited JSON endpoint."""

    def __init__(self, host: str, port: int, retries: int = 3, retry_delay: float = 0.2) -> None:
        last_error: OSError | None = None
        self._sock: socket.socket | None = None
        for attempt in range(retries):
            try:
                self._sock = socket.create_connection((host, port), timeout=10.0)
                break
            except OSError as exc:
                last_error = exc
                time.sleep(retry_delay)
        if self._sock is None:
            raise ConnectionError(
                f"could not connect to {host}:{port} after {retries} attempts: {last_error}"
            )
        self._file = self._sock.makefile("rw", encoding="utf-8", newline="\n")

    def send(self, frame: StreamFrame) -> None:
        self._file.write(frame.to_json_line() + "\n")
        self._file.flush()

    def request_metrics(self) -> dict:
        self._file.write('{"cmd":"metrics"}\n')
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection before answering")
        return json.loads(line)

    def shutdown_server(self) -> dict:
        self._file.write('{"cmd":"shutdown"}\n')
        self._file.flush()
        line = self._file.readline()
        answer = json.loads(line) if line else {}
        self.close()
        return answer

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._file.flush()
                self._sock.close()
            except OSError:
                pass
            self._sock = None


def replay(
    traces: Sequence[Trace],
    sink,
    interleave: str = ROUND_ROBIN,
    rate: float | None = None,
) -> RunMetrics:
    """Deliver every event exactly once in the chosen global order.

    Interleaves the traces, then runs :func:`drive` over the frames.
    """
    if interleave == ROUND_ROBIN:
        frames = interleave_round_robin(traces)
    elif interleave == BY_TIMESTAMP:
        frames = interleave_by_timestamp(traces)
    else:
        raise ValueError(f"unknown interleave mode {interleave!r}")
    return drive(frames, sink, rate)


def drive(frames: Iterable[StreamFrame], sink, rate: float | None = None) -> RunMetrics:
    """Send every frame to ``sink`` in order and measure the run.

    ``rate`` throttles to events per second (sleep time counts as idle);
    None streams flat out. When the sink is an :class:`EngineSink` the
    per-event computation time and buffer peaks are filled in from the
    engine; a TCP sink only yields client-side counters.
    """
    count = 0
    computation = 0.0
    idle = 0.0
    period = 1.0 / rate if rate else 0.0
    start = time.perf_counter()
    next_due = start
    for frame in frames:
        if period:
            now = time.perf_counter()
            if now < next_due:
                time.sleep(next_due - now)
                idle += (time.perf_counter() - now) * 1e6
            next_due += period
        micros = sink.send(frame)
        if micros is not None:
            computation += micros
        count += 1
    wall = (time.perf_counter() - start) * 1e6

    metrics = RunMetrics(
        events_processed=count, computation_micros=computation, idle_micros=idle, wall_micros=wall
    )
    if isinstance(sink, EngineSink):
        mean, p50, _, peak = latency_summary(sink.latencies)
        metrics.mean_event_micros = mean
        metrics.p50_event_micros = p50
        metrics.max_event_micros = peak
        metrics.max_buffer_states = sink.engine.peak_total_states
        metrics.max_resident_cases = len(sink.engine.case_ids())
        metrics.idle_micros = max(idle, wall - computation)
    return metrics


# -- server ----------------------------------------------------------------


class StreamServer:
    """TCP ingestion front end for one engine.

    Connection readers decode lines and put frames and control commands
    on one bounded FIFO queue (a full queue blocks the reader:
    backpressure, no drops). A single consumer thread takes the items in
    order and is the only code that touches the engine or the event
    counters while the server runs. It answers a command once every item
    queued before it has been processed, and the reader writes the answer
    back. Start with :meth:`start`, stop with :meth:`stop` or a
    ``shutdown`` control frame; call :meth:`metrics` directly only once
    stopped, and send a ``metrics`` frame while running.
    """

    def __init__(
        self,
        engine: Engine,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_size: int = 4096,
    ) -> None:
        self.engine = engine
        self._host = host
        self._port = port
        # Frames, a command's reply slot, and the None that ends the consumer.
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        # Open connections and their reader threads; readers remove themselves.
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._server_sock: socket.socket | None = None
        # Guards _connections and frames_malformed, which readers update too.
        self._lock = threading.Lock()
        self.frames_processed = 0
        self.frames_malformed = 0
        self._computation_micros = 0.0
        self._latencies: list[float] = []
        self._started_at = 0.0

    # -- lifecycle

    def start(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self._host, self._port))
            sock.listen(16)
        except OSError:
            sock.close()
            raise
        sock.settimeout(0.2)
        self._server_sock = sock
        self._port = sock.getsockname()[1]
        self._started_at = time.perf_counter()
        acceptor = threading.Thread(target=self._accept_loop, name="trie-align-accept", daemon=True)
        consumer = threading.Thread(target=self._consume_loop, name="trie-align-consume", daemon=True)
        self._threads = [acceptor, consumer]
        acceptor.start()
        consumer.start()
        logger.info("listening on %s:%d", self._host, self._port)

    @property
    def address(self) -> tuple[str, int]:
        return self._host, self._port

    def wait(self, timeout: float | None = None) -> bool:
        """Block until shutdown is requested; True if it was."""
        return self._stop.wait(timeout)

    def stop(self) -> dict:
        """Stop accepting, close connections, drain the queue; return the final report.

        Every item queued before the readers are gone is processed, and the
        report is computed once no server thread is left. Idempotent.
        """
        self._stop.set()
        if self._threads:
            acceptor, consumer = self._threads
            self._threads = []
            acceptor.join()
            # The acceptor has exited, so no connection opens after this copy.
            with self._lock:
                connections = list(self._connections.items())
            for conn, reader in connections:
                try:
                    conn.shutdown(socket.SHUT_RDWR)  # wakes a reader blocked in recv
                except OSError:
                    pass  # its reader closed it first
                reader.join()
            self._queue.put(None)
            consumer.join()
        if self._server_sock is not None:
            self._server_sock.close()
            self._server_sock = None
        report = self.metrics()
        logger.info("shut down: %s", report)
        return report

    def metrics(self) -> dict:
        """Current ingestion metrics plus engine buffer occupancy."""
        wall = (time.perf_counter() - self._started_at) * 1e6 if self._started_at else 0.0
        mean, p50, _, peak = latency_summary(self._latencies)
        metrics = RunMetrics(
            events_processed=self.frames_processed,
            computation_micros=self._computation_micros,
            idle_micros=max(0.0, wall - self._computation_micros),
            wall_micros=wall,
            mean_event_micros=mean,
            p50_event_micros=p50,
            max_event_micros=peak,
            max_buffer_states=self.engine.peak_total_states,
            max_resident_cases=self.engine.buffer_stats().cases,
            frames_malformed=self.frames_malformed,
        )
        return metrics.to_dict()

    # -- internals

    def _accept_loop(self) -> None:
        assert self._server_sock is not None
        while not self._stop.is_set():
            try:
                conn, peer = self._server_sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            reader = threading.Thread(
                target=self._connection_loop, args=(conn, peer), daemon=True
            )
            with self._lock:
                self._connections[conn] = reader
            reader.start()

    def _connection_loop(self, conn: socket.socket, peer) -> None:
        logger.debug("connection from %s", peer)
        try:
            # A non-UTF-8 byte becomes U+FFFD, so its line fails to parse.
            with conn, conn.makefile("rw", encoding="utf-8", errors="replace", newline="\n") as file:
                self._read_frames(file)
        except OSError as exc:  # the peer reset, or stop() shut the socket
            logger.debug("connection from %s ended: %s", peer, exc)
        finally:
            with self._lock:
                del self._connections[conn]

    def _read_frames(self, file) -> None:
        for line in file:
            if self._stop.is_set():
                break
            line = line.strip()
            if not line:
                continue
            try:
                frame = parse_frame(line)
            except FrameError as exc:
                with self._lock:
                    self.frames_malformed += 1
                logger.warning("skipping malformed frame: %s", exc)
                continue
            if isinstance(frame, StreamFrame):
                self._queue.put(frame)  # blocks when full: backpressure
            elif frame in ("metrics", "shutdown"):
                # The consumer answers once it reaches this item in the queue.
                reply = queue.SimpleQueue()
                self._queue.put(reply)
                file.write(json.dumps(reply.get()) + "\n")
                file.flush()
                if frame == "shutdown":
                    self._stop.set()  # only now, so stop() cannot cut off the answer
                    break
            else:
                with self._lock:
                    self.frames_malformed += 1
                logger.warning("unknown command %r", frame)

    def _consume_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            if isinstance(item, StreamFrame):
                try:
                    result = self.engine.process(item.case_id, item.activity, item.timestamp)
                except Exception:  # defensive: a bad frame must never kill the engine
                    logger.exception("engine rejected frame %r", item)
                    with self._lock:
                        self.frames_malformed += 1
                    continue
                self.frames_processed += 1
                self._computation_micros += result.processing_micros
                self._latencies.append(result.processing_micros)
            else:
                item.put(self.metrics())


def serve(
    engine: Engine,
    host: str = "127.0.0.1",
    port: int = 9099,
    queue_size: int = 4096,
) -> dict:
    """Run a stream server until a shutdown frame or interrupt; returns the final report."""
    server = StreamServer(engine, host=host, port=port, queue_size=queue_size)
    server.start()
    try:
        server.wait()
    except KeyboardInterrupt:
        logger.info("interrupted")
    return server.stop()
