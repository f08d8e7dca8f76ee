"""Stream simulation, replay, and the TCP ingestion server.

Wire protocol: newline-delimited UTF-8 JSON, one frame per line, e.g.
``{"case": "17", "activity": "a", "ts": "2022-08-01 15:00"}`` (``ts``
optional). A frame is an :class:`~trie_align.events.Event`, written by
:meth:`~trie_align.events.Event.to_json_line` and read back by
:func:`parse_frame`. Two control lines are understood by the server:
``{"cmd": "metrics"}`` answers with a metrics report on the same
connection, ``{"cmd": "shutdown"}`` answers with the final report and
stops the server. One selector loop thread owns the connections and the
engine; it processes lines in the order it reads them and answers a
command inline, so the answer counts every frame read before it. Each
line is decoded once, by :func:`parse_frame`. Malformed lines (non-UTF-8
bytes included) are counted, logged, and skipped; they never take the
engine down. A connection that sends more than ``_MAX_LINE`` bytes
without a newline counts one malformed frame and is closed.

Replay sends events themselves, uncopied, to an in-process engine or a
remote TCP endpoint, throttled or flat out: in the order given, as an
iterator yields them, or in timestamp order with ties in the order given
and events without a timestamp last. Every report of an engine run,
replay and server alike, is the one dict of one meter,
:class:`EngineSink`, whose memory does not grow with the stream; the
server adds its malformed-frame count. A latency is the time of one
:meth:`Engine.process` call, taken by the sink around it; waiting for the
throttle or the socket is reported as idle time.

The simulator, :func:`simulate_stream`, samples the trie's root-to-end
paths, corrupts each with a :class:`Noiser` and interleaves them as
cases. It checks its arguments when called, before any event is drawn.
"""

from __future__ import annotations

import json
import logging
import random
import selectors
import socket
import threading
import time
from collections import deque
from functools import partial
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .engine import Engine, ProcessResult
from .events import Event
from .trie import Trie

logger = logging.getLogger("trie_align.stream")

INSERT = "insert"
DELETE = "delete"
SWAP = "swap"

# The mutations a fired position draws from, uniformly.
_ALL_OPS = (INSERT, DELETE, SWAP)


class FrameError(ValueError):
    """Raised for a wire line that is not a valid stream frame."""


def parse_frame(line: str) -> Event | str:
    """Parse one wire line into an event, or a control line into its command.

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
    return Event(case_id, activity, ts)


# -- simulation -------------------------------------------------------------


class Noiser:
    """Stateful noise injector; one RNG stream across a whole corpus.

    Each trace position independently mutates with probability ``level``;
    the operation is drawn uniformly from ``_ALL_OPS``. Inserts draw
    uniformly from the given alphabet plus one fresh symbol unknown to the
    model. Runs with the same seed are bit-reproducible. ``mutations``
    counts fired mutations, which is exactly binomial in the number of
    positions seen.
    """

    def __init__(self, alphabet: Sequence[str], level: float, seed: int = 0) -> None:
        if not 0.0 <= level <= 1.0:
            raise ValueError(f"noise level must be a probability in [0, 1], not {level!r}")
        self.level = level
        self._alphabet = list(alphabet)
        self._rng = random.Random(seed)
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
        level = self.level
        ops = _ALL_OPS
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


# Cases the simulator keeps open at once.
_CASES_IN_FLIGHT = 32


def simulate_stream(
    trie: Trie,
    noise_level: float,
    seed: int,
    max_events: int | None,
    duration: float | None,
) -> Iterator[Event]:
    """An endless interleaved stream of noisy model traces.

    Traces are root-to-end paths of the trie sampled with replacement;
    each sampled trace, noised by a :class:`Noiser` seeded ``seed + 1``,
    becomes a fresh case, and ``_CASES_IN_FLIGHT`` cases take turns, one
    event each. Yields events until the event budget or the duration,
    counted from the first event, runs out. Fully deterministic for a
    fixed seed when bounded by ``max_events``. Raises ValueError at
    call time, before any event, for a noise level outside [0, 1], or a
    ``max_events`` or ``duration`` that is not positive.
    """
    noiser = Noiser(trie.model_activity_labels(), noise_level, seed + 1)
    if max_events is not None and max_events < 1:
        raise ValueError(f"max events must be at least 1, not {max_events!r}")
    if duration is not None and not duration > 0:
        raise ValueError(f"duration must be a positive number of seconds, not {duration!r}")
    rng = random.Random(seed)
    end_ids = trie.end_node_ids()
    label_of = trie.alphabet.label

    def events() -> Iterator[Event]:
        active: list[tuple[str, list[str], int]] = []  # case id, activities, position
        case_counter = 0
        emitted = 0
        deadline = time.monotonic() + duration if duration is not None else None

        while True:
            if max_events is not None and emitted >= max_events:
                return
            if deadline is not None and time.monotonic() >= deadline:
                return
            while len(active) < _CASES_IN_FLIGHT:
                end = end_ids[rng.randrange(len(end_ids))]
                activities = noiser.apply([label_of(c) for c in trie.node_path_codes(end)])
                case_counter += 1
                if activities:
                    active.append((f"sim-{case_counter}", activities, 0))
            case_id, activities, pos = active.pop(0)
            yield Event(case_id, activities[pos])
            emitted += 1
            if pos + 1 < len(activities):
                active.append((case_id, activities, pos + 1))

    return events()


# -- replay ----------------------------------------------------------------

BY_TIMESTAMP = "by-timestamp"


# Latest per-event latencies the meter keeps for its p50.
_P50_WINDOW = 65_536


class EngineSink:
    """Feeds events straight into an in-process engine; :meth:`report` is the one meter.

    :meth:`send` times each engine call and :meth:`record` keeps it. Count,
    computation (the sum) and max cover every latency; the p50 covers the
    latest ``_P50_WINDOW`` only, so memory stays fixed on an endless stream.
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.processed = 0
        self.computation = 0.0
        self.peak = 0.0
        self.window: deque[float] = deque(maxlen=_P50_WINDOW)

    def send(self, event: Event) -> ProcessResult:
        started = time.perf_counter_ns()
        result = self.engine.process(event.case_id, event.activity)
        self.record((time.perf_counter_ns() - started) / 1000.0)
        return result

    def record(self, micros: float) -> None:
        self.processed += 1
        self.computation += micros
        if micros > self.peak:
            self.peak = micros
        self.window.append(micros)

    def report(self, wall: float, idle: float = 0.0) -> dict:
        """The run so far, over ``wall`` micros; time not spent processing counts as idle.

        Totals are rounded to 0.1 us and per-event figures to 0.001 us. The
        p50 takes the nearest rank over the window, the lower middle value
        of an even count.
        """
        n = self.processed
        window = self.window
        return {
            "events_processed": n,
            "computation_micros": round(self.computation, 1),
            "idle_micros": round(max(idle, wall - self.computation), 1),
            "wall_micros": round(wall, 1),
            "mean_event_micros": round(self.computation / n, 3) if n else 0.0,
            "p50_event_micros": round(sorted(window)[(len(window) - 1) // 2], 3) if window else 0.0,
            "max_event_micros": round(self.peak, 3),
            "max_buffer_states": self.engine.peak_total_states,
            "max_resident_cases": len(self.engine.case_ids()),
        }


_CONNECT_ATTEMPTS = 3
_CONNECT_RETRY_DELAY = 0.2


class TcpSink:
    """Writes events to a remote newline-delimited JSON endpoint, one frame each."""

    def __init__(self, host: str, port: int) -> None:
        for attempt in range(1, _CONNECT_ATTEMPTS + 1):
            try:
                sock = socket.create_connection((host, port), timeout=10.0)
                break
            except OSError as exc:
                if attempt == _CONNECT_ATTEMPTS:
                    raise ConnectionError(
                        f"could not connect to {host}:{port} after {attempt} attempts: {exc}"
                    ) from exc
                time.sleep(_CONNECT_RETRY_DELAY)
        self._sock: socket.socket | None = sock
        self._file = sock.makefile("rw", encoding="utf-8", newline="\n")

    def send(self, event: Event) -> None:
        self._file.write(event.to_json_line() + "\n")
        self._file.flush()

    def request_metrics(self) -> dict:
        self._file.write('{"cmd":"metrics"}\n')
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection before answering")
        return json.loads(line)

    def close(self) -> None:
        """Flush and close the connection.

        The file is closed too, even when its flush fails on a dropped
        connection: the socket's descriptor is released only once the
        file made by ``makefile`` is closed.
        """
        if self._sock is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._sock.close()
            self._sock = None


def replay(
    events: Iterable[Event],
    sink,
    interleave: str | None = None,
    rate: float | None = None,
) -> dict:
    """Send every event to ``sink`` exactly once and report the run.

    By default the events go in the order given, drawn one at a time, so
    an iterator such as :func:`simulate_stream` streams. ``"by-timestamp"``
    sorts them stably by timestamp: ties keep the order given, and events
    without a timestamp go last. Any other ``interleave`` raises
    ``ValueError``.

    ``rate`` throttles to events per second (sleep time counts as idle);
    None streams flat out, and a rate that is not positive raises
    ``ValueError``. Over an :class:`EngineSink` the report is
    :meth:`EngineSink.report`; over any other sink, a TCP sink say, it is
    only the client-side ``events_processed``, ``idle_micros`` and
    ``wall_micros``.
    """
    if interleave == BY_TIMESTAMP:
        # The timestamped events sorted, then the rest: no key tuple per event.
        events = list(events)
        ordered = [ev for ev in events if ev.timestamp is not None]
        ordered.sort(key=attrgetter("timestamp"))
        if len(ordered) < len(events):
            ordered += [ev for ev in events if ev.timestamp is None]
        events = ordered
    elif interleave is not None:
        raise ValueError(f"unknown interleave mode {interleave!r}")
    if rate is not None and not rate > 0:
        raise ValueError(f"rate must be a positive number of events per second, not {rate!r}")
    count = 0
    idle = 0.0
    period = 1.0 / rate if rate else 0.0
    start = time.perf_counter()
    next_due = start
    for event in events:
        if period:
            now = time.perf_counter()
            if now < next_due:
                time.sleep(next_due - now)
                idle += (time.perf_counter() - now) * 1e6
            next_due += period
        sink.send(event)
        count += 1
    wall = (time.perf_counter() - start) * 1e6
    if isinstance(sink, EngineSink):
        return sink.report(wall, idle)
    return {"events_processed": count, "idle_micros": round(idle, 1), "wall_micros": round(wall, 1)}


# -- server ----------------------------------------------------------------

# Bytes taken from a ready connection per read.
_READ_CHUNK = 65536
# How long stop() keeps reading what clients had already sent.
_DRAIN_SECONDS = 5.0
# How long an answer may take to write before its connection is dropped.
_ANSWER_TIMEOUT = 5.0
# Bytes a connection may hold without a newline before it is dropped.
_MAX_LINE = 1 << 20


class StreamServer:
    """TCP ingestion front end for one engine.

    One thread runs a selector loop that owns the listening socket, every
    connection and the engine, which it feeds through one
    :class:`EngineSink`, the one meter: the metrics and shutdown answers
    are that sink's report. Each ready connection yields one bounded read;
    its complete lines are decoded and processed at once, in the order
    read, and a command is answered inline, so its answer counts every
    frame read before it. A partial line waits in the connection's buffer;
    once that holds more than ``_MAX_LINE`` bytes without a newline, the
    connection counts one malformed frame and is closed.
    While the engine is busy nothing is read, so TCP flow control holds
    the clients back. Start with :meth:`start`, stop with :meth:`stop` or
    a ``shutdown`` control frame; call :meth:`metrics` directly only once
    stopped, and send a ``metrics`` frame while running.
    """

    def __init__(self, engine: Engine, host: str = "127.0.0.1", port: int = 0) -> None:
        self.engine = engine
        self._host = host
        self._port = port
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        # stop() writes a byte to the second socket to wake the loop.
        self._wake: tuple[socket.socket, socket.socket] | None = None
        self._sink = EngineSink(engine)
        self.frames_malformed = 0
        self._started_at = 0.0

    # -- lifecycle

    def start(self) -> None:
        sock = socket.create_server((self._host, self._port), backlog=16)
        sock.setblocking(False)
        self._port = sock.getsockname()[1]
        self._wake = socket.socketpair()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._serve, args=(sock, self._wake[0]), name="trie-align-serve", daemon=True
        )
        self._thread.start()
        logger.info("listening on %s:%d", self._host, self._port)

    @property
    def address(self) -> tuple[str, int]:
        return self._host, self._port

    def wait(self, timeout: float | None = None) -> bool:
        """Block until shutdown is requested; True if it was."""
        return self._stop.wait(timeout)

    def stop(self) -> dict:
        """Process what clients already sent, close every socket; return the final report.

        The loop accepts the connections still in the listen backlog and
        reads every byte already received, until nothing is ready or
        ``_DRAIN_SECONDS`` pass; the report is computed once the loop's
        thread has exited. Idempotent.
        """
        self._stop.set()
        if self._thread is not None:
            waker, self._wake = self._wake, None
            waker[1].send(b"\0")
            self._thread.join()
            self._thread = None
            for sock in waker:
                sock.close()
        report = self.metrics()
        logger.info("shut down: %s", report)
        return report

    def metrics(self) -> dict:
        """The engine sink's report since :meth:`start`, plus the malformed-frame count."""
        wall = (time.perf_counter() - self._started_at) * 1e6 if self._started_at else 0.0
        return {**self._sink.report(wall), "frames_malformed": self.frames_malformed}

    # -- internals

    def _serve(self, listener: socket.socket, wake: socket.socket) -> None:
        # Each key's data is the handler to call when its socket is ready.
        with selectors.DefaultSelector() as selector:
            selector.register(listener, selectors.EVENT_READ, partial(self._accept, selector, listener))
            selector.register(wake, selectors.EVENT_READ, partial(wake.recv, 64))  # stop()'s byte
            try:
                while not self._stop.is_set():
                    for key, _ in selector.select():
                        key.data()
                # Drain: the listen backlog and every byte already received.
                deadline = time.monotonic() + _DRAIN_SECONDS
                while time.monotonic() < deadline:
                    ready = selector.select(0)
                    if not ready:
                        break
                    for key, _ in ready:
                        key.data()
            finally:
                for key in list(selector.get_map().values()):
                    if key.fileobj is not wake:  # stop() closes the wake pair
                        key.fileobj.close()

    def _accept(self, selector: selectors.BaseSelector, listener: socket.socket) -> None:
        try:
            conn, peer = listener.accept()
        except OSError:  # the client gave up before it was accepted
            return
        logger.debug("connection from %s", peer)
        conn.settimeout(_ANSWER_TIMEOUT)  # recv only runs once the socket is ready
        selector.register(conn, selectors.EVENT_READ, partial(self._read, selector, conn, bytearray()))

    def _read(self, selector: selectors.BaseSelector, conn: socket.socket, pending: bytearray) -> None:
        try:
            chunk = conn.recv(_READ_CHUNK)
        except OSError as exc:  # the peer reset the connection
            logger.debug("connection ended: %s", exc)
            chunk = b""
        pending += chunk
        # At EOF the last line may lack its newline.
        end = pending.rfind(b"\n") + 1 if chunk else len(pending)
        # A line never ends inside a character, so decoding whole lines is exact;
        # a non-UTF-8 byte becomes U+FFFD, and its line fails to parse.
        text = pending[:end].decode("utf-8", errors="replace")
        del pending[:end]
        alive = bool(chunk)
        for line in text.split("\n"):
            line = line.strip()
            if line and not self._handle_line(conn, line):
                alive = False
                break
        if alive and len(pending) > _MAX_LINE:
            self.frames_malformed += 1
            logger.warning("dropping a connection whose line exceeds %d bytes", _MAX_LINE)
            alive = False
        if not alive:
            selector.unregister(conn)
            conn.close()

    def _handle_line(self, conn: socket.socket, line: str) -> bool:
        """Process one line; False once its connection must be closed."""
        try:
            frame = parse_frame(line)
        except FrameError as exc:
            self.frames_malformed += 1
            logger.warning("skipping malformed frame: %s", exc)
            return True
        if isinstance(frame, Event):
            try:
                self._sink.send(frame)
            except Exception:  # defensive: a bad frame must never kill the engine
                logger.exception("engine rejected frame %r", frame)
                self.frames_malformed += 1
        elif frame in ("metrics", "shutdown"):
            try:
                conn.sendall((json.dumps(self.metrics()) + "\n").encode("utf-8"))
            except OSError as exc:  # timed out, or the peer is gone
                logger.warning("dropping a connection that took no answer: %s", exc)
                return False
            if frame == "shutdown":
                self._stop.set()
        else:
            self.frames_malformed += 1
            logger.warning("unknown command %r", frame)
        return True


def serve(engine: Engine, host: str = "127.0.0.1", port: int = 9099) -> dict:
    """Run a stream server until a shutdown frame or interrupt; returns the final report."""
    server = StreamServer(engine, host=host, port=port)
    server.start()
    try:
        server.wait()
    except KeyboardInterrupt:
        logger.info("interrupted")
    return server.stop()
