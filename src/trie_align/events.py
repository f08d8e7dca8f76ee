"""Event, trace, and proxy-log data model with text parsers.

Two file formats are understood:

* Event logs: CSV with header ``case,activity,timestamp`` (the timestamp
  column is optional). Rows are kept in file order. The engine never
  reads timestamps; only a by-timestamp replay orders events by them,
  ties in file order.
* Proxy logs: plain text, one comma-separated activity sequence per line.
  A proxy log is a finite sample of the behavior a process model allows
  and is the input for trie construction.

Activity labels are interned into dense integer codes via
:class:`ActivityTable` so that the per-event hot path works on ints.
The CSV dialect is deliberately minimal: comma-separated, no quoting or
escaping, so labels must not contain commas or newlines.
"""

from __future__ import annotations

from dataclasses import dataclass


class ParseError(ValueError):
    """Raised for malformed event-log or proxy-log input.

    Attributes:
        line_no: 1-based line number of the offending input line, if known.
    """

    def __init__(self, message: str, line_no: int | None = None) -> None:
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class Event:
    """A single activity occurrence scoped to a case.

    Attributes:
        case_id: opaque case identifier (the stream key).
        activity: non-empty activity label.
        timestamp: optional ISO-8601 instant, carried verbatim. The engine
            never reads it; only a by-timestamp replay orders events by
            it, ties in file order.
        arrival_seq: 0-based arrival index within the event's case.
        stream_seq: optional global arrival index across the whole parsed
            input, used to keep timestamp sorts stable with respect to
            file order.
    """

    case_id: str
    activity: str
    timestamp: str | None = None
    arrival_seq: int = 0
    stream_seq: int | None = None

    def __post_init__(self) -> None:
        if not self.activity:
            raise ValueError("event activity must be non-empty")


@dataclass(frozen=True)
class Trace:
    """An ordered sequence of events sharing one case id."""

    case_id: str
    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        for ev in self.events:
            if ev.case_id != self.case_id:
                raise ValueError(
                    f"event case {ev.case_id!r} does not match trace case {self.case_id!r}"
                )

    @property
    def activities(self) -> tuple[str, ...]:
        return tuple(ev.activity for ev in self.events)

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class ProxyLog:
    """A finite set of activity sequences sampled from a process model.

    Duplicate sequences are preserved; trie construction deduplicates
    shared prefixes implicitly.
    """

    traces: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        for i, seq in enumerate(self.traces):
            if not seq:
                raise ValueError(f"proxy trace {i} is empty")

    def __len__(self) -> int:
        return len(self.traces)


class ActivityTable:
    """Bidirectional mapping between activity labels and dense codes 0..n-1.

    Interning is idempotent: repeated calls for one label return the same
    code. Mutation is expected to happen on a single ingestion thread per
    engine instance; lookups are plain dict reads.
    """

    __slots__ = ("_code_of", "_labels")

    def __init__(self, labels: list[str] | None = None) -> None:
        self._labels: list[str] = []
        self._code_of: dict[str, int] = {}
        for label in labels or []:
            self.intern(label)

    def intern(self, label: str) -> int:
        """Return the stable code for ``label``, assigning the next free one."""
        code = self._code_of.get(label)
        if code is None:
            if not label:
                raise ValueError("cannot intern an empty activity label")
            code = len(self._labels)
            self._code_of[label] = code
            self._labels.append(label)
        return code

    def code(self, label: str) -> int | None:
        """Code for ``label`` or None if it was never interned."""
        return self._code_of.get(label)

    def label(self, code: int) -> str:
        return self._labels[code]

    def labels(self) -> list[str]:
        """All labels in code order."""
        return list(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: str) -> bool:
        return label in self._code_of

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActivityTable):
            return NotImplemented
        return self._labels == other._labels

    def __repr__(self) -> str:
        return f"ActivityTable({self._labels!r})"


_HEADER_2 = ("case", "activity")
_HEADER_3 = ("case", "activity", "timestamp")


def parse_event_log(text: str) -> list[Trace]:
    """Parse CSV event-log content into traces grouped by case.

    The header must be ``case,activity,timestamp`` (or ``case,activity``).
    Events are grouped by case id in order of first appearance; within a
    case they keep file order and get ``arrival_seq`` 0, 1, 2, ...

    Raises:
        ParseError: on a bad header, wrong column count, or empty
            case/activity field, with the offending line number.
    """
    lines = text.splitlines()
    if not lines or all(not ln.strip() for ln in lines):
        return []
    header = tuple(part.strip() for part in lines[0].split(","))
    if header not in (_HEADER_2, _HEADER_3):
        raise ParseError(
            f"expected header 'case,activity[,timestamp]', got {lines[0]!r}", line_no=1
        )
    n_cols = len(header)

    by_case: dict[str, list[Event]] = {}
    stream_seq = 0
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ParseError(
                f"expected {n_cols} fields, got {len(parts)}", line_no=line_no
            )
        case_id = parts[0].strip()
        activity = parts[1].strip()
        timestamp = parts[2].strip() if n_cols == 3 else ""
        if not case_id:
            raise ParseError("empty case id", line_no=line_no)
        if not activity:
            raise ParseError("empty activity", line_no=line_no)
        events = by_case.setdefault(case_id, [])
        events.append(
            Event(
                case_id=case_id,
                activity=activity,
                timestamp=timestamp or None,
                arrival_seq=len(events),
                stream_seq=stream_seq,
            )
        )
        stream_seq += 1

    return [Trace(case_id, tuple(events)) for case_id, events in by_case.items()]


def serialize_event_log(traces: list[Trace]) -> str:
    """Render traces back to CSV, restoring global file order when known.

    Events carrying ``stream_seq`` are emitted in that order; otherwise
    traces are emitted case by case. The timestamp column is included iff
    any event has a timestamp.
    """
    events = [ev for tr in traces for ev in tr.events]
    if all(ev.stream_seq is not None for ev in events):
        events.sort(key=lambda ev: ev.stream_seq)  # type: ignore[arg-type, return-value]
    with_ts = any(ev.timestamp for ev in events)
    lines = ["case,activity,timestamp" if with_ts else "case,activity"]
    for ev in events:
        row = f"{ev.case_id},{ev.activity}"
        if with_ts:
            row += f",{ev.timestamp or ''}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def parse_proxy_log(text: str) -> ProxyLog:
    """Parse proxy-log content: one comma-separated trace per line.

    Blank lines are skipped; duplicate lines are preserved. A line with an
    empty token (e.g. ``a,,b``) is a parse error.
    """
    sequences: list[tuple[str, ...]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = tuple(tok.strip() for tok in line.split(","))
        if any(not tok for tok in tokens):
            raise ParseError("empty activity token", line_no=line_no)
        sequences.append(tokens)
    return ProxyLog(tuple(sequences))


def serialize_proxy_log(proxy: ProxyLog) -> str:
    """Render a proxy log back to one comma-separated trace per line."""
    return "\n".join(",".join(seq) for seq in proxy.traces) + "\n"
