"""Event and proxy-log data model with text parsers.

:class:`Event` is the one event record: CSV rows, wire lines and the
simulator all yield it, replay sends it as it is, and
:meth:`Event.to_json_line` writes it as a wire line.

Two file formats are understood:

* Event logs: CSV with header ``case,activity,timestamp`` (the timestamp
  column is optional). A parsed log is its events in file order, one
  :class:`Event` per row, cases interleaved as the rows are. Equal case
  ids and equal labels in one log parse to one shared string. The engine
  never reads timestamps; only a by-timestamp replay orders events by
  them, ties in file order and rows without one last.
* Proxy logs: plain text, one comma-separated activity sequence per line.
  A proxy log is a finite sample of the behavior a process model allows
  and is the input for trie construction.

Activity labels are interned into dense integer codes via
:class:`ActivityTable` so that the per-event hot path works on ints; a
label the table lacks codes as :data:`UNKNOWN`.
The CSV dialect is deliberately minimal: comma-separated, no quoting or
escaping, so labels must not contain commas or newlines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

#: Code of every activity a table lacks; unlike the root's label, no node has it.
UNKNOWN = -2


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


class _EventFields(NamedTuple):
    case_id: str
    activity: str
    timestamp: str | None = None


class Event(_EventFields):
    """A single activity occurrence scoped to a case.

    Attributes:
        case_id: non-empty opaque case identifier (the stream key).
        activity: non-empty activity label.
        timestamp: optional ISO-8601 instant, carried verbatim. The engine
            never reads it; only a by-timestamp replay orders events by
            it, ties in the order given.

    An event is an immutable named tuple of those three fields: it
    compares equal, and hashes equal, to a plain tuple of its fields.

    An event carries no position: a log or a stream is a list of events
    and its order is the list's. ``replay`` sends such a list in the
    order given or, by timestamp, stably sorted with untimestamped
    events last.
    """

    __slots__ = ()

    def __new__(cls, case_id: str, activity: str, timestamp: str | None = None) -> "Event":
        # Both parsers reject an empty field, so neither could read back
        # the line written for such an event.
        if not case_id:
            raise ValueError("event case id must be non-empty")
        if not activity:
            raise ValueError("event activity must be non-empty")
        return tuple.__new__(cls, (case_id, activity, timestamp))

    def to_json_line(self) -> str:
        """The event as one wire line: ``case``, ``activity`` and, when set, ``ts``."""
        doc: dict = {"case": self.case_id, "activity": self.activity}
        if self.timestamp is not None:
            doc["ts"] = self.timestamp
        return json.dumps(doc, separators=(",", ":"))


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


class ActivityTable:
    """Bidirectional mapping between activity labels and dense codes 0..n-1.

    Interning is idempotent: repeated calls for one label return the same
    code. The package interns only while it builds or loads a trie; the
    engine reads the trie's table, and every label it lacks codes as
    :data:`UNKNOWN`.
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

    def code(self, label: str) -> int:
        """Code for ``label``, or :data:`UNKNOWN` if it was never interned."""
        return self._code_of.get(label, UNKNOWN)

    def label(self, code: int) -> str:
        return self._labels[code]

    def labels(self) -> list[str]:
        """All labels in code order."""
        return list(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: str) -> bool:
        return label in self._code_of

    def __repr__(self) -> str:
        return f"ActivityTable({self._labels!r})"


_HEADER_2 = ("case", "activity")
_HEADER_3 = ("case", "activity", "timestamp")


def parse_event_log(text: str) -> list[Event]:
    """Parse CSV event-log content into its events, in file order.

    The header must be ``case,activity,timestamp`` (or ``case,activity``).
    Blank lines are skipped; fields are stripped of surrounding blanks,
    and an empty timestamp is None. Within one call, equal case ids and
    equal activity labels are the same ``str`` object, so a long log holds
    one string per distinct value; timestamps are not shared.

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

    events: list[Event] = []
    append = events.append
    # Each distinct stripped case id and label, keyed by itself.
    share = {}.setdefault
    # The loop has checked every field, so each row skips Event's checks:
    # building the tuple directly takes about half the time of Event(...).
    new_event = tuple.__new__
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != n_cols:
            # A blank line splits into one field, never a full row.
            if not line.strip():
                continue
            raise ParseError(
                f"expected {n_cols} fields, got {len(parts)}", line_no=line_no
            )
        case_id = parts[0].strip()
        activity = parts[1].strip()
        if not case_id:
            raise ParseError("empty case id", line_no=line_no)
        if not activity:
            raise ParseError("empty activity", line_no=line_no)
        timestamp = parts[2].strip() if n_cols == 3 else None
        row = (share(case_id, case_id), share(activity, activity), timestamp or None)
        append(new_event(Event, row))
    return events


def serialize_event_log(events: list[Event]) -> str:
    """Render events back to CSV, one row each, in list order.

    The timestamp column is included iff any event has a timestamp.
    """
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
