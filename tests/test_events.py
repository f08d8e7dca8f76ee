from __future__ import annotations

import ast
import pickle
from pathlib import Path

import pytest

from trie_align import (
    UNKNOWN,
    ActivityTable,
    Event,
    ParseError,
    parse_event_log,
    parse_proxy_log,
    serialize_event_log,
    serialize_proxy_log,
)

SAMPLE_LOG = """\
case,activity,timestamp
1,a,2022-08-01 15:00
1,b,2022-08-01 15:02
2,a,2022-08-01 15:03
2,b,2022-08-01 15:06
1,c,2022-08-01 15:06
"""


class TestParseEventLog:
    def test_rows_become_events_in_file_order(self):
        assert parse_event_log(SAMPLE_LOG) == [
            Event("1", "a", "2022-08-01 15:00"),
            Event("1", "b", "2022-08-01 15:02"),
            Event("2", "a", "2022-08-01 15:03"),
            Event("2", "b", "2022-08-01 15:06"),
            Event("1", "c", "2022-08-01 15:06"),
        ]

    def test_blank_lines_and_empty_timestamps(self):
        text = "case,activity,timestamp\n\n 2 , b ,\n   \n1,a, 15:00 \n"
        assert parse_event_log(text) == [Event("2", "b"), Event("1", "a", "15:00")]

    def test_empty_body_yields_empty_list(self):
        assert parse_event_log("") == []
        assert parse_event_log("case,activity,timestamp\n") == []

    def test_repeated_activity_stays_one_trace(self):
        text = "case,activity\n7,a\n7,a\n7,a\n"
        assert parse_event_log(text) == [Event("7", "a")] * 3

    def test_timestamp_column_is_optional(self):
        (event,) = parse_event_log("case,activity\n1,a\n")
        assert event.timestamp is None

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            parse_event_log("id,act\n1,a\n")

    def test_malformed_row_reports_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_event_log("case,activity\n1,a\n1\n")

    def test_empty_activity_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_event_log("case,activity\n1,\n")

    def test_equal_values_parse_to_one_string(self):
        # Single characters are shared by the interpreter anyway, so the
        # values here are longer; blanks around a value do not split it.
        text = (
            "case,activity,timestamp\n"
            "case-17,review,t1\n"
            " case-17 ,approve,t1\n"
            "case-18, review ,t1\n"
            "case-17,approve ,\n"
        )
        events = parse_event_log(text)
        assert events == [
            Event("case-17", "review", "t1"),
            Event("case-17", "approve", "t1"),
            Event("case-18", "review", "t1"),
            Event("case-17", "approve"),
        ]
        assert events[0].case_id is events[1].case_id is events[3].case_id
        assert events[0].activity is events[2].activity
        assert events[1].activity is events[3].activity

    def test_round_trip_preserves_case_activity_order(self):
        events = parse_event_log(SAMPLE_LOG)
        assert parse_event_log(serialize_event_log(events)) == events
        assert serialize_event_log(events) == SAMPLE_LOG
        # Any list order is written as it stands.
        assert parse_event_log(serialize_event_log(events[::-1])) == events[::-1]


class TestParseProxyLog:
    def test_workflow_sample_has_eight_traces(self):
        proxy = parse_proxy_log(
            "a,b,c,d,b,e\na,b,c,e\na,b,d,b,e\na,b,d,b,c,e\n"
            "a,b,d,c,b,e\na,b,e\na,c,b,d,b,e\na,c,b,e\n"
        )
        assert len(proxy.traces) == 8
        assert proxy.traces[0] == ("a", "b", "c", "d", "b", "e")

    def test_single_activity_line(self):
        proxy = parse_proxy_log("a\n")
        assert proxy.traces == (("a",),)

    def test_duplicates_preserved(self):
        proxy = parse_proxy_log("a,b\na,b\n")
        assert proxy.traces == (("a", "b"), ("a", "b"))

    def test_blank_lines_skipped(self):
        proxy = parse_proxy_log("a,b\n\n \nc\n")
        assert proxy.traces == (("a", "b"), ("c",))

    def test_empty_token_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_proxy_log("a,b\na,,b\n")

    def test_round_trip(self):
        proxy = parse_proxy_log("a,b\nc\n")
        assert parse_proxy_log(serialize_proxy_log(proxy)) == proxy


class TestActivityTable:
    def test_intern_is_idempotent(self):
        table = ActivityTable()
        assert table.intern("a") == table.intern("a")

    def test_dense_assignment(self):
        table = ActivityTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert len(table) == 2

    def test_bijection(self):
        table = ActivityTable()
        code = table.intern("a")
        assert table.label(code) == "a"
        assert table.code("a") == code
        assert table.code("zzz") == UNKNOWN

    def test_labels_in_code_order(self):
        table = ActivityTable(["x", "y"])
        assert table.labels() == ["x", "y"]
        assert "x" in table

    def test_only_trie_construction_interns(self):
        # The trie's table is the package's one label table: nothing past
        # build_trie adds to it, and no second table grows beside it.
        package = Path(__file__).resolve().parents[1] / "src" / "trie_align"
        callers = set()
        for path in sorted(package.glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                for node in ast.walk(top):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "intern"
                    ):
                        callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
        assert callers == {"events.ActivityTable", "trie.build_trie"}


class TestDomainTypes:
    def test_event_requires_activity(self):
        with pytest.raises(ValueError, match="activity"):
            Event(case_id="1", activity="")
        # Neither parser reads back an empty case id, so no event has one.
        with pytest.raises(ValueError, match="case id"):
            Event(case_id="", activity="a")
        with pytest.raises(ParseError, match="line 2: empty case id"):
            parse_event_log("case,activity\n,a\n")

    def test_event_is_an_immutable_value(self):
        event = Event("1", "a", "15:00")
        for field in ("case_id", "activity", "timestamp"):
            with pytest.raises(AttributeError):
                setattr(event, field, "x")
        with pytest.raises(AttributeError):
            event.extra = 1
        same = Event("1", "a", "15:00")
        assert same == event and hash(same) == hash(event)
        assert Event("1", "a") != event
        assert event == ("1", "a", "15:00")
        assert Event("1", "a").timestamp is None

    def test_event_repr_and_pickle(self):
        event = Event("1", "a", "15:00")
        assert repr(event) == "Event(case_id='1', activity='a', timestamp='15:00')"
        assert repr(Event("1", "a")) == "Event(case_id='1', activity='a', timestamp=None)"
        copy = pickle.loads(pickle.dumps(event))
        assert copy == event and type(copy) is Event

    def test_event_json_line_is_the_wire_frame(self):
        # The bytes every wire client has sent: ``ts`` only when set.
        stamped = Event("17", "a", "2022-08-01 15:00")
        assert stamped.to_json_line() == '{"case":"17","activity":"a","ts":"2022-08-01 15:00"}'
        assert Event("1", "a").to_json_line() == '{"case":"1","activity":"a"}'
