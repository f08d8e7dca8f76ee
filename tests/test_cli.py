from __future__ import annotations

import argparse
import json
import re
import shlex
import socket
import threading
from pathlib import Path

import pytest

from trie_align.cli import build_parser, main

from .conftest import WORKFLOW_PROXY_TEXT

CHECK_LOG = """\
case,activity
c1,a
c1,b
c1,b
c1,c
"""

CONFORMING_LOG_HEADER = "case,activity\n"


@pytest.fixture
def trie_file(tmp_path):
    proxy = tmp_path / "proxy.txt"
    proxy.write_text(WORKFLOW_PROXY_TEXT)
    out = tmp_path / "model.trie"
    assert main(["build-trie", "--proxy-log", str(proxy), "--out", str(out)]) == 0
    return out


def run_json(capsys, argv) -> dict:
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_readme_cli_lines_parse():
    # Every documented invocation must still be accepted by the parser, so a
    # deleted flag cannot stay in the README.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [ln for ln in readme.read_text().splitlines() if ln.startswith("trie-align ")]
    assert len(lines) >= 7
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
    # Every backticked flag in the prose must be accepted by at least one
    # subcommand, so a deleted flag cannot live on in the text either.
    prose = re.sub(r"```.*?```", "", readme.read_text(), flags=re.S)
    spans = " ".join(re.findall(r"`([^`]+)`", prose))
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", spans))
    assert len(flags) >= 8
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        option
        for sub in subcommands.choices.values()
        for action in sub._actions
        for option in action.option_strings
    }
    assert flags <= accepted, sorted(flags - accepted)


class TestBuildTrie:
    def test_summary_fields(self, tmp_path, capsys):
        proxy = tmp_path / "proxy.txt"
        proxy.write_text(WORKFLOW_PROXY_TEXT)
        out = tmp_path / "model.trie"
        report = run_json(
            capsys, ["build-trie", "--proxy-log", str(proxy), "--out", str(out), "--json"]
        )
        assert report["node_count"] == 23
        assert report["end_count"] == 8
        assert report["avg_leaf_depth"] == pytest.approx(5.0)
        assert report["max_branching"] == 3
        assert report["build_ms"] >= 0
        assert out.exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert (
            main(
                [
                    "build-trie",
                    "--proxy-log",
                    str(tmp_path / "nope.txt"),
                    "--out",
                    str(tmp_path / "x"),
                ]
            )
            == 2
        )

    def test_empty_proxy_exits_2(self, tmp_path):
        proxy = tmp_path / "empty.txt"
        proxy.write_text("\n")
        assert (
            main(["build-trie", "--proxy-log", str(proxy), "--out", str(tmp_path / "x")]) == 2
        )

    def test_larger_generated_proxy_builds_quickly(self, tmp_path, capsys):
        import random

        rng = random.Random(5)
        alphabet = [f"t{i}" for i in range(12)]
        lines = [
            ",".join(rng.choice(alphabet) for _ in range(rng.randrange(5, 30)))
            for _ in range(2000)
        ]
        proxy = tmp_path / "big.txt"
        proxy.write_text("\n".join(lines) + "\n")
        report = run_json(
            capsys,
            ["build-trie", "--proxy-log", str(proxy), "--out", str(tmp_path / "big.trie"), "--json"],
        )
        assert report["node_count"] > 2000
        assert report["build_ms"] < 1300


class TestCheck:
    def test_duplicate_b_trace_costs(self, trie_file, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(CHECK_LOG)
        report = run_json(
            capsys,
            [
                "check",
                "--trie",
                str(trie_file),
                "--log",
                str(log),
                "--df",
                "0",
                "--min-dt",
                "2",
                "--json",
            ],
        )
        row = report["per_trace"][0]
        assert row["prefix_cost"] == 1
        assert row["complete_cost"] == 2

    def test_conforming_log_all_zero(self, trie_file, tmp_path, capsys):
        rows = [CONFORMING_LOG_HEADER]
        for i, line in enumerate(WORKFLOW_PROXY_TEXT.strip().splitlines()):
            rows += [f"t{i},{a}\n" for a in line.split(",")]
        log = tmp_path / "conforming.csv"
        log.write_text("".join(rows))
        for decay in (["--df", "0", "--min-dt", "2"], []):
            report = run_json(
                capsys,
                ["check", "--trie", str(trie_file), "--log", str(log), *decay, "--json"],
            )
            assert all(r["prefix_cost"] == 0 for r in report["per_trace"])
            assert all(r["complete_cost"] == 0 for r in report["per_trace"])
            assert report["aggregate"]["mean_cost_per_trace"] == 0

    def test_per_event_costs(self, trie_file, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(CHECK_LOG)
        report = run_json(
            capsys,
            [
                "check",
                "--trie",
                str(trie_file),
                "--log",
                str(log),
                "--df",
                "0",
                "--min-dt",
                "2",
                "--per-event",
                "--json",
            ],
        )
        assert report["per_trace"][0]["per_event_costs"] == [0, 0, 1, 1]

    def test_unreadable_trie_exits_2(self, tmp_path):
        bad = tmp_path / "bad.trie"
        bad.write_bytes(b"junk")
        log = tmp_path / "log.csv"
        log.write_text(CHECK_LOG)
        assert main(["check", "--trie", str(bad), "--log", str(log)]) == 2

    def test_per_event_records_file(self, trie_file, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(CHECK_LOG)
        records = tmp_path / "records.jsonl"
        assert (
            main(
                [
                    "check",
                    "--trie",
                    str(trie_file),
                    "--log",
                    str(log),
                    "--df",
                    "0",
                    "--min-dt",
                    "2",
                    "--records",
                    str(records),
                    "--json",
                ]
            )
            == 0
        )
        lines = [json.loads(ln) for ln in records.read_text().splitlines()]
        assert len(lines) == 4
        first = lines[0]
        assert first["case_id"] == "c1"
        assert first["event_seq"] == 1
        assert first["activity"] == "a"
        assert first["best_cost"] == 0
        assert list(first) == [
            "case_id",
            "event_seq",
            "activity",
            "best_cost",
            "states_in_case",
            "processing_micros",
            "alignment",
        ]
        assert first["alignment"] == [{"log": "a", "model": "a"}]
        assert lines[-1]["best_cost"] == 1
        assert lines[-1]["states_in_case"] == 4
        assert lines[-1]["alignment"] == [
            {"log": "a", "model": "a"},
            {"log": "b", "model": "b"},
            {"log": "b", "model": None},
            {"log": "c", "model": "c"},
        ]

    def test_unwritable_records_exits_2(self, trie_file, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(CHECK_LOG)
        records = tmp_path / "missing-dir" / "records.jsonl"
        code = main(
            ["check", "--trie", str(trie_file), "--log", str(log), "--records", str(records)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write records")

    def test_bad_decay_exits_2(self, trie_file, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text(CHECK_LOG)
        bad = ["--min-dt", "0"], ["--df", "-1"], ["--df", "nan"]
        for flags in bad:
            code = main(["check", "--trie", str(trie_file), "--log", str(log), *flags])
            assert code == 2


class TestOracle:
    def test_prefix_and_complete_costs(self, trie_file, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(CHECK_LOG)
        prefix = run_json(
            capsys,
            ["oracle", "--trie", str(trie_file), "--log", str(log), "--mode", "prefix", "--json"],
        )
        assert prefix["per_trace"][0]["optimal_cost"] == 1
        complete = run_json(
            capsys,
            ["oracle", "--trie", str(trie_file), "--log", str(log), "--mode", "complete", "--json"],
        )
        assert complete["per_trace"][0]["optimal_cost"] == 2

    def test_compare_reports_nonnegative_errors(self, trie_file, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(CHECK_LOG + "c2,a\nc2,b\nc2,e\n")
        report = run_json(
            capsys,
            ["oracle", "--trie", str(trie_file), "--log", str(log), "--compare", "--json"],
        )
        for row in report["per_trace"]:
            assert row["error"] >= 0
        assert report["aggregate"]["exact_matches"] >= 1

    @pytest.mark.parametrize(
        "mode, engine_costs, errors",
        [("prefix", [1, 1, 5], [0, 0, 0]), ("complete", [2, 1, 7], [0, 0, 2])],
    )
    def test_compare_pins_engine_costs(
        self, trie_file, tmp_path, capsys, mode, engine_costs, errors
    ):
        log = tmp_path / "log.csv"
        # c2 and c3 carry activities the model lacks (x, z); c3 also starts out of order.
        log.write_text(
            CHECK_LOG + "c2,a\nc2,x\nc2,c\nc2,b\nc2,e\n" + "c3,b\nc3,a\nc3,z\nc3,d\nc3,e\nc3,e\n"
        )
        argv = ["oracle", "--trie", str(trie_file), "--log", str(log), "--mode", mode]
        report = run_json(capsys, [*argv, "--compare", "--json"])
        assert [r["engine_cost"] for r in report["per_trace"]] == engine_costs
        assert [r["error"] for r in report["per_trace"]] == errors

    def test_conforming_corpus_ratio(self, trie_file, tmp_path, capsys):
        rows = [CONFORMING_LOG_HEADER, "t0,a\n", "t0,b\n", "t0,e\n"]
        log = tmp_path / "ok.csv"
        log.write_text("".join(rows))
        report = run_json(
            capsys,
            ["oracle", "--trie", str(trie_file), "--log", str(log), "--compare", "--json"],
        )
        agg = report["aggregate"]
        assert agg["cost_ratio"] is None  # 0/0 reported as exact-match count
        assert agg["exact_matches"] == agg["traces"] == 1

    def test_size_guard_refuses(self, trie_file, tmp_path, capsys):
        events = "".join(f"c1,{a}\n" for a in ("a,b,c,d,e".split(",") * 100000))
        log = tmp_path / "huge.csv"
        log.write_text(CONFORMING_LOG_HEADER + events)
        code = main(["oracle", "--trie", str(trie_file), "--log", str(log)])
        assert code == 2


class TestSimulate:
    def test_noiseless_stream_costs_zero(self, trie_file, capsys):
        report = run_json(
            capsys,
            [
                "simulate",
                "--trie",
                str(trie_file),
                "--noise",
                "0",
                "--seed",
                "1",
                "--max-events",
                "400",
                "--json",
            ],
        )
        assert {
            "events_processed",
            "cases",
            "mean_case_cost",
            "computation_micros",
            "idle_micros",
            "wall_micros",
            "mean_event_micros",
            "p50_event_micros",
            "max_event_micros",
            "max_buffer_states",
            "max_resident_cases",
            "noise",
            "seed",
        } <= report.keys()
        assert report["events_processed"] == 400
        assert report["mean_case_cost"] == 0.0

    def test_seeded_runs_reproduce_metrics(self, trie_file, capsys):
        def run():
            report = run_json(
                capsys,
                [
                    "simulate",
                    "--trie",
                    str(trie_file),
                    "--noise",
                    "0.10",
                    "--seed",
                    "7",
                    "--max-events",
                    "600",
                    "--json",
                ],
            )
            return (report["events_processed"], report["cases"], report["mean_case_cost"])

        assert run() == run()

    def test_connect_failure_exits_3(self, trie_file):
        code = main(
            [
                "simulate",
                "--trie",
                str(trie_file),
                "--connect",
                "127.0.0.1:9",
                "--max-events",
                "10",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("command", ["serve --listen", "simulate --connect"])
    @pytest.mark.parametrize("port", ["abc", "99999", ""])
    def test_bad_port_exits_2(self, trie_file, capsys, command, port):
        name, flag = command.split()
        code = main([name, "--trie", str(trie_file), flag, f"127.0.0.1:{port}"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: bad address")

    def test_connection_dropped_mid_stream_exits_3(self, trie_file, capsys):
        # A listener that accepts every connection and closes it at once.
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(4)
            port = listener.getsockname()[1]

            def accept_and_close():
                conn, _ = listener.accept()
                conn.close()

            closer = threading.Thread(target=accept_and_close, daemon=True)
            closer.start()
            code = main(
                [
                    "simulate",
                    "--trie",
                    str(trie_file),
                    "--connect",
                    f"127.0.0.1:{port}",
                    "--max-events",
                    "20000",
                ]
            )
            closer.join(timeout=5.0)
        assert code == 3
        assert "connection to" in capsys.readouterr().err

    def test_duration_bounded_run(self, trie_file, capsys):
        report = run_json(
            capsys,
            [
                "simulate",
                "--trie",
                str(trie_file),
                "--noise",
                "0",
                "--seed",
                "2",
                "--duration",
                "0.3",
                "--json",
            ],
        )
        assert report["events_processed"] > 0

    @pytest.mark.parametrize(
        "flags",
        [
            ["--duration", "0"],
            ["--duration", "nan"],
            ["--cases-in-flight", "0"],
            ["--noise", "1.5"],
            ["--noise", "-0.1"],
            ["--noise", "1.5", "--connect", "127.0.0.1:9"],
        ],
    )
    def test_bad_simulate_input_exits_2(self, trie_file, capsys, flags):
        code = main(["simulate", "--trie", str(trie_file), "--max-events", "5", *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_serve_bind_failure_exits_3(self, trie_file):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            code = main(["serve", "--trie", str(trie_file), "--listen", f"127.0.0.1:{port}"])
        assert code == 3


class TestServeAndSimulateConnect:
    def test_simulate_against_served_engine(self, trie_file, capsys):
        # Start the server via the CLI in a thread on an ephemeral port.
        port_holder: dict = {}

        def pick_port():
            with socket.socket() as s:
                s.bind(("127.0.0.1", 0))
                return s.getsockname()[1]

        port = pick_port()
        port_holder["port"] = port
        server_thread = threading.Thread(
            target=main,
            args=(["serve", "--trie", str(trie_file), "--listen", f"127.0.0.1:{port}"],),
            daemon=True,
        )
        server_thread.start()

        import time

        deadline = time.time() + 5
        while time.time() < deadline:
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                    break
            except OSError:
                time.sleep(0.05)

        code = main(
            [
                "simulate",
                "--trie",
                str(trie_file),
                "--connect",
                f"127.0.0.1:{port}",
                "--noise",
                "0.05",
                "--seed",
                "3",
                "--max-events",
                "200",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sent"] == 200

        # Ask the server to shut down cleanly.
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
            file = sock.makefile("rw", encoding="utf-8", newline="\n")
            file.write('{"cmd":"shutdown"}\n')
            file.flush()
            final = json.loads(file.readline())
        assert final["events_processed"] >= 200
        server_thread.join(timeout=10.0)
        assert not server_thread.is_alive()

    def test_connect_honours_rate(self, trie_file, capsys):
        from trie_align import Engine, EngineConfig, StreamServer, load_trie

        server = StreamServer(Engine(EngineConfig(trie=load_trie(trie_file.read_bytes()))))
        server.start()
        try:
            host, port = server.address
            report = run_json(
                capsys,
                [
                    "simulate",
                    "--trie",
                    str(trie_file),
                    "--connect",
                    f"{host}:{port}",
                    "--rate",
                    "200",
                    "--max-events",
                    "5",
                    "--json",
                ],
            )
        finally:
            server.stop()
        assert report["sent"] == 5
        assert report["wall_micros"] >= 4 * 5000  # four inter-event gaps at 5 ms
        assert report["server"]["events_processed"] == 5


class TestBench:
    def test_single_repeat_matches_check_totals(self, trie_file, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(CHECK_LOG)
        report = run_json(
            capsys,
            [
                "bench",
                "--trie",
                str(trie_file),
                "--log",
                str(log),
                "--repeat",
                "1",
                "--df",
                "0",
                "--min-dt",
                "2",
                "--json",
            ],
        )
        assert report["runs"] == 1
        assert report["events_per_run"] == 4
        assert report["buffer_bound_violations"] == 0
        assert report["p50_micros"] <= report["p95_micros"] <= report["max_micros"]

    def test_repeated_runs_pool_latencies(self, trie_file, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(CHECK_LOG)
        report = run_json(
            capsys,
            ["bench", "--trie", str(trie_file), "--log", str(log), "--repeat", "3", "--json"],
        )
        assert report["runs"] == 3
        assert report["events_per_run"] == 4


    @pytest.mark.parametrize("repeat", ["0", "-2"])
    def test_repeat_below_one_exits_2(self, trie_file, tmp_path, capsys, repeat):
        log = tmp_path / "log.csv"
        log.write_text(CHECK_LOG)
        code = main(["bench", "--trie", str(trie_file), "--log", str(log), "--repeat", repeat])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestCheckSimulateConsistency:
    def test_identical_event_orders_produce_identical_costs(self, trie_file, tmp_path, capsys):
        # The same global event order fed via check and via an in-process
        # replay must yield the same per-case costs.
        from trie_align import DecayPolicy, Engine, EngineConfig, load_trie

        trie = load_trie(trie_file.read_bytes())
        log = tmp_path / "log.csv"
        log.write_text(CHECK_LOG + "c2,a\nc2,c\nc2,b\nc2,e\n")
        report = run_json(
            capsys,
            [
                "check",
                "--trie",
                str(trie_file),
                "--log",
                str(log),
                "--df",
                "0",
                "--min-dt",
                "2",
                "--json",
            ],
        )
        engine = Engine(EngineConfig(trie=trie, decay=DecayPolicy.fixed(2)))
        from trie_align import parse_event_log

        for trace in parse_event_log(log.read_text()):
            for ev in trace.events:
                engine.process(trace.case_id, ev.activity)
        for row in report["per_trace"]:
            assert engine.conformance_cost(row["case_id"]) == row["prefix_cost"]
