"""Command-line front end: trie building, checking, serving, simulation
and oracle comparison.

Exit codes: 0 on success, 2 on input errors, 3 on connection errors. Every
subcommand but ``serve`` prints a human-readable report by default and a
single JSON document with ``--json``; ``serve`` has no ``--json`` and always
prints its final report as one JSON line. Set ``TRIE_ALIGN_LOG`` to a
logging level name (e.g. ``debug``) for verbose output.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from . import oracle as oracle_mod
from .alignment import alignment_pairs
from .engine import DecayPolicy, Engine, EngineConfig
from .events import Event, ParseError, parse_event_log, parse_proxy_log
from .stream import EngineSink, TcpSink, replay, serve as serve_stream, simulate_stream
from .trie import Trie, TrieError, TrieFormatError, build_trie, load_trie, serialize_trie

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONNECT = 3

ORACLE_CELL_GUARD = 10_000_000


def _setup_logging() -> None:
    level_name = os.environ.get("TRIE_ALIGN_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(asctime)s %(name)s %(levelname)s %(message)s")


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_text(path: str) -> str:
    # utf-8-sig drops a leading byte-order mark, which would otherwise join the first label.
    return Path(path).read_text(encoding="utf-8-sig")


def _load_trie_file(path: str) -> Trie:
    return load_trie(Path(path).read_bytes())


def _decay_policy(args: argparse.Namespace) -> DecayPolicy:
    return DecayPolicy(df=args.df, min_dt=args.min_dt)


def _add_decay_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--df", type=float, default=0.3, help="discounting factor (default 0.3; 0 is fixed decay)"
    )
    parser.add_argument("--min-dt", type=int, default=3, help="minimum decay time (default 3)")


def _emit(report: dict, as_json: bool, human_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for line in human_lines:
            print(line)


# -- subcommands ------------------------------------------------------------


def cmd_build_trie(args: argparse.Namespace) -> int:
    try:
        text = _read_text(args.proxy_log)
    except OSError as exc:
        return _fail(f"cannot read proxy log: {exc}", EXIT_INPUT)
    try:
        proxy = parse_proxy_log(text)
        started = time.perf_counter()
        trie = build_trie(proxy)
        build_ms = (time.perf_counter() - started) * 1000.0
    except (ParseError, TrieError, ValueError) as exc:
        return _fail(str(exc), EXIT_INPUT)

    try:
        Path(args.out).write_bytes(serialize_trie(trie))
    except OSError as exc:
        return _fail(f"cannot write trie: {exc}", EXIT_INPUT)

    report = {
        "node_count": trie.node_count,
        "end_count": trie.end_count,
        "avg_leaf_depth": trie.avg_leaf_depth,
        "max_branching": trie.max_branching,
        "build_ms": round(build_ms, 3),
        "out": args.out,
    }
    _emit(
        report,
        args.json,
        [
            f"trie written to {args.out}",
            f"  node_count (incl. root): {trie.node_count}",
            f"  end_count:               {trie.end_count}",
            f"  avg_leaf_depth:          {trie.avg_leaf_depth:g}",
            f"  max_branching:           {trie.max_branching}",
            f"  build time:              {build_ms:.1f} ms",
        ],
    )
    return EXIT_OK


def _by_case(events: list[Event]) -> dict[str, list[Event]]:
    """Each case's events in file order; cases in order of first appearance."""
    cases: dict[str, list[Event]] = {}
    for ev in events:
        cases.setdefault(ev.case_id, []).append(ev)
    return cases


def _check_cases(
    engine: Engine, cases: dict[str, list[Event]], per_event: bool, records
) -> tuple[list[dict], float]:
    """Replay ``cases`` one after another: per-trace rows and total engine micros.

    With ``records`` (an open text file) each event also writes one JSON
    record carrying the case's best prefix alignment after that event.
    """
    trie = engine.trie
    label = trie.alphabet.label
    sink = EngineSink(engine)
    per_trace = []
    for case_id, events in cases.items():
        before = sink.computation
        per_event_costs = []
        for seq, event in enumerate(events, 1):
            result = sink.send(event)
            if per_event:
                per_event_costs.append(result.best_cost)
            if records is not None:
                record = {
                    "case_id": case_id,
                    "event_seq": seq,
                    "activity": event.activity,
                    "best_cost": result.best_cost,
                    "states_in_case": len(engine.states(case_id)),
                    "processing_micros": round(sink.window[-1], 3),
                    "alignment": alignment_pairs(
                        engine.best_state(case_id).moves(),
                        [ev.activity for ev in events[:seq]],
                        label,
                    ),
                }
                records.write(json.dumps(record) + "\n")
        best = engine.best_state(case_id)
        row = {
            "case_id": case_id,
            "events": len(events),
            "prefix_cost": best.cost,
            "complete_cost": best.cost + trie.min_to_end[best.node],
            "micros": round(sink.computation - before, 1),
        }
        if per_event:
            row["per_event_costs"] = per_event_costs
        per_trace.append(row)
    return per_trace, sink.computation


def cmd_check(args: argparse.Namespace) -> int:
    try:
        trie = _load_trie_file(args.trie)
    except (OSError, TrieFormatError) as exc:
        return _fail(f"cannot load trie: {exc}", EXIT_INPUT)
    try:
        cases = _by_case(parse_event_log(_read_text(args.log)))
    except OSError as exc:
        return _fail(f"cannot read log: {exc}", EXIT_INPUT)
    except ParseError as exc:
        return _fail(str(exc), EXIT_INPUT)
    try:
        engine = Engine(EngineConfig(trie=trie, decay=_decay_policy(args)))
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)

    try:
        with open(args.records, "w", encoding="utf-8") if args.records else nullcontext() as records:
            per_trace, total_micros = _check_cases(engine, cases, args.per_event, records)
    except OSError as exc:
        return _fail(f"cannot write records: {exc}", EXIT_INPUT)

    n = len(per_trace)
    total_events = sum(r["events"] for r in per_trace)
    aggregate = {
        "traces": n,
        "events": total_events,
        "mean_cost_per_trace": round(sum(r["prefix_cost"] for r in per_trace) / n, 4) if n else 0.0,
        "mean_complete_cost_per_trace": round(sum(r["complete_cost"] for r in per_trace) / n, 4)
        if n
        else 0.0,
        "mean_ms_per_trace": round(total_micros / 1000.0 / n, 4) if n else 0.0,
        "mean_ms_per_event": round(total_micros / 1000.0 / total_events, 4) if total_events else 0.0,
    }
    report = {"per_trace": per_trace, "aggregate": aggregate}
    lines = [
        f"{r['case_id']}: prefix={r['prefix_cost']} complete={r['complete_cost']} events={r['events']}"
        + (f" per_event={r['per_event_costs']}" if args.per_event else "")
        for r in per_trace
    ]
    lines.append(
        f"-- {aggregate['traces']} traces, {aggregate['events']} events | "
        f"mean cost/trace {aggregate['mean_cost_per_trace']} | "
        f"mean ms/trace {aggregate['mean_ms_per_trace']} | "
        f"mean ms/event {aggregate['mean_ms_per_event']}"
    )
    _emit(report, args.json, lines)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    try:
        trie = _load_trie_file(args.trie)
        cases = _by_case(parse_event_log(_read_text(args.log)))
    except (OSError, TrieFormatError, ParseError) as exc:
        return _fail(str(exc), EXIT_INPUT)

    for case_id, events in cases.items():
        cells = len(events) * trie.node_count
        if cells > ORACLE_CELL_GUARD:
            return _fail(
                f"case {case_id}: {len(events)} events x {trie.node_count} nodes = "
                f"{cells} DP cells exceeds the {ORACLE_CELL_GUARD} guard; shorten the trace, "
                "use a smaller trie, or rely on the streaming engine instead",
                EXIT_INPUT,
            )

    compute = oracle_mod.optimal_prefix if args.mode == "prefix" else oracle_mod.optimal_complete
    engine_rows = None
    if args.compare:
        engine_rows, _ = _check_cases(Engine(EngineConfig(trie=trie)), cases, False, None)

    per_trace = []
    exact_matches = 0
    total_opt = 0
    total_engine = 0
    for index, (case_id, events) in enumerate(cases.items()):
        codes = [trie.alphabet.code(ev.activity) for ev in events]
        optimal = compute(codes, trie)
        row = {"case_id": case_id, "optimal_cost": optimal}
        if engine_rows is not None:
            engine_cost = engine_rows[index][f"{args.mode}_cost"]
            row["engine_cost"] = engine_cost
            row["error"] = engine_cost - optimal
            total_opt += optimal
            total_engine += engine_cost
            if engine_cost == optimal:
                exact_matches += 1
        per_trace.append(row)

    report: dict = {"mode": args.mode, "per_trace": per_trace}
    lines = [
        f"{r['case_id']}: optimal={r['optimal_cost']}"
        + (f" engine={r['engine_cost']} error={r['error']}" if "engine_cost" in r else "")
        for r in per_trace
    ]
    if engine_rows is not None:
        ratio = (total_engine / total_opt) if total_opt else None
        aggregate = {
            "traces": len(per_trace),
            "total_optimal_cost": total_opt,
            "total_engine_cost": total_engine,
            "cost_ratio": round(ratio, 4) if ratio is not None else None,
            "exact_matches": exact_matches,
        }
        report["aggregate"] = aggregate
        if ratio is None:
            lines.append(
                f"-- all costs zero; exact matches {exact_matches}/{len(per_trace)}"
            )
        else:
            lines.append(
                f"-- cost ratio (engine/optimal) {aggregate['cost_ratio']} | "
                f"exact matches {exact_matches}/{len(per_trace)}"
            )
    _emit(report, args.json, lines)
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    try:
        trie = _load_trie_file(args.trie)
        engine = Engine(EngineConfig(trie=trie, decay=_decay_policy(args)))
        host, port = _parse_addr(args.listen)
    except (OSError, TrieFormatError, ValueError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    try:
        report = serve_stream(engine, host=host, port=port)
    except OSError as exc:
        return _fail(f"cannot bind {args.listen}: {exc}", EXIT_CONNECT)
    print(json.dumps(report))
    return EXIT_OK


def _parse_addr(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not (port.isascii() and port.isdigit() and int(port) <= 65535):
        raise ValueError(f"bad address {addr!r}: port must be an integer from 0 to 65535")
    return host or "127.0.0.1", int(port)


def cmd_simulate(args: argparse.Namespace) -> int:
    max_events = args.max_events
    if max_events is None and args.duration is None:
        max_events = 10_000
    try:
        # replay() would check the rate only once a TcpSink had connected.
        if args.rate is not None and not args.rate > 0:
            raise ValueError("--rate must be a positive number of events per second")
        trie = _load_trie_file(args.trie)
        events = simulate_stream(
            trie,
            noise_level=args.noise,
            seed=args.seed,
            max_events=max_events,
            duration=args.duration,
        )
        engine = Engine(EngineConfig(trie=trie, decay=_decay_policy(args)))
        address = _parse_addr(args.connect) if args.connect else None
    except (OSError, TrieFormatError, ValueError) as exc:
        return _fail(str(exc), EXIT_INPUT)

    if address is not None:
        try:
            sink = TcpSink(*address)
        except ConnectionError as exc:
            return _fail(str(exc), EXIT_CONNECT)
        started = time.perf_counter()
        try:
            sent = replay(events, sink, rate=args.rate)["events_processed"]
            server_metrics = sink.request_metrics()
        except OSError as exc:
            return _fail(f"connection to {args.connect} lost: {exc}", EXIT_CONNECT)
        finally:
            sink.close()
        wall = (time.perf_counter() - started) * 1e6
        report = {"sent": sent, "wall_micros": round(wall, 1), "server": server_metrics}
        _emit(report, args.json, [f"sent {sent} frames", f"server metrics: {server_metrics}"])
        return EXIT_OK

    metrics = replay(events, EngineSink(engine), rate=args.rate)
    completed_costs = [engine.conformance_cost(case_id) for case_id in engine.case_ids()]
    report = {
        **metrics,
        "cases": len(completed_costs),
        "mean_case_cost": round(sum(completed_costs) / len(completed_costs), 4)
        if completed_costs
        else 0.0,
        "noise": args.noise,
        "seed": args.seed,
    }
    _emit(
        report,
        args.json,
        [
            f"processed {report['events_processed']} events over {report['cases']} cases "
            f"(noise {args.noise}, seed {args.seed})",
            f"  mean case cost:    {report['mean_case_cost']}",
            f"  mean event micros: {report['mean_event_micros']}",
            f"  p50 event micros:  {report['p50_event_micros']}",
            f"  max buffer states: {report['max_buffer_states']}",
        ],
    )
    return EXIT_OK


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trie-align",
        description="Streaming conformance checking against a prefix trie of modeled behavior.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-trie", help="build and serialize a trie from a proxy log")
    p.add_argument("--proxy-log", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_build_trie)

    p = sub.add_parser("check", help="replay an event log through the engine")
    p.add_argument("--trie", required=True)
    p.add_argument("--log", required=True)
    _add_decay_flags(p)
    p.add_argument("--per-event", action="store_true", help="include per-event costs")
    p.add_argument(
        "--records",
        default=None,
        help="write one JSON result record per event (with alignments) to this file",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="optimal alignment costs (desk-scale inputs only)")
    p.add_argument("--trie", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--mode", choices=["prefix", "complete"], default="prefix")
    p.add_argument("--compare", action="store_true", help="also run the engine and report errors")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("serve", help="accept newline-delimited JSON frames over TCP")
    p.add_argument("--trie", required=True)
    p.add_argument("--listen", default="127.0.0.1:9099", help="host:port (default 127.0.0.1:9099)")
    _add_decay_flags(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("simulate", help="stream noisy model traces into an engine or a server")
    p.add_argument("--trie", required=True)
    p.add_argument("--connect", help="host:port of a running server (default: in-process engine)")
    p.add_argument("--noise", type=float, default=0.0, help="mutation probability (e.g. 0.05)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=None, help="run for N seconds")
    p.add_argument("--max-events", type=int, default=None, help="stop after N events")
    p.add_argument("--rate", type=float, default=None, help="throttle to events/second")
    _add_decay_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except KeyboardInterrupt:
        code = 130
    if argv is None:  # invoked as a console script
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
