"""In-process workloads on the C7 trie: ``large-noisy`` and ``csv-conforming``.

Both load the same serialized C7 trie and drive one engine from one
caller at full speed (a closed loop). The event count of a run is fixed
by ``--seconds`` times a nominal rate measured on the seed code, so a
run of the same seed always sees the same input and the memory figures
compare like with like.

The timed phase is cut into blocks of a fixed number of events, about
half a second each. On a shared 2-vCPU virtual machine the same code runs
in two speed regimes 30-60% apart (a plain Python loop shows them too;
CPU time equals wall time throughout, so it is not preemption); a regime
lasts from a fraction of a second to several seconds, and the share of
each drifts over minutes. Pooled over a run, the median latency falls in
the gap between the two regimes' latencies and jumps from one to the
other with a small change in that share. ``latency_p50_us`` is therefore
the mean of the blocks' medians, which moves in proportion to the share,
as ``events_per_s`` (events over total time) does.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from datetime import datetime, timedelta
from statistics import median

from common import (
    RESULTS_DIR,
    audit_buffer_bounds,
    beyond,
    build_trie_timed,
    c7_proxy,
    cost_digest,
    cost_ratio,
    group_by_case,
    oracle_check,
    peak_rss_mb,
    percentile,
    prefix_optima_parallel,
    rerun_costs,
    trie_shape,
)
from tracing import BenchEngine, Tracer, engine_layer_metrics, engine_state_metrics, installed
from trie_align import (
    Engine,
    EngineConfig,
    complete_alignment,
    load_trie,
    parse_event_log,
    replay,
    serialize_trie,
)
from trie_align.cli import simulate_stream

# Events per second measured when the benchmark was written, on a 2-vCPU
# x86 virtual machine; they only size a run to last about --seconds there.
NOMINAL_EPS = {"large-noisy": 3_300, "csv-conforming": 32_000}
NOISE = {"large-noisy": 0.10, "csv-conforming": 0.0}
SETUP_REPEATS = 11
# Cases checked against the DP oracle: (costliest by engine cost, sample
# of the rest). The oracle costs about 0.3 s per case on the C7 trie; it
# runs after the timed phase on two worker processes.
ORACLE_CASES = {"large-noisy": (24, 40), "csv-conforming": (1, 1)}
ORACLE_WORKERS = 2
RERUN_EVENTS = 2_000
CSV_PASS_EVENTS = 200_000
# The timed phase is measured in blocks of this many events (about half a
# second each on the machine named above; one CSV file per block on
# csv-conforming).
BLOCK_EVENTS = {"large-noisy": 1_500, "csv-conforming": 20_000}
CSV_CHUNK_EVENTS = BLOCK_EVENTS["csv-conforming"]
TAIL_Q = 0.99

_CSV_EPOCH = datetime(2022, 8, 1)

clock = time.perf_counter_ns


def _engine(trie, tracer: Tracer | None) -> Engine:
    config = EngineConfig(trie=trie)
    return Engine(config) if tracer is None else BenchEngine(config, tracer=tracer)


def c7_setup(tracer: Tracer | None):
    """Build the C7 trie offline, then time ``load_trie`` + ``Engine`` several times.

    Returns the serialized trie, the last loaded trie and engine, and the
    set-up figures.
    """
    built, build_s = build_trie_timed(c7_proxy())
    payload = serialize_trie(built)
    del built
    totals = []
    loads = []
    trie = engine = None
    for _ in range(SETUP_REPEATS):
        trie = engine = None
        started = time.perf_counter()
        trie = load_trie(payload)
        loaded = time.perf_counter()
        engine = _engine(trie, tracer)
        totals.append(time.perf_counter() - started)
        loads.append(loaded - started)
    setup = {"setup_s": median(totals), "trie.load_s": median(loads), "trie.build_s": build_s}
    return payload, trie, engine, setup


def _generate(trie, workload: str, seed: int, events: int):
    started = time.perf_counter()
    frames = list(
        simulate_stream(trie, noise_level=NOISE[workload], seed=seed, max_events=events, duration=None)
    )
    return frames, time.perf_counter() - started


def _timing_metrics(latencies_ns: list[int], blocks: list[tuple[int, int]]) -> tuple[dict, dict, dict]:
    """End-to-end timing metrics of a timed phase.

    ``blocks`` holds ``(events, wall ns)`` of consecutive blocks of the
    timed phase, in order; ``latencies_ns`` holds every event's latency in
    the same order. ``events_per_s`` is all events over all block time and
    ``latency_tail_us`` the pooled p99; ``latency_p50_us`` is the mean of
    the blocks' median latencies (see the module docstring). Also returns
    the sample counts and the per-block figures, for the record.
    """
    rates, p50s = [], []
    first = 0
    for events, wall_ns in blocks:
        ordered = sorted(latencies_ns[first : first + events])
        first += events
        rates.append(events * 1e9 / wall_ns)
        p50s.append(percentile(ordered, 0.50) / 1000.0)
    ordered = sorted(latencies_ns)
    wall_s = sum(wall_ns for _, wall_ns in blocks) / 1e9
    metrics = {
        "events_per_s": len(latencies_ns) / wall_s,
        "latency_p50_us": sum(p50s) / len(p50s),
        "latency_tail_us": percentile(ordered, TAIL_Q) / 1000.0,
    }
    n = len(ordered)
    per_block = min(events for events, _ in blocks)
    samples = {
        "latency_p50_us": {
            "quantile": 0.50,
            "samples": per_block,
            "beyond": beyond(per_block, 0.50),
            "blocks": len(blocks),
        },
        "latency_tail_us": {"quantile": TAIL_Q, "samples": n, "beyond": beyond(n, TAIL_Q)},
    }
    timing = {
        "timed_wall_s": wall_s,
        "pooled_latency_p50_us": percentile(ordered, 0.50) / 1000.0,
        "block_events_per_s": rates,
        "block_latency_p50_us": p50s,
    }
    return metrics, samples, timing


def _accuracy_sample(per_case: dict, top: int, rest_size: int, rng: random.Random):
    """Cases to check against the oracle: the ``top`` costliest, plus a sample of the rest.

    The few cases where the engine ends far above the optimum carry most
    of the engine/oracle gap, and they are among the costliest by the
    engine's own (summed per-event) cost. Checking all of those and a
    systematic sample of the rest (every k-th in cost order, from a seeded
    offset, ties in seeded random order) keeps the ratio from swinging
    with whether a small random sample happened to catch one.
    Returns ``(top cases, remaining cases, sample of the remaining)``.
    """
    order = sorted(per_case, key=lambda c: (-sum(per_case[c][1]), rng.random()))
    head, rest = order[:top], order[top:]
    size = min(rest_size, len(rest))
    if size == 0:
        return head, rest, []
    step = len(rest) / size
    offset = rng.random() * step
    return head, rest, [rest[int(offset + i * step)] for i in range(size)]


def _stratified_ratio(per_case: dict, head_check: dict, rest: list[str], sample_check: dict) -> float:
    """Engine cost over optimal cost for all cases.

    The optimum of the remaining cases is estimated from the sample by
    the ratio of its optimal to engine cost; 1.0 when both totals are 0.
    """
    engine_rest = sum(sum(per_case[c][1]) for c in rest)
    optimal_rest = (
        engine_rest * sample_check["optimal_cost"] / sample_check["engine_cost"]
        if sample_check["engine_cost"]
        else 0.0
    )
    return cost_ratio(
        {
            "engine_cost": head_check["engine_cost"] + engine_rest,
            "optimal_cost": head_check["optimal_cost"] + optimal_rest,
        }
    )


def _gates(trie, payload, engine, seed, case_ids, activities, costs, oracle_cases):
    """Correctness checks shared by both in-process workloads.

    ``oracle_cases`` is ``(costliest cases checked, sample size of the rest)``.
    """
    per_case = group_by_case(case_ids, activities, costs)
    head, rest, sample = _accuracy_sample(per_case, *oracle_cases, random.Random(seed))
    optima = prefix_optima_parallel(payload, [per_case[c][0] for c in head + sample], ORACLE_WORKERS)
    head_check = oracle_check(per_case, head, optima[: len(head)])
    sample_check = oracle_check(per_case, sample, optima[len(head) :])
    rerun_n = min(RERUN_EVENTS, len(costs))
    repeat = rerun_costs(trie, case_ids[:rerun_n], activities[:rerun_n])
    final_costs = [case_costs[-1] for _, case_costs in per_case.values()]
    return {
        "buffer_bound_violations": audit_buffer_bounds(engine),
        "unsound_prefixes": head_check["unsound_prefixes"] + sample_check["unsound_prefixes"],
        "rerun_mismatches": sum(1 for a, b in zip(repeat, costs[:rerun_n]) if a != b),
        "oracle": {"costliest": head_check, "sample": sample_check},
        "oracle_cases": head_check["cases_checked"] + sample_check["cases_checked"],
        "cost_ratio": _stratified_ratio(per_case, head_check, rest, sample_check),
        "mean_case_cost": sum(final_costs) / len(final_costs) if final_costs else 0.0,
        "cases": len(per_case),
    }


def _report_error(failed: int, what: str) -> None:
    if failed == 1:
        print(f"warning: {what} raised:", file=sys.stderr)
        traceback.print_exc()


def run_large_noisy(seed: int, seconds: int, trace: bool) -> dict:
    """C7 trie, 10% noise, 32 cases in flight, events fed straight to ``process``."""
    workload = "large-noisy"
    tracer = Tracer() if trace else None
    payload, trie, engine, setup = c7_setup(tracer)
    size = BLOCK_EVENTS[workload]
    events = max(1, round(NOMINAL_EPS[workload] * seconds / size)) * size
    frames, simulate_s = _generate(trie, workload, seed, events)
    case_ids = [f.case_id for f in frames]
    activities = [f.activity for f in frames]
    del frames

    latencies: list[int] = []
    costs: list[int] = []
    failed = 0
    process = engine.process
    blocks: list[tuple[int, int]] = []
    with installed(tracer) if tracer is not None else nullcontext():
        for first in range(0, len(case_ids), size):
            started = clock()
            for case_id, activity in zip(case_ids[first : first + size], activities[first : first + size]):
                t0 = clock()
                try:
                    cost = process(case_id, activity).best_cost
                except Exception:  # counted as a failed event; the run goes on
                    failed += 1
                    _report_error(failed, "Engine.process")
                    cost = -1
                latencies.append(clock() - t0)
                costs.append(cost)
            blocks.append((len(costs) - first, clock() - started))
    rss = peak_rss_mb()

    gates = _gates(trie, payload, engine, seed, case_ids, activities, costs, ORACLE_CASES[workload])
    timing = _timing_metrics(latencies, blocks)
    layers = {**setup, **engine_state_metrics(engine), "cli.simulate_s": simulate_s}
    return _result(workload, trie, len(costs), timing, rss, setup, gates, costs, layers, tracer)


class CaseEndSink:
    """Replay sink owned by the benchmark.

    Feeds each frame to the engine and, after a case's last event, reads
    the case's best state and completes its alignment, as ``trie-align
    check`` does per trace. Records per-event latency (process plus any
    case-end query) and cost, in processing order.
    """

    def __init__(self, engine: Engine, trie, remaining: Counter, tracer: Tracer | None) -> None:
        self.trie = trie
        self.remaining = remaining
        self.process = engine.process
        self.best_state = engine.best_state
        self.complete = complete_alignment
        if tracer is not None:
            self.best_state = tracer.wrap("engine.best_state", engine.best_state)
            self.complete = tracer.wrap("alignment.complete", complete_alignment)
            self.send = tracer.wrap("stream.sink", self.send)
        self.latencies: list[int] = []
        self.costs: list[int] = []
        self.case_ids: list[str] = []
        self.activities: list[str] = []
        self.case_end_costs: list[int] = []
        self.failed = 0

    def send(self, frame) -> None:
        t0 = clock()
        case_id = frame.case_id
        try:
            cost = self.process(case_id, frame.activity, frame.timestamp).best_cost
            left = self.remaining[case_id] - 1
            self.remaining[case_id] = left
            if left == 0:
                best = self.best_state(case_id)
                self.complete(best, self.trie)
                self.case_end_costs.append(best.cost)
        except Exception:  # counted as a failed event; the replay goes on
            self.failed += 1
            _report_error(self.failed, "the replay sink")
            cost = -1
        self.latencies.append(clock() - t0)
        self.costs.append(cost)
        self.case_ids.append(case_id)
        self.activities.append(frame.activity)


def _csv_chunks(case_ids: list[str], activities: list[str]) -> list[str]:
    """The stream as ``case,activity,timestamp`` CSV files of fixed size.

    Timestamps rise one second per event, so a by-timestamp replay keeps
    arrival order.
    """
    chunks = []
    for first in range(0, len(case_ids), CSV_CHUNK_EVENTS):
        lines = ["case,activity,timestamp"]
        for i in range(first, min(first + CSV_CHUNK_EVENTS, len(case_ids))):
            stamp = (_CSV_EPOCH + timedelta(seconds=i)).strftime("%Y-%m-%dT%H:%M:%S")
            lines.append(f"{case_ids[i]},{activities[i]},{stamp}")
        chunks.append("\n".join(lines) + "\n")
    return chunks


def run_csv_conforming(seed: int, seconds: int, trace: bool) -> dict:
    """C7 trie, 0% noise, the stream as CSV through ``parse_event_log`` and ``replay``.

    The run is a series of passes. Each is a fresh engine fed its own
    seeded stream of ``CSV_PASS_EVENTS`` events, so memory is one pass's
    worth however long the run; a traced run makes one pass.
    """
    workload = "csv-conforming"
    tracer = Tracer() if trace else None
    payload, trie, engine, setup = c7_setup(tracer)
    passes = 1 if trace else max(1, round(NOMINAL_EPS[workload] * seconds / CSV_PASS_EVENTS))
    parse = parse_event_log
    run_replay = replay
    if tracer is not None:
        parse = tracer.wrap("events.parse", parse_event_log)
        run_replay = tracer.wrap("stream.replay", replay)

    simulate_s = parse_s = 0.0
    blocks: list[tuple[int, int]] = []
    latencies: list[int] = []
    costs: list[int] = []
    pass_gates = []
    for k in range(passes):
        if k:
            engine = _engine(trie, tracer)
        frames, generate_s = _generate(trie, workload, seed + 7919 * k, CSV_PASS_EVENTS)
        simulate_s += generate_s
        case_ids = [f.case_id for f in frames]
        activities = [f.activity for f in frames]
        del frames
        chunks = _csv_chunks(case_ids, activities)
        sink = CaseEndSink(engine, trie, Counter(case_ids), tracer)
        with installed(tracer) if tracer is not None else nullcontext():
            for text in chunks:
                first = len(sink.costs)
                t0 = clock()
                traces = parse(text)
                parse_s += (clock() - t0) / 1e9
                run_replay(traces, sink, interleave="by-timestamp")
                blocks.append((len(sink.costs) - first, clock() - t0))
                del traces

        gates = _gates(
            trie, payload, engine, seed, sink.case_ids, sink.activities, sink.costs,
            ORACLE_CASES[workload] if k == 0 else (0, 0),
        )
        gates["nonzero_costs"] = sum(1 for c in sink.costs if c != 0) + sum(
            1 for c in sink.case_end_costs if c != 0
        )
        gates["order_mismatches"] = sum(
            1 for a, b in zip(sink.case_ids, case_ids) if a != b
        ) + abs(len(sink.costs) - len(case_ids))
        pass_gates.append(gates)
        latencies.extend(sink.latencies)
        costs.extend(sink.costs)
        del sink, chunks
    rss = peak_rss_mb()

    gates = dict(pass_gates[0])
    for key in ("buffer_bound_violations", "unsound_prefixes", "rerun_mismatches", "nonzero_costs", "order_mismatches", "cases"):
        gates[key] = sum(g[key] for g in pass_gates)
    gates["mean_case_cost"] = sum(g["mean_case_cost"] * g["cases"] for g in pass_gates) / gates["cases"]
    gates["passes"] = passes
    timing = _timing_metrics(latencies, blocks)
    layers = {
        **setup,
        **engine_state_metrics(engine),
        "cli.simulate_s": simulate_s,
        "events.parse_s": parse_s,
        "events.rows_per_s": len(costs) / parse_s if parse_s else 0.0,
    }
    return _result(workload, trie, len(costs), timing, rss, setup, gates, costs, layers, tracer)


def _result(workload, trie, attempted, timing, rss, setup, gates, costs, layers, tracer):
    metrics, samples, timing = timing
    processed = sum(1 for c in costs if c >= 0)
    violations = (
        gates["buffer_bound_violations"]
        + gates["unsound_prefixes"]
        + gates["rerun_mismatches"]
        + gates.get("nonzero_costs", 0)
        + gates.get("order_mismatches", 0)
    )
    layers["oracle.cases_checked"] = gates["oracle_cases"]
    layers["engine.mean_case_cost"] = gates["mean_case_cost"]
    if tracer is not None:
        tracer.dump(RESULTS_DIR / f"{workload}.spans")
        summary = tracer.summary()
        layers.update(engine_layer_metrics(summary, tracer))
        for name, key in (("engine.best_state", "engine.query_s"), ("alignment.complete", "alignment.complete_s")):
            if name in summary:
                layers[key] = summary[name]["ns"] / 1e9
        if "stream.replay" in summary:
            layers["stream.replay_overhead_s"] = (
                summary["stream.replay"]["ns"] - summary["stream.replay"]["child_ns"]
            ) / 1e9
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": (attempted - processed) + violations,
        "metrics": {
            **metrics,
            "setup_s": setup["setup_s"],
            "peak_rss_mb": rss,
            "cost_ratio_vs_oracle": gates["cost_ratio"],
        },
        "samples": samples,
        "layers": layers,
        "gates": gates,
        "details": {
            "events": attempted,
            **timing,
            "cases": gates["cases"],
            "mean_case_cost": gates["mean_case_cost"],
            "cost_digest": cost_digest(costs),
            "trie": trie_shape(trie),
        },
    }
