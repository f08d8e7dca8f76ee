"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Numbered for stable ordering; every tolerance is pinned in the test body.
"""

from __future__ import annotations

import os
import random
import time
from statistics import median

from trie_align import (
    DecayPolicy,
    Engine,
    EngineConfig,
    build_trie,
    complete_alignment,
    decay_time,
    expand_model_moves,
    optimal_prefix_costs,
)
from trie_align.cli import simulate_stream
from trie_align.events import ProxyLog

from .conftest import labelize_moves, snapshot_case
from .reference import State, exhaustive_prefix, sync_move, walk


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _audit_buffer_bounds(engine) -> int:
    """Buffer-bound violations across every case the engine has seen."""
    limit_factor = engine.trie.max_branching + 1
    violations = 0
    for case_id in engine.case_ids():
        stats = engine.case_stats(case_id)
        if stats.peak_states > limit_factor * stats.max_decay_issued:
            violations += 1
        if any(s.decay < 1 for s in engine.states(case_id)):
            violations += 1
    return violations


def _generated_proxy(n_traces: int, alphabet_size: int, min_len: int, max_len: int, seed: int):
    rng = random.Random(seed)
    alphabet = [f"act{i:02d}" for i in range(alphabet_size)]
    traces = tuple(
        tuple(rng.choice(alphabet) for _ in range(rng.randrange(min_len, max_len + 1)))
        for _ in range(n_traces)
    )
    return ProxyLog(traces)


def test_c1_state_buffer_evolution_fixture(workflow_trie):
    """Duplicated-activity trace reproduces the pinned buffer evolution exactly."""
    started = time.perf_counter()
    engine = Engine(EngineConfig(trie=workflow_trie, decay=DecayPolicy(df=0, min_dt=2)))
    case = "fixture"

    expected = {
        "a": [
            (0, "", [], ["a"], 0, 2),
            (1, "a", [("a", "a")], [], 0, 2),
        ],
        "b1": [
            (0, "", [], ["a", "b"], 0, 1),
            (1, "a", [("a", "a")], ["b"], 0, 1),
            (2, "ab", [("a", "a"), ("b", "b")], [], 0, 2),
        ],
        "b2": [
            (2, "ab", [("a", "a"), ("b", "b")], ["b"], 0, 1),
            (3, "ab", [("a", "a"), ("b", "b"), ("b", None)], [], 1, 2),
            (4, "abdb", [("a", "a"), ("b", "b"), (None, "d"), ("b", "b")], [], 1, 2),
        ],
        "c": [
            (3, "ab", [("a", "a"), ("b", "b"), ("b", None)], ["c"], 1, 1),
            (4, "abdb", [("a", "a"), ("b", "b"), (None, "d"), ("b", "b")], ["c"], 1, 1),
            (5, "abc", [("a", "a"), ("b", "b"), ("b", None), ("c", "c")], [], 1, 2),
            (6, "abdbc", [("a", "a"), ("b", "b"), (None, "d"), ("b", "b"), ("c", "c")], [], 1, 2),
        ],
    }

    ok = True
    for key, activity in (("a", "a"), ("b1", "b"), ("b2", "b"), ("c", "c")):
        engine.process(case, activity)
        ok = ok and snapshot_case(engine, workflow_trie, case) == expected[key]
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _report("C1 state-buffer evolution fixture", ok, f"{elapsed * 1000:.1f} ms")


def test_c2_prefix_and_complete_alignment_fixture(workflow_trie):
    """Best prefix cost 1 with a pinned alignment; completion costs 2."""
    engine = Engine(EngineConfig(trie=workflow_trie, decay=DecayPolicy(df=0, min_dt=2)))
    for activity in "abbc":
        engine.process("fixture", activity)
    best = engine.best_state("fixture")
    moves = labelize_moves(workflow_trie, best.moves())
    optimal_prefixes = (
        [("a", "a"), ("b", "b"), ("b", None), ("c", "c")],
        [("a", "a"), ("b", "b"), (None, "d"), ("b", "b"), ("c", "c")],
    )
    full = complete_alignment(best, workflow_trie)
    full_moves = labelize_moves(workflow_trie, full)
    ok = (
        best.cost == 1
        and moves in optimal_prefixes
        and full_moves == [("a", "a"), ("b", "b"), ("b", None), ("c", "c"), (None, "e")]
        and best.cost + workflow_trie.min_to_end[best.node] == 2
    )
    _report("C2 prefix/complete alignment fixture", ok, f"prefix={moves}")


def test_c3_discounted_decay_fixture():
    """Pinned worked values of the discounted decay formula."""
    policy = DecayPolicy(df=0.3, min_dt=3)
    values = (decay_time(100, 1, policy), decay_time(100, 50, policy), decay_time(100, 90, policy))
    ok = values == (30, 15, 3)
    _report("C3 discounted decay worked values", ok, f"{values}")


def test_c4_suffix_pruning_fixture(forked_trie):
    """Pending c,x,y,z under node b prunes c and lands on the deep tail."""
    table = forked_trie.alphabet
    node_b = walk(forked_trie, [table.code("b")])
    state = State.make(
        node=node_b,
        moves=(sync_move(table.code("b")),),
        suffix=[table.code("c"), table.code("x"), table.code("y")],
        cost=0,
        decay=3,
    )
    out = expand_model_moves(forked_trie, state, table.code("z"), decay=3)
    ok = (
        len(out) == 1
        and out[0].cost == 2
        and labelize_moves(forked_trie, out[0].moves())
        == [("b", "b"), ("c", None), (None, "q"), ("x", "x"), ("y", "y"), ("z", "z")]
    )
    _report("C4 suffix-pruning fixture", ok)


def test_c5_c6_oracle_soundness_and_buffer_bound(workflow_trie):
    """1,000 seeded traces: engine cost dominates the oracle on every prefix,
    enumeration agrees with the DP on short traces, conforming paths cost
    zero, and the per-case buffer bound holds throughout."""
    started = time.perf_counter()
    rng = random.Random(20240809)
    table = workflow_trie.alphabet
    symbols = [table.intern(x) for x in "abcde"] + [table.intern("f"), table.intern("g")]
    max_depth = max(workflow_trie.levels)

    soundness_violations = 0
    enumeration_mismatches = 0
    bound_violations = 0
    checked_enum = 0

    policies = [DecayPolicy(df=0, min_dt=2), DecayPolicy()]
    for index in range(1000):
        trace = [rng.choice(symbols) for _ in range(rng.randrange(1, 13))]
        oracle_costs = optimal_prefix_costs(trace, workflow_trie)
        engine = Engine(EngineConfig(trie=workflow_trie, decay=policies[index % 2]))
        for position, code in enumerate(trace, start=1):
            engine.process("c", code)
            if engine.conformance_cost("c") < oracle_costs[position]:
                soundness_violations += 1
        bound_violations += _audit_buffer_bounds(engine)
        if len(trace) <= 6:
            checked_enum += 1
            enum_cost = exhaustive_prefix(trace, workflow_trie, len(trace) + max_depth)
            if enum_cost != oracle_costs[-1]:
                enumeration_mismatches += 1

    conforming_failures = 0
    for end in workflow_trie.end_node_ids():
        path = workflow_trie.node_path_codes(end)
        for policy in policies:
            engine = Engine(EngineConfig(trie=workflow_trie, decay=policy))
            for code in path:
                engine.process("c", code)
            if engine.conformance_cost("c") != 0:
                conforming_failures += 1
            bound_violations += _audit_buffer_bounds(engine)

    elapsed = time.perf_counter() - started
    ok_soundness = (
        soundness_violations == 0
        and enumeration_mismatches == 0
        and conforming_failures == 0
        and elapsed < 60.0
    )
    _report(
        "C5 oracle soundness fuzz",
        ok_soundness,
        f"1000 traces, {checked_enum} enumeration cross-checks, {elapsed:.1f} s",
    )
    _report("C6 buffer bound during fuzz", bound_violations == 0, f"{bound_violations} violations")


def test_c7_throughput_on_large_trie():
    """Unthrottled noisy replay on a 50k+ node trie stays under the latency budget."""
    proxy = _generated_proxy(n_traces=2600, alphabet_size=24, min_len=18, max_len=30, seed=7)
    trie = build_trie(proxy)
    assert trie.node_count >= 50_000, f"generated trie too small: {trie.node_count}"

    engine = Engine(EngineConfig(trie=trie))
    target_events = 52_000
    latencies = []
    for frame in simulate_stream(
        trie, noise_level=0.10, seed=11, max_events=target_events, duration=None
    ):
        started = time.perf_counter_ns()
        engine.process(frame.case_id, frame.activity, frame.timestamp)
        latencies.append((time.perf_counter_ns() - started) / 1000.0)

    count = len(latencies)
    mean_micros = sum(latencies) / len(latencies)
    p50_micros = median(latencies)
    bound_violations = _audit_buffer_bounds(engine)

    detail = (
        f"{count} events, trie {trie.node_count} nodes, "
        f"mean {mean_micros / 1000:.3f} ms, p50 {p50_micros / 1000:.3f} ms"
    )
    within_budget = mean_micros < 2500.0 and p50_micros < 1000.0
    if not within_budget and os.environ.get("TRIE_ALIGN_PERF_WARN_ONLY"):
        print(f"[WARN] C7 throughput budget missed on this machine ({detail})")
        within_budget = True
    ok = count >= 50_000 and within_budget and bound_violations == 0
    _report("C7 throughput on large trie", ok, detail)


def test_c8_soak_noise_sweep():
    """Noise 0/5/10% soak: clean completion, sub-linear state growth once
    eviction kicks in, and bit-identical seeded cost streams."""
    proxy = _generated_proxy(n_traces=600, alphabet_size=12, min_len=8, max_len=20, seed=3)
    trie = build_trie(proxy)
    events_per_level = 25_000

    ok = True
    details = []
    for noise in (0.0, 0.05, 0.10):

        def run_once() -> tuple[list[int], list[int], int]:
            engine = Engine(EngineConfig(trie=trie))
            costs: list[int] = []
            high_water: list[int] = []
            for frame in simulate_stream(
                trie, noise_level=noise, seed=29, max_events=events_per_level, duration=None
            ):
                costs.append(engine.process(frame.case_id, frame.activity, frame.timestamp).best_cost)
                high_water.append(engine.peak_total_states)
            assert _audit_buffer_bounds(engine) == 0
            return costs, high_water, engine.states_created

        costs_a, high_water, created = run_once()
        costs_b, _, _ = run_once()
        reproducible = costs_a == costs_b

        # Sub-linear growth once eviction kicks in: the high-water gains
        # strictly less over the second half than over the first, and the
        # resident peak stays well below the never-evict total.
        half = high_water[len(high_water) // 2]
        full = high_water[-1]
        decelerating = (full - half) < half
        evicting = full <= 0.6 * created
        ok = (
            ok
            and reproducible
            and decelerating
            and evicting
            and len(costs_a) == events_per_level
        )
        details.append(
            f"noise {noise:.0%}: peak {full} (half {half}, created {created}), "
            f"reproducible={reproducible}"
        )

    _report("C8 soak across noise levels", ok, "; ".join(details))
