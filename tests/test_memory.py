"""Memory budgets on a seeded trie, stream and log: tracemalloc bytes and GC-tracked objects.

Each ceiling sits between the figures of an older layout and the
current one, measured on Python 3.11: a trie with one private child map
of absolute ids per node (309 B per node here) against shared
child-offset maps (111 B; 115 B with the search index's per-bucket
parent-label strings); a trie whose construction sorted one list of
int objects per pair bucket and filled a by-position parent-label array
(a peak of 162 B per node) against one preorder sweep that appends to
the buckets' arrays and strings (129 B); an alignment link holding a
move tuple of its own (196 B per event) against a ``(prev, move)`` pair
pointing at a shared move (134 B, 1.70 GC-tracked objects per event),
and that pair against one prev index in its case's ``array("q")`` and
one move reference in its case's list (114 B, 0.69 tracked objects per
event);
and a parsed log with two new strings per row (280 B per row) against
one shared string per distinct case id and label (177 B), and
frozen-dataclass events (177 B) against named-tuple ones (153 B). Other
interpreters size objects differently.
"""

from __future__ import annotations

import gc
import pickle
import random
import tracemalloc

import pytest

from trie_align import (
    ActivityTable,
    DecayPolicy,
    Engine,
    EngineConfig,
    Event,
    Trie,
    parse_event_log,
    serialize_event_log,
)
from trie_align.cli import simulate_stream

from .conftest import WORKFLOW_TRACES
from .test_engine import POLICIES

TRIE_BYTES_PER_NODE = 200
TRIE_CONSTRUCTION_PEAK_PER_NODE = 145
ENGINE_BYTES_PER_EVENT = 125
ENGINE_TRACKED_OBJECTS_PER_EVENT = 1.2
PARSED_BYTES_PER_ROW = 165


def traced(build):
    """What ``build()`` returns and the bytes it leaves allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        out = build()
        gc.collect()
        used = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return out, used


def peak_of(build) -> int:
    """The most bytes allocated at once while ``build()`` runs, what it returns included."""
    gc.collect()
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def fixture_paths() -> tuple[list[list[int]], ActivityTable]:
    # 400 traces of 4-20 activities over 12 labels: 4,348 nodes, mostly chains.
    rng = random.Random(3)
    paths = [[rng.randrange(12) for _ in range(rng.randrange(4, 21))] for _ in range(400)]
    return paths, ActivityTable([f"a{i}" for i in range(12)])


@pytest.fixture(scope="module")
def trie_and_bytes():
    paths, alphabet = fixture_paths()
    return traced(lambda: Trie(paths, alphabet))


def test_trie_bytes_per_node(trie_and_bytes):
    trie, used = trie_and_bytes
    assert trie.node_count == 4348
    assert used / trie.node_count < TRIE_BYTES_PER_NODE


def test_trie_construction_peak_per_node():
    paths, alphabet = fixture_paths()
    peak = peak_of(lambda: Trie(paths, alphabet))
    assert peak / 4348 < TRIE_CONSTRUCTION_PEAK_PER_NODE


def test_engine_bytes_per_event(trie_and_bytes):
    trie, _ = trie_and_bytes
    events = list(simulate_stream(trie, 0.1, seed=1, max_events=20_000, duration=None))

    def run():
        engine = Engine(EngineConfig(trie=trie, decay=DecayPolicy()))
        for event in events:
            engine.process(event.case_id, event.activity)
        return engine

    _, used = traced(run)
    assert used / len(events) < ENGINE_BYTES_PER_EVENT


def test_engine_tracked_objects_per_event(trie_and_bytes):
    # What the garbage collector walks on every full collection.
    trie, _ = trie_and_bytes
    events = list(simulate_stream(trie, 0.1, seed=1, max_events=20_000, duration=None))
    gc.collect()
    before = len(gc.get_objects())
    engine = Engine(EngineConfig(trie=trie, decay=DecayPolicy()))
    for event in events:
        engine.process(event.case_id, event.activity)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    assert tracked / len(events) < ENGINE_TRACKED_OBJECTS_PER_EVENT


def test_parsed_log_bytes_per_row(trie_and_bytes):
    # 20,000 rows over 1,619 cases, one distinct timestamp per row.
    trie, _ = trie_and_bytes
    events = simulate_stream(trie, 0.1, seed=1, max_events=20_000, duration=None)
    stamped = [
        Event(e.case_id, e.activity, f"2022-08-01T{i // 3600:02d}:{i // 60 % 60:02d}:{i % 60:02d}")
        for i, e in enumerate(events)
    ]
    parsed, used = traced(lambda: parse_event_log(serialize_event_log(stamped)))
    assert len(parsed) == 20_000
    assert len({e.case_id for e in parsed}) == 1619
    assert used / len(parsed) < PARSED_BYTES_PER_ROW


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_a_long_case_holds_a_few_codes(workflow_trie, policy_name):
    # 20,000 events of one case: whole model traces between bursts of noise.
    rng = random.Random(5)
    activities: list[str] = []
    while len(activities) < 20_000:
        if rng.random() < 0.3:
            activities += rng.choices("abcdexy", k=rng.randrange(1, 4))
        else:
            activities += rng.choice(WORKFLOW_TRACES)
    engine = Engine(EngineConfig(trie=workflow_trie, decay=POLICIES[policy_name]))
    held = offset = 0
    for activity in activities:
        engine.process("c", activity)
        entry = engine._buffer["c"]
        held = max(held, len(entry.codes))
        # No stored suffix outgrows the depth, so a drop is never empty.
        step, offset = entry.offset - offset, entry.offset
        assert step == 0 or step >= workflow_trie.depth + 2
    assert engine.case_stats("c").events_seen == len(activities)
    assert held <= 2 * (workflow_trie.depth + 1)


def test_a_long_case_round_trips_through_pickle(workflow_trie):
    """A 6,000-event case pickles, and the restored engine runs on as the original.

    Pickling walks an alignment's links to a depth that does not grow
    with the case. This checks the engine's state only: pickle is no
    snapshot format, and unpickling an untrusted file can run arbitrary
    code.
    """
    # The mixed noise of test_a_long_case_holds_a_few_codes, one case.
    rng = random.Random(5)
    activities: list[str] = []
    while len(activities) < 7_000:
        if rng.random() < 0.3:
            activities += rng.choices("abcdexy", k=rng.randrange(1, 4))
        else:
            activities += rng.choice(WORKFLOW_TRACES)
    engine = Engine(EngineConfig(trie=workflow_trie, decay=DecayPolicy()))
    for activity in activities[:6_000]:
        engine.process("c", activity)
    restored = pickle.loads(pickle.dumps(engine))
    for activity in activities[6_000:]:
        outcomes = []
        for e in (restored, engine):
            result = e.process("c", activity)
            outcomes.append((result.best_cost, result.sync, e.best_state("c").moves()))
        assert outcomes[0] == outcomes[1]
