from __future__ import annotations

import pytest

from trie_align import (
    DecayPolicy,
    Engine,
    EngineConfig,
    UnknownCaseError,
    decay_time,
    expand_model_moves,
    sync_move,
)
from trie_align.engine import State

from .conftest import labelize_moves, snapshot_case


def fixed_engine(trie, value=2):
    return Engine(EngineConfig(trie=trie, decay=DecayPolicy.fixed(value)))


class TestDecayTime:
    def test_discounted_worked_values(self):
        policy = DecayPolicy.discounted(df=0.3, min_dt=3)
        assert decay_time(100, 1, policy) == 30
        assert decay_time(100, 50, policy) == 15
        assert decay_time(100, 90, policy) == 3

    def test_floor_covers_old_cases(self):
        policy = DecayPolicy.discounted(df=0.3, min_dt=3)
        assert decay_time(100, 500, policy) == 3

    def test_fixed_ignores_index(self):
        policy = DecayPolicy.fixed(2)
        assert [decay_time(100, i, policy) for i in (0, 1, 99)] == [2, 2, 2]

    def test_result_is_at_least_one(self):
        policy = DecayPolicy.discounted(df=0.001, min_dt=1)
        assert decay_time(5, 4, policy) == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DecayPolicy.fixed(0)
        with pytest.raises(ValueError):
            DecayPolicy(df=-1.0)
        with pytest.raises(ValueError):
            DecayPolicy(df=float("nan"))


class TestStateBufferEvolution:
    """Pinned walkthrough of the duplicated-activity trace a,b,b,c."""

    def test_full_evolution_with_fixed_decay_two(self, workflow_trie):
        engine = fixed_engine(workflow_trie)
        case = "case-1"

        engine.process(case, "a")
        assert snapshot_case(engine, workflow_trie, case) == [
            (0, "", [], ["a"], 0, 2),
            (1, "a", [("a", "a")], [], 0, 2),
        ]

        engine.process(case, "b")
        assert snapshot_case(engine, workflow_trie, case) == [
            (0, "", [], ["a", "b"], 0, 1),
            (1, "a", [("a", "a")], ["b"], 0, 1),
            (2, "ab", [("a", "a"), ("b", "b")], [], 0, 2),
        ]

        # Second b: states 0 and 1 expire before any moves are generated;
        # the survivor spawns one log-move and one model-move state.
        engine.process(case, "b")
        assert snapshot_case(engine, workflow_trie, case) == [
            (2, "ab", [("a", "a"), ("b", "b")], ["b"], 0, 1),
            (3, "ab", [("a", "a"), ("b", "b"), ("b", None)], [], 1, 2),
            (4, "abdb", [("a", "a"), ("b", "b"), (None, "d"), ("b", "b")], [], 1, 2),
        ]

        # c: state 2 expires; both survivors extend synchronously.
        engine.process(case, "c")
        assert snapshot_case(engine, workflow_trie, case) == [
            (3, "ab", [("a", "a"), ("b", "b"), ("b", None)], ["c"], 1, 1),
            (4, "abdb", [("a", "a"), ("b", "b"), (None, "d"), ("b", "b")], ["c"], 1, 1),
            (5, "abc", [("a", "a"), ("b", "b"), ("b", None), ("c", "c")], [], 1, 2),
            (
                6,
                "abdbc",
                [("a", "a"), ("b", "b"), (None, "d"), ("b", "b"), ("c", "c")],
                [],
                1,
                2,
            ),
        ]

    def test_sync_branch_flags(self, workflow_trie):
        engine = fixed_engine(workflow_trie)
        assert engine.process("c", "a").sync
        assert engine.process("c", "b").sync
        assert not engine.process("c", "b").sync
        assert engine.process("c", "c").sync


class TestModelMoves:
    def test_lookahead_finds_deeper_duplicate(self, workflow_trie):
        # From node ab a second b only matches two levels down, at the b
        # under abd; the look-ahead budget (pending + 1 levels) allows it.
        table = workflow_trie.alphabet
        ab = workflow_trie.walk([table.code("a"), table.code("b")])
        state = State.make(
            node=ab,
            moves=(sync_move(table.code("a")), sync_move(table.code("b"))),
            cost=0,
            decay=2,
            state_id=2,
        )
        out = expand_model_moves(workflow_trie, state, table.code("b"), decay=2)
        assert len(out) == 1
        assert labelize_moves(workflow_trie, out[0].moves()) == [
            ("a", "a"),
            ("b", "b"),
            (None, "d"),
            ("b", "b"),
        ]
        assert out[0].cost == 1
        assert "".join(workflow_trie.node_path_labels(out[0].node)) == "abdb"

    def test_suffix_pruning_recovers_deeper_match(self, forked_trie):
        # Pending c,x,y,z below node b: no full match exists, but dropping
        # c exposes the x,y,z tail one model move below.
        table = forked_trie.alphabet
        node_b = forked_trie.walk([table.code("b")])
        state = State.make(
            node=node_b,
            moves=(sync_move(table.code("b")),),
            suffix=[table.code("c"), table.code("x"), table.code("y")],
            cost=0,
            decay=3,
        )
        out = expand_model_moves(forked_trie, state, table.code("z"), decay=3)
        assert len(out) == 1
        assert labelize_moves(forked_trie, out[0].moves()) == [
            ("b", "b"),
            ("c", None),
            (None, "q"),
            ("x", "x"),
            ("y", "y"),
            ("z", "z"),
        ]
        assert out[0].cost == 2

    def test_leaf_state_has_no_model_moves(self, workflow_trie):
        table = workflow_trie.alphabet
        leaf = workflow_trie.walk([table.code(x) for x in "abce"])
        state = State.make(node=leaf, moves=(), cost=0, decay=1)
        assert expand_model_moves(workflow_trie, state, table.code("a"), decay=1) == []

    def test_engine_reaches_pruned_alignment(self, forked_trie):
        # End to end: with a decay window long enough to keep the b-state
        # alive, the pruned match is the cheapest state after z.
        engine = fixed_engine(forked_trie, value=5)
        for activity in ["b", "c", "x", "y", "z"]:
            engine.process("case", activity)
        best = engine.best_state("case")
        assert best.cost == 2
        assert labelize_moves(forked_trie, best.moves()) == [
            ("b", "b"),
            ("c", None),
            (None, "q"),
            ("x", "x"),
            ("y", "y"),
            ("z", "z"),
        ]


class TestQueries:
    def test_best_state_after_one_event(self, workflow_trie):
        engine = fixed_engine(workflow_trie)
        engine.process("c1", "a")
        best = engine.best_state("c1")
        assert best.cost == 0
        assert labelize_moves(workflow_trie, best.moves()) == [("a", "a")]

    def test_best_state_after_duplicate_b_trace(self, workflow_trie):
        engine = fixed_engine(workflow_trie)
        for activity in "abbc":
            engine.process("c1", activity)
        best = engine.best_state("c1")
        assert best.cost == 1
        # One of the two equally cheap prefix alignments; the shorter wins.
        assert labelize_moves(workflow_trie, best.moves()) == [
            ("a", "a"),
            ("b", "b"),
            ("b", None),
            ("c", "c"),
        ]

    def test_unknown_case_raises(self, workflow_trie):
        engine = fixed_engine(workflow_trie)
        with pytest.raises(UnknownCaseError):
            engine.best_state("zzz")
        with pytest.raises(UnknownCaseError):
            engine.conformance_cost("zzz")

    def test_conforming_trace_costs_zero(self, workflow_trie):
        engine = fixed_engine(workflow_trie)
        for activity in "abce":
            engine.process("c1", activity)
        assert engine.conformance_cost("c1") == 0

    def test_unknown_activity_costs_one_log_move(self, workflow_trie):
        engine = fixed_engine(workflow_trie)
        engine.process("c1", "z")
        assert engine.conformance_cost("c1") == 1

    def test_duplicate_b_costs_one(self, workflow_trie):
        engine = fixed_engine(workflow_trie)
        for activity in "abbc":
            engine.process("c1", activity)
        assert engine.conformance_cost("c1") == 1


class TestBufferStats:
    def test_empty_buffer(self, workflow_trie):
        stats = fixed_engine(workflow_trie).buffer_stats()
        assert (stats.cases, stats.total_states, stats.max_states_per_case) == (0, 0, 0)

    def test_after_duplicate_b_trace(self, workflow_trie):
        engine = fixed_engine(workflow_trie)
        for activity in "abbc":
            engine.process("c1", activity)
        assert engine.buffer_stats().max_states_per_case == 4

    def test_two_independent_cases(self, workflow_trie):
        engine = fixed_engine(workflow_trie)
        engine.process("c1", "a")
        engine.process("c2", "a")
        stats = engine.buffer_stats()
        assert (stats.cases, stats.total_states, stats.max_states_per_case) == (2, 4, 2)


class TestDecaySafetyAndRescue:
    def test_stored_states_always_have_positive_decay(self, workflow_trie):
        engine = fixed_engine(workflow_trie)
        for activity in "abbcez":
            engine.process("c1", activity)
            assert all(s.decay >= 1 for s in engine.states("c1"))

    def test_decay_one_never_empties_a_case(self, workflow_trie):
        engine = fixed_engine(workflow_trie, value=1)
        for activity in "abbce":
            engine.process("c1", activity)
            states = engine.states("c1")
            assert states
            assert any(not s.suffix for s in states)

    def test_rescued_case_keeps_alignment_history(self, workflow_trie):
        engine = fixed_engine(workflow_trie, value=1)
        for activity in "ab":
            engine.process("c1", activity)
        best = engine.best_state("c1")
        assert best.cost == 0
        assert labelize_moves(workflow_trie, best.moves()) == [("a", "a"), ("b", "b")]


class TestDeterminismAndEmission:
    def test_identical_streams_build_identical_buffers(self, workflow_trie, workflow_proxy):
        runs = []
        for _ in range(2):
            engine = fixed_engine(workflow_trie)
            for i, seq in enumerate(workflow_proxy.traces):
                for activity in seq:
                    engine.process(f"case-{i % 3}", activity)
            runs.append(
                {
                    case: snapshot_case(engine, workflow_trie, case)
                    for case in engine.case_ids()
                }
            )
        assert runs[0] == runs[1]

    def test_record_shape(self, workflow_trie):
        engine = fixed_engine(workflow_trie)
        result = engine.process("c1", "a")
        record = result.to_record(workflow_trie.alphabet.label)
        assert list(record) == [
            "case_id",
            "event_seq",
            "activity",
            "best_cost",
            "states_in_case",
            "processing_micros",
        ]
        assert record["case_id"] == "c1"
        assert record["event_seq"] == 1
        assert record["activity"] == "a"
        assert record["best_cost"] == 0
        assert record["states_in_case"] == 2
        assert record["processing_micros"] >= 0


class TestDiscountedDefaults:
    def test_conforming_traces_still_cost_zero(self, workflow_trie, workflow_proxy):
        engine = Engine(EngineConfig(trie=workflow_trie))
        for i, seq in enumerate(workflow_proxy.traces):
            case = f"case-{i}"
            for activity in seq:
                engine.process(case, activity)
            assert engine.conformance_cost(case) == 0

    def test_new_case_uses_index_zero_decay(self, workflow_trie):
        engine = Engine(EngineConfig(trie=workflow_trie))
        engine.process("c1", "a")
        root_state = engine.states("c1")[0]
        # avg leaf depth 5.0 at i=0: round(5.0 * 0.3) = 2, floored to min 3.
        assert root_state.decay == 3
