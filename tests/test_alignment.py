from __future__ import annotations

import pytest

from trie_align import (
    UNKNOWN,
    DecayPolicy,
    Engine,
    EngineConfig,
    Move,
    alignment_pairs,
    complete_alignment,
    model_move,
    render_text,
)

from .reference import (
    InvalidMoveError,
    State,
    alignment_cost,
    is_sync,
    log_move,
    sync_move,
    validate,
    walk,
)


def moves_for(table, pattern: str):
    """Compact move builder: 's:a' sync, 'l:a' log, 'm:a' model."""
    out = []
    for item in pattern.split():
        kind, label = item.split(":")
        code = table.intern(label)
        out.append({"s": sync_move, "l": log_move, "m": model_move}[kind](code))
    return tuple(out)


class TestCost:
    def test_complete_alignment_with_two_async_moves(self, workflow_trie):
        moves = moves_for(workflow_trie.alphabet, "s:a s:b l:b s:c m:e")
        assert alignment_cost(moves) == 2

    def test_prefix_alignment_with_one_async_move(self, workflow_trie):
        moves = moves_for(workflow_trie.alphabet, "s:a s:b l:b s:c")
        assert alignment_cost(moves) == 1

    def test_all_synchronous_costs_zero(self, workflow_trie):
        moves = moves_for(workflow_trie.alphabet, "s:a s:b s:c")
        assert alignment_cost(moves) == 0

    def test_double_skip_is_illegal(self):
        with pytest.raises(InvalidMoveError):
            alignment_cost((Move(None, None),))

    def test_mismatched_pair_is_illegal(self):
        with pytest.raises(InvalidMoveError):
            alignment_cost((Move(0, 1),))

    def test_cost_equals_length_minus_sync_count(self, workflow_trie):
        moves = moves_for(workflow_trie.alphabet, "s:a l:b m:c s:e l:a")
        sync_count = sum(1 for m in moves if is_sync(m))
        assert alignment_cost(moves) == len(moves) - sync_count


class TestCompleteAlignment:
    def _engine(self, trie):
        return Engine(EngineConfig(trie=trie, decay=DecayPolicy(df=0, min_dt=2)))

    def test_extends_with_shortest_completion(self, workflow_trie):
        engine = self._engine(workflow_trie)
        for activity in "abbc":
            engine.process("c1", activity)
        best = engine.best_state("c1")
        result = complete_alignment(best, workflow_trie)
        table = workflow_trie.alphabet
        assert validate(result, [table.code(x) for x in "abbc"], workflow_trie, complete=True)
        assert result == moves_for(table, "s:a s:b l:b s:c m:e")
        assert alignment_cost(result) == 2
        assert alignment_cost(result) == best.cost + workflow_trie.min_to_end[best.node]

    def test_end_node_state_is_unchanged(self, workflow_trie):
        engine = self._engine(workflow_trie)
        for activity in "abce":
            engine.process("c1", activity)
        best = engine.best_state("c1")
        result = complete_alignment(best, workflow_trie)
        assert result == best.moves()
        assert alignment_cost(result) == 0

    def test_midway_state_appends_single_model_move(self, workflow_trie):
        table = workflow_trie.alphabet
        ab = walk(workflow_trie, [table.code("a"), table.code("b")])
        state = State.make(node=ab, moves=moves_for(table, "s:a s:b"), cost=0, decay=1)
        result = complete_alignment(state, workflow_trie)
        assert result[-1] == model_move(table.code("e"))
        assert alignment_cost(result) == 1

    def test_pending_suffix_rejected(self, workflow_trie):
        state = State.make(node=0, moves=(), suffix=[0], cost=0, decay=1)
        with pytest.raises(ValueError):
            complete_alignment(state, workflow_trie)


class TestValidate:
    def test_engine_prefix_alignment_validates(self, workflow_trie):
        table = workflow_trie.alphabet
        observed = [table.code(x) for x in "abbc"]
        alignment = moves_for(table, "s:a s:b l:b s:c")
        assert validate(alignment, observed, workflow_trie)

    def test_log_projection_mismatch(self, workflow_trie):
        table = workflow_trie.alphabet
        alignment = moves_for(table, "s:a s:b")
        assert not validate(alignment, [table.code("a")], workflow_trie)

    def test_model_projection_must_be_a_path(self, workflow_trie):
        table = workflow_trie.alphabet
        z = table.intern("z")
        alignment = (sync_move(table.code("a")), model_move(z))
        assert not validate(alignment, [table.code("a")], workflow_trie)

    def test_complete_must_end_at_end_node(self, workflow_trie):
        table = workflow_trie.alphabet
        observed = [table.code("a")]
        prefix_only = moves_for(table, "s:a")
        assert not validate(prefix_only, observed, workflow_trie, complete=True)
        full = moves_for(table, "s:a m:b m:e")
        assert validate(full, observed, workflow_trie, complete=True)

    def test_illegal_move_fails_validation(self, workflow_trie):
        alignment = (Move(None, None),)
        assert not validate(alignment, [], workflow_trie)


class TestRendering:
    def test_two_row_text(self, workflow_trie):
        table = workflow_trie.alphabet
        alignment = moves_for(table, "s:a s:b l:b s:c m:e")
        text = render_text(alignment, "abbc", table.label)
        trace_row, model_row = text.splitlines()
        assert trace_row == "trace | a b b  c >>"
        assert model_row == "model | a b >> c e"

    def test_json_pairs(self, workflow_trie):
        table = workflow_trie.alphabet
        alignment = moves_for(table, "s:a l:b") + (log_move(UNKNOWN),)
        assert alignment_pairs(alignment, ["a", "b", "zz"], table.label) == [
            {"log": "a", "model": "a"},
            {"log": "b", "model": None},
            {"log": "zz", "model": None},
        ]

    def test_observed_labels_must_pair_with_log_moves(self, workflow_trie):
        table = workflow_trie.alphabet
        alignment = moves_for(table, "s:a l:b")
        for observed in ("a", "abc"):
            with pytest.raises(ValueError):
                alignment_pairs(alignment, observed, table.label)
