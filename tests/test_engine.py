from __future__ import annotations

import hashlib
import itertools
import random
import time

import pytest

from trie_align import (
    UNKNOWN,
    DecayPolicy,
    Engine,
    EngineConfig,
    Move,
    ProcessResult,
    UnknownCaseError,
    build_trie,
    complete_alignment,
    decay_time,
    expand_model_moves,
    parse_proxy_log,
    serialize_trie,
)
from trie_align import engine as engine_module
from trie_align.alignment import MOVES
from trie_align.cli import simulate_stream
from trie_align.trie import ROOT, Trie

from . import test_trie
from .conftest import WORKFLOW_TRACES, labelize_moves, snapshot_case
from .reference import State, child, log_move, node_path_labels, sync_move, walk
from .test_properties import reference_expand, search_view


def state_view(s):
    return (s.state_id, s.node, s.cost, s.decay, s.parent_id, s.moves_len, s.moves(), s.suffix)


def fixed_engine(trie, value=2):
    return Engine(EngineConfig(trie=trie, decay=DecayPolicy(df=0, min_dt=value)))


def seeded_random_trie():
    """A 40-trace trie over six activities, the same on every call."""
    rng = random.Random(11)
    traces = "\n".join(
        ",".join(rng.choice("abcdef") for _ in range(rng.randrange(2, 9))) for _ in range(40)
    )
    return build_trie(parse_proxy_log(traces + "\n"))


POLICIES = {
    "default": DecayPolicy(),
    "fixed1": DecayPolicy(df=0, min_dt=1),
    "discounted5": DecayPolicy(df=5, min_dt=3),
}


class TestDecayTime:
    def test_discounted_worked_values(self):
        policy = DecayPolicy(df=0.3, min_dt=3)
        assert decay_time(100, 1, policy) == 30
        assert decay_time(100, 50, policy) == 15
        assert decay_time(100, 90, policy) == 3

    def test_floor_covers_old_cases(self):
        policy = DecayPolicy(df=0.3, min_dt=3)
        assert decay_time(100, 500, policy) == 3

    def test_fixed_ignores_index(self):
        policy = DecayPolicy(df=0, min_dt=2)
        assert [decay_time(100, i, policy) for i in (0, 1, 99)] == [2, 2, 2]

    def test_result_is_at_least_one(self):
        policy = DecayPolicy(df=0.001, min_dt=1)
        assert decay_time(5, 4, policy) == 1

    def test_overflow_below_the_floor_is_the_floor(self):
        # (5 - 200) * 1e307 is -inf: an old case on a huge df gets min_dt.
        assert decay_time(5.0, 200, DecayPolicy(df=1e307, min_dt=3)) == 3
        with pytest.raises(OverflowError):
            decay_time(5.0, 0, DecayPolicy(df=1e308))

    def test_engine_rejects_a_df_whose_root_decay_is_infinite(self, workflow_trie):
        with pytest.raises(ValueError, match="df"):
            Engine(EngineConfig(trie=workflow_trie, decay=DecayPolicy(df=1e308)))

    def test_huge_finite_decay_survives_a_long_case(self, workflow_trie):
        engine = Engine(EngineConfig(trie=workflow_trie, decay=DecayPolicy(df=1e307)))
        for _ in range(100):
            engine.process("c", "a")
        assert engine.case_stats("c").events_seen == 100

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DecayPolicy(df=0, min_dt=0)
        with pytest.raises(ValueError):
            DecayPolicy(df=-1.0)
        with pytest.raises(ValueError):
            DecayPolicy(df=float("nan"))
        with pytest.raises(ValueError):
            DecayPolicy(df=0, min_dt=2.5)
        with pytest.raises(ValueError):
            DecayPolicy(df=0, min_dt=True)


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
        ab = walk(workflow_trie, [table.code("a"), table.code("b")])
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
        assert "".join(node_path_labels(workflow_trie, out[0].node)) == "abdb"

    def test_suffix_pruning_recovers_deeper_match(self, forked_trie):
        # Pending c,x,y,z below node b: no full match exists, but dropping
        # c exposes the x,y,z tail one model move below.
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
        leaf = walk(workflow_trie, [table.code(x) for x in "abce"])
        state = State.make(node=leaf, moves=(), cost=0, decay=1)
        assert expand_model_moves(workflow_trie, state, table.code("a"), decay=1) == []

    def test_path_match_only_probes_nodes_that_continue_the_pending_pair(self, workflow_trie):
        # One pending event is matched by child lookups alone; with more,
        # every probe starts at a node that has a child labeled with the
        # second pending event, so no probe fails at its first child step.
        trie = workflow_trie
        alphabet = range(len(trie.alphabet) + 1)  # the last code is in no node
        probes: list[tuple[int, tuple[int, ...]]] = []
        original = Trie.path_match

        def counting_path_match(self, start_id, seq):
            probes.append((start_id, tuple(seq)))
            return original(self, start_id, seq)

        Trie.path_match = counting_path_match
        try:
            for node in range(trie.node_count):
                for code in alphabet:
                    state = State.make(node=node, moves=(), decay=2)
                    expand_model_moves(trie, state, code, decay=2)
            assert probes == []
            for node in range(trie.node_count):
                for pending in itertools.chain(
                    itertools.product(alphabet, repeat=2), itertools.product(alphabet, repeat=3)
                ):
                    state = State.make(node=node, moves=(), suffix=pending[:-1], decay=2)
                    expand_model_moves(trie, state, pending[-1], decay=2)
        finally:
            Trie.path_match = original
        assert probes
        for start, seq in probes:
            assert len(seq) >= 2 and child(trie, start, seq[1]) is not None

    def test_a_suffix_deeper_than_the_trie_costs_no_more_probes(self, workflow_trie, monkeypatch):
        # The workflow trie is 6 levels deep, so from the root at most 6
        # pending events can match; the older ones are dropped in one step
        # and a longer suffix makes the same probes, with the level walk's result.
        trie = workflow_trie
        a, b = trie.alphabet.code("a"), trie.alphabet.code("b")
        calls = []
        original = Trie.starts_at

        def counting_starts_at(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(Trie, "starts_at", counting_starts_at)
        counts = []
        for k in (7, 20, 100):
            state = State.make(node=ROOT, moves=(), suffix=[a] * k, decay=2)
            calls.clear()
            got = expand_model_moves(trie, state, b, decay=2)
            counts.append(len(calls))
            expected = reference_expand(trie, state, b, decay=2)
            assert [(s.node, s.cost, s.moves()) for s in got] == [
                (s.node, s.cost, s.moves()) for s in expected
            ]
        assert counts[0] > 0 and counts == [counts[0]] * 3

    def test_one_index_probe_per_multi_event_search(self, workflow_trie, monkeypatch):
        # Every drop round's match ends in the newest two pending events, so
        # a search with two or more of them makes exactly one starts_at call,
        # whatever it finds and however many rounds it runs; a search with
        # one makes none. The up-front depth cut leaves a search from level
        # l at most max(depth - l, 1) events. A bound of cost + n - 2 on n
        # events makes that one call the narrow probe when n > 2.
        trie = workflow_trie
        alphabet = range(len(trie.alphabet) + 1)  # the last code is in no node
        nowhere = alphabet[-1]
        calls = []
        original = Trie.starts_at

        def counting_starts_at(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(Trie, "starts_at", counting_starts_at)
        sequences = [(nowhere,) * k for k in range(1, 9)]  # these run every round
        for k in range(1, 5):
            sequences += itertools.product(alphabet, repeat=k)
        for node in range(trie.node_count):
            searched = max(trie.depth - trie.levels[node], 1)
            for pending in sequences:
                state = State.make(node=node, moves=(), suffix=pending[:-1], decay=2)
                n = min(len(pending), searched)
                calls.clear()
                expand_model_moves(trie, state, pending[-1], decay=2)
                assert len(calls) == (n > 1)
                calls.clear()
                expand_model_moves(trie, state, pending[-1], decay=2, bound=len(pending) - 2)
                assert [args[3] is not None for args in calls] == ([n > 2] if n > 1 else [])

    # Per trie, the pending lengths searched from every node, then from the
    # root alone. On the random trie's 236 nodes the whole space takes
    # minutes, so it takes every node at length 3 and the root at length 4.
    NARROW_SPACE = {
        "workflow": ((3, 4, 5), ()),
        "forked": ((3, 4, 5), ()),
        "random": ((3,), (4,)),
    }

    @pytest.mark.parametrize("trie_name", list(NARROW_SPACE))
    def test_bounded_search_is_the_level_walk_within_the_bound(
        self, trie_name, request, monkeypatch
    ):
        # Every bound from cost - 1 to cost + n + 1 for n pending events:
        # those up to cost + n - 2 take the narrow probe (only slice nodes
        # whose parent carries pending[-3], plus the direct child), the rest
        # the pair probe. Both must keep exactly the level walk's states
        # that cost at most the bound, in its order.
        if trie_name == "random":
            trie = test_trie.random_trie()
        else:
            trie = request.getfixturevalue(f"{trie_name}_trie")
        alphabet = range(len(trie.alphabet) + 1)  # the last code is in no node
        lengths, root_lengths = self.NARROW_SPACE[trie_name]
        narrow = []
        original = Trie.starts_at

        def counting_starts_at(self, *args):
            out = original(self, *args)
            if args[3] is not None:
                narrow.append(bool(out))
            return out

        monkeypatch.setattr(Trie, "starts_at", counting_starts_at)
        space = [(node, n) for node in range(trie.node_count) for n in lengths]
        space += [(ROOT, n) for n in root_lengths]
        for node, n in space:
            for pending in itertools.product(alphabet, repeat=n):
                state = State.make(node=node, moves=(), suffix=pending[:-1], decay=2)
                expected = search_view(reference_expand(trie, state, pending[-1], decay=2))
                for bound in range(-1, n + 2):
                    got = expand_model_moves(trie, state, pending[-1], decay=2, bound=bound)
                    assert search_view(got) == [v for v in expected if v[1] <= bound]
        assert any(narrow)  # the narrow probe ran, and found nodes

    def test_search_bound_does_not_change_the_engine(self, workflow_trie, monkeypatch):
        # The engine bounds each search by its running cost minimum; an
        # unbounded search must leave every result and best state as is.
        random_trie = seeded_random_trie()
        policies = list(POLICIES.values())

        def run(trie, policy, seed):
            engine = Engine(EngineConfig(trie=trie, decay=policy))
            out = []
            for frame in simulate_stream(trie, 0.3, seed=seed, max_events=1500, duration=None):
                result = engine.process(frame.case_id, frame.activity)
                best = engine.best_state(frame.case_id)
                out.append(
                    (
                        result.sync,
                        result.best_cost,
                        [state_view(s) for s in result.new_states],
                        state_view(best),
                    )
                )
            return out

        runs = [
            (trie, policy, seed)
            for trie in (workflow_trie, random_trie)
            for policy in policies
            for seed in (1, 2)
        ]
        bounded = [run(*args) for args in runs]
        original = engine_module.expand_model_moves

        def unbounded(trie, state, code, decay, bound=None):
            return original(trie, state, code, decay)

        monkeypatch.setattr(engine_module, "expand_model_moves", unbounded)
        assert [run(*args) for args in runs] == bounded

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


class TestPinnedOutcomes:
    # SHA-256 over every event's outcome on 2,000 simulated events at 30%
    # noise: whether it synced, its best cost and each new state in full.
    # A change to the search that moves one state, cost or tie-break on
    # any event changes its digest.
    DIGESTS = {
        ("workflow", "default"): (
            "6397147cdd738dcd560e06bef58d104daea3f339916630ee9d673d2a99e5c8b3"
        ),
        ("workflow", "fixed1"): (
            "523c4dcb5ad7814fbe8ff6369fe0054dfb7e9e918d02b39b5766ea65052626cc"
        ),
        ("workflow", "discounted5"): (
            "7da21f3b61df16e48f1b786e25199bf5ce7944b8fc8583e97a5784c20d083ce0"
        ),
        ("random", "default"): (
            "06095cf8d352afc7b22991d4bece127173d24b52a194939e73c771a1e3ff0f92"
        ),
        ("random", "fixed1"): (
            "5cbdbf9325b40fe75092881bc19ca2f94deae1e10cefcfa612726e8309f9774b"
        ),
        ("random", "discounted5"): (
            "dd5e8da5fde8fdc0e0913dddcec99dfbed683346b456cf18a93cd8c09744df2e"
        ),
    }

    @pytest.mark.parametrize("trie_name, policy_name", sorted(DIGESTS))
    def test_every_event_outcome_is_pinned(self, workflow_trie, trie_name, policy_name):
        trie = workflow_trie if trie_name == "workflow" else seeded_random_trie()
        engine = Engine(EngineConfig(trie=trie, decay=POLICIES[policy_name]))
        digest = hashlib.sha256()
        for event in simulate_stream(trie, 0.3, seed=7, max_events=2000, duration=None):
            result = engine.process(event.case_id, event.activity)
            outcome = (
                result.sync,
                result.best_cost,
                [
                    (
                        s.state_id,
                        s.node,
                        s.cost,
                        s.decay,
                        s.parent_id,
                        s.moves_len,
                        [tuple(m) for m in s.moves()],
                    )
                    for s in result.new_states
                ],
            )
            digest.update(repr(outcome).encode())
        assert digest.hexdigest() == self.DIGESTS[trie_name, policy_name]

    # SHA-256 over every stored state of the event's case after every event
    # of the same streams: survivors as well as new states, so a change to
    # ageing, suffix buffering or the commit of unmatchable events shows.
    STORED_DIGESTS = {
        ("workflow", "default"): (
            "55b6a8a034410b21c0bc705b1e8bfa136c0626d600159fe8766156aa0aa8983f"
        ),
        ("workflow", "fixed1"): (
            "689e3ee1de108b92367d65e1f15d2de0a66e2fbf7e448cc292173bd82e627292"
        ),
        ("workflow", "discounted5"): (
            "f8c7635f187e218fe73c034ebb818fe63becee6f5cf101f5b4ff80b3bbd85fd5"
        ),
        ("random", "default"): (
            "786a6e9ab0717065483be47e423ed6bda46aa2ed81cc20191e5d9653b807c8e9"
        ),
        ("random", "fixed1"): (
            "330187e4a15ad27329f5a482ae2ceebb4767217554309aa713d63f9607742235"
        ),
        ("random", "discounted5"): (
            "1e54bb18d1831ef3d1aa1ea1fb6147dacb56eed1621e856913039e24c3a2a7fa"
        ),
    }

    @pytest.mark.parametrize("trie_name, policy_name", sorted(STORED_DIGESTS))
    def test_every_stored_state_is_pinned(self, workflow_trie, trie_name, policy_name):
        trie = workflow_trie if trie_name == "workflow" else seeded_random_trie()
        engine = Engine(EngineConfig(trie=trie, decay=POLICIES[policy_name]))
        digest = hashlib.sha256()
        for event in simulate_stream(trie, 0.3, seed=7, max_events=2000, duration=None):
            engine.process(event.case_id, event.activity)
            stored = [
                (s.state_id, s.node, s.cost, s.decay, tuple(s.suffix), s.moves_len)
                for s in engine.states(event.case_id)
            ]
            digest.update(repr(stored).encode())
        assert digest.hexdigest() == self.STORED_DIGESTS[trie_name, policy_name]


class TestEngineKeepsNoClock:
    def test_result_has_no_timing(self):
        assert ProcessResult._fields == ("sync", "new_states", "best_cost")

    def test_process_reads_no_clock(self, workflow_trie, monkeypatch):
        def no_clock():
            raise AssertionError("the engine read a clock")

        monkeypatch.setattr(time, "perf_counter_ns", no_clock)
        monkeypatch.setattr(time, "perf_counter", no_clock)
        engine = Engine(EngineConfig(trie=workflow_trie))
        costs = [engine.process("c", a).best_cost for a in ["a", "b", "x", "c", "e"]]
        assert costs == [0, 0, 1, 1, 1]


class TestStatesCreated:
    @pytest.mark.parametrize("trie_name, policy_name", sorted(TestPinnedOutcomes.DIGESTS))
    def test_one_root_per_case_plus_every_new_state(self, workflow_trie, trie_name, policy_name):
        trie = workflow_trie if trie_name == "workflow" else seeded_random_trie()
        engine = Engine(EngineConfig(trie=trie, decay=POLICIES[policy_name]))
        cases = set()
        new_states = 0
        for event in simulate_stream(trie, 0.3, seed=7, max_events=2000, duration=None):
            new_states += len(engine.process(event.case_id, event.activity).new_states)
            cases.add(event.case_id)
            assert engine.states_created == len(cases) + new_states


class TestOneCostPerEvent:
    @pytest.mark.parametrize("trie_name, policy_name", sorted(TestPinnedOutcomes.DIGESTS))
    def test_the_states_one_event_creates_share_its_best_cost(
        self, workflow_trie, trie_name, policy_name
    ):
        # The engine reports the first new state's cost as the event's best:
        # sync and non-sync events alike, and under discounted5, whose
        # states live long enough to commit unmatchable events.
        trie = workflow_trie if trie_name == "workflow" else seeded_random_trie()
        engine = Engine(EngineConfig(trie=trie, decay=POLICIES[policy_name]))
        for event in simulate_stream(trie, 0.3, seed=7, max_events=2000, duration=None):
            result = engine.process(event.case_id, event.activity)
            assert result.new_states
            assert {s.cost for s in result.new_states} == {result.best_cost}


class TestSuffixBound:
    # Under a decay that never expires, survivors keep every event of their
    # case pending unless the engine commits the oldest as log moves.
    NEVER_EXPIRES = DecayPolicy(df=1e307, min_dt=3)

    def test_stored_suffixes_stay_within_the_trie_depth(self, workflow_trie):
        engine = Engine(EngineConfig(trie=workflow_trie, decay=self.NEVER_EXPIRES))
        for _ in range(2000):
            engine.process("c", "a")
        suffixes = [len(s.suffix) for s in engine.states("c")]
        assert suffixes and max(suffixes) <= workflow_trie.depth

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_committing_old_events_changes_no_new_state(self, workflow_proxy, seed):
        # A trie that reads unboundedly deep never commits and never cuts a
        # search, so its engine keeps every suffix whole.
        bounded = build_trie(workflow_proxy)
        unbounded = build_trie(workflow_proxy)
        unbounded.depth = 10**9
        # Whole model traces between bursts of noise: deep matches after a
        # long pending suffix, where a wrong cut would show.
        rng = random.Random(seed)
        cases = []
        for k in range(12):
            activities: list[str] = []
            while len(activities) < 30:
                if rng.random() < 0.5:
                    activities += rng.choices("abcdexy", k=rng.randrange(1, 4))
                else:
                    activities += rng.choice(WORKFLOW_TRACES)
            cases.append((f"c{k}", activities))
        engines = [
            Engine(EngineConfig(trie=trie, decay=self.NEVER_EXPIRES))
            for trie in (bounded, unbounded)
        ]
        for case_id, activities in cases:
            for activity in activities:
                got, expected = (_outcome(engine, case_id, activity) for engine in engines)
                assert got == expected
        stored = [s for case_id, _ in cases for s in engines[1].states(case_id)]
        assert max(len(s.suffix) for s in stored) > bounded.depth


class TestAlignmentLinks:
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_every_link_points_at_a_shared_move(self, workflow_trie, policy_name, monkeypatch):
        # A link is (prev, move) with move the move table's own instance,
        # and a chain is as long as its state's moves_len: after every
        # event, for every live state, committed log moves included. The
        # moves complete_alignment appends are the table's too.
        commits = []
        original = engine_module._commit_unmatchable

        def counted(trie, states):
            commits.append(sum(len(s.suffix) > trie.depth for s in states))
            original(trie, states)

        def assert_shared(move):
            assert type(move) is Move
            assert MOVES.get((move.log, move.model)) is move

        monkeypatch.setattr(engine_module, "_commit_unmatchable", counted)
        for trie in (workflow_trie, seeded_random_trie()):
            engine = Engine(EngineConfig(trie=trie, decay=POLICIES[policy_name]))
            for event in simulate_stream(trie, 0.3, seed=5, max_events=1500, duration=None):
                engine.process(event.case_id, event.activity)
                for state in engine.states(event.case_id):
                    length = 0
                    link = state._link
                    while link is not None:
                        assert type(link) is tuple and len(link) == 2
                        link, move = link
                        assert_shared(move)
                        length += 1
                    assert length == state.moves_len
                best = engine.best_state(event.case_id)
                completed = complete_alignment(best, trie)
                assert len(completed) == best.moves_len + trie.min_to_end[best.node]
                for move in completed:
                    assert_shared(move)
        # Only the long decay keeps suffixes past the depth, so only it commits.
        assert (sum(commits) > 0) == (policy_name == "discounted5")


def _outcome(engine, case_id, activity):
    """Everything one event yields: its new states in full, and the case's best."""
    result = engine.process(case_id, activity)
    new_states = [
        (s.state_id, s.node, s.cost, s.decay, s.moves(), s.parent_id) for s in result.new_states
    ]
    return result.sync, result.best_cost, new_states, engine.best_state(case_id).state_id


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

    def test_codes_outside_the_table_are_unknown(self, workflow_trie):
        # An int activity outside the trie's table, ROOT_LABEL (-1) among
        # them, codes as UNKNOWN: it costs what an unseen label costs and
        # adds no move of its own to the shared table.
        codes = [*range(1_000_000, 1_001_000), -1, len(workflow_trie.alphabet)]
        cases = [f"c{i % 7}" for i in range(len(codes))]
        before = set(MOVES)
        by_code = fixed_engine(workflow_trie)
        costs = [by_code.process(case, code).best_cost for case, code in zip(cases, codes)]
        assert set(MOVES) - before <= {(UNKNOWN, None)}
        assert {m for case in by_code.case_ids() for m in by_code.best_state(case).moves()} == {
            log_move(UNKNOWN)
        }
        by_label = fixed_engine(workflow_trie)
        assert costs == [
            by_label.process(case, f"unseen{code}").best_cost for case, code in zip(cases, codes)
        ]

    def test_stream_only_labels_leave_the_trie_untouched(self, workflow_trie):
        before = serialize_trie(workflow_trie)
        engine = fixed_engine(workflow_trie)
        for activity in ("x", "prüfen"):
            engine.process("c1", activity)
        assert serialize_trie(workflow_trie) == before
        assert len(workflow_trie.alphabet) == 5
        assert engine.best_state("c1").moves() == (log_move(UNKNOWN), log_move(UNKNOWN))

    def test_duplicate_b_costs_one(self, workflow_trie):
        engine = fixed_engine(workflow_trie)
        for activity in "abbc":
            engine.process("c1", activity)
        assert engine.conformance_cost("c1") == 1


def occupancy(engine):
    """Resident cases, stored states and the largest case's state count."""
    sizes = [len(engine.states(case_id)) for case_id in engine.case_ids()]
    return len(sizes), sum(sizes), max(sizes, default=0)


class TestBufferStats:
    def test_empty_buffer(self, workflow_trie):
        assert occupancy(fixed_engine(workflow_trie)) == (0, 0, 0)

    def test_after_duplicate_b_trace(self, workflow_trie):
        engine = fixed_engine(workflow_trie)
        for activity in "abbc":
            engine.process("c1", activity)
        assert occupancy(engine)[2] == 4

    def test_two_independent_cases(self, workflow_trie):
        engine = fixed_engine(workflow_trie)
        engine.process("c1", "a")
        engine.process("c2", "a")
        assert occupancy(engine) == (2, 4, 2)


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

    def test_rescue_prefers_a_state_that_consumed_every_event(self, workflow_trie, workflow_proxy):
        # Decay 1 expires every state at the next event, so every event
        # after a case's first is a rescue.
        engine = fixed_engine(workflow_trie, value=1)
        for i, trace in enumerate(workflow_proxy.traces):
            results = [engine.process(f"case-{i}", activity) for activity in trace]
            assert [(r.sync, r.best_cost) for r in results] == [(True, 0)] * len(trace)


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
