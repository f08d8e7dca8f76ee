from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from trie_align import (
    DecayPolicy,
    Engine,
    EngineConfig,
    ProxyLog,
    build_trie,
    complete_alignment,
    decay_time,
    expand_model_moves,
    load_trie,
    optimal_prefix,
    parse_event_log,
    serialize_event_log,
    serialize_trie,
)
from trie_align.cli import simulate_stream

from .reference import State, alignment_cost, child, kids, validate, walk

ALPHA = "abcdef"

activity = st.sampled_from(ALPHA)
proxy_trace = st.lists(activity, min_size=1, max_size=8).map(tuple)
proxy_logs = st.lists(proxy_trace, min_size=1, max_size=12).map(
    lambda traces: ProxyLog(tuple(traces))
)
observed_trace = st.lists(st.sampled_from(ALPHA + "xy"), min_size=0, max_size=10)


@given(proxy_logs)
@settings(max_examples=150, deadline=None)
def test_trie_annotations_match_exhaustive_recomputation(proxy):
    trie = build_trie(proxy)

    def walk_min(node):
        """Recompute the remaining distance by direct descent."""
        mins = [0] if trie.is_end[node] else []
        for kid in kids(trie, node):
            mins.append(walk_min(kid) + 1)
        return min(mins)

    for node in range(trie.node_count):
        mn = walk_min(node)
        assert trie.min_to_end[node] == mn
        assert (trie.min_to_end[node] == 0) == bool(trie.is_end[node])


@given(proxy_logs)
@settings(max_examples=150, deadline=None)
def test_trie_structure_invariants(proxy):
    trie = build_trie(proxy)
    total_activities = sum(len(seq) for seq in proxy.traces)
    assert trie.node_count <= total_activities + 1
    # Every proxy trace replays to an end node with zero mismatches.
    for seq in proxy.traces:
        node = walk(trie, [trie.alphabet.code(a) for a in seq])
        assert node is not None and trie.is_end[node]
    # Levels and parent links are consistent, children keys sorted.
    for node in range(1, trie.node_count):
        parent = trie.parents[node]
        assert trie.levels[node] == trie.levels[parent] + 1
        assert child(trie, parent, trie.labels[node]) == node
    for node in range(trie.node_count):
        keys = list(trie.children[node])
        assert keys == sorted(keys)


@given(proxy_logs)
@settings(max_examples=100, deadline=None)
def test_trie_serialization_round_trip(proxy):
    trie = build_trie(proxy)
    assert load_trie(serialize_trie(trie)) == trie


def reference_expand(trie, state, code, decay):
    """The model-move search as a breadth-first walk over every node below
    the state, level by level, restarted after each suffix drop. Reference
    for the indexed search in ``expand_model_moves``.
    """
    labels = trie.labels
    pending = list(state.suffix) + [code]
    dropped: list[int] = []
    while True:
        frontier = [state.node]
        matches = []
        for _depth in range(len(pending) + 1):
            next_level = [k for nid in frontier for k in kids(trie, nid)]
            if not next_level:
                break
            for nid in next_level:
                if labels[nid] == pending[0]:
                    terminal = trie.path_match(nid, pending)
                    if terminal is not None:
                        matches.append((nid, terminal))
            if matches:
                break
            frontier = next_level
        if matches:
            out = []
            for start, terminal in matches:
                between = trie.node_path_codes(trie.parents[start])[trie.levels[state.node] :]
                moves = (
                    list(state.moves())
                    + [(x, None) for x in dropped]
                    + [(None, m) for m in between]
                    + [(y, y) for y in pending]
                )
                out.append(
                    State.make(
                        terminal, moves, cost=state.cost + len(dropped) + len(between), decay=decay
                    )
                )
            return out
        if len(pending) > 1:
            dropped.append(pending.pop(0))
            continue
        return []


def random_search(rng):
    """A seeded trie, a state on it and a next event code, for the search."""
    # Traces open with a or b, so later activities recur at one depth in
    # several branches and matches tie on depth. Half the tries use only
    # those two labels: then a pending sequence matches in several drop
    # rounds at once, at many levels, behind long runs of parents that
    # spell it. Prefixes of traces make end nodes that have children.
    labels = rng.choice((ALPHA, "ab"))
    traces = [
        (rng.choice("ab"), *rng.choices(labels, k=rng.randrange(8)))
        for _ in range(rng.randrange(1, 25))
    ]
    traces += [t[: rng.randrange(1, len(t) + 1)] for t in traces[: rng.randrange(len(traces))]]
    trie = build_trie(ProxyLog(tuple(traces)))
    node = rng.choice([0, rng.randrange(trie.node_count)])  # the root, with most ties, half the time
    # Code len(alphabet) lies past the alphabet and never occurs in the trie.
    # Suffixes reach past the deepest level (at most 9), where the search cuts.
    suffix = [rng.randrange(len(trie.alphabet) + 1) for _ in range(rng.randrange(12))]
    code = rng.randrange(len(trie.alphabet) + 1)
    history = [(None, c) for c in trie.node_path_codes(node)]
    state = State.make(node, history, suffix=suffix, cost=len(history), decay=2)
    return trie, state, code


def search_view(states):
    return [(s.node, s.cost, s.moves_len, s.moves(), s.suffix, s.decay) for s in states]


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_indexed_search_matches_the_level_walk(rng):
    trie, state, code = random_search(rng)
    got = expand_model_moves(trie, state, code, decay=3)
    expected = reference_expand(trie, state, code, decay=3)
    assert search_view(got) == search_view(expected)


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_bounded_search_keeps_exactly_the_states_within_the_bound(rng):
    trie, state, code = random_search(rng)
    expected = reference_expand(trie, state, code, decay=3)
    assert search_view(expand_model_moves(trie, state, code, decay=3)) == search_view(expected)
    pending = len(state.suffix) + 1
    for bound in range(state.cost - 1, state.cost + pending + 2):
        got = expand_model_moves(trie, state, code, decay=3, bound=bound)
        assert search_view(got) == search_view(s for s in expected if s.cost <= bound)


@given(
    st.floats(min_value=0, max_value=1e6),
    st.integers(min_value=1, max_value=10**6),
    st.floats(min_value=0, max_value=1e6),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=500, deadline=None)
def test_decay_time_never_grows_with_the_event_index(df, min_dt, avg_leaf_depth, i):
    # So a case's root decay is the largest it is ever issued, which the
    # engine's admission cap and case_stats rely on.
    policy = DecayPolicy(df=df, min_dt=min_dt)
    assert decay_time(avg_leaf_depth, i + 1, policy) <= decay_time(avg_leaf_depth, i, policy)


def test_no_state_outlives_its_root_decay_on_a_noisy_stream(workflow_trie):
    policy = DecayPolicy(df=1.0, min_dt=1)  # decays 5, 4, 3, 2, 1 on this trie
    root_decay = decay_time(workflow_trie.avg_leaf_depth, 0, policy)
    engine = Engine(EngineConfig(trie=workflow_trie, decay=policy))
    issued = set()
    for frame in simulate_stream(workflow_trie, 0.3, seed=9, max_events=600, duration=None):
        result = engine.process(frame.case_id, frame.activity)
        issued.update(s.decay for s in result.new_states)
    assert max(issued) < root_decay and len(issued) > 1
    for case_id in engine.case_ids():
        assert engine.case_stats(case_id).max_decay_issued == root_decay


@given(proxy_logs, observed_trace, st.sampled_from(["fixed2", "fixed4", "discounted"]))
# Both successors of the sync step on "b" would exceed the bound of 4.
@example(proxy=ProxyLog((tuple("bab"),)), trace=["a", "b"], decay_mode="fixed2")
@settings(max_examples=150, deadline=None)
def test_engine_invariants_on_random_streams(proxy, trace, decay_mode):
    trie = build_trie(proxy)
    policy = {
        "fixed2": DecayPolicy(df=0, min_dt=2),
        "fixed4": DecayPolicy(df=0, min_dt=4),
        "discounted": DecayPolicy(),
    }[decay_mode]
    engine = Engine(EngineConfig(trie=trie, decay=policy))
    observed: list[int] = []
    for label in trace:
        costs_before = {s.state_id: s.cost for s in (engine.states("case") if observed else ())}
        result = engine.process("case", label)
        observed.append(trie.alphabet.code(label))
        states = engine.states("case")

        # Decay safety, the per-state suffix bound and the per-case buffer bound.
        assert all(s.decay >= 1 for s in states)
        assert all(len(s.suffix) <= trie.depth for s in states)
        stats = engine.case_stats("case")
        assert stats.peak_states <= (trie.max_branching + 1) * stats.max_decay_issued
        assert len(result.new_states) <= trie.max_branching + 1

        # Every stored state's chain, pending suffix or committed log moves
        # alike, matches its cost and its length, which breaks admission
        # ties and sets the cap.
        for s in states:
            moves = s.moves()
            assert alignment_cost(moves) == s.cost
            assert s.moves_len == len(moves)

        # At least one state consumed every event, and the cheapest of them
        # is a valid prefix alignment of everything observed so far.
        finished = [s for s in states if not s.suffix]
        assert finished
        best = engine.best_state("case")
        assert validate(best.moves(), observed, trie)
        assert alignment_cost(best.moves()) == best.cost

        # Completing any finished state pays exactly its remaining distance.
        for state in finished:
            full = complete_alignment(state, trie)
            assert alignment_cost(full) == state.cost + trie.min_to_end[state.node]
            assert validate(full, observed, trie, complete=True)

        # Approximation sanity: never below the true optimum; exact (zero)
        # when the observed prefix is itself a trie path.
        optimal = optimal_prefix(observed, trie)
        assert best.cost >= optimal
        if walk(trie, observed) is not None:
            assert best.cost == 0

        # Admission filter: all states created by one non-sync event share
        # one cost; every new state costs at least its parent.
        costs = {s.cost for s in result.new_states}
        if not result.sync:
            assert len(costs) == 1
        for s in result.new_states:
            if s.parent_id in costs_before:
                assert s.cost >= costs_before[s.parent_id]

        # New states all start with an empty suffix and distinct nodes.
        nodes = [s.node for s in result.new_states]
        assert len(nodes) == len(set(nodes))
        assert all(not s.suffix for s in result.new_states)


BEST_STATE_POLICIES = {
    "fixed1": DecayPolicy(df=0, min_dt=1),
    "fixed3": DecayPolicy(df=0, min_dt=3),
    "discounted": DecayPolicy(df=0.3, min_dt=3),
    "discounted-long": DecayPolicy(df=0.6, min_dt=2),
}


def assert_best_state_is_cheapest_new_state(engine, stream):
    """After every event, the case's best state is the cheapest new state.

    The states with an empty suffix after ``process`` are exactly the new
    ones (survivors just buffered the event), so reading the best state
    gives the alignment that event produced.
    """
    for case, label in stream:
        result = engine.process(case, label)
        cheapest = min(result.new_states, key=lambda s: (s.cost, s.moves_len, s.node))
        assert engine.best_state(case) is cheapest
        assert [s for s in engine.states(case) if not s.suffix] == list(result.new_states)


@given(
    proxy_logs,
    st.lists(st.tuples(st.sampled_from("123"), st.sampled_from(ALPHA + "xy")), max_size=30),
    st.sampled_from(sorted(BEST_STATE_POLICIES)),
)
@settings(max_examples=150, deadline=None)
def test_best_state_is_cheapest_new_state_on_random_streams(proxy, stream, policy):
    engine = Engine(EngineConfig(trie=build_trie(proxy), decay=BEST_STATE_POLICIES[policy]))
    assert_best_state_is_cheapest_new_state(engine, stream)


def test_best_state_is_cheapest_new_state_on_seeded_noisy_streams(workflow_trie):
    for seed, policy in enumerate(BEST_STATE_POLICIES.values()):
        engine = Engine(EngineConfig(trie=workflow_trie, decay=policy))
        frames = simulate_stream(
            workflow_trie, noise_level=0.3, seed=seed, max_events=3000, duration=None
        )
        assert_best_state_is_cheapest_new_state(
            engine, ((f.case_id, f.activity) for f in frames)
        )


def test_fixed_policy_is_discounted_with_zero_factor():
    for n in range(1, 8):
        policy = DecayPolicy(df=0, min_dt=n)
        for avg_leaf_depth in (0, 3.5, 25.3):
            assert {decay_time(avg_leaf_depth, i, policy) for i in range(60)} == {n}


@given(proxy_logs, observed_trace)
@settings(max_examples=80, deadline=None)
def test_engine_matches_itself_across_runs(proxy, trace):
    trie = build_trie(proxy)

    def run():
        engine = Engine(EngineConfig(trie=trie, decay=DecayPolicy(df=0, min_dt=3)))
        out = []
        for label in trace:
            result = engine.process("case", label)
            out.append(
                (
                    result.best_cost,
                    tuple((s.state_id, s.node, s.cost, s.decay) for s in result.new_states),
                )
            )
        return out

    assert run() == run()


@given(
    st.lists(
        st.tuples(st.sampled_from("123"), st.sampled_from(ALPHA)),
        min_size=0,
        max_size=20,
    )
)
@settings(max_examples=100, deadline=None)
def test_event_log_round_trip(rows):
    text = "case,activity\n" + "".join(f"{c},{a}\n" for c, a in rows)
    events = parse_event_log(text)
    assert [(ev.case_id, ev.activity) for ev in events] == rows
    assert parse_event_log(serialize_event_log(events)) == events


def test_engine_cost_dominates_oracle_on_seeded_corpus(workflow_trie):
    """Dense seeded sweep on the shared workflow trie, with buffer audits."""
    rng = random.Random(424242)
    symbols = list(ALPHA[:5]) + ["x", "y"]
    limit_factor = workflow_trie.max_branching + 1
    for _ in range(200):
        trace = [rng.choice(symbols) for _ in range(rng.randrange(1, 13))]
        engine = Engine(
            EngineConfig(
                trie=workflow_trie,
                decay=DecayPolicy(df=0, min_dt=rng.randrange(1, 5)),
            )
        )
        observed: list[int] = []
        for label in trace:
            engine.process("c", label)
            observed.append(workflow_trie.alphabet.code(label))
            assert engine.conformance_cost("c") >= optimal_prefix(observed, workflow_trie)
            stats = engine.case_stats("c")
            assert stats.peak_states <= limit_factor * stats.max_decay_issued
            assert all(s.decay >= 1 for s in engine.states("c"))
