"""Streaming conformance engine with per-case survivor states.

For every case the engine keeps a small set of states, each pairing a trie
node with the prefix alignment that led there, the pending (unconsumed)
event suffix, the alignment cost, and a decay counter. Per arriving event:

1. Age: every stored state's decay is decremented; states reaching zero
   are evicted. A new case's root enters with one extra event of decay,
   which its first ageing takes; the steps below create states after
   the ageing.
2. Synchronous phase: every survivor with an empty suffix whose node has a
   child labeled with the event spawns a synchronous successor at no extra
   cost. If at least one exists, survivors just buffer the event into
   their suffix and the successors are added.
3. Otherwise each survivor proposes candidates: one log-move state that
   flushes its whole pending suffix plus the event as log moves, and
   model-move states found by a bounded look-ahead below its node. With
   two or more events pending it probes only the nodes that carry the
   first pending event and have a child carrying the second, through the
   trie's pair index; a single pending event is looked up among the
   node's children and grandchildren (see :func:`expand_model_moves`).
   Candidates are admitted against a running cost minimum; only those
   matching the final minimum are kept, with at most one state per trie
   node.

Either step admits at most ``max_branching + 1`` new states per event,
fewer when the case is near its bound; the cap truncates
deterministically, cheapest first, then shortest alignment.

Three facts keep the buffer small: decay eviction bounds how many events
a state survives, the cheapest-only admission keeps one cost frontier per
case, and the admission cap stops lineages from multiplying on
heavily deviating streams. Together they bound a case's stored states by
``(max_branching + 1)`` times the largest decay it was ever issued. That
largest decay is its root's: :func:`decay_time` never grows with the
event index, so no later state outlives the root's allowance.

An engine instance is single-writer: calls into :meth:`Engine.process`
must be serialized. Scale out by partitioning the case-id space across
engines sharing one immutable trie. Every activity the trie lacks codes
as :data:`~trie_align.events.UNKNOWN`, so no label table grows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .alignment import Alignment, Move
from .trie import ROOT, Trie

#: Admission sentinel, larger than any reachable alignment cost.
UNBOUNDED_COST = float("inf")


class UnknownCaseError(KeyError):
    """Raised when querying a case id the engine has never seen."""


@dataclass(frozen=True)
class DecayPolicy:
    """How many subsequent events a newly created state survives.

    A state created after the ``i``-th event of a case gets
    ``max(round((avg_leaf_depth - i) * df), min_dt)`` events to live, so
    states created early in a case live longer than states created late.
    With ``df == 0`` every state gets exactly ``min_dt`` (fixed decay).
    """

    df: float = 0.3
    min_dt: int = 3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.df) and self.df >= 0):
            raise ValueError("df must be finite and >= 0")
        if self.min_dt < 1:
            raise ValueError("min_dt must be >= 1")


def decay_time(avg_leaf_depth: float, i: int, policy: DecayPolicy) -> int:
    """Decay counter for a state created after the ``i``-th event of a case.

    Scales the remaining expected trace length by the discounting factor,
    rounded to the nearest integer and floored at ``min_dt``; the floor
    also covers cases older than the average leaf depth. Never increases
    with ``i``, so ``i == 0`` (a case's root) gives the largest value.
    Raises OverflowError when that value is infinite; a scaled length that
    overflows below the floor (a long case, a huge ``df``) is the floor.
    """
    scaled = (avg_leaf_depth - i) * policy.df
    return round(scaled) if scaled > policy.min_dt else policy.min_dt


class State:
    """One survivor: trie node, prefix alignment, pending suffix, cost, decay.

    The alignment is stored as a backward-linked chain of moves shared with
    the parent state, so spawning a successor is O(1); :meth:`moves`
    materializes it.
    """

    __slots__ = ("state_id", "node", "suffix", "cost", "decay", "parent_id", "_link", "moves_len")

    def __init__(
        self,
        state_id: int,
        node: int,
        suffix: list[int],
        cost: int,
        decay: int,
        link: tuple | None = None,
        moves_len: int = 0,
        parent_id: int = -1,
    ) -> None:
        self.state_id = state_id
        self.node = node
        self.suffix = suffix
        self.cost = cost
        self.decay = decay
        self.parent_id = parent_id
        self._link = link
        self.moves_len = moves_len

    @classmethod
    def make(
        cls,
        node: int,
        moves: Iterable[Move],
        suffix: Iterable[int] = (),
        cost: int = 0,
        decay: int = 1,
        state_id: int = 0,
    ) -> "State":
        """Build a standalone state from explicit moves (test/tooling entry)."""
        link = None
        count = 0
        for move in moves:
            link = (link, tuple(move))
            count += 1
        return cls(state_id, node, list(suffix), cost, decay, link, count)

    def moves(self) -> tuple[Move, ...]:
        out = []
        link = self._link
        while link is not None:
            link, move = link
            out.append(Move(*move))
        out.reverse()
        return tuple(out)

    def alignment(self) -> Alignment:
        return Alignment(self.moves(), kind="prefix")

    def __repr__(self) -> str:
        return (
            f"State(id={self.state_id}, node={self.node}, suffix={self.suffix}, "
            f"cost={self.cost}, decay={self.decay})"
        )


@dataclass(frozen=True)
class EngineConfig:
    """Engine wiring: the shared trie and the decay policy."""

    trie: Trie
    decay: DecayPolicy = field(default_factory=DecayPolicy)


@dataclass(frozen=True)
class CaseStats:
    """Per-case diagnostics for buffer-bound auditing; ``max_decay_issued`` is the root's."""

    events_seen: int
    states: int
    peak_states: int
    max_decay_issued: int


class ProcessResult(NamedTuple):
    """Outcome of one processed event.

    ``sync`` tells whether a synchronous move consumed the event,
    ``new_states`` holds the states the event created, ``best_cost`` is
    the cheapest of their costs and ``processing_micros`` the time the
    call took.
    """

    sync: bool
    new_states: tuple[State, ...]
    best_cost: int
    processing_micros: float


class _CaseEntry:
    __slots__ = ("states", "events_seen", "next_state_id", "peak_states")

    def __init__(self) -> None:
        self.states: list[State] = []
        self.events_seen = 0
        self.next_state_id = 0
        self.peak_states = 0


def expand_model_moves(trie: Trie, state: State, code: int, decay: int) -> list[State]:
    """Model-move successors of ``state`` for event ``code``.

    Looks below the state's node for a start node from which the whole
    pending sequence (suffix plus the new event) matches as a downward
    path. Start nodes lie at most ``len(pending) + 1`` levels down: any
    deeper match would need more model moves than flushing everything as
    log moves costs, so it could never be admitted. With two or more
    events pending, level by level, the trie's pair index
    (:meth:`Trie.starts_at`) yields only the nodes that carry the first
    pending event and have a child labeled the second, in breadth-first
    order, and each is checked with :meth:`Trie.path_match`. With one
    event pending, a start node is its own match: it is the node's child
    labeled with it or, failing that, each child's such child in
    ascending code order, which is the same breadth-first order. The
    shallowest matching level wins and all matches at that level are
    returned.

    If no level matches and more than one event is pending, the oldest
    pending event is dropped (it becomes a log move in the emitted
    alignment) and the search restarts with the shortened sequence; with
    a single pending event left, no model move exists and the result is
    empty.

    Emitted alignments read: dropped log moves first, then one model move
    per node strictly between the state's node and the match start, then
    synchronous moves for the matched sequence. Cost grows by the number
    of dropped events plus the number of model moves.
    """
    labels = trie.labels
    children = trie.children
    base_level = trie.levels[state.node]

    pending = list(state.suffix)
    pending.append(code)
    dropped: list[int] = []

    while True:
        matches: list[tuple[int, int]] = []
        if len(pending) == 1:
            # A one-event path is its own start node: a child of the
            # state's node or, failing that, a grandchild.
            (only,) = pending
            kids = children[state.node]
            hit = kids.get(only)
            if hit is not None:
                matches.append((hit, hit))
            else:
                for kid in kids.values():
                    hit = children[kid].get(only)
                    if hit is not None:
                        matches.append((hit, hit))
        else:
            first, second = pending[0], pending[1]
            for level in range(base_level + 1, base_level + len(pending) + 2):
                for nid in trie.starts_at(state.node, first, second, level):
                    terminal = trie.path_match(nid, pending)
                    if terminal is not None:
                        matches.append((nid, terminal))
                if matches:
                    break

        if matches:
            out = []
            for start, terminal in matches:
                between: list[int] = []
                parent = trie.parents[start]
                while parent != state.node:
                    between.append(labels[parent])
                    parent = trie.parents[parent]
                between.reverse()
                link = state._link
                for x in dropped:
                    link = (link, (x, None))
                for m in between:
                    link = (link, (None, m))
                for y in pending:
                    link = (link, (y, y))
                out.append(
                    State(
                        state_id=-1,
                        node=terminal,
                        suffix=[],
                        cost=state.cost + len(dropped) + len(between),
                        decay=decay,
                        link=link,
                        moves_len=state.moves_len + len(dropped) + len(between) + len(pending),
                        parent_id=state.state_id,
                    )
                )
            return out

        if len(pending) > 1:
            dropped.append(pending.pop(0))
            continue
        return []


def _rescue_key(state: State) -> tuple:
    # Prefer states that already consumed every event, then cheapest.
    # A case's states are in creation order, so min() keeps the oldest on a tie.
    return (1 if state.suffix else 0, state.cost, state.moves_len, state.node)


def _best_key(state: State) -> tuple:
    return (state.cost, state.moves_len, state.node)


class Engine:
    """Single-writer conformance engine over one immutable trie."""

    def __init__(self, config: EngineConfig) -> None:
        """Raises ValueError when ``df`` makes the root's decay time infinite on this trie."""
        self.trie = config.trie
        self._code = config.trie.alphabet.code
        self.policy = config.decay
        self._avg = config.trie.avg_leaf_depth
        self._cap = config.trie.max_branching + 1
        # Every case's largest issued decay (see decay_time).
        try:
            self._root_decay = decay_time(self._avg, 0, self.policy)
        except OverflowError:
            raise ValueError(
                f"df {self.policy.df:g} is too large: the decay time on this trie is infinite"
            ) from None
        self._buffer: dict[str, _CaseEntry] = {}
        self._total_states = 0
        self.peak_total_states = 0
        self.states_created = 0

    # -- ingestion ---------------------------------------------------------

    def process(self, case_id: str, activity: str | int, timestamp: str | None = None) -> ProcessResult:
        """Consume one event for ``case_id`` and update its survivor set.

        ``activity`` may be a label or a code of the trie's table; a label
        the trie lacks codes as :data:`~trie_align.events.UNKNOWN`, which
        its moves carry. Returns the per-event result.
        """
        code = self._code(activity) if isinstance(activity, str) else activity

        started = time.perf_counter_ns()
        entry = self._buffer.get(case_id)
        if entry is None:
            entry = _CaseEntry()
            self._buffer[case_id] = entry
            # One extra event of life: the ageing below takes it back.
            entry.states.append(State(0, ROOT, [], 0, self._root_decay + 1))
            entry.next_state_id = 1
            self._total_states += 1
            self.states_created += 1

        entry.events_seen += 1
        fresh_decay = decay_time(self._avg, entry.events_seen, self.policy)

        # Age: decrement first, evict below one.
        states = entry.states
        survivors: list[State] = []
        for s in states:
            s.decay -= 1
            if s.decay >= 1:
                survivors.append(s)
        if survivors:
            generation = survivors
        else:
            # Decay wiped the whole case; the single best expired state
            # seeds this event's moves (preserving alignment history) but
            # is not retained.
            generation = [min(states, key=_rescue_key)]

        children = self.trie.children
        new_states: list[State] = []
        for s in generation:
            if s.suffix:
                continue
            child = children[s.node].get(code)
            if child is not None:
                new_states.append(
                    State(
                        state_id=-1,
                        node=child,
                        suffix=[],
                        cost=s.cost,
                        decay=fresh_decay,
                        link=(s._link, (code, code)),
                        moves_len=s.moves_len + 1,
                        parent_id=s.state_id,
                    )
                )

        synced = bool(new_states)
        if not synced:
            # Keep only the cheapest candidates, one state per trie node: a
            # strictly cheaper candidate clears the kept ones; on a node
            # clash the shorter alignment wins, first come first kept on
            # equal length. A replaced state keeps its node's first position
            # in the dict, so the order stays generation order.
            min_cost: float | int = UNBOUNDED_COST
            per_node: dict[int, State] = {}
            for s in generation:
                pending_len = len(s.suffix) + 1
                log_cost = s.cost + pending_len
                cands = expand_model_moves(self.trie, s, code, fresh_decay)
                # The log move is built only when it can be admitted, and
                # ranks before this state's model moves.
                if log_cost <= min_cost:
                    link = s._link
                    for x in s.suffix:
                        link = (link, (x, None))
                    link = (link, (code, None))
                    cands.insert(
                        0,
                        State(
                            state_id=-1,
                            node=s.node,
                            suffix=[],
                            cost=log_cost,
                            decay=fresh_decay,
                            link=link,
                            moves_len=s.moves_len + pending_len,
                            parent_id=s.state_id,
                        ),
                    )
                for cand in cands:
                    if cand.cost < min_cost:
                        min_cost = cand.cost
                        per_node.clear()
                        per_node[cand.node] = cand
                    elif cand.cost == min_cost:
                        kept = per_node.get(cand.node)
                        if kept is None or cand.moves_len < kept.moves_len:
                            per_node[cand.node] = cand
            new_states = list(per_node.values())

        # Admission cap, on both steps: ties must not multiply lineages
        # past the branching budget, or past what keeps the case under
        # (max_branching + 1) x its root decay overall. The cheapest
        # successors survive, so the best cost is unchanged.
        cap = self._cap
        limit = min(cap, cap * self._root_decay - len(survivors))
        if len(new_states) > limit:
            new_states.sort(key=lambda s: (s.cost, s.moves_len))  # stable: keeps generation order
            del new_states[limit:]

        for s in survivors:
            s.suffix.append(code)

        for s in new_states:
            s.state_id = entry.next_state_id
            entry.next_state_id += 1
        self.states_created += len(new_states)

        survivors.extend(new_states)
        entry.states = survivors

        self._total_states += len(survivors) - len(states)
        if self._total_states > self.peak_total_states:
            self.peak_total_states = self._total_states
        if len(survivors) > entry.peak_states:
            entry.peak_states = len(survivors)

        best_cost = min(s.cost for s in new_states)
        elapsed_micros = (time.perf_counter_ns() - started) / 1000.0

        return ProcessResult(synced, tuple(new_states), best_cost, elapsed_micros)

    # -- queries -----------------------------------------------------------

    def _entry(self, case_id: str) -> _CaseEntry:
        entry = self._buffer.get(case_id)
        if entry is None:
            raise UnknownCaseError(case_id)
        return entry

    def best_state(self, case_id: str) -> State:
        """Cheapest state among those produced by the case's latest event.

        Only states with an empty suffix qualify (they consumed every
        event); ties fall to the shorter alignment, then the smaller node
        id.
        """
        entry = self._entry(case_id)
        candidates = [s for s in entry.states if not s.suffix]
        if not candidates:  # pragma: no cover - one empty-suffix state always survives
            raise UnknownCaseError(case_id)
        return min(candidates, key=_best_key)

    def conformance_cost(self, case_id: str) -> int:
        """Prefix-alignment cost of the case's best state."""
        return self.best_state(case_id).cost

    def states(self, case_id: str) -> tuple[State, ...]:
        return tuple(self._entry(case_id).states)

    def case_ids(self) -> list[str]:
        return list(self._buffer)

    def case_stats(self, case_id: str) -> CaseStats:
        entry = self._entry(case_id)
        return CaseStats(
            events_seen=entry.events_seen,
            states=len(entry.states),
            peak_states=entry.peak_states,
            max_decay_issued=self._root_decay,
        )
