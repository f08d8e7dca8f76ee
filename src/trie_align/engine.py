"""Streaming conformance engine with per-case survivor states.

For every case the engine keeps a small set of states, each pairing a trie
node with the prefix alignment that led there, the pending (unconsumed)
event suffix, the alignment cost, and a decay counter. Per arriving event:

1. Age: every stored state's decay is decremented; states reaching zero
   are evicted. States created by the current call are exempt.
2. Synchronous phase: every survivor with an empty suffix whose node has a
   child labeled with the event spawns a synchronous successor at no extra
   cost. If at least one exists, survivors just buffer the event into
   their suffix and the successors are added.
3. Otherwise each survivor proposes candidates: one log-move state that
   flushes its whole pending suffix plus the event as log moves, and
   model-move states found by a bounded look-ahead below its node, which
   probes only the nodes that carry the first pending event, through the
   trie's preorder index (see :func:`expand_model_moves`). Candidates are
   admitted against a running cost minimum; only those matching the final
   minimum are kept, with at most one state per trie node.

Either step admits at most ``max_branching + 1`` new states per event,
fewer when the case is near its bound; the cap truncates
deterministically, cheapest first, then shortest alignment.

Three facts keep the buffer small: decay eviction bounds how many events
a state survives, the cheapest-only admission keeps one cost frontier per
case, and the admission cap stops lineages from multiplying on
heavily deviating streams. Together they bound a case's stored states by
``(max_branching + 1)`` times the largest decay it was ever issued.

An engine instance is single-writer: calls into :meth:`Engine.process`
must be serialized. Scale out by partitioning the case-id space across
engines sharing one immutable trie.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable

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

    @classmethod
    def fixed(cls, value: int) -> "DecayPolicy":
        return cls(df=0, min_dt=value)

    @classmethod
    def discounted(cls, df: float = 0.3, min_dt: int = 3) -> "DecayPolicy":
        return cls(df=df, min_dt=min_dt)


def decay_time(avg_leaf_depth: float, i: int, policy: DecayPolicy) -> int:
    """Decay counter for a state created after the ``i``-th event of a case.

    Scales the remaining expected trace length by the discounting factor,
    rounded to the nearest integer and floored at ``min_dt``; the floor
    also covers cases older than the average leaf depth.
    """
    return max(round((avg_leaf_depth - i) * policy.df), policy.min_dt)


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
class BufferStats:
    cases: int
    total_states: int
    max_states_per_case: int


@dataclass(frozen=True)
class CaseStats:
    """Per-case diagnostics for buffer-bound auditing."""

    events_seen: int
    states: int
    peak_states: int
    max_decay_issued: int


@dataclass(frozen=True)
class ProcessResult:
    """Outcome of one processed event."""

    case_id: str
    event_index: int
    activity: int
    sync: bool
    new_states: tuple[State, ...]
    best_cost: int
    states_in_case: int
    processing_micros: float

    def to_record(self, label_of) -> dict:
        """JSON-friendly per-event record for downstream sinks."""
        return {
            "case_id": self.case_id,
            "event_seq": self.event_index,
            "activity": label_of(self.activity),
            "best_cost": self.best_cost,
            "states_in_case": self.states_in_case,
            "processing_micros": round(self.processing_micros, 3),
        }


class _CaseEntry:
    __slots__ = ("states", "events_seen", "next_state_id", "peak_states", "max_decay_issued")

    def __init__(self) -> None:
        self.states: list[State] = []
        self.events_seen = 0
        self.next_state_id = 0
        self.peak_states = 0
        self.max_decay_issued = 0


def expand_model_moves(trie: Trie, state: State, code: int, decay: int) -> list[State]:
    """Model-move successors of ``state`` for event ``code``.

    Looks below the state's node for a start node from which the whole
    pending sequence (suffix plus the new event) matches as a downward
    path. Start nodes lie at most ``len(pending) + 1`` levels down: any
    deeper match would need more model moves than flushing everything as
    log moves costs, so it could never be admitted. Level by level, the
    trie's preorder index (:meth:`Trie.starts_at`) yields only the nodes
    that carry the first pending event, in breadth-first order, and each
    is checked with :meth:`Trie.path_match`. The shallowest matching level
    wins and all matches at that level are returned.

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
    base_level = trie.levels[state.node]

    pending = list(state.suffix)
    pending.append(code)
    dropped: list[int] = []

    while True:
        first = pending[0]
        matches: list[tuple[int, int]] = []
        for level in range(base_level + 1, base_level + len(pending) + 2):
            for nid in trie.starts_at(state.node, first, level):
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
    return (1 if state.suffix else 2, state.cost, state.moves_len, state.node, state.state_id)


def _best_key(state: State) -> tuple:
    return (state.cost, state.moves_len, state.node)


class Engine:
    """Single-writer conformance engine over one immutable trie."""

    def __init__(self, config: EngineConfig) -> None:
        self.trie = config.trie
        self.policy = config.decay
        self._avg = config.trie.avg_leaf_depth
        self._cap = config.trie.max_branching + 1
        self._buffer: dict[str, _CaseEntry] = {}
        self._total_states = 0
        self.peak_total_states = 0
        self.states_created = 0

    # -- ingestion ---------------------------------------------------------

    def process(self, case_id: str, activity: str | int, timestamp: str | None = None) -> ProcessResult:
        """Consume one event for ``case_id`` and update its survivor set.

        ``activity`` may be a label (interned on the fly, so activities
        outside the trie's alphabet are fine and simply never match) or an
        already-interned code. Returns the per-event result with the newly
        created states and the best cost among them.
        """
        table = self.trie.alphabet
        code = table.intern(activity) if isinstance(activity, str) else activity

        started = time.perf_counter_ns()
        entry = self._buffer.get(case_id)
        fresh_root: State | None = None
        if entry is None:
            entry = _CaseEntry()
            self._buffer[case_id] = entry
            root_decay = decay_time(self._avg, 0, self.policy)
            fresh_root = State(0, ROOT, [], 0, root_decay)
            entry.states.append(fresh_root)
            entry.next_state_id = 1
            entry.max_decay_issued = root_decay
            self._total_states += 1
            self.states_created += 1

        entry.events_seen += 1
        fresh_decay = decay_time(self._avg, entry.events_seen, self.policy)
        if fresh_decay > entry.max_decay_issued:
            entry.max_decay_issued = fresh_decay

        # Age: decrement first, evict below one. The state created by this
        # call (a brand-new case's root) is exempt.
        states = entry.states
        survivors: list[State] = []
        for s in states:
            if s is fresh_root:
                survivors.append(s)
                continue
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
            min_cost: float | int = UNBOUNDED_COST
            interim: list[State] = []
            for s in generation:
                pending_len = len(s.suffix) + 1
                log_cost = s.cost + pending_len
                if log_cost <= min_cost:
                    link = s._link
                    for x in s.suffix:
                        link = (link, (x, None))
                    link = (link, (code, None))
                    interim.append(
                        State(
                            state_id=-1,
                            node=s.node,
                            suffix=[],
                            cost=log_cost,
                            decay=fresh_decay,
                            link=link,
                            moves_len=s.moves_len + pending_len,
                            parent_id=s.state_id,
                        )
                    )
                    min_cost = log_cost
                for cand in expand_model_moves(self.trie, s, code, fresh_decay):
                    if cand.cost <= min_cost:
                        interim.append(cand)
                        min_cost = cand.cost

            # Keep only the cheapest candidates, one state per trie node;
            # on a node clash the shorter alignment wins, first come first
            # kept on equal length. A replaced state keeps its node's first
            # position in the dict, so the order stays generation order.
            per_node: dict[int, State] = {}
            for cand in interim:
                if cand.cost != min_cost:
                    continue
                kept = per_node.get(cand.node)
                if kept is None or cand.moves_len < kept.moves_len:
                    per_node[cand.node] = cand
            new_states = list(per_node.values())

        # Admission cap, on both steps: ties must not multiply lineages
        # past the branching budget, or past what keeps the case under
        # (max_branching + 1) x its largest issued decay overall. The
        # cheapest successors survive, so the best cost is unchanged.
        cap = self._cap
        limit = min(cap, cap * entry.max_decay_issued - len(survivors))
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

        return ProcessResult(
            case_id=case_id,
            event_index=entry.events_seen,
            activity=code,
            sync=synced,
            new_states=tuple(new_states),
            best_cost=best_cost,
            states_in_case=len(survivors),
            processing_micros=elapsed_micros,
        )

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
            max_decay_issued=entry.max_decay_issued,
        )

    def buffer_stats(self) -> BufferStats:
        """Exact buffer occupancy: cases, stored states, largest case."""
        sizes = [len(entry.states) for entry in self._buffer.values()]
        return BufferStats(
            cases=len(sizes),
            total_states=sum(sizes),
            max_states_per_case=max(sizes, default=0),
        )
