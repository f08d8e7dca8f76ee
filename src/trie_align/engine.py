"""Streaming conformance engine with per-case survivor states.

For every case the engine keeps the codes of its recent events, once,
and a small set of states, each pairing a trie node with the prefix
alignment that led there and the alignment cost. A state also records
two event indices: ``at``, where its pending (unconsumed) suffix starts
in the case's codes, and ``expires``, the event at which it dies. Per
arriving event:

1. Age: the stored states whose ``expires`` is past the event survive,
   the others are evicted; nothing stored is written. A new case's root
   enters with one extra event to live, which its first ageing takes;
   the steps below create states after the ageing.
2. Synchronous phase: every survivor with an empty suffix whose node has a
   child labeled with the event spawns a synchronous successor at no extra
   cost. If at least one exists, the successors are added, and the
   survivors' suffixes take the event when the case appends its code.
3. Otherwise each survivor proposes candidates: one log-move state that
   flushes its whole pending suffix plus the event as log moves, and
   model-move states found by a bounded look-ahead below its node, at
   most one level deeper than the pending events are long and never
   below the trie's deepest level. With two or more events pending,
   every match, after any drops of the oldest, ends in the newest two, so
   one slice of the trie's pair index per search gives the only nodes
   worth probing: those below that carry the second-newest event and have
   a child carrying the newest. The search makes that probe first. Its
   nodes' parent links tell which drop round each one serves and where
   its match starts. When the bound leaves no room for the round that
   keeps only those two, the slice keeps just the nodes whose parent
   carries the third-newest event, and the one direct child that round
   can still afford is looked up on its own. A search whose probe finds
   nothing goes straight to the last round: the newest event alone, looked
   up among the node's children and grandchildren, as a single pending
   event is. Only a search with a match builds its moves (see
   :func:`expand_model_moves`).
   Candidates are admitted against a running cost minimum; only those
   matching the final minimum are kept, with at most one state per trie
   node. The minimum starts at the cheapest log move's cost, which the
   final one never exceeds, and bounds each search: a search stops as
   soon as nothing it can still find would be admitted, so the outcome
   is the same as with unbounded searches.

All the states one event creates share one cost. The log/model step
keeps only the candidates at the final minimum. The sync step's parents
are the previous event's states, the only ones with an empty suffix, so
by induction they share one cost: a new case starts from its root alone,
and the decay rescue seeds from one state. Either step admits at most
``max_branching + 1`` new states per event, fewer when the case is near
its bound; the cap truncates deterministically, shortest alignment first,
then in generation order.

Three facts keep the buffer small: decay eviction bounds how many events
a state survives, the cheapest-only admission keeps one cost frontier per
case, and the admission cap stops lineages from multiplying on
heavily deviating streams. Together they bound a case's stored states by
``(max_branching + 1)`` times the largest decay it was ever issued. That
largest decay is its root's: :func:`decay_time` never grows with the
event index, so no later state outlives the root's allowance. A fourth
bounds each state: no pending suffix outgrows the trie's depth, because
once one does, its older events, which no search can match any more, are
committed as log moves at once (:func:`_commit_unmatchable`). Every
candidate the state later proposes is the same as if they had stayed
pending.

A case drops the codes no stored state has pending once it holds more
than ``2 * (depth + 1)``, so a long case holds a few codes, not its
history.

An engine instance is single-writer: calls into :meth:`Engine.process`
must be serialized. Scale out by partitioning the case-id space across
engines sharing one immutable trie. Every activity the trie lacks codes
as :data:`~trie_align.events.UNKNOWN`, so no label table grows, and
alignments are chains of shared moves (see :mod:`trie_align.alignment`),
so no move is stored twice. A case keeps every link of its states in one
int array of prev indices and one list of moves (see :class:`State`), so
a move costs two entries and no object, and the garbage collector walks
one list per case, not one object per link.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .alignment import MOVES, Move
from .events import UNKNOWN
from .trie import ROOT, Trie

#: The search's default bound, larger than any reachable alignment cost.
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
        # A float would reach the admission cap as a slice index; a bool is not a count.
        if type(self.min_dt) is not int or self.min_dt < 1:
            raise ValueError("min_dt must be an int >= 1")


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

    The suffix and the decay are read, not stored: a state shares its
    case's list of event codes, and its pending suffix is that list from
    index ``at`` on. ``expires`` is the index of the event at which the
    state dies, so its decay is ``expires`` less the number of codes. A
    state a search returns starts one past the codes, at the event being
    processed, so its suffix is empty and its decay is the one it was
    issued until the case appends that event's code. Both are read from
    the case, so they hold for the states the case stores and for those
    an event has just returned, not for one evicted since.

    The alignment is a backward-linked chain of moves shared with the
    parent state, kept in its case's link storage: link ``i`` is
    ``prevs[i]``, the index of the link before it (-1 before the first
    move), and ``moves[i]``, the one shared instance of its ``(log,
    model)`` pair (see :data:`~trie_align.alignment.MOVES`). A state holds
    both (as it holds the codes) and the index of its last link
    (``_link``, -1 with no moves), so a successor costs one appended
    entry per move and no object. :meth:`moves` materializes the chain as
    the prefix alignment, a tuple of those moves.
    ``node`` indexes the trie's arrays; its children map holds offsets
    from it (see :mod:`trie_align.trie`).
    """

    __slots__ = (
        "state_id", "node", "cost", "_codes", "at", "expires", "parent_id",
        "_prevs", "_moves", "_link", "moves_len",
    )

    def __init__(
        self,
        state_id: int,
        node: int,
        cost: int,
        codes: list[int],
        at: int,
        expires: int,
        prevs: array,
        moves: list[Move],
        link: int = -1,
        moves_len: int = 0,
        parent_id: int = -1,
    ) -> None:
        self.state_id = state_id
        self.node = node
        self.cost = cost
        self._codes = codes
        self.at = at
        self.expires = expires
        self.parent_id = parent_id
        self._prevs = prevs
        self._moves = moves
        self._link = link
        self.moves_len = moves_len

    @property
    def suffix(self) -> list[int]:
        """The pending events' codes, oldest first: a copy."""
        return self._codes[self.at :]

    @property
    def decay(self) -> int:
        """Events the state still survives; below one once it has expired."""
        return self.expires - max(len(self._codes), self.at)

    def moves(self) -> tuple[Move, ...]:
        prevs = self._prevs
        moves = self._moves
        i = self._link
        left = self.moves_len
        tail = []
        # Indices strictly fall along a chain, so once only i + 1 links are
        # left, they are links 0 to i: one slice of the storage.
        while i >= left:
            tail.append(moves[i])
            i = prevs[i]
            left -= 1
        out = moves[: i + 1]
        tail.reverse()
        out += tail
        return tuple(out)

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
    ``new_states`` holds the states the event created, at least one, and
    ``best_cost`` is the one cost they all share.
    """

    sync: bool
    new_states: tuple[State, ...]
    best_cost: int


class _CaseEntry:
    # ``codes`` holds the case's latest event codes; ``offset`` counts the
    # events before the first of them. ``prevs`` and ``moves`` are the
    # alignment links of every state the case made (see :class:`State`),
    # appended and never rewritten: a link no live state reaches stays.
    __slots__ = ("states", "codes", "offset", "next_state_id", "peak_states", "prevs", "moves")

    def __init__(self) -> None:
        self.states: list[State] = []
        self.codes: list[int] = []
        self.prevs = array("q")
        self.moves: list[Move] = []
        self.offset = 0
        self.next_state_id = 0
        self.peak_states = 0


def _successor(parent: State, node: int, moves: Sequence[Move], cost: int, decay: int) -> State:
    """A new state on ``node``: ``parent``'s alignment plus ``moves``, at ``cost`` more.

    ``moves`` are shared moves. The new state starts at the event being
    processed, one past the case's codes, so its suffix is empty; it lives
    ``decay`` more events, and its id is assigned on admission.
    """
    prevs = parent._prevs
    links = parent._moves
    link = parent._link
    for move in moves:
        prevs.append(link)
        link = len(links)
        links.append(move)
    codes = parent._codes
    at = len(codes) + 1
    moves_len = parent.moves_len + len(moves)
    cost += parent.cost
    return State(
        -1, node, cost, codes, at, at + decay, prevs, links, link, moves_len, parent.state_id
    )


def expand_model_moves(
    trie: Trie, state: State, code: int, decay: int, bound: float = UNBOUNDED_COST
) -> list[State]:
    """Model-move successors of ``state`` for event ``code`` that cost at most ``bound``.

    Looks below the state's node for a start node from which the whole
    pending sequence (suffix plus the new event) matches as a downward
    path. Start nodes lie at most ``len(pending) + 1`` levels down: any
    deeper match would need more model moves than flushing everything as
    log moves costs, so it could never be admitted. A match must also end
    on a node, so older pending events that cannot fit between the node
    and the trie's deepest level are dropped at once, keeping at least
    the newest. The shallowest matching level wins and all matches at
    that level are returned, in breadth-first order.

    If nothing matches and more than one event is pending, the oldest
    pending event is dropped (it becomes a log move in the emitted
    alignment) and the search looks again for the shortened sequence;
    with a single pending event left, no model move exists and the
    result is empty. Round ``i`` thus looks for ``pending[i:]``, and the
    first round with a match wins.

    With two or more events pending, every round's match ends in the
    newest two, so one probe of the trie's pair index
    (:meth:`Trie.starts_at`) yields every node that can carry the
    second-newest event on a match: those below that carry it and have a
    child labeled the newest. From each, the parent links that spell
    older pending events, up to just below the state's node, give the
    earliest round it serves and that round's start. The earliest round
    served by any node wins, and its shallowest starts, in the slice's
    preorder, are the breadth-first order. With one event pending, a start
    node is its own match: it is the node's child labeled with it or,
    failing that, each child's such child in ascending code order, which
    is the same breadth-first order.

    Emitted alignments read: dropped log moves first, then one model move
    per node strictly between the state's node and the match start, then
    synchronous moves for the matched sequence. Cost grows by the number
    of dropped events plus the number of model moves, so all matches of
    one round cost the same.

    The result is the unbounded search's when that cost is at most
    ``bound``, and empty otherwise. Nodes whose earliest round needs more
    drops than the bound affords are passed over, and no probe is made
    when the up-front drops alone cost more than the bound.

    The bound also narrows the probe. With ``n > 2`` events pending and a
    slack (what the bound leaves after the up-front drops) of at most
    ``n - 2``, a slice node serves round ``n - 2`` at best unless its
    parent lies strictly below the state's node and carries
    ``pending[-3]``. That round's drops leave no slack for a model move,
    so of those nodes only a direct child of the state's node can still
    win, and only when the slack is exactly ``n - 2``. So the probe takes
    the slice nodes whose parent carries ``pending[-3]``
    (:meth:`Trie.starts_at` with ``prev_code``), and the direct child
    labeled ``pending[-2]`` that has a child labeled ``code`` is looked up
    after them, when no earlier round was found. The winners and their
    order are the full probe's. Either probe takes nodes by their
    parent's code, so a trie holds only codes below
    :data:`~trie_align.trie.CODE_LIMIT` on nodes with children.

    The search reads the pending events as indices into the case's codes
    and copies none up front. It makes its one probe before it builds
    anything; when the probe serves no round before ``n - 1``, as when it
    returns no node, the search goes straight to round ``n - 1``'s
    one-event lookup, unless the narrow probe's direct child wins. The
    dropped, pending and move lists are built only for a search with a
    match, so a search that finds nothing costs the probe and the lookup
    and appends nothing to its case's links.
    """
    levels = trie.levels
    children = trie.children
    here = state.node
    base_level = levels[here]
    # The pending events are codes[at:] and then code, which would sit at
    # index last. A match spells all of them downward from base_level + 1,
    # so only the newest max(depth - base_level, 1) can be part of one:
    # those from index first on, after first - at drops up front.
    codes = state._codes
    at = state.at
    last = len(codes)
    reach = trie.depth - base_level
    n = last + 1 - at
    if n > reach:
        n = reach if reach > 1 else 1
    first = last + 1 - n
    # What the bound leaves for further drops and model moves: a match d
    # levels down costs d - 1.
    slack = bound - state.cost - (first - at)
    if slack < 0:
        return []
    if n > 1:
        # With this little slack, round n - 2 affords no model move: the
        # probe keeps the nodes whose parent carries the third-newest event,
        # and the direct child is looked up on its own (see the docstring).
        narrow = n > 2 and slack <= n - 2
        found = trie.starts_at(here, codes[-1], code, codes[-2] if narrow else None)
        # (round, start level) of the winners; with no start, round n - 1
        # leaves the newest event alone, costing only its drops.
        best = (n - 1, base_level + 1)
        starts: list[int] = []
        labels = trie.labels
        parents = trie.parents
        for node in found:
            level = levels[node]
            # Up the parents while they spell older pending events, staying
            # below the state's node: the earliest round i this node serves
            # and that round's start.
            start = node
            i = n - 2
            while i and level > base_level + 1 and labels[parents[start]] == codes[first + i - 1]:
                start = parents[start]
                level -= 1
                i -= 1
            # Past what the bound affords in drops, or past the round's reach,
            # as is every slice node more than 2n - 1 levels down.
            if i > slack or level - base_level - 1 > n - i:
                continue
            key = (i, level)
            if key < best:
                best = key
                starts = [start]
            elif key == best:
                starts.append(start)
        if narrow and slack == n - 2 and best > (n - 2, base_level + 1):
            off = children[here].get(codes[-1])
            if off is not None and code in children[here + off]:
                best = (n - 2, base_level + 1)
                starts = [here + off]
        if starts:
            i, level = best
            if level - base_level - 1 > slack - i:
                return []
            kept = first + i
            pending = codes[kept:]
            pending.append(code)
            matches = [(start, trie.path_match(start, pending)) for start in starts]
            return _model_successors(trie, state, codes[at:kept], pending, matches, decay)
    # No earlier round matches: the newest event alone, after dropping every
    # older one. A one-event path is its own start node: a child of the
    # state's node or, failing that, a grandchild.
    slack = bound - state.cost - (last - at)
    if slack < 0:
        return []
    matches = []
    off = children[here].get(code)
    if off is not None:
        matches.append((here + off, here + off))
    elif slack >= 1:
        for kid_off in children[here].values():
            kid = here + kid_off
            off = children[kid].get(code)
            if off is not None:
                matches.append((kid + off, kid + off))
    if not matches:
        return []  # no model move exists
    return _model_successors(trie, state, codes[at:], [code], matches, decay)


def _model_successors(
    trie: Trie,
    state: State,
    dropped: list[int],
    pending: list[int],
    matches: list[tuple[int, int]],
    decay: int,
) -> list[State]:
    """One successor of ``state`` per ``(start, terminal)`` match.

    Its alignment reads: ``dropped`` as log moves, one model move per node
    strictly between the state's node and the start, then ``pending`` as
    synchronous moves. It costs the drops plus the model moves more.
    """
    labels = trie.labels
    parents = trie.parents
    logs = [MOVES[x, None] for x in dropped]
    syncs = [MOVES[y, y] for y in pending]
    out = []
    for start, terminal in matches:
        models = []
        parent = parents[start]
        while parent != state.node:
            models.append(MOVES[None, labels[parent]])
            parent = parents[parent]
        models.reverse()
        cost = len(logs) + len(models)
        out.append(_successor(state, terminal, logs + models + syncs, cost, decay))
    return out


def _commit_unmatchable(trie: Trie, states: list[State]) -> None:
    """Commit as log moves the pending events no search can match any more.

    A search from a node at level ``l`` matches at most the newest
    ``depth - l`` pending events, so once a suffix is longer than the
    trie's depth its older events can only ever leave as log moves. They
    join the state's alignment and cost now, and the suffix keeps the
    newest ``max(depth - l - 1, 1)``, which with the next event are as many
    as a search can use.
    """
    depth = trie.depth
    for s in states:
        codes = s._codes
        pending = len(codes) - s.at
        if pending > depth:
            cut = pending - max(depth - trie.levels[s.node] - 1, 1)
            prevs = s._prevs
            links = s._moves
            link = s._link
            for x in codes[s.at : s.at + cut]:
                prevs.append(link)
                link = len(links)
                links.append(MOVES[x, None])
            s._link = link
            s.cost += cut
            s.moves_len += cut
            s.at += cut


def _best(states: list[State]) -> State:
    # The latest event's states are exactly those with an empty suffix, and
    # there is always one. They share one cost, so the shortest alignment
    # wins, then the smallest node.
    return min((s for s in states if s.at == len(s._codes)), key=lambda s: (s.moves_len, s.node))


class Engine:
    """Single-writer conformance engine over one immutable trie."""

    def __init__(self, config: EngineConfig) -> None:
        """Raises ValueError when ``df`` makes the root's decay time infinite on this trie."""
        trie = config.trie
        self.trie = trie
        # The trie's label -> code map; a label it lacks codes as UNKNOWN.
        self._code = trie.alphabet._code_of.get
        self.policy = config.decay
        self._cap = trie.max_branching + 1
        # decay_time by event index, up to the last index above the floor
        # (min_dt); every later index gets the floor. Index 0, every case's
        # largest issued decay, is its root's.
        try:
            self._decays = [
                decay_time(trie.avg_leaf_depth, i, self.policy)
                for i in range(int(trie.avg_leaf_depth) + 1)
            ]
        except OverflowError:
            raise ValueError(
                f"df {self.policy.df:g} is too large: the decay time on this trie is infinite"
            ) from None
        self._root_decay = self._decays[0]
        # The admission cap's bound on a case's stored states.
        self._case_cap = self._cap * self._root_decay
        # A stored suffix is never longer than its state is old, and no state
        # outlives its case's root decay, so only a root decay past the
        # trie's depth lets a suffix outgrow it.
        self._long_suffixes = self._root_decay > trie.depth
        # No stored suffix outgrows the depth, so past this many codes a
        # case can drop at least depth + 2 of them.
        self._codes_kept = 2 * (trie.depth + 1)
        # The sync move of every code some node carries; any other code
        # (UNKNOWN among them) has no sync successor.
        self._sync = {code: MOVES[code, code] for code in set(trie.labels[1:])}
        self._buffer: dict[str, _CaseEntry] = {}
        self._total_states = 0
        self.peak_total_states = 0

    # -- ingestion ---------------------------------------------------------

    def process(self, case_id: str, activity: str | int, timestamp: str | None = None) -> ProcessResult:
        """Consume one event for ``case_id`` and update its survivor set.

        ``activity`` may be a label or a code of the trie's table; a label
        the trie lacks, and an int outside the table, codes as
        :data:`~trie_align.events.UNKNOWN`, which its moves carry.
        ``timestamp`` is never read; it stays only for the benchmark's call
        sites, which pass it positionally. Returns the per-event result, and
        no timing: :class:`~trie_align.stream.EngineSink` times the call.
        """
        if isinstance(activity, str):
            code = self._code(activity, UNKNOWN)
        else:
            code = activity if 0 <= activity < len(self.trie.alphabet) else UNKNOWN

        entry = self._buffer.get(case_id)
        if entry is None:
            entry = _CaseEntry()
            self._buffer[case_id] = entry
            # One extra event of life: the ageing below takes it back.
            entry.states.append(
                State(0, ROOT, 0, entry.codes, 0, self._root_decay + 1, entry.prevs, entry.moves)
            )
            entry.next_state_id = 1
            self._total_states += 1

        codes = entry.codes
        # The codes before this event; a state whose suffix is empty starts
        # at n, and the states this event creates start at n + 1.
        n = len(codes)
        seen = entry.offset + n + 1
        decays = self._decays
        fresh_decay = decays[seen] if seen < len(decays) else self.policy.min_dt

        # Age: the states that outlive this event survive.
        states = entry.states
        survivors = [s for s in states if s.expires > n + 1]
        if survivors:
            generation = survivors
        else:
            # Decay wiped the whole case; the single best expired state
            # seeds this event's moves (preserving alignment history) but
            # is not retained.
            generation = [_best(states)]

        new_states: list[State] = []
        sync = self._sync.get(code)
        if sync is not None:
            # _successor with one sync move, inlined: this is the path of
            # every conforming event.
            children = self.trie.children
            prevs = entry.prevs
            links = entry.moves
            at = n + 1
            expires = at + fresh_decay
            for s in generation:
                if s.at != n:
                    continue  # events are pending
                off = children[s.node].get(code)
                if off is not None:
                    prevs.append(s._link)
                    link = len(links)
                    links.append(sync)
                    new_states.append(State(
                        -1, s.node + off, s.cost, codes, at, expires, prevs, links, link,
                        s.moves_len + 1, s.state_id,
                    ))

        synced = bool(new_states)
        if not synced:
            # Keep only the cheapest candidates, one state per trie node: a
            # strictly cheaper candidate clears the kept ones; on a node
            # clash the shorter alignment wins, first come first kept on
            # equal length. A replaced state keeps its node's first position
            # in the dict, so the order stays generation order. The running
            # minimum starts at the cheapest log move's cost, which the final
            # minimum never exceeds, so nothing dearer is built or searched
            # for: the search gets the running minimum as its bound.
            min_cost = min(s.cost - s.at for s in generation) + n + 1
            per_node: dict[int, State] = {}
            for s in generation:
                log_cost = s.cost + n + 1 - s.at
                cands = expand_model_moves(self.trie, s, code, fresh_decay, min_cost)
                # The log move is built only when it can be admitted, and
                # ranks before this state's model moves.
                if log_cost <= min_cost:
                    moves = [MOVES[x, None] for x in codes[s.at :]]
                    moves.append(MOVES[code, None])
                    cands.insert(0, _successor(s, s.node, moves, len(moves), fresh_decay))
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
        # (max_branching + 1) x its root decay overall. The new states share
        # one cost, so the shortest alignments survive.
        limit = min(self._cap, self._case_cap - len(survivors))
        if len(new_states) > limit:
            new_states.sort(key=lambda s: s.moves_len)  # stable: keeps generation order
            del new_states[limit:]

        # Every survivor's suffix takes the event; the new states' stay empty.
        codes.append(code)
        if self._long_suffixes and seen > self.trie.depth:
            _commit_unmatchable(self.trie, survivors)

        for s in new_states:
            s.state_id = entry.next_state_id
            entry.next_state_id += 1

        survivors.extend(new_states)
        entry.states = survivors

        if len(codes) > self._codes_kept:
            # Drop the codes no stored state has pending: at least depth + 2.
            drop = min(s.at for s in survivors)
            del codes[:drop]
            entry.offset += drop
            for s in survivors:
                s.at -= drop
                s.expires -= drop

        self._total_states += len(survivors) - len(states)
        if self._total_states > self.peak_total_states:
            self.peak_total_states = self._total_states
        if len(survivors) > entry.peak_states:
            entry.peak_states = len(survivors)

        return ProcessResult(synced, tuple(new_states), new_states[0].cost)

    # -- queries -----------------------------------------------------------

    @property
    def states_created(self) -> int:
        """States created so far, roots included: every case numbers its states from 0."""
        return sum(entry.next_state_id for entry in self._buffer.values())

    def _entry(self, case_id: str) -> _CaseEntry:
        entry = self._buffer.get(case_id)
        if entry is None:
            raise UnknownCaseError(case_id)
        return entry

    def best_state(self, case_id: str) -> State:
        """The best of the states the case's latest event produced.

        These consumed every event and share one cost, so the shortest
        alignment wins, then the smallest node id.
        """
        return _best(self._entry(case_id).states)

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
            events_seen=entry.offset + len(entry.codes),
            states=len(entry.states),
            peak_states=entry.peak_states,
            max_decay_issued=self._root_decay,
        )
