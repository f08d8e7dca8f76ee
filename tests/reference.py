"""Test-side references: alignment checkers, builders and a brute-force search.

Only the tests use these. They are deliberately independent of the
engine's search: :func:`validate` and :func:`alignment_cost` check an
alignment (a tuple of :class:`~trie_align.Move`) against the move grammar
and the trie, and :func:`exhaustive_prefix` enumerates move sequences to
double-check the DP oracle on tiny instances. :func:`child` and
:func:`kids` read the trie's child-offset maps as absolute node ids, and
:func:`absolute_children` builds those maps without the trie.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

from trie_align import Move, Trie, engine
from trie_align.alignment import MOVES, SKIP
from trie_align.trie import ROOT


class InvalidMoveError(ValueError):
    """Raised when a move is outside the sync/log/model grammar."""


class BoundTooSmallError(ValueError):
    """Raised when the enumeration bound cannot certify an optimal cost."""


def sync_move(code: int) -> Move:
    return Move(code, code)


def log_move(code: int) -> Move:
    return Move(code, SKIP)


def is_sync(move: Move) -> bool:
    return move.log is not None and move.model is not None


def _check_move(move: Move) -> None:
    log, model = move
    if log is None and model is None:
        raise InvalidMoveError("(>>, >>) is not a legal move")
    if log is not None and model is not None and log != model:
        raise InvalidMoveError(f"synchronous move must pair equal activities, got {move}")


def alignment_cost(moves: Iterable[Move]) -> int:
    """Total cost: one per asynchronous move, zero per synchronous move.

    Raises:
        InvalidMoveError: if any move is outside the move grammar.
    """
    total = 0
    for move in moves:
        _check_move(move)
        if not is_sync(move):
            total += 1
    return total


def validate(
    moves: Sequence[Move], observed_prefix: Iterable[int], trie: Trie, complete: bool = False
) -> bool:
    """Check both projection invariants of an alignment.

    True iff every move is legal, the log projection equals
    ``observed_prefix``, and the model projection spells a root-anchored
    path in the trie (ending at an end node when ``complete``).
    """
    try:
        for move in moves:
            _check_move(move)
    except InvalidMoveError:
        return False
    if tuple(m.log for m in moves if m.log is not None) != tuple(observed_prefix):
        return False
    node = walk(trie, [m.model for m in moves if m.model is not None])
    if node is None:
        return False
    if complete and not trie.is_end[node]:
        return False
    return True


class State(engine.State):
    """The engine's state, plus a builder from explicit moves."""

    __slots__ = ()

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
        """Build a standalone state whose alignment is ``moves``.

        Its case's codes are ``suffix``, all pending.
        """
        links = [MOVES[x, y] for x, y in moves]
        prevs = array("q", range(-1, len(links) - 1))
        codes = list(suffix)
        expires = len(codes) + decay
        return cls(state_id, node, cost, codes, 0, expires, prevs, links, len(links) - 1, len(links))


def child(trie: Trie, node: int, code: int) -> int | None:
    """Id of ``node``'s child labeled ``code``, or None."""
    off = trie.children[node].get(code)
    return None if off is None else node + off


def kids(trie: Trie, node: int) -> list[int]:
    """Ids of ``node``'s children, in ascending code order."""
    return [node + off for _, off in sorted(trie.children[node].items())]


def absolute_children(paths: Iterable[Sequence[int]]) -> list[dict[int, int]]:
    """Children maps of the trie over ``paths``, as code -> child id.

    Built apart from :class:`Trie`: one plain dict per node, ids in order
    of creation, each map sorted by code.
    """
    children: list[dict[int, int]] = [{}]
    for path in paths:
        node = ROOT
        for code in path:
            if code not in children[node]:
                children[node][code] = len(children)
                children.append({})
            node = children[node][code]
    return [dict(sorted(d.items())) for d in children]


def walk(trie: Trie, seq: Iterable[int]) -> int | None:
    """Node reached by following ``seq`` from the root, or None."""
    node = ROOT
    for code in seq:
        node = child(trie, node, code)
        if node is None:
            return None
    return node


def node_path_labels(trie: Trie, node_id: int) -> list[str]:
    """Activity labels on the root path to ``node_id`` (root excluded)."""
    return [trie.alphabet.label(c) for c in trie.node_path_codes(node_id)]


def exhaustive_prefix(trace: Sequence[int], trie: Trie, depth_bound: int) -> int:
    """Optimal prefix cost by enumerating move sequences up to ``depth_bound``.

    Every legal sequence interleaves synchronous, log, and model moves; a
    sequence of length L consuming the whole trace carries at least
    ``L - len(trace)`` model moves and at least that much cost. A solution
    longer than the bound therefore costs at least
    ``depth_bound + 1 - len(trace)``, so a found cost B with
    ``B <= depth_bound - len(trace) + 1`` cannot be beaten and the
    enumeration is provably complete.

    Intended for tiny instances only (the search is exponential).

    Raises:
        BoundTooSmallError: if the bound cannot certify optimality.
    """
    trace = list(trace)
    best = len(trace)  # all-log-moves solution always exists

    def search(node: int, pos: int, cost: int, depth: int) -> None:
        nonlocal best
        if cost >= best:
            return
        if pos == len(trace):
            best = cost
            return
        if depth == depth_bound:
            return
        sync = child(trie, node, trace[pos])
        if sync is not None:
            search(sync, pos + 1, cost, depth + 1)
        search(node, pos + 1, cost + 1, depth + 1)
        for kid in kids(trie, node):
            search(kid, pos, cost + 1, depth + 1)

    search(ROOT, 0, 0, 0)
    if best > depth_bound - len(trace) + 1:
        raise BoundTooSmallError(
            f"depth bound {depth_bound} cannot certify optimality for a "
            f"length-{len(trace)} trace (best found: {best})"
        )
    return best
