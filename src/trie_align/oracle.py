"""Brute-force optimal alignment costs over the trie, for verification.

Dynamic programming over (trie node, trace position) cells gives the true
optimal prefix and complete alignment costs; a plain enumerative search
over move sequences double-checks the DP on tiny instances. Everything
here is a correctness oracle, deliberately independent of the streaming
engine's data structures, and makes no attempt at being fast.

Recurrence, for node ``n`` with parent ``p`` and the 1-based trace
position ``i``::

    cost[n][i] = min( cost[p][i-1] + (0 if label(n) == trace[i] else 2),
                      cost[p][i]   + 1,      # model move onto n
                      cost[n][i-1] + 1 )     # log move at n

with ``cost[root][0] = 0``, ``cost[n][0] = level(n)`` and
``cost[root][i] = i``. The mismatch (substitution) branch costs a log
move plus a model move, no less than composing the two single-move
branches. Column ``i`` depends only on column ``i - 1``, so the DP holds
two columns at a time and yields costs, not alignments.

The optimal prefix cost is the minimum of the last column over all nodes;
the complete cost additionally pays each node's remaining distance to an
end node. All functions are pure.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .trie import ROOT, Trie


class BoundTooSmallError(ValueError):
    """Raised when the enumeration bound cannot certify an optimal cost."""


def _columns(trace: Sequence[int], trie: Trie) -> Iterator[list[int]]:
    """DP columns 0 to ``len(trace)``; column i covers trace[:i]."""
    n = trie.node_count
    parents = trie.parents
    labels = trie.labels
    prev = trie.levels  # column 0 is all model moves
    yield prev
    for i, symbol in enumerate(trace, 1):
        cur = [i] * n  # only the root keeps i: log moves all the way
        for node in range(1, n):  # parent ids precede child ids
            parent = parents[node]
            best = prev[parent] if labels[node] == symbol else prev[parent] + 2
            via_model = cur[parent] + 1
            if via_model < best:
                best = via_model
            via_log = prev[node] + 1
            if via_log < best:
                best = via_log
            cur[node] = best
        yield cur
        prev = cur


def optimal_prefix_costs(trace: Sequence[int], trie: Trie) -> list[int]:
    """Optimal prefix cost for every prefix of ``trace`` in one DP pass.

    Entry ``i`` is the optimal cost for ``trace[:i]``; entry 0 is always 0.
    """
    return [min(column) for column in _columns(trace, trie)]


def optimal_prefix(trace: Sequence[int], trie: Trie) -> int:
    """True optimal prefix-alignment cost of ``trace`` against the trie.

    The model path may stop at any node (including the root), so an empty
    trace costs zero.
    """
    return optimal_prefix_costs(trace, trie)[-1]


def optimal_complete(trace: Sequence[int], trie: Trie) -> int:
    """True optimal complete-alignment cost: the model path must reach an end node."""
    for last in _columns(trace, trie):
        pass
    return min(cost + rest for cost, rest in zip(last, trie.min_to_end))


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
    children = trie.children
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
        symbol = trace[pos]
        child = children[node].get(symbol)
        if child is not None:
            search(child, pos + 1, cost, depth + 1)
        search(node, pos + 1, cost + 1, depth + 1)
        for kid in children[node].values():
            search(kid, pos, cost + 1, depth + 1)

    search(ROOT, 0, 0, 0)
    if best > depth_bound - len(trace) + 1:
        raise BoundTooSmallError(
            f"depth bound {depth_bound} cannot certify optimality for a "
            f"length-{len(trace)} trace (best found: {best})"
        )
    return best
