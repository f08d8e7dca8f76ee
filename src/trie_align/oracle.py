"""Optimal alignment costs over the trie, for verification.

Dynamic programming over (trie node, trace position) cells gives the true
optimal prefix and complete alignment costs. It is a correctness oracle,
deliberately independent of the streaming engine's data structures, and
makes no attempt at being fast.

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

from .trie import Trie


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

