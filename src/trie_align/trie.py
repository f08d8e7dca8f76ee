"""Immutable prefix trie over proxy-model behavior.

The trie holds one node per distinct prefix of the proxy log, plus a root
labeled with a sentinel. Each node carries an end marker (set where a full
proxy trace terminates) and the minimum remaining path length to some end
node. A node can be an end node and still have children when one proxy
trace is a prefix of another.

A trie is determined by its end paths. :class:`Trie` inserts code paths;
:func:`build_trie` interns a proxy log's traces into them, and a trie file
holds one per end node, in the order that keeps node ids (see
:func:`serialize_trie`).

Nodes live in parallel arrays indexed by a dense node id; the root is id 0
and every child id is greater than its parent's, so a reverse id sweep
visits children before parents. ``children[n]`` maps an activity code to
the child's id minus ``n``, its offset, so a reader adds ``n`` back. Most
nodes of a proxy trie sit on chains, with one child whose id is their own
plus one: all such nodes with the same child label hold one shared
``{code: 1}`` map, and all leaves hold one shared empty map. A node that
gains any other child gets a map of its own, so no shared map is ever
written. The constructor sorts the children maps by ascending activity
code, which makes every iteration-order-dependent tie-break
deterministic.

Construction also builds a search index over a preorder numbering that
visits children in ascending code order: ``pre[n]`` is a node's position,
``by_pre`` maps a position back to its node id, and the subtree of ``n``
is the position interval ``[pre[n], pre[n] + size[n])``. ``buckets``
maps an activity pair ``(code, next_code)`` to one ascending array of
the positions ``pre[n]`` of the nodes ``n`` that carry ``code`` and have
a child labeled ``next_code``: one entry per trie edge below the root.
So the nodes below a given node that a path ending in a given pair of
labels passes through are one bisected slice of one bucket
(:meth:`Trie.starts_at`), in preorder; within one level, preorder order
is breadth-first order. ``parent_labels`` maps the same pairs to one
string per bucket, aligned with it: character ``i`` is ``chr(label +
1)`` of the parent of the node at ``bucket[i]`` (``chr(0)`` for the
root, whose label is :data:`ROOT_LABEL`). So a slice can keep only the
nodes whose parent carries a third label, a q-gram filter of three
labels for a pair index, and ``str.find`` finds them at C speed. A node
with a child must therefore have a code below :data:`CODE_LIMIT`, the
last code point; the constructor raises :class:`TrieError` otherwise.
The model-move search takes one slice per search, for its newest two
pending events, and filters it by the third-newest when its bound rules
out the round that keeps only the two. One preorder sweep builds the
positions, the buckets and their strings, so every bucket comes out
ascending and none is sorted. The index is derived data: it is not
serialized and :func:`load_trie` rebuilds it.

The structure is immutable after construction and safe to share across
threads for read-only queries.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Sequence

from .events import ActivityTable, ProxyLog

ROOT = 0
ROOT_LABEL = -1
#: Node codes of nodes with children must lie below this: the search index
#: stores each as the character ``chr(code + 1)``.
CODE_LIMIT = 0x10FFFF

_FORMAT_VERSION = 2


class TrieError(ValueError):
    """Raised for invalid trie construction input."""


class TrieFormatError(ValueError):
    """Raised when a serialized trie payload cannot be loaded."""


class Trie:
    """Prefix tree over the code paths given, which index ``alphabet``.

    Paths are inserted from the root in the order given, nodes take ids in
    the order they are created, and the last node of a path is an end node.

    Raises:
        TrieError: if there are no paths, or a node with a child has a code
            the search index cannot hold (see :data:`CODE_LIMIT`).
    """

    __slots__ = (
        "labels",
        "parents",
        "levels",
        "children",
        "is_end",
        "min_to_end",
        "alphabet",
        "node_count",
        "end_count",
        "avg_leaf_depth",
        "max_branching",
        "pre",
        "by_pre",
        "size",
        "buckets",
        "parent_labels",
        "depth",
    )

    def __init__(self, paths: Iterable[Sequence[int]], alphabet: ActivityTable) -> None:
        labels = [ROOT_LABEL]
        parents = [-1]
        levels = [0]
        # Child offsets, in maps shared as the module docstring says: a node
        # gaining a child other than the next id gets a copy, never a write.
        leaf: dict[int, int] = {}
        chains: dict[int, dict[int, int]] = {}
        children = [leaf]
        is_end = [False]
        for path in paths:
            node = ROOT
            for code in path:
                off = children[node].get(code)
                if off is None:
                    nxt = len(labels)
                    labels.append(code)
                    parents.append(node)
                    levels.append(levels[node] + 1)
                    children.append(leaf)
                    is_end.append(False)
                    off = nxt - node
                    if off == 1:  # only a leaf gains the next id
                        shared = chains.get(code)
                        if shared is None:
                            shared = chains[code] = {code: 1}
                        children[node] = shared
                    else:
                        children[node] = {**children[node], code: off}
                    node = nxt
                else:
                    node += off
            is_end[node] = True
        if len(labels) == 1:
            raise TrieError("cannot build a trie from no paths")

        self.labels = labels
        self.parents = parents
        self.levels = levels
        # Keys in ascending code order, so every tie-break is deterministic.
        self.children = children = [dict(sorted(d.items())) if len(d) > 1 else d for d in children]
        self.is_end = is_end
        self.alphabet = alphabet
        self.node_count = len(labels)
        self.end_count = sum(is_end)
        # The deepest node level; the root is level 0.
        self.depth = max(levels)

        # Remaining-path annotation, subtree sizes, leaf depths and the
        # widest fan-out in one sweep, children before parents (child id >
        # parent id). Leaf levels are ints, so their sum is exact in any
        # order.
        n = self.node_count
        min_to_end = [0] * n
        size = array("i", [1]) * n
        leaf_level_sum = leaves = max_branching = 0
        for nid in range(n - 1, -1, -1):
            kids = children[nid]
            if len(kids) == 1:
                (off,) = kids.values()
                kid = nid + off
                size[nid] += size[kid]
                if not is_end[nid]:
                    min_to_end[nid] = min_to_end[kid] + 1
            elif kids:
                size[nid] = 1 + sum(size[nid + off] for off in kids.values())
                if not is_end[nid]:
                    min_to_end[nid] = 1 + min(min_to_end[nid + off] for off in kids.values())
                if len(kids) > max_branching:
                    max_branching = len(kids)
            else:  # a leaf, which ends its path
                leaf_level_sum += levels[nid]
                leaves += 1
        self.min_to_end = min_to_end
        self.size = size
        self.avg_leaf_depth = leaf_level_sum / leaves
        # Without a fork the trie is one chain, as wide as its root.
        self.max_branching = max_branching or len(children[ROOT])

        # One preorder sweep below the root, down each chain and then to
        # the pushed siblings: positions, the node at each, and the pair
        # buckets. A node at position ``pos`` adds ``pos`` to the bucket of
        # (its label, child label) for each child, and ``mark``, its
        # parent's chr(label + 1), to that bucket's string; positions grow
        # along the sweep, so every bucket comes out ascending. The root's
        # children take chr(0).
        pre = array("i", [0]) * n
        by_pre = array("i", [ROOT]) * n
        buckets: dict[tuple[int, int], array] = {}
        marks: dict[tuple[int, int], list[str]] = {}
        todo = [(ROOT + off, "\0") for off in reversed(children[ROOT].values())]
        pos = 1
        while todo:
            nid, mark = todo.pop()
            while True:
                pre[nid] = pos
                by_pre[pos] = nid
                kids = children[nid]
                if not kids:
                    pos += 1
                    break
                label = labels[nid]
                for code in kids:
                    key = (label, code)
                    bucket = buckets.get(key)
                    if bucket is None:
                        buckets[key] = array("i", [pos])
                        marks[key] = [mark]
                    else:
                        bucket.append(pos)
                        marks[key].append(mark)
                pos += 1
                try:
                    mark = chr(label + 1)
                except ValueError:
                    raise TrieError(
                        f"cannot index node code {label}: a node with a child "
                        f"needs a code below {CODE_LIMIT:#x}"
                    ) from None
                if len(kids) > 1:
                    todo += [(nid + off, mark) for off in reversed(kids.values())]
                    break
                nid += kids[code]  # a chain: on to the only child
        self.pre = pre
        self.by_pre = by_pre
        self.buckets = buckets
        self.parent_labels = {key: "".join(chars) for key, chars in marks.items()}

    # -- queries ---------------------------------------------------------

    def path_match(self, start_id: int, seq: list[int] | tuple[int, ...]) -> int | None:
        """Terminal node of the downward path spelling ``seq`` from ``start_id``.

        The start node itself must carry the first label of ``seq``; the
        rest of the sequence is matched against successive children.
        Returns None as soon as any step is missing.
        """
        if not seq:
            raise ValueError("path_match requires a non-empty sequence")
        if self.labels[start_id] != seq[0]:
            return None
        node = start_id
        children = self.children
        for code in seq[1:]:
            off = children[node].get(code)
            if off is None:
                return None
            node += off
        return node

    def starts_at(
        self, node_id: int, code: int, next_code: int, prev_code: int | None = None
    ) -> list[int]:
        """Strict descendants of ``node_id`` that carry ``code`` and have a
        child labeled ``next_code``; with ``prev_code``, only those whose
        parent, not the root, carries ``prev_code``.

        Node ids in preorder, at every level below the node. Empty for a
        pair no edge carries, including any pair with the code of an
        activity the trie lacks. The ``prev_code`` filter finds the slice
        positions whose ``parent_labels`` character is ``chr(prev_code +
        1)`` with ``str.find``; no parent carries a negative code
        (:data:`ROOT_LABEL` or :data:`~trie_align.events.UNKNOWN`), one
        past the table or one of :data:`CODE_LIMIT` or more.
        """
        bucket = self.buckets.get((code, next_code))
        if bucket is None:
            return []
        start = self.pre[node_id]
        lo = bisect_left(bucket, start + 1)
        hi = bisect_left(bucket, start + self.size[node_id], lo)
        if lo == hi:
            return []
        by_pre = self.by_pre
        if prev_code is None:
            return list(map(by_pre.__getitem__, bucket[lo:hi]))
        if not 0 <= prev_code < CODE_LIMIT:
            return []
        find = self.parent_labels[code, next_code].find
        mark = chr(prev_code + 1)
        out = []
        i = find(mark, lo, hi)
        while i >= 0:
            out.append(by_pre[bucket[i]])
            i = find(mark, i + 1, hi)
        return out

    def min_completion_path(self, node_id: int) -> list[int]:
        """A shortest label path from ``node_id`` down to some end node.

        Empty for an end node. Among equally short continuations the child
        with the smallest activity code wins, so the result is unique.
        """
        path: list[int] = []
        node = node_id
        remaining = self.min_to_end[node]
        while remaining > 0:
            for code, off in self.children[node].items():  # ascending code order
                if self.min_to_end[node + off] == remaining - 1:
                    path.append(code)
                    node += off
                    remaining -= 1
                    break
            else:  # pragma: no cover - annotations guarantee a child exists
                raise AssertionError("inconsistent min_to_end annotations")
        return path

    def node_path_codes(self, node_id: int) -> list[int]:
        """Activity codes on the root path to ``node_id`` (root excluded)."""
        codes: list[int] = []
        node = node_id
        while node != ROOT:
            codes.append(self.labels[node])
            node = self.parents[node]
        codes.reverse()
        return codes

    def end_node_ids(self) -> list[int]:
        return [nid for nid, end in enumerate(self.is_end) if end]

    def model_activity_labels(self) -> list[str]:
        """Labels actually used by trie nodes, in code order: the draw pool for noise insertion.

        The alphabet table may hold more: a loaded payload can list labels
        no node carries, and a caller may intern into the table.
        """
        return [self.alphabet.label(code) for code in sorted(set(self.labels[1:]))]

    # -- equality (serialization round-trips) ----------------------------

    def _structure(self) -> tuple:
        return (
            self.labels,
            self.parents,
            [sorted(d.items()) for d in self.children],
            self.is_end,
            self.min_to_end,
            self.alphabet.labels(),
            self.avg_leaf_depth,
            self.max_branching,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trie):
            return NotImplemented
        return self._structure() == other._structure()

    def __repr__(self) -> str:
        return (
            f"Trie(nodes={self.node_count}, ends={self.end_count}, "
            f"avg_leaf_depth={self.avg_leaf_depth:.2f}, max_branching={self.max_branching})"
        )


def build_trie(proxy: ProxyLog) -> Trie:
    """Construct the prefix trie for a proxy log.

    One node per distinct prefix; the terminal node of every proxy trace is
    flagged as an end node. Labels are interned into a fresh table in
    order of first appearance, and the traces become the trie's paths.

    Raises:
        TrieError: if the proxy log holds no traces.
    """
    table = ActivityTable()
    return Trie(([table.intern(label) for label in seq] for seq in proxy.traces), table)


def serialize_trie(trie: Trie) -> bytes:
    """Serialize a trie to a versioned JSON payload (UTF-8 bytes).

    The payload is ``{"version": 2, "alphabet": [...], "paths": [...]}``:
    the table's labels in code order and one code path per end node, in
    end-node id order. The nodes with ids up to an end node's are exactly
    the nodes on the paths of the end nodes up to it, so inserting the
    paths in this order gives every node its old id, and with it every
    tie-break and the search index. Nothing derived is stored.
    """
    doc = {
        "version": _FORMAT_VERSION,
        "alphabet": trie.alphabet.labels(),
        "paths": [trie.node_path_codes(end) for end in trie.end_node_ids()],
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def load_trie(payload: bytes) -> Trie:
    """Load a trie serialized by :func:`serialize_trie`.

    A payload of another version (a version-1 node table included) is
    rejected; rebuild its trie from the proxy log with ``build-trie``.

    Raises:
        TrieFormatError: on a version that is not the int 2 or a corrupt
            payload (bad JSON, an alphabet that is not a list of distinct
            non-empty strings, or a path list that is empty or holds
            anything but non-empty lists of in-range int codes).
    """
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise TrieFormatError(f"corrupt trie payload: {exc}") from exc
    if not isinstance(doc, dict):
        raise TrieFormatError("corrupt trie payload: not a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != _FORMAT_VERSION:
        raise TrieFormatError(f"unsupported trie format version: {version!r}")
    names = doc.get("alphabet")
    if type(names) is not list or not all(type(name) is str and name for name in names):
        raise TrieFormatError(
            "corrupt trie payload: activity labels must be a list of non-empty strings"
        )
    alphabet = ActivityTable(names)
    if len(alphabet) != len(names):
        raise TrieFormatError("corrupt trie payload: duplicate activity label")
    paths = doc.get("paths")
    if type(paths) is not list or not paths:
        raise TrieFormatError("corrupt trie payload: paths must be a non-empty list")
    n_labels = len(names)
    for i, path in enumerate(paths):
        # Exact ints only: a float, string or bool code is corrupt, not coerced.
        if type(path) is not list or not path or not all(
            type(code) is int and 0 <= code < n_labels for code in path
        ):
            raise TrieFormatError(f"corrupt trie payload: bad path {i}")
    return Trie(paths, alphabet)
