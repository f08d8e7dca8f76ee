"""Immutable prefix trie over proxy-model behavior.

The trie holds one node per distinct prefix of the proxy log, plus a root
labeled with a sentinel. Each node carries an end marker (set where a full
proxy trace terminates) and the minimum remaining path length to some end
node. A node can be an end node and still have children when one proxy
trace is a prefix of another.

Nodes live in parallel arrays indexed by a dense node id; the root is id 0
and every child id is greater than its parent's, so a reverse id sweep
visits children before parents. The :class:`Trie` constructor rebuilds
the children maps with keys in ascending activity-code order, which makes
every iteration-order-dependent tie-break deterministic.

Construction also builds a search index over a preorder numbering that
visits children in ascending code order: ``pre[n]`` is a node's position,
``by_pre`` maps a position back to its node id, and the subtree of ``n``
is the position interval ``[pre[n], pre[n] + size[n])``. ``buckets``
maps an activity pair ``(code, next_code)`` to one sorted array with an
entry ``level * node_count + pre[n]`` for each node ``n`` that carries
``code`` and has a child labeled ``next_code``: one entry per trie edge
below the root. The entries of one level are consecutive and in
preorder, so the nodes at one level below a given node from which a
two-event path starts are a bisected slice of one bucket
(:meth:`Trie.starts_at`). Within one level, preorder order is
breadth-first order. The index is derived data: it is not serialized and
:func:`load_trie` rebuilds it.

The structure is immutable after :func:`build_trie` and safe to share
across threads for read-only queries.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left

from .events import ActivityTable, ProxyLog

ROOT = 0
ROOT_LABEL = -1

_FORMAT_VERSION = 1


class TrieError(ValueError):
    """Raised for invalid trie construction input."""


class TrieFormatError(ValueError):
    """Raised when a serialized trie payload cannot be loaded."""


class Trie:
    """Prefix tree over interned activity sequences. Build via :func:`build_trie`."""

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
        "_depth",
    )

    def __init__(
        self,
        labels: list[int],
        parents: list[int],
        levels: list[int],
        children: list[dict[int, int]],
        is_end: list[bool],
        alphabet: ActivityTable,
    ) -> None:
        self.labels = labels
        self.parents = parents
        self.levels = levels
        # Keys in ascending code order, so every tie-break is deterministic.
        self.children = children = [dict(sorted(d.items())) if len(d) > 1 else d for d in children]
        self.is_end = is_end
        self.alphabet = alphabet
        self.node_count = len(labels)
        self.end_count = sum(is_end)
        self._depth = max(levels)

        # Remaining-path annotation, subtree sizes, leaf depths and the
        # widest fan-out in one sweep, children before parents (child id >
        # parent id). Leaf levels are ints, so their sum is exact in any
        # order. ``offset`` is a child's preorder position relative to its
        # parent's: it follows the parent and its elder siblings' subtrees.
        n = self.node_count
        min_to_end = [0] * n
        size = array("i", [1]) * n
        offset = array("i", [1]) * n
        leaf_level_sum = leaves = max_branching = 0
        for nid in range(n - 1, -1, -1):
            kids = children[nid]
            if len(kids) == 1:
                (kid,) = kids.values()
                size[nid] += size[kid]
                if not is_end[nid]:
                    min_to_end[nid] = min_to_end[kid] + 1
            elif kids:
                at = 1
                for kid in kids.values():  # ascending code order
                    offset[kid] = at
                    at += size[kid]
                size[nid] = at
                if not is_end[nid]:
                    min_to_end[nid] = 1 + min(map(min_to_end.__getitem__, kids.values()))
                if len(kids) > max_branching:
                    max_branching = len(kids)
            elif is_end[nid]:
                leaf_level_sum += levels[nid]
                leaves += 1
            else:
                raise TrieError(f"leaf node {nid} is not an end node")
        self.min_to_end = min_to_end
        self.size = size
        self.avg_leaf_depth = leaf_level_sum / leaves if leaves else 0.0
        # Without a fork the trie is one chain, as wide as its root.
        self.max_branching = max_branching or len(children[ROOT])

        # Preorder positions, parents before children.
        pre = array("i", [0]) * n
        for nid in range(1, n):
            pre[nid] = pre[parents[nid]] + offset[nid]
        by_pre = array("i", [0]) * n
        for nid, pos in enumerate(pre):
            by_pre[pos] = nid
        self.pre = pre
        self.by_pre = by_pre

        # One bucket per activity pair (code, child code). Every edge below
        # the root adds its parent as ``level * n + position``, so a sorted
        # bucket holds the parents level by level, each level in preorder.
        pairs: dict[tuple[int, int], list[int]] = {}
        for kid in range(1, n):
            parent = parents[kid]
            if parent:
                key = (labels[parent], labels[kid])
                entry = levels[parent] * n + pre[parent]
                bucket = pairs.get(key)
                if bucket is None:
                    pairs[key] = [entry]
                else:
                    bucket.append(entry)
        self.buckets = {key: array("q", sorted(entries)) for key, entries in pairs.items()}

    @property
    def depth(self) -> int:
        """The deepest node level; the root is level 0."""
        return self._depth

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
            nxt = children[node].get(code)
            if nxt is None:
                return None
            node = nxt
        return node

    def starts_at(self, node_id: int, code: int, next_code: int, level: int) -> list[int]:
        """Strict descendants of ``node_id`` at ``level`` that carry ``code``
        and have a child labeled ``next_code``.

        Node ids in preorder, which within one level is breadth-first
        order. Empty for a pair no edge carries, including any pair with
        the code of an activity the trie lacks.
        """
        bucket = self.buckets.get((code, next_code))
        if bucket is None:
            return []
        base = level * self.node_count
        start = base + self.pre[node_id]
        lo = bisect_left(bucket, start + 1)
        hi = bisect_left(bucket, start + self.size[node_id], lo)
        by_pre = self.by_pre
        return [by_pre[entry - base] for entry in bucket[lo:hi]]

    def min_completion_path(self, node_id: int) -> list[int]:
        """A shortest label path from ``node_id`` down to some end node.

        Empty for an end node. Among equally short continuations the child
        with the smallest activity code wins, so the result is unique.
        """
        path: list[int] = []
        node = node_id
        remaining = self.min_to_end[node]
        while remaining > 0:
            for code, kid in self.children[node].items():  # ascending code order
                if self.min_to_end[kid] == remaining - 1:
                    path.append(code)
                    node = kid
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

    def node_path_labels(self, node_id: int) -> list[str]:
        return [self.alphabet.label(c) for c in self.node_path_codes(node_id)]

    def walk(self, seq: list[int] | tuple[int, ...]) -> int | None:
        """Node reached by following ``seq`` from the root, or None."""
        node = ROOT
        for code in seq:
            nxt = self.children[node].get(code)
            if nxt is None:
                return None
            node = nxt
        return node

    def end_node_ids(self) -> list[int]:
        return [nid for nid, end in enumerate(self.is_end) if end]

    def model_activity_labels(self) -> list[str]:
        """Labels actually used by trie nodes, in code order: the draw pool for noise insertion.

        The alphabet table may hold more: a loaded payload can list labels
        no node carries, and a caller may intern into the table.
        """
        return [self.alphabet.label(code) for code in sorted(set(self.labels[1:]))]

    def end_path_codes(self, end_id: int) -> list[int]:
        """Root-to-end label codes for one end node (a distinct proxy trace)."""
        if not self.is_end[end_id]:
            raise ValueError(f"node {end_id} is not an end node")
        return self.node_path_codes(end_id)

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
    flagged as an end node. Labels are interned into a fresh table.

    Raises:
        TrieError: if the proxy log holds no traces.
    """
    if len(proxy) == 0:
        raise TrieError("cannot build a trie from an empty proxy log")
    table = ActivityTable()

    labels = [ROOT_LABEL]
    parents = [-1]
    levels = [0]
    children: list[dict[int, int]] = [{}]
    is_end = [False]

    for seq in proxy.traces:
        node = ROOT
        for label in seq:
            code = table.intern(label)
            nxt = children[node].get(code)
            if nxt is None:
                nxt = len(labels)
                labels.append(code)
                parents.append(node)
                levels.append(levels[node] + 1)
                children.append({})
                is_end.append(False)
                children[node][code] = nxt
            node = nxt
        is_end[node] = True

    return Trie(labels, parents, levels, children, is_end, table)


def serialize_trie(trie: Trie) -> bytes:
    """Serialize a trie to a versioned JSON payload (UTF-8 bytes)."""
    doc = {
        "version": _FORMAT_VERSION,
        "node_count": trie.node_count,
        "end_count": trie.end_count,
        "avg_leaf_depth": trie.avg_leaf_depth,
        "max_branching": trie.max_branching,
        "alphabet": trie.alphabet.labels(),
        "nodes": [
            [trie.parents[n], trie.labels[n], int(trie.is_end[n])]
            for n in range(1, trie.node_count)
        ],
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def load_trie(payload: bytes) -> Trie:
    """Load a trie serialized by :func:`serialize_trie`.

    Raises:
        TrieFormatError: on a version mismatch or corrupt payload (bad
            JSON, missing fields, empty, non-string or repeated activity
            labels, a node row that is not three ints ``parent, label,
            end`` with an earlier parent, a known label and an end flag
            of 0 or 1, or header counts that disagree with the node table).
    """
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise TrieFormatError(f"corrupt trie payload: {exc}") from exc
    if not isinstance(doc, dict):
        raise TrieFormatError("corrupt trie payload: not a JSON object")
    version = doc.get("version")
    if version != _FORMAT_VERSION:
        raise TrieFormatError(f"unsupported trie format version: {version!r}")
    try:
        names = list(doc["alphabet"])
        rows = doc["nodes"]
        node_count = int(doc["node_count"])
        end_count = int(doc["end_count"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TrieFormatError(f"corrupt trie payload: {exc}") from exc
    if not all(isinstance(name, str) and name for name in names):
        raise TrieFormatError("corrupt trie payload: activity labels must be non-empty strings")
    alphabet = ActivityTable(names)
    if len(alphabet) != len(names):
        raise TrieFormatError("corrupt trie payload: duplicate activity label")

    if node_count != len(rows) + 1:
        raise TrieFormatError(
            f"corrupt trie payload: header says {node_count} nodes, table has {len(rows) + 1}"
        )

    labels = [ROOT_LABEL]
    parents = [-1]
    levels = [0]
    children: list[dict[int, int]] = [{}]
    is_end = [False]
    n_labels = len(alphabet)
    for nid, row in enumerate(rows, start=1):
        try:
            parent, label, end = row
        except (TypeError, ValueError) as exc:
            raise TrieFormatError(f"corrupt trie payload: bad node row {nid}") from exc
        # Exact ints only: a float, string or bool field is corrupt, not coerced.
        if (
            type(parent) is not int
            or type(label) is not int
            or type(end) is not int
            or not (0 <= parent < nid and 0 <= label < n_labels and 0 <= end <= 1)
        ):
            raise TrieFormatError(f"corrupt trie payload: bad node row {nid}")
        labels.append(label)
        parents.append(parent)
        levels.append(levels[parent] + 1)
        children.append({})
        is_end.append(end == 1)
        if label in children[parent]:
            raise TrieFormatError(f"corrupt trie payload: duplicate child at node {parent}")
        children[parent][label] = nid

    # Free the parsed rows first: fewer live objects for the garbage
    # collector to walk while the search index is built.
    del doc, rows
    try:
        trie = Trie(labels, parents, levels, children, is_end, alphabet)
    except TrieError as exc:
        raise TrieFormatError(f"corrupt trie payload: {exc}") from exc
    if trie.end_count != end_count:
        raise TrieFormatError("corrupt trie payload: end-count header mismatch")
    return trie
