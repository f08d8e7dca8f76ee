"""Immutable prefix trie over proxy-model behavior.

The trie holds one node per distinct prefix of the proxy log, plus a root
labeled with a sentinel. Each node carries an end marker (set where a full
proxy trace terminates) and the minimum remaining path length to some end
node. A node can be an end node and still have children when one proxy
trace is a prefix of another.

Nodes live in parallel arrays indexed by a dense node id; the root is id 0
and every child id is greater than its parent's, so a reverse id sweep
visits children before parents. Children maps are rebuilt with keys in
ascending activity-code order after construction, which makes every
iteration-order-dependent tie-break deterministic.

Construction also builds a search index over a preorder numbering that
visits children in ascending code order: ``pre[n]`` is a node's position,
``by_pre`` maps a position back to its node id, and the subtree of ``n``
is the position interval ``[pre[n], pre[n] + size[n])``. ``buckets``
maps an activity code to one sorted array of positions per trie level,
so the nodes that carry a code at one level below a given node are a
bisected slice of one bucket (:meth:`Trie.starts_at`). Within one level,
preorder order is breadth-first order. The index is derived data: it is
not serialized and :func:`load_trie` rebuilds it.

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
        "_end_ids",
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
        self.children = children
        self.is_end = is_end
        self.alphabet = alphabet
        self.node_count = len(labels)
        self.end_count = sum(is_end)
        self._end_ids = [nid for nid, end in enumerate(is_end) if end]

        leaf_levels = [levels[n] for n in range(self.node_count) if not children[n]]
        self.avg_leaf_depth = sum(leaf_levels) / len(leaf_levels) if leaf_levels else 0.0
        self.max_branching = max(len(d) for d in children)

        # Remaining-path annotation and subtree sizes, children before
        # parents (child id > parent id).
        n = self.node_count
        min_to_end = [0] * n
        size = array("i", [1]) * n
        for nid in range(n - 1, -1, -1):
            kids = children[nid]
            if len(kids) == 1:
                (kid,) = kids.values()
                size[nid] += size[kid]
                if not is_end[nid]:
                    min_to_end[nid] = min_to_end[kid] + 1
            elif kids:
                size[nid] += sum(map(size.__getitem__, kids.values()))
                if not is_end[nid]:
                    min_to_end[nid] = 1 + min(map(min_to_end.__getitem__, kids.values()))
            elif not is_end[nid]:
                raise TrieError(f"leaf node {nid} is not an end node")
        self.min_to_end = min_to_end
        self.size = size

        # Preorder positions, parents before children: each child starts
        # right after its elder siblings' subtrees.
        pre = array("i", [0]) * n
        by_pre = array("i", [0]) * n
        for nid in range(n):
            pos = pre[nid]
            by_pre[pos] = nid
            pos += 1
            for kid in children[nid].values():
                pre[kid] = pos
                pos += size[kid]
        self.pre = pre
        self.by_pre = by_pre

        # Per-code, per-level position buckets, filled in preorder so each
        # is ascending. The root carries no activity and is left out.
        height = max(levels) + 1
        buckets: dict[int, list[array]] = {}
        for pos in range(1, n):
            nid = by_pre[pos]
            rows = buckets.get(labels[nid])
            if rows is None:
                rows = buckets[labels[nid]] = [array("i") for _ in range(height)]
            rows[levels[nid]].append(pos)
        self.buckets = buckets

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

    def starts_at(self, node_id: int, code: int, level: int) -> list[int]:
        """Strict descendants of ``node_id`` at ``level`` that carry ``code``.

        Node ids in preorder, which within one level is breadth-first
        order. Empty for a code no node carries, including codes interned
        after the trie was built.
        """
        rows = self.buckets.get(code)
        if rows is None or level >= len(rows):
            return []
        bucket = rows[level]
        start = self.pre[node_id]
        lo = bisect_left(bucket, start + 1)
        hi = bisect_left(bucket, start + self.size[node_id], lo)
        by_pre = self.by_pre
        return [by_pre[pos] for pos in bucket[lo:hi]]

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
        return list(self._end_ids)

    def model_activity_labels(self) -> list[str]:
        """Labels actually used by trie nodes, in code order.

        Unlike the alphabet table, this is immune to later interning of
        stream-only activities and is the right draw pool for noise
        insertion.
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

    children = [dict(sorted(d.items())) if len(d) > 1 else d for d in children]
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
            JSON, missing fields, dangling parents, or header counts that
            disagree with the node table).
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
        alphabet = ActivityTable(list(doc["alphabet"]))
        rows = doc["nodes"]
        node_count = int(doc["node_count"])
        end_count = int(doc["end_count"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TrieFormatError(f"corrupt trie payload: {exc}") from exc

    if node_count != len(rows) + 1:
        raise TrieFormatError(
            f"corrupt trie payload: header says {node_count} nodes, table has {len(rows) + 1}"
        )

    labels = [ROOT_LABEL]
    parents = [-1]
    levels = [0]
    children: list[dict[int, int]] = [{}]
    is_end = [False]
    for nid, row in enumerate(rows, start=1):
        try:
            parent, label, end = int(row[0]), int(row[1]), bool(row[2])
        except (TypeError, ValueError, IndexError) as exc:
            raise TrieFormatError(f"corrupt trie payload: bad node row {nid}") from exc
        if not 0 <= parent < nid or not 0 <= label < len(alphabet):
            raise TrieFormatError(f"corrupt trie payload: bad node row {nid}")
        labels.append(label)
        parents.append(parent)
        levels.append(levels[parent] + 1)
        children.append({})
        is_end.append(end)
        if label in children[parent]:
            raise TrieFormatError(f"corrupt trie payload: duplicate child at node {parent}")
        children[parent][label] = nid

    children = [dict(sorted(d.items())) if len(d) > 1 else d for d in children]
    try:
        trie = Trie(labels, parents, levels, children, is_end, alphabet)
    except TrieError as exc:
        raise TrieFormatError(f"corrupt trie payload: {exc}") from exc
    if trie.end_count != end_count:
        raise TrieFormatError("corrupt trie payload: end-count header mismatch")
    return trie
