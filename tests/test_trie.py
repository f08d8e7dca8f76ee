from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trie_align import (
    UNKNOWN,
    ActivityTable,
    ProxyLog,
    Trie,
    TrieError,
    TrieFormatError,
    build_trie,
    load_trie,
    parse_proxy_log,
    serialize_trie,
)
from trie_align.trie import CODE_LIMIT, ROOT, ROOT_LABEL

from .conftest import WORKFLOW_TRACES
from .reference import absolute_children, child, kids, walk

# serialize_trie output for the workflow trie: one code path per end node,
# in end-node id order. The search index must never reach the file format.
WORKFLOW_PAYLOAD = (
    b'{"version":2,"alphabet":["a","b","c","d","e"],"paths":[[0,1,2,3,1,4],[0,1,2,4],'
    b"[0,1,3,1,4],[0,1,3,1,2,4],[0,1,3,2,1,4],[0,1,4],[0,2,1,3,1,4],[0,2,1,4]]}"
)

# The same trie in the version-1 node-table format, which no longer loads.
WORKFLOW_PAYLOAD_V1 = (
    b'{"version":1,"node_count":23,"end_count":8,"avg_leaf_depth":5.0,"max_branching":3,'
    b'"alphabet":["a","b","c","d","e"],"nodes":[[0,0,0],[1,1,0],[2,2,0],[3,3,0],[4,1,0],'
    b"[5,4,1],[3,4,1],[2,3,0],[8,1,0],[9,4,1],[9,2,0],[11,4,1],[8,2,0],[13,1,0],[14,4,1],"
    b"[2,4,1],[1,2,0],[17,1,0],[18,3,0],[19,1,0],[20,4,1],[18,4,1]]}"
)

MISSING = object()


def distinct_prefixes(traces) -> set[tuple[str, ...]]:
    """Independent enumeration of every non-empty prefix of the traces."""
    prefixes = set()
    for trace in traces:
        for i in range(1, len(trace) + 1):
            prefixes.add(tuple(trace[:i]))
    return prefixes


class TestBuildTrie:
    def test_one_node_per_distinct_prefix(self, workflow_trie):
        expected = distinct_prefixes(WORKFLOW_TRACES)
        assert len(expected) == 22  # enumerated independently of the builder
        assert workflow_trie.node_count == len(expected) + 1  # + root

    def test_end_markers(self, workflow_trie):
        assert workflow_trie.end_count == 8
        for trace in WORKFLOW_TRACES:
            codes = [workflow_trie.alphabet.code(a) for a in trace]
            node = walk(workflow_trie, codes)
            assert node is not None and workflow_trie.is_end[node]

    def test_avg_leaf_depth(self, workflow_trie):
        # Leaf depths of the eight sample traces: {6,4,5,6,6,3,6,4} -> 40/8.
        assert workflow_trie.avg_leaf_depth == pytest.approx(5.0)

    def test_max_branching(self, workflow_trie):
        assert workflow_trie.max_branching == 3

    def test_depth_is_derived(self, workflow_trie):
        assert workflow_trie.depth == max(workflow_trie.levels) == 6
        assert load_trie(serialize_trie(workflow_trie)).depth == 6

    def test_alphabet_holds_only_the_proxy_labels(self, workflow_trie):
        # Some tests intern stream-only labels into the trie's alphabet, so
        # this fails whenever an earlier test shared the fixture.
        assert workflow_trie.alphabet.labels() == list("abcde")

    def test_single_activity_trace(self):
        trie = build_trie(ProxyLog((("a",),)))
        assert trie.node_count == 2
        node = walk(trie, [trie.alphabet.code("a")])
        assert trie.is_end[node]
        assert trie.min_to_end[node] == 0
        assert trie.avg_leaf_depth == pytest.approx(1.0)

    def test_empty_proxy_rejected(self):
        with pytest.raises(TrieError):
            build_trie(ProxyLog(()))

    def test_end_node_with_children(self):
        # One sample trace being a prefix of another keeps both end markers.
        trie = build_trie(parse_proxy_log("a,b,c\na,b\n"))
        ab = walk(trie, [trie.alphabet.code("a"), trie.alphabet.code("b")])
        assert trie.is_end[ab]
        assert kids(trie, ab)
        assert trie.min_to_end[ab] == 0

    def test_node_budget(self, workflow_trie, workflow_proxy):
        total_activities = sum(len(seq) for seq in workflow_proxy.traces)
        assert workflow_trie.node_count <= total_activities + 1


class TestQueries:
    def test_root_child(self, workflow_trie):
        a = workflow_trie.alphabet.code("a")
        node = child(workflow_trie, ROOT, a)
        assert node is not None
        assert workflow_trie.labels[node] == a

    def test_missing_child(self, workflow_trie):
        table = workflow_trie.alphabet
        ab = walk(workflow_trie, [table.code("a"), table.code("b")])
        assert child(workflow_trie, ab, table.code("b")) is None

    def test_unknown_code_child(self, workflow_trie):
        assert child(workflow_trie, ROOT, 9999) is None

    def test_path_match_single_node(self, workflow_trie):
        table = workflow_trie.alphabet
        abd_b = walk(workflow_trie, [table.code(x) for x in "abdb"])
        assert workflow_trie.path_match(abd_b, [table.code("b")]) == abd_b

    def test_path_match_descends(self, workflow_trie):
        table = workflow_trie.alphabet
        abc = walk(workflow_trie, [table.code(x) for x in "abc"])
        expected = walk(workflow_trie, [table.code(x) for x in "abce"])
        assert workflow_trie.path_match(abc, [table.code("c"), table.code("e")]) == expected

    def test_path_match_label_mismatch(self, workflow_trie):
        table = workflow_trie.alphabet
        a = walk(workflow_trie, [table.code("a")])
        assert workflow_trie.path_match(a, [table.code("b")]) is None

    def test_path_match_rejects_an_empty_sequence(self, workflow_trie):
        with pytest.raises(ValueError, match="non-empty"):
            workflow_trie.path_match(ROOT, [])

    def test_min_completion_path(self, workflow_trie):
        table = workflow_trie.alphabet
        abc = walk(workflow_trie, [table.code(x) for x in "abc"])
        assert workflow_trie.min_completion_path(abc) == [table.code("e")]
        abce = walk(workflow_trie, [table.code(x) for x in "abce"])
        assert workflow_trie.min_completion_path(abce) == []
        ab = walk(workflow_trie, [table.code(x) for x in "ab"])
        assert workflow_trie.min_completion_path(ab) == [table.code("e")]

    def test_min_completion_tie_breaks_on_smallest_code(self):
        trie = build_trie(parse_proxy_log("a,b\na,c\n"))
        table = trie.alphabet
        a = walk(trie, [table.code("a")])
        assert trie.min_completion_path(a) == [table.code("b")]

    def test_model_activity_labels_ignore_stream_interning(self, workflow_proxy):
        trie = build_trie(workflow_proxy)
        before = trie.model_activity_labels()
        trie.alphabet.intern("zzz")  # stream-side symbol
        assert trie.model_activity_labels() == before == list("abcde")

    def test_min_max_annotations_by_recomputation(self, workflow_trie):
        trie = workflow_trie
        for node in range(trie.node_count):
            below = [trie.min_to_end[k] for k in kids(trie, node)]
            if trie.is_end[node]:
                assert trie.min_to_end[node] == 0
            else:
                assert trie.min_to_end[node] == 1 + min(below)

    def test_every_leaf_is_end(self, workflow_trie):
        for node in range(workflow_trie.node_count):
            if not kids(workflow_trie, node):
                assert workflow_trie.is_end[node]

    def test_end_paths_spell_proxy_traces(self, workflow_trie):
        spelled = set()
        for end in workflow_trie.end_node_ids():
            codes = workflow_trie.node_path_codes(end)
            spelled.add(tuple(workflow_trie.alphabet.label(c) for c in codes))
        assert spelled == {tuple(t) for t in WORKFLOW_TRACES}


class TestSerialization:
    def test_round_trip_structural_equality(self, workflow_trie):
        assert load_trie(serialize_trie(workflow_trie)) == workflow_trie

    def test_truncated_payload_rejected(self, workflow_trie):
        payload = serialize_trie(workflow_trie)
        with pytest.raises(TrieFormatError):
            load_trie(payload[: len(payload) // 2])

    def test_non_object_payload_rejected(self):
        with pytest.raises(TrieFormatError, match="not a JSON object"):
            load_trie(b"[]")

    def test_version_mismatch_rejected(self, workflow_trie):
        doc = json.loads(serialize_trie(workflow_trie))
        doc["version"] = 99
        with pytest.raises(TrieFormatError, match="version"):
            load_trie(json.dumps(doc).encode())

    def test_version_1_payload_rejected(self):
        with pytest.raises(TrieFormatError, match="version"):
            load_trie(WORKFLOW_PAYLOAD_V1)

    @pytest.mark.parametrize("alphabet", [["b", "a", "a"], [5, 6], ["a", ""]])
    def test_bad_alphabet_rejected(self, alphabet):
        doc = json.loads(serialize_trie(build_trie(ProxyLog((("a", "b"),)))))
        doc["alphabet"] = alphabet
        with pytest.raises(TrieFormatError, match="activity label"):
            load_trie(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "field, value, match",
        [
            pytest.param("paths", [[0, 1], 7], "bad path 1", id="path-not-a-list"),
            pytest.param("paths", [[0, 1], []], "bad path 1", id="empty-path"),
            pytest.param("paths", [[0, 1.0], [0, 2]], "bad path 0", id="code-1.0"),
            pytest.param("paths", [[0, 1.9], [0, 2]], "bad path 0", id="code-1.9"),
            pytest.param("paths", [[0, "1"], [0, 2]], "bad path 0", id="code-str"),
            pytest.param("paths", [[0, True], [0, 2]], "bad path 0", id="code-bool"),
            pytest.param("paths", [[0, -1], [0, 2]], "bad path 0", id="code-negative"),
            pytest.param("paths", [[0, 3], [0, 2]], "bad path 0", id="code-past-alphabet"),
            pytest.param("paths", MISSING, "paths", id="paths-missing"),
            pytest.param("paths", [], "paths", id="paths-empty"),
            pytest.param("paths", {"0": [0, 1]}, "paths", id="paths-object"),
            # list() would split a string into labels or take a mapping's keys.
            pytest.param("alphabet", "abc", "activity label", id="alphabet-str"),
            pytest.param(
                "alphabet", {"a": 0, "b": 1, "c": 2}, "activity label", id="alphabet-object"
            ),
            # True and 2.0 compare equal to ints; only the int 2 loads.
            pytest.param("version", True, "version", id="version-bool"),
            pytest.param("version", 2.0, "version", id="version-float"),
        ],
    )
    def test_corrupt_payload_rejected(self, field, value, match):
        doc = json.loads(serialize_trie(build_trie(ProxyLog((("a", "b"), ("a", "c"))))))
        assert doc == {"version": 2, "alphabet": ["a", "b", "c"], "paths": [[0, 1], [0, 2]]}
        if value is MISSING:
            del doc[field]
        else:
            doc[field] = value
        with pytest.raises(TrieFormatError, match=match):
            load_trie(json.dumps(doc).encode())


# Code paths over four labels (a=0, b=1, c=2, d=3); lists of them hold
# paths that are prefixes of others and leaves that later paths extend.
code_paths = st.lists(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6), min_size=1, max_size=12
)


def path_trie(paths) -> Trie:
    return Trie(paths, ActivityTable("abcd"))


def decoded(trie) -> list[list[tuple[int, int]]]:
    """Each node's children map with the node id added back, in map order."""
    return [
        [(code, node + off) for code, off in kids_map.items()]
        for node, kids_map in enumerate(trie.children)
    ]


class TestChildOffsets:
    @given(code_paths)
    @example([[0], [2], [0, 1]])  # a leaf gains a child that is not the next id
    @example([[0, 1], [2, 1], [0, 3]])  # a node leaves the map it shared
    @settings(max_examples=300, deadline=None)
    def test_offsets_decode_to_the_absolute_children(self, paths):
        assert decoded(path_trie(paths)) == [
            list(kids_map.items()) for kids_map in absolute_children(paths)
        ]

    @given(code_paths)
    @settings(max_examples=300, deadline=None)
    def test_chain_nodes_share_one_map_per_label(self, paths):
        trie = path_trie(paths)
        shared: dict[int | None, dict[int, int]] = {}
        for kids_map in trie.children:
            if not kids_map:  # a leaf
                assert shared.setdefault(None, kids_map) is kids_map
            elif list(kids_map.values()) == [1]:  # one child, the next id
                (code,) = kids_map
                assert shared.setdefault(code, kids_map) is kids_map
        # A shared map is never written: each still holds its one entry.
        assert all(m == ({} if key is None else {key: 1}) for key, m in shared.items())

    def test_extending_a_node_leaves_its_map_sharers_alone(self):
        # a and c both share the {b: 1} map until [a, d] gives a a second child.
        trie = path_trie([[0, 1], [2, 1], [0, 3]])
        a, ab, c, cb, ad = 1, 2, 3, 4, 5
        assert trie.children[c] == {1: 1} and child(trie, c, 1) == cb
        assert kids(trie, a) == [ab, ad]
        assert trie.children[a] is not trie.children[c]

    def test_most_nodes_of_a_random_trie_share_their_map(self):
        trie = random_trie()
        assert len({id(m) for m in trie.children}) < trie.node_count / 4


def random_trie():
    """Seeded trie whose traces include prefixes of others (ends with children)."""
    rng = random.Random(5)
    traces = [tuple(rng.choice("abcdef") for _ in range(rng.randrange(1, 9))) for _ in range(60)]
    traces += [t[: rng.randrange(1, len(t) + 1)] for t in traces[:20]]
    return build_trie(ProxyLog(tuple(traces)))


# Node codes on both sides of 127, 255 and 65,535: their characters in the
# search index's strings (chr(code + 1)) take 1-byte ASCII and Latin-1,
# 2-byte and 4-byte storage.
WIDE_CODES = (0, 126, 127, 254, 255, 65_534, 65_535, 70_000)


def wide_trie():
    """Seeded trie over :data:`WIDE_CODES`, with a table that holds every code up to the last."""
    rng = random.Random(11)
    paths = [[rng.choice(WIDE_CODES) for _ in range(rng.randrange(1, 7))] for _ in range(40)]
    return Trie(paths, ActivityTable([f"a{i}" for i in range(WIDE_CODES[-1] + 1)]))


def descendants(trie, node) -> set[int]:
    """The node and everything below it, by walking children maps."""
    out = {node}
    for kid in kids(trie, node):
        out |= descendants(trie, kid)
    return out


def preorder(trie, node) -> list[int]:
    """The node and everything below it, children in ascending code order."""
    out = [node]
    for kid in kids(trie, node):
        out += preorder(trie, kid)
    return out


def index_of(trie) -> tuple:
    return (
        list(trie.pre),
        list(trie.by_pre),
        list(trie.size),
        {key: list(bucket) for key, bucket in trie.buckets.items()},
        trie.parent_labels,
    )


class TestSearchIndex:
    @pytest.fixture(params=["workflow", "forked", "random"])
    def trie(self, request):
        if request.param == "random":
            return random_trie()
        return request.getfixturevalue(f"{request.param}_trie")

    def test_by_pre_inverts_pre(self, trie):
        assert sorted(trie.pre) == list(range(trie.node_count))
        for node in range(trie.node_count):
            assert trie.by_pre[trie.pre[node]] == node

    def test_parent_labels_hold_each_bucket_nodes_parent_label(self, trie):
        # Character i of bucket (a, b)'s string is chr(label + 1) of the
        # parent of the node at bucket[i]; the root's label is chr(0).
        assert trie.parent_labels.keys() == trie.buckets.keys()
        for key, bucket in trie.buckets.items():
            marks = trie.parent_labels[key]
            assert len(marks) == len(bucket)
            for mark, pos in zip(marks, bucket):
                parent = trie.parents[trie.by_pre[pos]]
                assert mark == chr(trie.labels[parent] + 1)
                assert (mark == chr(0)) == (parent == ROOT)

    def test_subtree_interval_holds_exactly_the_descendants(self, trie):
        for node in range(trie.node_count):
            start = trie.pre[node]
            interval = trie.by_pre[start : start + trie.size[node]]
            assert set(interval) == descendants(trie, node)
            assert len(interval) == trie.size[node]

    def test_buckets_are_ascending_and_hold_each_edge_once(self, trie):
        seen = []
        for (code, next_code), bucket in trie.buckets.items():
            assert all(a < b for a, b in zip(bucket, bucket[1:]))
            for pos in bucket:
                assert 0 <= pos < trie.node_count
                node = trie.by_pre[pos]
                assert trie.labels[node] == code
                seen.append((node, child(trie, node, next_code)))
        edges = [(trie.parents[k], k) for k in range(1, trie.node_count) if trie.parents[k] != ROOT]
        assert sorted(seen) == sorted(edges)

    def test_starts_at_is_breadth_first_order(self, trie):
        # The slice is every strict descendant with the pair, in preorder;
        # stably sorted by level it is breadth-first order level by level.
        alphabet = range(len(trie.alphabet))
        for node in range(trie.node_count):
            below = preorder(trie, node)[1:]
            for code in alphabet:
                for next_code in alphabet:
                    got = trie.starts_at(node, code, next_code)
                    assert got == [
                        k
                        for k in below
                        if trie.labels[k] == code and child(trie, k, next_code) is not None
                    ]
                    by_level = sorted(got, key=trie.levels.__getitem__)
                    frontier = [node]
                    for level in range(trie.levels[node] + 1, trie.depth + 1):
                        frontier = [k for n in frontier for k in kids(trie, n)]
                        assert [k for k in by_level if trie.levels[k] == level] == [
                            k
                            for k in frontier
                            if trie.labels[k] == code and child(trie, k, next_code) is not None
                        ]

    def test_starts_at_prev_code_keeps_nodes_whose_parent_carries_it(self, trie):
        # The pair slice, kept to the nodes whose parent is not the root and
        # carries prev_code, in preorder. No parent carries UNKNOWN, a code
        # past the alphabet or the root's label.
        alphabet = range(len(trie.alphabet))
        nowhere = (UNKNOWN, ROOT_LABEL, len(trie.alphabet), len(trie.alphabet) + 7)
        for node in range(trie.node_count):
            for code in alphabet:
                for next_code in alphabet:
                    pair = trie.starts_at(node, code, next_code)
                    for prev_code in alphabet:
                        assert trie.starts_at(node, code, next_code, prev_code) == [
                            k
                            for k in pair
                            if trie.parents[k] != ROOT
                            and trie.labels[trie.parents[k]] == prev_code
                        ]
                    for prev_code in nowhere:
                        assert trie.starts_at(node, code, next_code, prev_code) == []

    def test_starts_at_prev_code_on_wide_codes(self):
        # Every node label, the root's label, UNKNOWN and a code past the
        # table, on strings of every storage width.
        trie = wide_trie()
        tops = [ord(max(marks)) for marks in trie.parent_labels.values()]
        assert {1 if top < 0x100 else 2 if top < 0x10000 else 4 for top in tops} == {1, 2, 4}
        probes = sorted(set(trie.labels[1:])) + [ROOT_LABEL, UNKNOWN, len(trie.alphabet)]
        found = set()
        for node in range(trie.node_count):
            for code, next_code in trie.buckets:
                pair = trie.starts_at(node, code, next_code)
                for prev_code in probes:
                    got = trie.starts_at(node, code, next_code, prev_code)
                    assert got == [
                        k
                        for k in pair
                        if trie.parents[k] != ROOT and trie.labels[trie.parents[k]] == prev_code
                    ]
                    if got:
                        found.add(prev_code)
        assert found == set(WIDE_CODES)

    def test_a_node_code_past_the_index_with_a_child_is_rejected(self):
        alphabet = ActivityTable(["a", "b"])
        for path in ([CODE_LIMIT, 0], [0, CODE_LIMIT + 5, 1], [1, 0, CODE_LIMIT, 0]):
            with pytest.raises(TrieError, match="0x10ffff"):
                Trie([path], alphabet)
        # The last code the strings hold on a node with a child, and a leaf
        # past it, build; no parent carries a code past the last.
        trie = Trie([[CODE_LIMIT - 1, 0, 1], [0, CODE_LIMIT]], alphabet)
        below = child(trie, ROOT, CODE_LIMIT - 1)
        assert trie.starts_at(ROOT, 0, 1, CODE_LIMIT - 1) == [child(trie, below, 0)]
        assert trie.starts_at(ROOT, 0, 1, CODE_LIMIT) == []

    def test_starts_at_unknown_code_or_level(self, trie):
        unknown = len(trie.alphabet) + 3
        code, next_code = next(iter(trie.buckets))
        assert trie.starts_at(ROOT, unknown, next_code) == []
        assert trie.starts_at(ROOT, code, unknown) == []
        assert trie.starts_at(ROOT, code, next_code) != []
        # Nothing lies below the deepest level, nor below any other leaf.
        for node in range(trie.node_count):
            if not kids(trie, node):
                assert all(trie.starts_at(node, *pair) == [] for pair in trie.buckets)

    def test_load_rebuilds_the_same_index(self, trie):
        assert index_of(load_trie(serialize_trie(trie))) == index_of(trie)

    def test_serialization_unchanged_by_the_index(self, workflow_proxy):
        # A fresh trie: the shared fixture's alphabet grows as other tests
        # intern stream-only labels.
        trie = build_trie(workflow_proxy)
        assert serialize_trie(trie) == WORKFLOW_PAYLOAD
        assert index_of(load_trie(WORKFLOW_PAYLOAD)) == index_of(trie)
