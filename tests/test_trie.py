from __future__ import annotations

import json
import random

import pytest

from trie_align import (
    ProxyLog,
    TrieError,
    TrieFormatError,
    build_trie,
    load_trie,
    parse_proxy_log,
    serialize_trie,
)
from trie_align.trie import ROOT

from .conftest import WORKFLOW_TRACES

# serialize_trie output for the workflow trie, fixed before the search
# index existed: the index must never reach the file format.
WORKFLOW_PAYLOAD = (
    b'{"version":1,"node_count":23,"end_count":8,"avg_leaf_depth":5.0,"max_branching":3,'
    b'"alphabet":["a","b","c","d","e"],"nodes":[[0,0,0],[1,1,0],[2,2,0],[3,3,0],[4,1,0],'
    b"[5,4,1],[3,4,1],[2,3,0],[8,1,0],[9,4,1],[9,2,0],[11,4,1],[8,2,0],[13,1,0],[14,4,1],"
    b"[2,4,1],[1,2,0],[17,1,0],[18,3,0],[19,1,0],[20,4,1],[18,4,1]]}"
)


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
            node = workflow_trie.walk(codes)
            assert node is not None and workflow_trie.is_end[node]

    def test_avg_leaf_depth(self, workflow_trie):
        # Leaf depths of the eight sample traces: {6,4,5,6,6,3,6,4} -> 40/8.
        assert workflow_trie.avg_leaf_depth == pytest.approx(5.0)

    def test_max_branching(self, workflow_trie):
        assert workflow_trie.max_branching == 3

    def test_depth_is_derived_and_read_only(self, workflow_trie):
        assert workflow_trie.depth == max(workflow_trie.levels) == 6
        assert load_trie(serialize_trie(workflow_trie)).depth == 6
        with pytest.raises(AttributeError):
            workflow_trie.depth = 9

    def test_alphabet_holds_only_the_proxy_labels(self, workflow_trie):
        # Some tests intern stream-only labels into the trie's alphabet, so
        # this fails whenever an earlier test shared the fixture.
        assert workflow_trie.alphabet.labels() == list("abcde")

    def test_single_activity_trace(self):
        trie = build_trie(ProxyLog((("a",),)))
        assert trie.node_count == 2
        node = trie.walk([trie.alphabet.code("a")])
        assert trie.is_end[node]
        assert trie.min_to_end[node] == 0
        assert trie.avg_leaf_depth == pytest.approx(1.0)

    def test_empty_proxy_rejected(self):
        with pytest.raises(TrieError):
            build_trie(ProxyLog(()))

    def test_end_node_with_children(self):
        # One sample trace being a prefix of another keeps both end markers.
        trie = build_trie(parse_proxy_log("a,b,c\na,b\n"))
        ab = trie.walk([trie.alphabet.code("a"), trie.alphabet.code("b")])
        assert trie.is_end[ab]
        assert trie.children[ab]
        assert trie.min_to_end[ab] == 0

    def test_node_budget(self, workflow_trie, workflow_proxy):
        total_activities = sum(len(seq) for seq in workflow_proxy.traces)
        assert workflow_trie.node_count <= total_activities + 1


class TestQueries:
    def test_root_child(self, workflow_trie):
        a = workflow_trie.alphabet.code("a")
        node = workflow_trie.children[ROOT].get(a)
        assert node is not None
        assert workflow_trie.labels[node] == a

    def test_missing_child(self, workflow_trie):
        table = workflow_trie.alphabet
        ab = workflow_trie.walk([table.code("a"), table.code("b")])
        assert workflow_trie.children[ab].get(table.code("b")) is None

    def test_unknown_code_child(self, workflow_trie):
        assert workflow_trie.children[ROOT].get(9999) is None

    def test_path_match_single_node(self, workflow_trie):
        table = workflow_trie.alphabet
        abd_b = workflow_trie.walk([table.code(x) for x in "abdb"])
        assert workflow_trie.path_match(abd_b, [table.code("b")]) == abd_b

    def test_path_match_descends(self, workflow_trie):
        table = workflow_trie.alphabet
        abc = workflow_trie.walk([table.code(x) for x in "abc"])
        expected = workflow_trie.walk([table.code(x) for x in "abce"])
        assert workflow_trie.path_match(abc, [table.code("c"), table.code("e")]) == expected

    def test_path_match_label_mismatch(self, workflow_trie):
        table = workflow_trie.alphabet
        a = workflow_trie.walk([table.code("a")])
        assert workflow_trie.path_match(a, [table.code("b")]) is None

    def test_min_completion_path(self, workflow_trie):
        table = workflow_trie.alphabet
        abc = workflow_trie.walk([table.code(x) for x in "abc"])
        assert workflow_trie.min_completion_path(abc) == [table.code("e")]
        abce = workflow_trie.walk([table.code(x) for x in "abce"])
        assert workflow_trie.min_completion_path(abce) == []
        ab = workflow_trie.walk([table.code(x) for x in "ab"])
        assert workflow_trie.min_completion_path(ab) == [table.code("e")]

    def test_min_completion_tie_breaks_on_smallest_code(self):
        trie = build_trie(parse_proxy_log("a,b\na,c\n"))
        table = trie.alphabet
        a = trie.walk([table.code("a")])
        assert trie.min_completion_path(a) == [table.code("b")]

    def test_model_activity_labels_ignore_stream_interning(self, workflow_proxy):
        trie = build_trie(workflow_proxy)
        before = trie.model_activity_labels()
        trie.alphabet.intern("zzz")  # stream-side symbol
        assert trie.model_activity_labels() == before == list("abcde")

    def test_min_max_annotations_by_recomputation(self, workflow_trie):
        trie = workflow_trie
        for node in range(trie.node_count):
            kids = list(trie.children[node].values())
            if trie.is_end[node]:
                assert trie.min_to_end[node] == 0
            else:
                assert trie.min_to_end[node] == 1 + min(trie.min_to_end[k] for k in kids)

    def test_every_leaf_is_end(self, workflow_trie):
        for node in range(workflow_trie.node_count):
            if not workflow_trie.children[node]:
                assert workflow_trie.is_end[node]

    def test_end_paths_spell_proxy_traces(self, workflow_trie):
        spelled = set()
        for end in workflow_trie.end_node_ids():
            codes = workflow_trie.end_path_codes(end)
            spelled.add(tuple(workflow_trie.alphabet.label(c) for c in codes))
        assert spelled == {tuple(t) for t in WORKFLOW_TRACES}


class TestSerialization:
    def test_round_trip_structural_equality(self, workflow_trie):
        assert load_trie(serialize_trie(workflow_trie)) == workflow_trie

    def test_header_records_node_count(self, workflow_trie):
        doc = json.loads(serialize_trie(workflow_trie))
        assert doc["node_count"] == 23
        assert doc["end_count"] == 8
        assert doc["avg_leaf_depth"] == pytest.approx(5.0)
        assert doc["max_branching"] == 3
        assert doc["version"] == 1

    def test_truncated_payload_rejected(self, workflow_trie):
        payload = serialize_trie(workflow_trie)
        with pytest.raises(TrieFormatError):
            load_trie(payload[: len(payload) // 2])

    def test_version_mismatch_rejected(self, workflow_trie):
        doc = json.loads(serialize_trie(workflow_trie))
        doc["version"] = 99
        with pytest.raises(TrieFormatError, match="version"):
            load_trie(json.dumps(doc).encode())

    def test_header_count_mismatch_rejected(self, workflow_trie):
        doc = json.loads(serialize_trie(workflow_trie))
        doc["node_count"] += 1
        with pytest.raises(TrieFormatError):
            load_trie(json.dumps(doc).encode())

    @pytest.mark.parametrize("alphabet", [["b", "a", "a"], [5, 6], ["a", ""]])
    def test_bad_alphabet_rejected(self, alphabet):
        doc = json.loads(serialize_trie(build_trie(ProxyLog((("a", "b"),)))))
        doc["alphabet"] = alphabet
        with pytest.raises(TrieFormatError, match="activity label"):
            load_trie(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "row",
        [
            [0, 1.9, 0],  # a float label once truncated to code 1
            ["0", "2", 0],  # string fields once parsed as ints
            [0, 0, "0"],  # a string end flag once read as true
            [0, 0, 2],
            [0, 0, True],
            [0, 0, 0, 7],  # a fourth field once ignored
            [0, 0],
            7,
        ],
    )
    def test_malformed_node_row_rejected(self, row):
        doc = json.loads(serialize_trie(build_trie(ProxyLog((("a", "b"), ("a", "c"))))))
        assert doc["nodes"][0] == [0, 0, 0]
        doc["nodes"][0] = row
        with pytest.raises(TrieFormatError, match="bad node row 1"):
            load_trie(json.dumps(doc).encode())


def random_trie():
    """Seeded trie whose traces include prefixes of others (ends with children)."""
    rng = random.Random(5)
    traces = [tuple(rng.choice("abcdef") for _ in range(rng.randrange(1, 9))) for _ in range(60)]
    traces += [t[: rng.randrange(1, len(t) + 1)] for t in traces[:20]]
    return build_trie(ProxyLog(tuple(traces)))


def descendants(trie, node) -> set[int]:
    """The node and everything below it, by walking children maps."""
    out = {node}
    for kid in trie.children[node].values():
        out |= descendants(trie, kid)
    return out


def index_of(trie) -> tuple:
    return (
        list(trie.pre),
        list(trie.by_pre),
        list(trie.size),
        {key: list(bucket) for key, bucket in trie.buckets.items()},
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
            for entry in bucket:
                level, pos = divmod(entry, trie.node_count)
                node = trie.by_pre[pos]
                assert (trie.labels[node], trie.levels[node]) == (code, level)
                seen.append((node, trie.children[node][next_code]))
        edges = [(trie.parents[k], k) for k in range(1, trie.node_count) if trie.parents[k] != ROOT]
        assert sorted(seen) == sorted(edges)

    def test_starts_at_is_breadth_first_order(self, trie):
        alphabet = range(len(trie.alphabet))
        for node in range(trie.node_count):
            frontier = [node]
            for level in range(trie.levels[node] + 1, trie.levels[node] + 4):
                frontier = [k for n in frontier for k in trie.children[n].values()]
                for code in alphabet:
                    for next_code in alphabet:
                        expected = [
                            k
                            for k in frontier
                            if trie.labels[k] == code and next_code in trie.children[k]
                        ]
                        assert trie.starts_at(node, code, next_code, level) == expected

    def test_starts_at_unknown_code_or_level(self, trie):
        unknown = len(trie.alphabet) + 3
        code, next_code = next(iter(trie.buckets))
        assert trie.starts_at(ROOT, unknown, next_code, 1) == []
        assert trie.starts_at(ROOT, code, unknown, 1) == []
        assert trie.starts_at(ROOT, code, next_code, max(trie.levels) + 5) == []

    def test_load_rebuilds_the_same_index(self, trie):
        assert index_of(load_trie(serialize_trie(trie))) == index_of(trie)

    def test_serialization_unchanged_by_the_index(self, workflow_proxy):
        # A fresh trie: the shared fixture's alphabet grows as other tests
        # intern stream-only labels.
        trie = build_trie(workflow_proxy)
        assert serialize_trie(trie) == WORKFLOW_PAYLOAD
        assert index_of(load_trie(WORKFLOW_PAYLOAD)) == index_of(trie)
