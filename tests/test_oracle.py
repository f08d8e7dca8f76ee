from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

import trie_align.oracle
from trie_align import build_trie, optimal_complete, optimal_prefix, parse_proxy_log

from .reference import BoundTooSmallError, exhaustive_prefix


def enc(trie, labels: str) -> list[int]:
    return [trie.alphabet.intern(x) for x in labels]


class TestOptimalPrefix:
    def test_duplicate_b_costs_one(self, workflow_trie):
        assert optimal_prefix(enc(workflow_trie, "abbc"), workflow_trie) == 1

    def test_exact_path_costs_zero(self, workflow_trie):
        assert optimal_prefix(enc(workflow_trie, "abce"), workflow_trie) == 0

    def test_foreign_symbol_costs_one(self, workflow_trie):
        assert optimal_prefix(enc(workflow_trie, "z"), workflow_trie) == 1

    def test_empty_trace(self, workflow_trie):
        assert optimal_prefix([], workflow_trie) == 0


class TestOptimalComplete:
    def test_duplicate_b_completes_at_two(self, workflow_trie):
        assert optimal_complete(enc(workflow_trie, "abbc"), workflow_trie) == 2

    def test_proxy_member_costs_zero(self, workflow_trie):
        assert optimal_complete(enc(workflow_trie, "abe"), workflow_trie) == 0

    def test_empty_trace_pays_shortest_path(self, workflow_trie):
        # Cheapest full execution is the three-step trace a,b,e.
        assert optimal_complete([], workflow_trie) == 3

    def test_prefix_never_exceeds_complete(self, workflow_trie):
        rng = random.Random(7)
        symbols = enc(workflow_trie, "abcdez")
        for _ in range(50):
            trace = [rng.choice(symbols) for _ in range(rng.randrange(0, 9))]
            assert (
                optimal_prefix(trace, workflow_trie)
                <= optimal_complete(trace, workflow_trie)
            )


class TestExhaustiveEnumeration:
    def test_duplicate_b(self, workflow_trie):
        assert exhaustive_prefix(enc(workflow_trie, "abbc"), workflow_trie, 12) == 1

    def test_single_match(self, workflow_trie):
        assert exhaustive_prefix(enc(workflow_trie, "a"), workflow_trie, 8) == 0

    def test_single_mismatch_is_a_log_move(self, workflow_trie):
        # A prefix may stop at the root, so a lone b is one log move.
        assert exhaustive_prefix(enc(workflow_trie, "b"), workflow_trie, 8) == 1

    def test_bound_too_small(self, workflow_trie):
        with pytest.raises(BoundTooSmallError):
            exhaustive_prefix(enc(workflow_trie, "abbc"), workflow_trie, 3)

    def test_agrees_with_dp_on_random_traces(self, workflow_trie):
        rng = random.Random(13)
        symbols = enc(workflow_trie, "abcdezx")
        max_depth = max(workflow_trie.levels)
        for _ in range(300):
            trace = [rng.choice(symbols) for _ in range(rng.randrange(0, 7))]
            dp = optimal_prefix(trace, workflow_trie)
            assert exhaustive_prefix(trace, workflow_trie, len(trace) + max_depth) == dp

    def test_full_cross_check_up_to_length_six(self, workflow_trie):
        # Every trace over the model alphabet up to length 6 (19,531 in all).
        import itertools

        symbols = enc(workflow_trie, "abcde")
        max_depth = max(workflow_trie.levels)
        for length in range(0, 7):
            for combo in itertools.product(symbols, repeat=length):
                trace = list(combo)
                dp = optimal_prefix(trace, workflow_trie)
                assert exhaustive_prefix(trace, workflow_trie, length + max_depth) == dp


class TestRecurrenceAndMonotonicity:
    def test_extension_adds_at_most_one(self, workflow_trie):
        rng = random.Random(99)
        symbols = enc(workflow_trie, "abcdez")
        for _ in range(100):
            trace = [rng.choice(symbols) for _ in range(rng.randrange(0, 10))]
            extended = trace + [rng.choice(symbols)]
            base = optimal_prefix(trace, workflow_trie)
            assert base <= optimal_prefix(extended, workflow_trie) <= base + 1

    def test_small_second_trie(self):
        trie = build_trie(parse_proxy_log("a,b\na,c\nd\n"))
        assert optimal_prefix(enc(trie, "ab"), trie) == 0
        assert optimal_prefix(enc(trie, "ad"), trie) == 1
        assert optimal_complete(enc(trie, "a"), trie) == 1
        assert optimal_complete(enc(trie, ""), trie) == 1  # lone d



def test_oracle_imports_only_the_trie_from_the_package():
    # The reference must share no code with the engine it checks.
    tree = ast.parse(Path(trie_align.oracle.__file__).read_text())
    package_imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("trie_align")):
            package_imports.add(node.module)
        elif isinstance(node, ast.Import):
            package_imports.update(a.name for a in node.names if a.name.startswith("trie_align"))
    assert package_imports == {"trie"}
