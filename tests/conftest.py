from __future__ import annotations

import threading

import pytest

from trie_align import ActivityTable, ProxyLog, build_trie, parse_proxy_log

from .reference import node_path_labels

# Proxy traces of a small workflow with an optional rework loop; the shared
# worked example used throughout the suite. 22 distinct non-root prefixes,
# 8 end nodes, leaf depths {6,4,5,6,6,3,6,4}.
WORKFLOW_PROXY_TEXT = """\
a,b,c,d,b,e
a,b,c,e
a,b,d,b,e
a,b,d,b,c,e
a,b,d,c,b,e
a,b,e
a,c,b,d,b,e
a,c,b,e
"""

WORKFLOW_TRACES = [
    tuple("abcdbe"),
    tuple("abce"),
    tuple("abdbe"),
    tuple("abdbce"),
    tuple("abdcbe"),
    tuple("abe"),
    tuple("acbdbe"),
    tuple("acbe"),
]


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves alive a thread it started."""
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate() if t not in before]
    for thread in leaked:
        thread.join(timeout=1.0)  # one that is already on its way out
    assert [t.name for t in leaked if t.is_alive()] == []


@pytest.fixture(scope="session")
def workflow_proxy() -> ProxyLog:
    return parse_proxy_log(WORKFLOW_PROXY_TEXT)


@pytest.fixture
def workflow_trie(workflow_proxy):
    # Function-scoped: some tests intern stream-only labels into its alphabet.
    return build_trie(workflow_proxy)


@pytest.fixture(scope="session")
def forked_trie():
    # Two branches below b: a short dead end (c) and a deep tail (q,x,y,z).
    return build_trie(parse_proxy_log("b,c\nb,q,x,y,z\n"))


def codes(table: ActivityTable, labels) -> list[int]:
    return [table.intern(label) for label in labels]


def labelize_moves(trie, moves):
    def lab(code):
        return None if code is None else trie.alphabet.label(code)

    return [(lab(m.log), lab(m.model)) for m in moves]


def snapshot_case(engine, trie, case_id):
    """Buffer snapshot as comparable tuples, in state-id order."""
    rows = []
    for s in engine.states(case_id):
        rows.append(
            (
                s.state_id,
                "".join(node_path_labels(trie, s.node)),
                labelize_moves(trie, s.moves()),
                [trie.alphabet.label(x) for x in s.suffix],
                s.cost,
                s.decay,
            )
        )
    return rows
