from __future__ import annotations

import re
from pathlib import Path

import trie_align

REPO = Path(__file__).resolve().parents[1]

# The parsers' inverses: public so that a log can be written back out.
UNUSED_BY_DESIGN = {"serialize_event_log", "serialize_proxy_log"}


def test_every_public_name_is_used_outside_the_tests():
    # A public name earns its place when another package module, the
    # benchmark or the README refers to it; a name only the tests call
    # belongs under tests/.
    package = REPO / "src" / "trie_align"
    files = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((REPO / "benchmarks").glob("*.py"))
    files.append(REPO / "README.md")
    lines = [line for path in files for line in path.read_text(encoding="utf-8").splitlines()]

    unused = []
    for name in trie_align.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"\s*(class|def)\s+{re.escape(name)}\b|{re.escape(name)}\s*[:=]")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unused.append(name)
    assert [name for name in unused if name not in UNUSED_BY_DESIGN] == []
