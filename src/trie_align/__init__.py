"""Streaming conformance checking over a prefix trie of modeled behavior.

The package ingests unbounded multi-case event streams and incrementally
maintains prefix-alignments between each case and the behavior stored in
an immutable prefix trie built from sample model traces. Per-case survivor
states age out under a decay policy, and a bounded look-ahead search keeps
model-move exploration cheap. A dynamic-programming oracle provides true
optimal alignment costs for verification, and a replay/noise/TCP harness
supports stress testing.
"""

from .alignment import Move, alignment_pairs, complete_alignment, model_move, render_text
from .engine import (
    DecayPolicy,
    Engine,
    EngineConfig,
    ProcessResult,
    State,
    UnknownCaseError,
    decay_time,
    expand_model_moves,
)
from .events import (
    UNKNOWN,
    ActivityTable,
    Event,
    ParseError,
    ProxyLog,
    parse_event_log,
    parse_proxy_log,
    serialize_event_log,
    serialize_proxy_log,
)
from .oracle import optimal_complete, optimal_prefix, optimal_prefix_costs
from .stream import (
    Noiser,
    StreamServer,
    parse_frame,
    replay,
)
from .trie import Trie, TrieError, TrieFormatError, build_trie, load_trie, serialize_trie

__version__ = "0.1.0"

__all__ = [
    "UNKNOWN",
    "ActivityTable",
    "DecayPolicy",
    "Engine",
    "EngineConfig",
    "Event",
    "Move",
    "Noiser",
    "ParseError",
    "ProcessResult",
    "ProxyLog",
    "State",
    "StreamServer",
    "Trie",
    "TrieError",
    "TrieFormatError",
    "UnknownCaseError",
    "alignment_pairs",
    "build_trie",
    "complete_alignment",
    "decay_time",
    "expand_model_moves",
    "load_trie",
    "model_move",
    "optimal_complete",
    "optimal_prefix",
    "optimal_prefix_costs",
    "parse_event_log",
    "parse_frame",
    "parse_proxy_log",
    "render_text",
    "replay",
    "serialize_event_log",
    "serialize_proxy_log",
    "serialize_trie",
]
