"""Oracle worker: DP prefix optima for a batch of activity sequences.

Reads one pickled ``(serialized trie, sequences)`` pair from stdin and
writes the pickled list of prefix optima, one list per sequence, to
stdout. Started and waited for by :func:`common.prefix_optima_parallel`.
"""

from __future__ import annotations

import pickle
import sys

from common import prefix_optima
from trie_align import load_trie


def main() -> int:
    payload, sequences = pickle.load(sys.stdin.buffer)
    optima = prefix_optima(load_trie(payload), sequences)
    pickle.dump(optima, sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
