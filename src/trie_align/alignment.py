"""Moves, alignments, the unit cost function, and alignment completion.

An alignment relates an observed trace to a path through the trie as a
sequence of moves. Each move pairs a trace activity (or a skip) with a
model activity (or a skip):

* synchronous move ``(a, a)`` - cost 0
* log move ``(a, >>)`` - the trace did something the model path does not
* model move ``(>>, b)`` - the model path requires something unobserved

Asynchronous moves cost one each; ``(>>, >>)`` is illegal, as is a pair of
two different activities. A prefix alignment may stop anywhere in the
trie; a complete alignment's model projection must finish at an end node.

All types here are plain values; every operation is reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .trie import Trie

#: Skip marker inside a move. Rendered as ``>>``.
SKIP = None

SKIP_TEXT = ">>"

PREFIX = "prefix"
COMPLETE = "complete"


class InvalidMoveError(ValueError):
    """Raised when a move is outside the sync/log/model grammar."""


class Move(NamedTuple):
    """One alignment step; ``None`` stands for the skip symbol."""

    log: int | None
    model: int | None

    @property
    def is_sync(self) -> bool:
        return self.log is not None and self.model is not None

    @property
    def is_log(self) -> bool:
        return self.model is None

    @property
    def is_model(self) -> bool:
        return self.log is None


def sync_move(code: int) -> Move:
    return Move(code, code)


def log_move(code: int) -> Move:
    return Move(code, SKIP)


def model_move(code: int) -> Move:
    return Move(SKIP, code)


def _check_move(move: Move) -> None:
    log, model = move
    if log is None and model is None:
        raise InvalidMoveError("(>>, >>) is not a legal move")
    if log is not None and model is not None and log != model:
        raise InvalidMoveError(f"synchronous move must pair equal activities, got {move}")


@dataclass(frozen=True)
class Alignment:
    """An ordered sequence of moves, either a prefix or a complete alignment."""

    moves: tuple[Move, ...]
    kind: str = PREFIX

    def __post_init__(self) -> None:
        if self.kind not in (PREFIX, COMPLETE):
            raise ValueError(f"alignment kind must be prefix or complete, got {self.kind!r}")

    def log_projection(self) -> tuple[int, ...]:
        """Trace-side activities, skips dropped."""
        return tuple(m.log for m in self.moves if m.log is not None)

    def model_projection(self) -> tuple[int, ...]:
        """Model-side activities, skips dropped."""
        return tuple(m.model for m in self.moves if m.model is not None)

    def __len__(self) -> int:
        return len(self.moves)


def cost(alignment: Alignment | Iterable[Move]) -> int:
    """Total cost: one per asynchronous move, zero per synchronous move.

    Raises:
        InvalidMoveError: if any move is outside the move grammar.
    """
    moves = alignment.moves if isinstance(alignment, Alignment) else tuple(alignment)
    total = 0
    for move in moves:
        _check_move(move)
        if not move.is_sync:
            total += 1
    return total


def complete_alignment(state, trie: "Trie") -> Alignment:
    """Extend a state's prefix alignment into a complete alignment.

    Appends one model move per activity on the shortest completion path
    from the state's node to an end node. The state must have an empty
    suffix, i.e. all of its case's events were consumed into the prefix
    alignment.

    The resulting cost equals ``state.cost + trie.min_to_end[state.node]``.
    """
    if state.suffix:
        raise ValueError("complete_alignment requires a state with an empty suffix")
    completion = tuple(model_move(code) for code in trie.min_completion_path(state.node))
    return Alignment(tuple(state.moves()) + completion, kind=COMPLETE)


def validate(
    alignment: Alignment, observed_prefix: Iterable[int], trie: "Trie"
) -> bool:
    """Check both projection invariants of an alignment.

    True iff every move is legal, the log projection equals
    ``observed_prefix``, and the model projection spells a root-anchored
    path in the trie (ending at an end node for a complete alignment).
    """
    try:
        for move in alignment.moves:
            _check_move(move)
    except InvalidMoveError:
        return False
    if alignment.log_projection() != tuple(observed_prefix):
        return False
    node = trie.walk(alignment.model_projection())
    if node is None:
        return False
    if alignment.kind == COMPLETE and not trie.is_end[node]:
        return False
    return True


def render_text(
    alignment: Alignment, observed: Sequence[str], label_of: Callable[[int], str]
) -> str:
    """Two-row :func:`alignment_pairs`: trace row on top, model row below, ``>>`` for skips."""
    pairs = alignment_pairs(alignment, observed, label_of)
    top = [SKIP_TEXT if p["log"] is None else p["log"] for p in pairs]
    bottom = [SKIP_TEXT if p["model"] is None else p["model"] for p in pairs]
    widths = [max(len(t), len(b)) for t, b in zip(top, bottom)]
    trace_row = " ".join(t.ljust(w) for t, w in zip(top, widths)).rstrip()
    model_row = " ".join(b.ljust(w) for b, w in zip(bottom, widths)).rstrip()
    return f"trace | {trace_row}\nmodel | {model_row}"


def alignment_pairs(
    alignment: Alignment, observed: Sequence[str], label_of: Callable[[int], str]
) -> list[dict[str, str | None]]:
    """JSON-friendly form: a list of ``{"log": ..., "model": ...}`` pairs.

    The log projection is the observed trace, so the ``k``-th log move
    shows ``observed[k]`` whatever code it carries; ``label_of`` names
    the model side.
    """
    if len(observed) != sum(m.log is not None for m in alignment.moves):
        raise ValueError("observed labels must pair one to one with the log moves")
    labels = iter(observed)
    return [
        {
            "log": None if m.log is None else next(labels),
            "model": None if m.model is None else label_of(m.model),
        }
        for m in alignment.moves
    ]
