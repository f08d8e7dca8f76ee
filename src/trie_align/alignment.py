"""Moves, alignments as tuples of moves, and alignment completion.

An alignment relates an observed trace to a path through the trie as a
sequence of moves, and is the tuple of its :class:`Move` values. Each
move pairs a trace activity (or a skip) with a model activity (or a
skip):

* synchronous move ``(a, a)`` - cost 0
* log move ``(a, >>)`` - the trace did something the model path does not
* model move ``(>>, b)`` - the model path requires something unobserved

Asynchronous moves cost one each; ``(>>, >>)`` is illegal, as is a pair of
two different activities. A prefix alignment may stop anywhere in the
trie (a state's :meth:`~trie_align.engine.State.moves`); a complete
alignment's model projection must finish at an end node
(:func:`complete_alignment`).

Moves are shared: :data:`MOVES` holds one :class:`Move` per distinct
``(log, model)`` pair, made on first use, and the move entries of the
engine's per-case link storage and :func:`complete_alignment` point at
those. A label reaches the engine as a code of its trie's table or as
:data:`~trie_align.events.UNKNOWN`, so the table stays as small as the
alphabets in use.

All types here are plain values; every operation is reentrant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .trie import Trie

#: Skip marker inside a move. Rendered as ``>>``.
SKIP = None

SKIP_TEXT = ">>"


class Move(NamedTuple):
    """One alignment step; ``None`` stands for the skip symbol."""

    log: int | None
    model: int | None


class _MoveTable(dict):
    """Shared moves by ``(log, model)``: a missing pair gets its move on first lookup."""

    def __missing__(self, key: tuple[int | None, int | None]) -> Move:
        # setdefault keeps one instance if two threads race here.
        return self.setdefault(key, Move(*key))


#: The shared moves: ``MOVES[log, model]`` is the one :class:`Move` of that pair.
MOVES = _MoveTable()


def model_move(code: int) -> Move:
    return MOVES[SKIP, code]


def complete_alignment(state, trie: "Trie") -> tuple[Move, ...]:
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
    return state.moves() + completion


def render_text(
    alignment: Sequence[Move], observed: Sequence[str], label_of: Callable[[int], str]
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
    alignment: Sequence[Move], observed: Sequence[str], label_of: Callable[[int], str]
) -> list[dict[str, str | None]]:
    """JSON-friendly form: a list of ``{"log": ..., "model": ...}`` pairs.

    The log projection is the observed trace, so the ``k``-th log move
    shows ``observed[k]`` whatever code it carries; ``label_of`` names
    the model side.
    """
    if len(observed) != sum(m.log is not None for m in alignment):
        raise ValueError("observed labels must pair one to one with the log moves")
    labels = iter(observed)
    return [
        {
            "log": None if m.log is None else next(labels),
            "model": None if m.model is None else label_of(m.model),
        }
        for m in alignment
    ]
