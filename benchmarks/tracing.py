"""Spans around the calls into each package layer, recorded from outside.

The traced run installs wrappers from this file on four boundaries:

* ``trie_align.engine.expand_model_moves`` (the model-move search),
* ``Trie.path_match`` (the trie lookup inside that search),
* ``trie_align.stream.parse_frame`` (frame decode in the TCP server),
* ``Engine.process``, through the :class:`BenchEngine` subclass.

The benchmark's own calls (CSV parse, replay, the replay sink, case-end
queries) are spans too. A span is seven integers: id, name, start and end
on the monotonic clock in ns (shared by every process on the machine),
parent id (-1 for none), the event or frame sequence number, and an
outcome (the candidate count of a search, 1 for a synchronous step).
Spans live in one flat array and are written out when the run ends.

``Trie.path_match`` runs about forty times per event on the large trie,
millions of times a run, so it keeps counters (calls, hits, time) rather
than one span per call; its time is part of the enclosing search span.

Engine phases inside ``Engine.process`` (ageing, sync step, log moves,
admission) are not split here: timing them needs points inside the
engine, which is later work. They are reported together as
``engine.other_s``, the process time outside the model-move search.
"""

from __future__ import annotations

import itertools
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import trie_align.engine as engine_mod
import trie_align.stream as stream_mod
from trie_align import Engine, Trie

FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "seq", "outcome")
_WIDTH = len(FIELDS)

clock = time.monotonic_ns


class Tracer:
    """In-memory span recorder.

    Nested spans (``begin``/``end``) keep a parent stack, so they must all
    come from one thread; in the TCP server that is the engine consumer.
    Unnested spans (``wrap(..., nested=False)``) may come from any thread:
    each is appended to the array in one call.
    """

    def __init__(self) -> None:
        self.spans = array("q")
        self.names: list[str] = []
        self.seq = -1
        self.path_match_calls = 0
        self.path_match_hits = 0
        self.path_match_ns = 0
        self._ids = itertools.count()
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self) -> tuple[int, int, int]:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, clock()

    def end(self, name_id: int, token: tuple[int, int, int], outcome: int = 0) -> None:
        finished = clock()
        self._stack.pop()
        sid, parent, started = token
        self.spans.extend((sid, name_id, started, finished, parent, self.seq, outcome))

    def wrap(self, name: str, fn, outcome=None, nested: bool = True):
        """``fn`` with every call recorded as a span named ``name``.

        ``outcome`` maps the return value to the span's outcome integer.
        An unnested span numbers its calls itself and takes that as its
        sequence number.
        """
        name_id = self.name_id(name)
        if nested:

            def traced(*args, **kwargs):
                token = self.begin()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    self.end(name_id, token, outcome(result) if outcome and result is not None else 0)

            return traced

        calls = itertools.count()
        extend = self.spans.extend
        ids = self._ids

        def traced_flat(*args, **kwargs):
            started = clock()
            result = fn(*args, **kwargs)
            finished = clock()
            extend((next(ids), name_id, started, finished, -1, next(calls), 0))
            return result

        return traced_flat

    # -- reading the record ------------------------------------------------

    def rows(self):
        spans = self.spans
        for i in range(0, len(spans), _WIDTH):
            yield spans[i : i + _WIDTH]

    def summary(self) -> dict:
        """Per span name: calls, total ns, child ns, outcome sum, positive outcomes."""
        out = {name: {"calls": 0, "ns": 0, "child_ns": 0, "outcome_sum": 0, "positive": 0} for name in self.names}
        name_of_id: dict[int, str] = {}
        durations: list[tuple[int, int]] = []
        for sid, name_id, started, finished, parent, _seq, outcome in self.rows():
            name = self.names[name_id]
            name_of_id[sid] = name
            entry = out[name]
            entry["calls"] += 1
            entry["ns"] += finished - started
            entry["outcome_sum"] += outcome
            entry["positive"] += 1 if outcome > 0 else 0
            if parent >= 0:
                durations.append((parent, finished - started))
        for parent, ns in durations:
            name = name_of_id.get(parent)
            if name is not None:
                out[name]["child_ns"] += ns
        return out

    def column(self, name: str, field: str, length: int) -> list[int]:
        """One field of the spans named ``name``, indexed by sequence number."""
        name_id = self.name_id(name)
        index = FIELDS.index(field)
        values = [0] * length
        for row in self.rows():
            if row[1] == name_id and 0 <= row[5] < length:
                values[row[5]] = row[index]
        return values

    def dump(self, path: Path) -> None:
        """Write a JSON header line, then the spans as native int64 rows."""
        header = {
            "fields": FIELDS,
            "names": self.names,
            "spans": len(self.spans) // _WIDTH,
            "path_match": {
                "calls": self.path_match_calls,
                "hits": self.path_match_hits,
                "ns": self.path_match_ns,
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            self.spans.tofile(fh)


class BenchEngine(Engine):
    """Engine whose ``process`` calls the benchmark observes.

    With ``stamp`` it keeps the monotonic return time and the best cost of
    every call (the TCP server's latency and accuracy record). With a
    tracer every call is an ``engine.process`` span whose outcome is 1 for
    a synchronous step, numbered by the engine's own call count.
    """

    def __init__(self, config, tracer: Tracer | None = None, stamp: bool = False) -> None:
        super().__init__(config)
        self.tracer = tracer
        self.stamp = stamp
        self.done_ns: list[int] = []
        self.costs: list[int] = []
        self.calls = 0
        self._name_id = tracer.name_id("engine.process") if tracer is not None else -1

    def process(self, case_id, activity, timestamp=None):
        tracer = self.tracer
        if tracer is None:
            result = super().process(case_id, activity, timestamp)
        else:
            tracer.seq = self.calls
            token = tracer.begin()
            sync = 0
            try:
                result = super().process(case_id, activity, timestamp)
                sync = int(result.sync)
            finally:
                tracer.end(self._name_id, token, sync)
        self.calls += 1
        if self.stamp:
            self.done_ns.append(clock())
            self.costs.append(result.best_cost)
        return result


@contextmanager
def installed(tracer: Tracer):
    """Install the module-level wrappers for the duration of a traced run."""
    original_expand = engine_mod.expand_model_moves
    original_path_match = Trie.path_match
    original_parse_frame = stream_mod.parse_frame

    def traced_path_match(trie, start_id, seq):
        started = clock()
        node = original_path_match(trie, start_id, seq)
        tracer.path_match_ns += clock() - started
        tracer.path_match_calls += 1
        if node is not None:
            tracer.path_match_hits += 1
        return node

    engine_mod.expand_model_moves = tracer.wrap("engine.expand", original_expand, outcome=len)
    Trie.path_match = traced_path_match
    stream_mod.parse_frame = tracer.wrap("stream.decode", original_parse_frame, nested=False)
    try:
        yield tracer
    finally:
        engine_mod.expand_model_moves = original_expand
        Trie.path_match = original_path_match
        stream_mod.parse_frame = original_parse_frame


def engine_layer_metrics(summary: dict, tracer: Tracer) -> dict:
    """Per-layer engine and trie figures from a traced run's span summary."""
    empty = {"calls": 0, "ns": 0, "child_ns": 0, "outcome_sum": 0, "positive": 0}
    process = summary.get("engine.process", empty)
    expand = summary.get("engine.expand", empty)
    process_s = process["ns"] / 1e9
    expand_s = expand["ns"] / 1e9
    pm_calls = tracer.path_match_calls
    return {
        "engine.process_calls": process["calls"],
        "engine.process_s": process_s,
        "engine.expand_calls": expand["calls"],
        "engine.expand_s": expand_s,
        "engine.expand_share": expand_s / process_s if process_s else 0.0,
        "engine.expand_yield": expand["positive"] / expand["calls"] if expand["calls"] else 0.0,
        "engine.other_s": process_s - expand_s,
        "engine.sync_ratio": process["outcome_sum"] / process["calls"] if process["calls"] else 0.0,
        "trie.path_match_calls": pm_calls,
        "trie.path_match_s": tracer.path_match_ns / 1e9,
        "trie.path_match_hit_ratio": tracer.path_match_hits / pm_calls if pm_calls else 0.0,
    }


def engine_state_metrics(engine: Engine) -> dict:
    """Buffer figures read from the engine's public surface after a run."""
    peak_per_case = max(
        (engine.case_stats(case_id).peak_states for case_id in engine.case_ids()), default=0
    )
    return {
        "engine.states_created": engine.states_created,
        "engine.peak_resident_states": engine.peak_total_states,
        "engine.resident_cases_end": len(engine.case_ids()),
        "engine.max_states_per_case": peak_per_case,
        "events.alphabet_size_end": len(engine.trie.alphabet),
    }
