"""Shared helpers for the benchmark: package bootstrap, statistics and gates.

Importing this module puts the checkout's ``src`` directory first on
``sys.path`` so every benchmark process drives the package built from the
same source tree. If the source tree is absent the import exits with code
2 before anything is measured.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

if not (SRC / "trie_align" / "__init__.py").is_file():
    print(f"error: package source not found under {SRC}", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(SRC))

from trie_align import (  # noqa: E402
    Engine,
    EngineConfig,
    build_trie,
    optimal_prefix_costs,
    parse_proxy_log,
)
from trie_align.events import ProxyLog  # noqa: E402

# Proxy traces of the 8-trace workflow used across the test suite
# (tests/conftest.py); its trie has 22 non-root nodes.
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


def c7_proxy() -> ProxyLog:
    """The C7 model: 2,600 random traces over 24 activities, lengths 18-30.

    Same generator and seed as the C7 acceptance test, so the trie has
    57,364 nodes and branching up to 24.
    """
    rng = random.Random(7)
    alphabet = [f"act{i:02d}" for i in range(24)]
    return ProxyLog(
        tuple(
            tuple(rng.choice(alphabet) for _ in range(rng.randrange(18, 31)))
            for _ in range(2600)
        )
    )


def workflow_proxy() -> ProxyLog:
    return parse_proxy_log(WORKFLOW_PROXY_TEXT)


def build_trie_timed(proxy: ProxyLog):
    """Build a trie offline; returns ``(trie, seconds)``."""
    started = time.perf_counter()
    trie = build_trie(proxy)
    return trie, time.perf_counter() - started


# -- statistics -------------------------------------------------------------


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list (``q`` in (0, 1])."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``n``."""
    return n - max(1, math.ceil(q * n))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cost_digest(costs) -> str:
    """SHA-256 over the per-event ``best_cost`` stream."""
    return hashlib.sha256(",".join(map(str, costs)).encode("ascii")).hexdigest()


# -- correctness gates -------------------------------------------------------


def audit_buffer_bounds(engine: Engine) -> int:
    """Cases breaking ``peak states <= (max_branching + 1) x max decay issued``,
    plus cases holding a state whose decay fell below one."""
    limit_factor = engine.trie.max_branching + 1
    violations = 0
    for case_id in engine.case_ids():
        stats = engine.case_stats(case_id)
        if stats.peak_states > limit_factor * stats.max_decay_issued:
            violations += 1
        if any(s.decay < 1 for s in engine.states(case_id)):
            violations += 1
    return violations


def group_by_case(case_ids: list[str], activities: list[str], costs: list[int]) -> dict:
    """Per case, in arrival order: ``(activities, engine costs)``."""
    out: dict[str, tuple[list[str], list[int]]] = {}
    for case_id, activity, cost in zip(case_ids, activities, costs):
        acts, case_costs = out.setdefault(case_id, ([], []))
        acts.append(activity)
        case_costs.append(cost)
    return out


def prefix_optima(trie, sequences: list[list[str]]) -> list[list[int]]:
    """DP optimum of every non-empty prefix of each activity sequence."""
    intern = trie.alphabet.intern
    optimum_of: dict[tuple[str, ...], list[int]] = {}
    out = []
    for activities in sequences:
        key = tuple(activities)
        if key not in optimum_of:
            optimum_of[key] = optimal_prefix_costs([intern(a) for a in activities], trie)[1:]
        out.append(optimum_of[key])
    return out


def prefix_optima_parallel(payload: bytes, sequences: list[list[str]], workers: int) -> list[list[int]]:
    """:func:`prefix_optima` spread over ``workers`` child processes.

    Each child (``oracle_worker.py``) loads its own trie from the
    serialized ``payload`` and takes every ``workers``-th sequence. Every
    child has ended, or been killed and waited for, when this returns.
    """
    if not sequences:
        return []
    batches = [sequences[k::workers] for k in range(min(workers, len(sequences)))]
    procs: list[subprocess.Popen] = []
    try:
        for _ in batches:
            procs.append(
                subprocess.Popen(
                    [sys.executable, str(BENCH_DIR / "oracle_worker.py")],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                )
            )
        # A child reads all its input before it writes, so feeding each in
        # turn cannot block; all of them then compute at once.
        for proc, batch in zip(procs, batches):
            pickle.dump((payload, batch), proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
            proc.stdin.close()
        results = []
        for proc in procs:
            out = proc.stdout.read()
            if proc.wait() != 0:
                raise RuntimeError(f"oracle worker exited with {proc.returncode}")
            results.append(pickle.loads(out))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()
    optima: list[list[int]] = [[] for _ in sequences]
    for k, batch_optima in enumerate(results):
        optima[k::len(batches)] = batch_optima
    return optima


def oracle_check(per_case: dict, case_ids: list[str], optima: list[list[int]]) -> dict:
    """Compare engine costs with the DP optimum on every prefix of each case.

    ``optima`` holds the prefix optima of each listed case, in order.
    Returns the number of cases checked, the number of prefixes where the
    engine reported less than the optimum (unsound), and the summed engine
    and optimal costs over all checked prefixes.
    """
    unsound = 0
    engine_total = 0
    optimal_total = 0
    for case_id, optimal in zip(case_ids, optima):
        costs = per_case[case_id][1]
        unsound += sum(1 for got, best in zip(costs, optimal) if got < best)
        engine_total += sum(costs)
        optimal_total += sum(optimal)
    return {
        "cases_checked": len(case_ids),
        "unsound_prefixes": unsound,
        "engine_cost": engine_total,
        "optimal_cost": optimal_total,
    }


def cost_ratio(check: dict) -> float:
    """Engine cost over optimal cost; 1.0 when both are zero (engine optimal)."""
    if check["optimal_cost"] == 0:
        return 1.0 if check["engine_cost"] == 0 else float("inf")
    return check["engine_cost"] / check["optimal_cost"]


def rerun_costs(trie, case_ids: list[str], activities: list[str]) -> list[int]:
    """Per-event costs of a fresh engine on the same events (determinism check)."""
    engine = Engine(EngineConfig(trie=trie))
    return [engine.process(c, a).best_cost for c, a in zip(case_ids, activities)]


def provenance(seed: int) -> dict:
    """Where a result came from: source revision, interpreter, machine, seed."""
    source = hashlib.sha256()
    for path in sorted((SRC / "trie_align").glob("*.py")):
        source.update(path.name.encode())
        source.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    return {
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def cpu_steal(since: tuple[int, int] | None = None):
    """Machine-wide CPU ticks ``(steal, total)`` from ``/proc/stat``; given an
    earlier reading, the share of ticks stolen by the hypervisor since then
    (None where the file is not available)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    now = (ticks[7] if len(ticks) > 7 else 0, sum(ticks))
    if since is None:
        return now
    total = now[1] - since[1]
    return round((now[0] - since[0]) / total, 4) if total > 0 else 0.0


def trie_shape(trie) -> dict:
    return {
        "nodes": trie.node_count,
        "max_branching": trie.max_branching,
        "avg_leaf_depth": round(trie.avg_leaf_depth, 3),
    }
