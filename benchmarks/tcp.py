"""The ``tcp-workflow`` workload: a ``StreamServer`` process fed over loopback.

Three processes: this one generates the frames (untimed) and checks the
outcome, ``tcp_server.py`` runs the server and engine, ``tcp_client.py``
sends the frames over one connection. The engine's work on the 22-node
workflow trie is tiny, so the server's own costs set the numbers: frame
decode, the handoff queue and the reader and consumer threads sharing
the interpreter lock.

Latency is taken in the paced phase, from each frame's due time on the
generator's fixed schedule to the return of ``Engine.process`` in the
server (one monotonic clock for all processes; frames are matched in
FIFO order). Throughput is taken in the full-speed phase. Its tail is
reported at p95: at p99 the run-to-run spread is too wide to bound.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time

from common import (
    BENCH_DIR,
    beyond,
    build_trie_timed,
    cost_digest,
    cost_ratio,
    group_by_case,
    oracle_check,
    percentile,
    prefix_optima,
    rerun_costs,
    trie_shape,
    workflow_proxy,
)
from trie_align import serialize_trie
from trie_align.cli import simulate_stream

NOISE = 0.05
PACED_EPS = 5_000
TICK_NS = 10_000_000
# Full-speed events per second measured when the benchmark was written,
# on a 2-vCPU x86 virtual machine; it only sizes the full-speed phase to
# about half a run.
FULL_EPS_NOMINAL = 30_000
BATCH = 64
PAUSE_S = 0.25
SETUP_REPEATS = 11
TAIL_Q = 0.95
RERUN_FRAMES = 50_000


def _quantiles_us(values_ns: list[int], qs: tuple[float, ...]) -> list[float]:
    ordered = sorted(values_ns)
    return [percentile(ordered, q) / 1000.0 for q in qs] if ordered else [0.0 for _ in qs]


def run_tcp_workflow(seed: int, seconds: int, trace: bool) -> dict:
    """Workflow trie, 5% noise: a paced phase of ``seconds / 2``, then full speed."""
    trie, build_s = build_trie_timed(workflow_proxy())
    payload = serialize_trie(trie)
    per_tick = PACED_EPS * TICK_NS // 1_000_000_000
    paced = round(PACED_EPS * seconds / 2) // per_tick * per_tick
    full = round(FULL_EPS_NOMINAL * seconds / 2)
    started = time.perf_counter()
    frames = list(simulate_stream(trie, NOISE, seed, paced + full, None))
    simulate_s = time.perf_counter() - started
    case_ids = [f.case_id for f in frames]
    activities = [f.activity for f in frames]
    wire = "".join(f.to_json_line() + "\n" for f in frames).encode("utf-8")
    del frames
    total = len(case_ids)

    server = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "tcp_server.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    client = None
    watchdog = threading.Timer(seconds * 4 + 90, server.kill)
    watchdog.start()
    try:
        server.stdin.write(
            json.dumps({"trie": payload.decode("utf-8"), "trace": trace, "setup_repeats": SETUP_REPEATS})
            + "\n"
        )
        server.stdin.flush()
        port = json.loads(server.stdout.readline())["port"]
        client_config = {
            "port": port,
            "paced_frames": paced,
            "per_tick": per_tick,
            "tick_ns": TICK_NS,
            "batch": BATCH,
            "pause_s": PAUSE_S,
            "start_delay_ns": 20_000_000,
        }
        client = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "tcp_client.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        out, _ = client.communicate(
            json.dumps(client_config).encode("utf-8") + b"\n" + wire, timeout=seconds * 3 + 60
        )
        if client.returncode != 0:
            raise RuntimeError(f"load generator exited with {client.returncode}")
        sent = json.loads(out)
        server.stdin.write(json.dumps({"expect": total, "timeout_s": 30}) + "\n")
        server.stdin.flush()
        record = json.loads(server.stdout.readline())
        server.wait(timeout=30)
    finally:
        watchdog.cancel()
        for proc in (client, server):
            if proc is not None and proc.poll() is None:
                proc.kill()
            if proc is not None:
                proc.wait()

    done_ns = record["done_ns"]
    costs = record["costs"]
    processed = len(done_ns)
    origin = sent["origin_ns"]

    def due_ns(i: int) -> int:
        return origin + (i // per_tick) * TICK_NS

    latencies = [done_ns[i] - due_ns(i) for i in range(min(paced, processed))]
    p50_us, tail_us = _quantiles_us(latencies, (0.50, TAIL_Q))
    full_wall_s = (done_ns[-1] - sent["full_start_ns"]) / 1e9 if processed == total else float("nan")
    lags = [s - (origin + k * TICK_NS) for k, s in enumerate(sent["sent_ns"])]
    lag_p95_us, lag_max_us = _quantiles_us(lags, (0.95, 1.0))

    per_case = group_by_case(case_ids[:processed], activities[:processed], costs)
    checked = list(per_case)
    check = oracle_check(per_case, checked, prefix_optima(trie, [per_case[c][0] for c in checked]))
    repeat = rerun_costs(trie, case_ids[:RERUN_FRAMES], activities[:RERUN_FRAMES])
    final_costs = [case_costs[-1] for _, case_costs in per_case.values()]
    gates = {
        "lost_frames": total - processed,
        "frames_malformed": record["frames_malformed"],
        "buffer_bound_violations": record["buffer_bound_violations"],
        "unsound_prefixes": check["unsound_prefixes"],
        "rerun_mismatches": sum(1 for a, b in zip(repeat, costs) if a != b),
        "generator_behind": lag_max_us * 1000 > TICK_NS,
        "oracle": check,
    }
    layers = {
        **record["layers"],
        "trie.build_s": build_s,
        "trie.load_s": record["trie.load_s"],
        "cli.simulate_s": simulate_s,
        "oracle.cases_checked": check["cases_checked"],
        "engine.mean_case_cost": sum(final_costs) / len(final_costs) if final_costs else 0.0,
        "stream.frames_malformed": record["frames_malformed"],
        "stream.generator_lag_p95_us": lag_p95_us,
        "stream.generator_lag_max_us": lag_max_us,
    }
    if trace and processed == total:
        layers.update(_stream_layers(record, due_ns, paced, full_wall_s))

    failed = (
        gates["lost_frames"]
        + gates["frames_malformed"]
        + gates["buffer_bound_violations"]
        + gates["unsound_prefixes"]
        + gates["rerun_mismatches"]
    )
    n = len(latencies)
    return {
        "workload": "tcp-workflow",
        "attempted": total,
        "failed": failed,
        "metrics": {
            "events_per_s": full / full_wall_s,
            "latency_p50_us": p50_us,
            "latency_tail_us": tail_us,
            "setup_s": record["setup_s"],
            "peak_rss_mb": record["peak_rss_mb"],
            "cost_ratio_vs_oracle": cost_ratio(check),
        },
        "samples": {
            "latency_p50_us": {"quantile": 0.50, "samples": n, "beyond": beyond(n, 0.50)},
            "latency_tail_us": {"quantile": TAIL_Q, "samples": n, "beyond": beyond(n, TAIL_Q)},
        },
        "layers": layers,
        "gates": gates,
        "details": {
            "events": total,
            "paced_frames": paced,
            "paced_eps": PACED_EPS,
            "full_frames": full,
            "timed_wall_s": full_wall_s,
            "cases": len(per_case),
            "mean_case_cost": layers["engine.mean_case_cost"],
            "cost_digest": cost_digest(costs),
            "trie": trie_shape(trie),
        },
    }


def _stream_layers(record: dict, due_ns, paced: int, full_wall_s: float) -> dict:
    """Where a frame's time goes inside the server, from the traced spans."""
    decode_start = record["decode_start_ns"]
    decode_end = record["decode_end_ns"]
    process_start = record["process_start_ns"]
    process_end = record["process_end_ns"]
    n = len(decode_start)
    decode = [decode_end[i] - decode_start[i] for i in range(n)]
    wait = [process_start[i] - decode_end[i] for i in range(n)]
    net = [decode_start[i] - due_ns(i) for i in range(paced)]
    full_busy = sum(process_end[i] - process_start[i] for i in range(paced, n))
    decode_p50, = _quantiles_us(decode, (0.50,))
    net_p50, = _quantiles_us(net, (0.50,))
    wait_p50, wait_p95 = _quantiles_us(wait[:paced], (0.50, 0.95))
    return {
        "stream.decode_s": sum(decode) / 1e9,
        "stream.decode_us_p50": decode_p50,
        "stream.net_us_p50": net_p50,
        "stream.queue_wait_s": sum(wait[:paced]) / 1e9,
        "stream.queue_wait_us_p50": wait_p50,
        "stream.queue_wait_us_p95": wait_p95,
        "stream.server_busy_share": full_busy / 1e9 / full_wall_s,
    }
