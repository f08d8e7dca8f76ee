"""Seeded end-to-end and per-layer benchmark of the trie_align package.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload large-noisy --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Workloads (the seed only shapes the generated inputs):

* ``large-noisy``: the C7 model (57,364-node trie, branching up to 24),
  10% noise, 32 cases in flight, events fed to ``Engine.process`` in
  process by one caller at full speed. The model-move search does most
  of the work; the latency tail is heavy.
* ``csv-conforming``: the same trie at 0% noise. The stream is written as
  ``case,activity,timestamp`` CSV and goes through ``parse_event_log`` and
  ``replay(..., interleave="by-timestamp")`` into a sink that, after a
  case's last event, reads ``best_state`` and ``complete_alignment``.
  The search never runs; every case stays resident.
* ``tcp-workflow``: the 8-trace workflow trie at 5% noise behind a
  ``StreamServer`` process, fed over one loopback connection by a
  generator process: a paced open loop (5,000 events/s in 10 ms ticks)
  for latency, then full speed for throughput. It is not listed in
  ``BENCHMARK.json``: on a 2-vCPU virtual machine its figures follow the
  host's scheduling of thread wake-ups: over five seeded runs the
  interquartile range was 20% of the median for throughput and median
  latency and 70% for p95 latency, wider than any bound a regression
  gate could use. Run it by name to study serving.

On the in-process workloads ``latency_p50_us`` is the mean of the median
latencies of blocks of events of about half a second each; ``inprocess.py``
says why. The pooled whole-run median is printed and recorded beside it.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the
workload untraced and then traced (wrappers from ``tracing.py``) and
prints the per-layer metrics of the traced run; the tracing overhead is
the traced ``events_per_s`` against the untraced one. The last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it are a readable report. The full record, with provenance
and the correctness gates, goes to ``benchmarks/results/BENCH_<workload>.json``
and the spans of a traced run to ``benchmarks/results/<workload>.spans``.

A run is correct when every attempted event was processed and every gate
passed: the per-event cost stream of a fresh engine repeats the run's
(its SHA-256 digest is recorded), engine cost is at least the DP oracle
optimum on every prefix of every checked case, conforming streams cost 0,
and no case breaks the ``(max_branching + 1) x max_decay_issued`` buffer
bound. Failures count in ``failed``; ``failed / attempted`` is the
``failed_frac`` of the report.

Engine phases inside ``Engine.process`` (ageing, sync, log moves,
admission) are not timed separately; see ``tracing.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import common  # noqa: F401  (puts the package source on sys.path first)
from common import RESULTS_DIR, cpu_steal, provenance
from inprocess import run_csv_conforming, run_large_noisy
from tcp import run_tcp_workflow

RUNNERS = {
    "large-noisy": run_large_noisy,
    "csv-conforming": run_csv_conforming,
    "tcp-workflow": run_tcp_workflow,
}

# Metric names and units come from the benchmark's definition file.
_SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload, write its record and report; returns the result line."""
    runner = RUNNERS[workload]
    steal_before = cpu_steal()
    untraced = runner(seed, seconds, False)
    record = {"provenance": provenance(seed), "seconds": seconds, "untraced": untraced}
    runs = [untraced]
    if trace:
        traced = runner(seed, seconds, True)
        runs.append(traced)
        overhead = 1.0 - traced["metrics"]["events_per_s"] / untraced["metrics"]["events_per_s"]
        traced["layers"]["trace.overhead_frac"] = overhead
        record["traced"] = traced
        record["provenance"]["tracing_overhead_frac"] = overhead
        values = {name: traced["layers"].get(name, 0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = dict(untraced["metrics"])
        units = END_TO_END
    record["provenance"]["trie"] = untraced["details"]["trie"]
    record["provenance"]["cpu_steal_frac"] = cpu_steal(steal_before)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    finite = all(math.isfinite(v) for v in values.values())
    summary = {
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name] if math.isfinite(values[name]) else 0.0, "unit": units[name]}
            for name in units
        },
    }
    record["result"] = summary
    suffix = ".trace" if trace else ""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{workload}{suffix}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    _print_report(workload, seed, seconds, trace, record, summary, path)
    return summary


def _unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_us" in name:
        return "us"
    return "ratio" if name.endswith("_share") else "count"


def _print_report(workload, seed, seconds, trace, record, summary, path) -> None:
    run = record["traced"] if trace else record["untraced"]
    prov = record["provenance"]
    print(f"== {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    shown = dict(summary["metrics"])
    if trace:
        # Layers this workload measures beyond the gated list (TCP stream figures).
        shown.update(
            {k: {"value": v, "unit": _unit_of(k)} for k, v in run["layers"].items() if k not in shown}
        )
    for name, metric in shown.items():
        line = f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}"
        sample = run["samples"].get(name) if not trace else None
        if sample:
            line += f"   p{round(sample['quantile'] * 100)} of {sample['samples']} samples"
            line += f" ({sample['beyond']} beyond)" + (
                f" per block, {sample['blocks']} blocks" if "blocks" in sample else ""
            )
        print(line)
    details = run["details"]
    if "pooled_latency_p50_us" in details:
        print(
            f"  whole run: timed_wall_s {details['timed_wall_s']:.6g}"
            f" pooled latency_p50_us {details['pooled_latency_p50_us']:.6g}"
        )
    failed_frac = run["failed"] / run["attempted"]
    print(f"  failed_frac {failed_frac:.6g} ({run['failed']} of {run['attempted']})")
    print(f"  mean_case_cost {details['mean_case_cost']:.6g} over {details['cases']} cases")
    gates = {k: v for k, v in run["gates"].items() if not isinstance(v, dict)}
    print("  gates " + " ".join(f"{k}={v}" for k, v in gates.items()))
    if run["gates"].get("generator_behind"):
        print("  WARNING: the generator fell more than one tick behind its schedule;")
        print("  paced latencies include its lateness (timed from due time)")
    print(f"  cost_digest sha256:{details['cost_digest']}")
    print(
        f"  provenance git={prov['git_sha']} source={prov['source_sha256'][:16]}"
        f" python={prov['python']} nproc={prov['nproc']} trie={prov['trie']}"
        f" cpu_steal_frac={prov['cpu_steal_frac']}"
        + (f" tracing_overhead_frac={prov['tracing_overhead_frac']:.4f}" if trace else "")
    )
    print(f"  record {path.relative_to(common.ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*RUNNERS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=_SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    workloads = list(RUNNERS) if args.workload == "all" else [args.workload]
    results = [run_one(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{w}.{name}": metric
                for w, r in zip(workloads, results)
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
