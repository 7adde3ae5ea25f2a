"""End-to-end Mint benchmark: cold start -> ingest -> finalize -> reads.

Run from the repository root::

    python3 e2ebench/run.py --workload tt-coldstart --seed 1 --seconds 33 --trace 0

``--trace 0`` repeats whole cold lifecycles for about ``--seconds``
seconds (at least two) and prints the end-to-end metrics.  ``--trace 1``
alternates untraced and traced lifecycles, prints the per-layer table,
and writes the traced lifecycles' spans under ``e2ebench/out/``.  Both
print a human-readable table, then one JSON object as the last line.
The exit code is 1 when any operation failed or any answer was wrong,
2 when the program's sources cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Fewest lifecycles per untraced run: set-up is a median of at least
#: two, and byte counts are compared between two runs of the seed.
MIN_LIFECYCLES = 2

#: Unit of each end-to-end metric, in the order printed.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_spans_per_s": "spans/s",
    "ingest_p50_ms": "ms",
    "lifecycle_spans_per_s": "spans/s",
    "query_batch_qps": "queries/s",
    "query_hit_ratio": "ratio",
    "query_exact_ratio": "ratio",
    "network_ratio": "ratio",
    "storage_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Printed in the table but kept out of the JSON metrics.  The last two
#: read 0 on a correct program, and JSON metrics must never read 0: the
#: JSON carries them as ``query_hit_ratio`` and the ``failed`` /
#: ``attempted`` counts.  The percentiles moved between seeds on a
#: 2-vCPU machine by about as much as, or more than, the largest bound
#: a metric may have; see README.md.
TABLE_ONLY = {
    "ingest_p99_ms": "ms",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "query_miss_ratio": "ratio",
    "failed_op_ratio": "ratio",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "framework.py").is_file():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from e2e_workloads import WORKLOADS, make_inputs

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    inputs = make_inputs(spec, args.seed)
    # The generated stream is the harness's data, alive for the whole
    # run: move it out of the collector's reach so that garbage
    # collection pauses inside timed calls scan the program's objects only.
    gc.collect()
    gc.freeze()
    print(
        f"{spec.name}: {len(inputs.stream)} traces, {inputs.spans} spans, "
        f"{inputs.raw_bytes} raw bytes, seed {args.seed}"
    )
    if args.trace:
        report = traced_run(spec, inputs, args.seconds, HERE / "out", args.seed)
    else:
        report = untraced_run(spec, inputs, args.seconds)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


# ----------------------------------------------------------------------
# Untraced: the end-to-end metrics
# ----------------------------------------------------------------------
def untraced_run(spec, inputs, seconds: float) -> dict:
    from e2e_lifecycle import run_lifecycle, timed_setup

    results, setups = [], []
    started = perf_counter()
    while len(results) < MIN_LIFECYCLES or _room_for_one_more(started, len(results), seconds):
        setups += [timed_setup(spec, inputs) for _ in range(spec.extra_setups)]
        results.append(run_lifecycle(spec, inputs))
        setups.append(results[-1].setup_s)
    verdict = _run_verdict(results)
    metrics = end_to_end_metrics(results, setups, inputs)
    metrics["query_miss_ratio"] = 1.0 - metrics["query_hit_ratio"]
    metrics["failed_op_ratio"] = verdict.failed / verdict.attempted
    samples = {
        "setup": len(setups),
        "ingest": sum(len(r.ingest_latencies) for r in results),
        "query": sum(len(r.query_latencies) for r in results),
    }
    print(f"{len(results)} lifecycles; samples: {samples}")
    units = END_TO_END_UNITS | TABLE_ONLY
    for name, unit in units.items():
        print(f"  {name:<24} {metrics[name]:>16.6g} {unit}")
    _print_failures(verdict)
    return {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        },
    }


def _room_for_one_more(started: float, done: int, seconds: float) -> bool:
    """Whether another lifecycle, as long as the mean one so far, still
    ends within ``seconds`` of ``started``."""
    elapsed = perf_counter() - started
    return elapsed + elapsed / done <= seconds


def end_to_end_metrics(results, setups: list[float], inputs) -> dict[str, float]:
    """Medians over set-ups, lifecycles or batches; rates and
    percentiles over every lifecycle's calls."""
    ingest = sorted(x for r in results for x in r.ingest_latencies)
    queries = sorted(x for r in results for x in r.query_latencies)
    first = results[0]
    return {
        "setup_s": statistics.median(setups),
        "ingest_spans_per_s": sum(r.spans for r in results) / sum(r.ingest_s for r in results),
        "ingest_p50_ms": 1e3 * _percentile(ingest, 50),
        "ingest_p99_ms": 1e3 * _percentile(ingest, 99),
        "lifecycle_spans_per_s": statistics.median(
            r.spans / r.lifecycle_s for r in results
        ),
        "query_p50_ms": 1e3 * _percentile(queries, 50),
        "query_p99_ms": 1e3 * _percentile(queries, 99),
        "query_batch_qps": statistics.median(
            len(inputs.analyst_ids) / t for r in results for t in r.batch_times
        ),
        "query_hit_ratio": first.hits / first.lookups,
        "query_exact_ratio": first.exact / first.lookups,
        "network_ratio": first.byte_tables["network_bytes"] / inputs.raw_bytes,
        "storage_ratio": first.byte_tables["storage_bytes"] / inputs.raw_bytes,
        # The first lifecycle's: later ones add allocator fragmentation,
        # and how many fit in a run depends on the machine's speed.
        "peak_rss_mb": first.peak_rss_mb,
    }


def _percentile(ordered: list[float], pct: int) -> float:
    return statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]


def _run_verdict(results):
    """Every lifecycle's verdict, plus the same-seed determinism check:
    byte counts and answers must repeat exactly in every lifecycle."""
    from e2e_lifecycle import Verdict

    verdict = Verdict()
    first = results[0]
    for result in results:
        verdict.add(result.verdict)
    for result in results[1:]:
        verdict.op(
            result.byte_tables == first.byte_tables,
            f"byte counts differ between lifecycles of one seed: "
            f"{first.byte_tables} vs {result.byte_tables}",
        )
        verdict.op(
            (result.hits, result.exact) == (first.hits, first.exact),
            "query outcomes differ between lifecycles of one seed",
        )
    return verdict


def _print_failures(verdict) -> None:
    for message in verdict.messages:
        print(f"FAILED: {message}", file=sys.stderr)


# ----------------------------------------------------------------------
# Traced: the per-layer table
# ----------------------------------------------------------------------
def traced_run(spec, inputs, seconds: float, out_dir: Path, seed: int) -> dict:
    from e2e_lifecycle import Verdict, run_lifecycle
    from e2e_tracer import Tracer

    lifecycles, tracers, rows = [], [], []
    checks = Verdict()
    started = perf_counter()
    while not rows or _room_for_one_more(started, len(rows), seconds):
        plain = run_lifecycle(spec, inputs)
        tracer = Tracer()
        with tracer.installed():
            result = run_lifecycle(spec, inputs, tracer.phase)
        cross_check(tracer, result, checks)
        rows.append(layer_metrics(tracer, result, plain.wall_s))
        # The instances keep a finished framework's buffers alive.
        tracer.instances.clear()
        lifecycles += [plain, result]
        tracers.append(tracer)
    verdict = _run_verdict(lifecycles)
    verdict.add(checks)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}

    for index, tracer in enumerate(tracers):
        tracer.write(out_dir / f"{spec.name}.seed{seed}.lifecycle{index}.spans.tsv.gz")
    print(f"{len(rows)} traced + {len(rows)} untraced lifecycles; spans in {out_dir}")
    print_layer_table(metrics)
    _print_failures(verdict)
    return {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in metrics.items()
        },
    }


def layer_metrics(tracer, result, untraced_wall: float) -> dict[str, float]:
    """The per-layer row of one traced lifecycle; ``untraced_wall`` is
    the wall time of the untraced lifecycle run just before it."""
    from e2e_tracer import BENCH_LAYER, ENTRY_POINTS

    self_s = tracer.layer_self_s()
    calls = tracer.layer_call_counts()
    counters = result.counters
    metrics: dict[str, float] = {}
    for layer in ENTRY_POINTS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_s[layer]
    metrics |= {
        "parsing.templates": sum(
            len(parser.templates) for parser in tracer.instances["StringAttributeParser"]
        ),
        "agent.params_buffer.evicted_blocks": sum(
            buffer.evicted_blocks for buffer in tracer.instances["ParamsBuffer"]
        ),
        "agent.sample.sampled_ratio": counters["sampled_ratio"],
        "net.retransmit_bytes": counters["retransmit_bytes"],
        "net.queued_reports": counters["queued_reports"],
        "backend.stored_traces": counters["stored_traces"],
        "query.filters_probed": counters["filters_probed"],
        "query.filters_pruned": counters["filters_pruned"],
        "query.prune_ratio": counters["prune_ratio"],
        "query.cache_hits": counters["cache_hits"],
        "framework.warm_up_s": result.warm_up_s,
        "framework.finalize_s": result.finalize_s,
        "trace.unattributed_share": self_s[BENCH_LAYER] / tracer.root_seconds(),
        "trace.overhead_ratio": result.wall_s / untraced_wall,
        "trace.spans": len(tracer.span_layer),
    }
    return metrics


def cross_check(tracer, result, verdict) -> None:
    """Wrapper counts against the counters the program keeps itself.

    Agreement shows the wrappers saw every call.  The in-process wire
    times each delivery into the ``transport_deliver`` stage histogram;
    the simulated network wire does not, so there the histogram stays
    empty and deliveries are checked against the report counter alone.
    """
    counters = result.counters
    calls = tracer.entry_calls
    delivers = calls["LocalTransport.deliver"] + calls["NetTransport.deliver"]
    pairs = [
        ("process_trace calls", calls["MintFramework.process_trace"],
         "mint_ingest_traces", counters["ingest_traces"]),
        ("deliver calls", delivers,
         "mint_transport_reports", counters["transport_reports"]),
        ("plan calls", calls["QueryPlanner.plan"],
         "mint_query_plans", counters["query_plans"]),
        ("plan candidates", tracer.plan_candidates,
         "plan_totals.candidates", counters["plan_candidates"]),
    ]
    if not counters["networked"]:
        pairs.append(("deliver calls", delivers,
                      "transport_deliver histogram", counters["transport_deliver_hist"]))
    for ours, ours_value, theirs, theirs_value in pairs:
        same = ours_value == theirs_value
        print(f"  cross-check {ours}={ours_value} vs {theirs}={theirs_value}: "
              f"{'ok' if same else 'MISMATCH'}")
        verdict.op(same, f"{ours} {ours_value} != {theirs} {theirs_value}")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def print_layer_table(metrics: dict[str, float]) -> None:
    from e2e_tracer import ENTRY_POINTS

    total = sum(metrics[f"{layer}.self_s"] for layer in ENTRY_POINTS)
    print(f"  {'layer':<24} {'calls':>10} {'self_s':>10} {'share':>7}")
    for layer in ENTRY_POINTS:
        self_s = metrics[f"{layer}.self_s"]
        print(
            f"  {layer:<24} {metrics[f'{layer}.calls']:>10.0f} {self_s:>10.4f} "
            f"{self_s / total if total else 0.0:>7.1%}"
        )
    for name, value in metrics.items():
        if not name.endswith((".calls", ".self_s")):
            print(f"  {name:<36} {value:>16.6g} {layer_unit(name)}")


if __name__ == "__main__":
    sys.exit(main())
