"""One cold-to-reads Mint lifecycle, its correctness checks and counters.

A lifecycle is what a user of ``MintFramework`` pays, in order:
construct cold and ``warm_up`` on the stream's prefix (set-up), then
``process_trace`` over the whole stream with analyst reads interleaved,
``finalize``, and the post-finalize reads: a point ``query`` sweep over
the analyst's ids, ``query_many`` batches over the same ids, and one
``execute`` of an incident-window predicate spec.  One client drives it
in a closed loop: each call starts when the previous one returned.

Each answer is checked right after its timed call returns, outside the
timed window, and then dropped: the checks cost no measured time, and
the harness keeps no growing heap of answers that the program's
garbage collections would have to scan.
"""

from __future__ import annotations

import gc
import resource
import sys
from collections import Counter
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from e2e_workloads import REQUESTS_PER_MINUTE, Inputs, WorkloadSpec

from repro.framework import MintFramework
from repro.model.trace import Trace
from repro.query.result import QueryResult, QueryStatus
from repro.query.spec import QuerySpec
from repro.workloads import TraceRecord, incident_window_spec

#: Requests in the post-finalize incident window, from mid-stream.
INCIDENT_TRACES = 300

#: Post-finalize ``query_many`` repeats per lifecycle; each is one
#: sample of the batch rate.  Each repeat does the same work: the point
#: sweep over the same ids has already warmed every cache the batch can
#: use.
BATCH_REPEATS = 3

#: Failure messages kept per lifecycle (the count is always exact).
MAX_MESSAGES = 10


@dataclass
class Verdict:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def op(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages[: MAX_MESSAGES - len(self.messages)])


@dataclass
class LifecycleResult:
    """Timings, answers' summary and counters of one lifecycle."""

    construct_s: float
    warm_up_s: float
    ingest_s: float
    finalize_s: float
    wall_s: float
    spans: int
    ingest_latencies: list[float]
    query_latencies: list[float]
    batch_times: list[float]
    lookups: int
    hits: int
    exact: int
    byte_tables: dict[str, int]
    counters: dict[str, float]
    verdict: Verdict
    #: The process's resident-set high-water mark when the lifecycle ended.
    peak_rss_mb: float

    @property
    def setup_s(self) -> float:
        return self.construct_s + self.warm_up_s

    @property
    def lifecycle_s(self) -> float:
        return self.setup_s + self.ingest_s + self.finalize_s


def run_lifecycle(
    spec: WorkloadSpec,
    inputs: Inputs,
    phase: Callable[[str], AbstractContextManager] | None = None,
) -> LifecycleResult:
    """Drive one cold lifecycle; ``phase`` opens the tracer's spans."""
    phase = phase or (lambda name: nullcontext())
    reset_process_caches()
    gc.collect()
    verdict = Verdict()
    stream = inputs.stream
    traces = {trace.trace_id: trace for _, trace in stream}
    ingest_latencies: list[float] = []
    query_latencies: list[float] = []
    queued_high_water = 0

    with phase("lifecycle"):
        wall_start = perf_counter()
        with phase("setup"):
            framework = MintFramework(
                deployment=spec.deployment(), auto_warmup_traces=spec.warmup
            )
            constructed = perf_counter()
            framework.warm_up(inputs.warmup_traces)
            warmed = perf_counter()

        with phase("ingest"):
            for index, (now, trace) in enumerate(stream, 1):
                start = perf_counter()
                try:
                    framework.process_trace(trace, now)
                except Exception as exc:  # counted, and the run goes on
                    verdict.fail(f"process_trace({trace.trace_id}): {exc!r}")
                ingest_latencies.append(perf_counter() - start)
                verdict.attempted += 1
                if index % spec.point_every == 0:
                    recent = stream[index - spec.point_every // 2][1].trace_id
                    _point(framework, recent, verdict)
                if spec.batch_every and index % spec.batch_every == 0:
                    window = inputs.records[index - spec.batch_every : index]
                    ids = [record.trace_id for record in window]
                    batch = _guarded(verdict, "query_many", framework.query_many, ids)
                    verdict.op(
                        [r.trace_id for r in batch] == ids,
                        "mid-stream query_many did not answer each id once, in order",
                    )
                    predicate = _incident(window, inputs, traces)
                    matched = _guarded(verdict, "execute", framework.execute, predicate)
                    wrong = _unexplained_matches(_expected(predicate, traces), matched)
                    verdict.op(not wrong, f"mid-stream predicate matched {wrong[:3]}")
                    stats = framework.net_stats() or {}
                    queued_high_water = max(
                        queued_high_water, stats.get("queued_reports", 0)
                    )
            ingest_s = sum(ingest_latencies)

        with phase("finalize"):
            start = perf_counter()
            try:
                framework.finalize(stream[-1][0])
            except Exception as exc:
                verdict.fail(f"finalize: {exc!r}")
            finalize_s = perf_counter() - start
            verdict.attempted += 1

        with phase("reads"):
            sweep = []
            for trace_id in inputs.analyst_ids:
                start = perf_counter()
                sweep.append(_point(framework, trace_id, verdict))
                query_latencies.append(perf_counter() - start)
            hits, exact = _check_sweep(sweep, inputs.analyst_ids, traces, verdict)
            point = [_signature(r) for r in sweep if r is not None]
            batch_times = []
            for _ in range(BATCH_REPEATS):
                start = perf_counter()
                batch = _guarded(
                    verdict, "query_many", framework.query_many, inputs.analyst_ids
                )
                batch_times.append(perf_counter() - start)
                verdict.op(
                    [_signature(r) for r in batch] == point,
                    "query_many answers differ from the point sweep",
                )
                del batch
            lo = max(0, (len(stream) - INCIDENT_TRACES) // 2)
            window = inputs.records[lo : lo + INCIDENT_TRACES]
            predicate = _incident(window, inputs, traces)
            matched = _guarded(verdict, "execute", framework.execute, predicate)
            _check_incident(predicate, matched, traces, verdict)
        wall_s = perf_counter() - wall_start
    framework.close()

    return LifecycleResult(
        construct_s=constructed - wall_start,
        warm_up_s=warmed - constructed,
        ingest_s=ingest_s,
        finalize_s=finalize_s,
        wall_s=wall_s,
        spans=inputs.spans,
        ingest_latencies=ingest_latencies,
        query_latencies=query_latencies,
        batch_times=batch_times,
        lookups=len(sweep),
        hits=hits,
        exact=exact,
        byte_tables=byte_tables(framework),
        counters=counters(framework, queued_high_water),
        verdict=verdict,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )


def timed_setup(spec: WorkloadSpec, inputs: Inputs) -> float:
    """Seconds of one cold set-up on its own, as a lifecycle starts it;
    the framework is then dropped."""
    reset_process_caches()
    gc.collect()
    start = perf_counter()
    framework = MintFramework(deployment=spec.deployment(), auto_warmup_traces=spec.warmup)
    framework.warm_up(inputs.warmup_traces)
    elapsed = perf_counter() - start
    framework.close()
    return elapsed


# ----------------------------------------------------------------------
# Reads
# ----------------------------------------------------------------------
def _point(
    framework: MintFramework, trace_id: str, verdict: Verdict
) -> QueryResult | None:
    """One point lookup, counting a raise."""
    verdict.attempted += 1
    try:
        return framework.query(trace_id)
    except Exception as exc:
        verdict.fail(f"query({trace_id}): {exc!r}")
        return None


def _guarded(verdict: Verdict, name: str, call, arg) -> list[QueryResult]:
    """Run one cursor-returning read to completion, counting a raise."""
    verdict.attempted += 1
    try:
        return call(arg).all()
    except Exception as exc:
        verdict.fail(f"{name}: {exc!r}")
        return []


def _incident(
    window: list[TraceRecord],
    inputs: Inputs,
    traces: dict[str, Trace],
) -> QuerySpec:
    """The incident spec over ``window``.

    The service is the one faulted most recently inside the window (the
    window's commonest service when none was), and the window's edges
    sit halfway between requests so that start times rounded to the
    microsecond at rest cannot cross them.
    """
    service = next(
        (
            inputs.fault_targets[record.trace_id]
            for record in reversed(window)
            if record.trace_id in inputs.fault_targets
        ),
        None,
    )
    if service is None:
        counts = Counter(s for r in window for s in traces[r.trace_id].services)
        service = min(counts, key=lambda s: (-counts[s], s))
    half_gap = 30.0 / REQUESTS_PER_MINUTE
    return incident_window_spec(
        window,
        window[0].timestamp - half_gap,
        window[-1].timestamp + half_gap,
        service=service,
    )


def _expected(spec: QuerySpec, traces: dict[str, Trace]) -> set[str]:
    """The candidates of an incident spec that ran on its service."""
    return {tid for tid in spec.trace_ids if spec.service in traces[tid].services}


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def _check_sweep(
    sweep: list[QueryResult | None],
    trace_ids: list[str],
    traces: dict[str, Trace],
    verdict: Verdict,
) -> tuple[int, int]:
    """Check every point answer; return the sweep's (hits, exact)."""
    hits = exact = 0
    for trace_id, result in zip(trace_ids, sweep):
        if result is None:
            continue  # already counted as raised
        problem = answer_problem(result, traces[trace_id])
        verdict.op(problem is None, f"query({trace_id}): {problem}")
        hits += result.is_hit
        exact += result.is_exact
    return hits, exact


def _check_incident(
    spec: QuerySpec,
    results: list[QueryResult],
    traces: dict[str, Trace],
    verdict: Verdict,
) -> None:
    """The post-finalize incident predicate matches exactly its truth."""
    truth = _expected(spec, traces)
    missing = truth - {r.trace_id for r in results}
    wrong = _unexplained_matches(truth, results)
    verdict.op(
        not missing and not wrong,
        f"incident predicate: {len(missing)} missing, {len(wrong)} wrongly matched",
    )


def _unexplained_matches(truth: set[str], results: list[QueryResult]) -> list[str]:
    """Matched ids outside ``truth`` that a partial answer cannot explain.

    A Bloom false positive may graft another pattern's segment onto an
    approximate trace, so a partial answer can show a service the trace
    never ran on; an exact answer never can.
    """
    return sorted(
        r.trace_id
        for r in results
        if r.trace_id not in truth and r.status is not QueryStatus.PARTIAL
    )


def answer_problem(result: QueryResult, trace: Trace) -> str | None:
    """Why a post-finalize answer is wrong for ``trace``, or None.

    Every lookup must hit.  An exact answer must give back every span:
    ids, parents, names, services, kinds, statuses, nodes, attributes
    and durations as generated, and start times to the microsecond
    they are recorded at.  A partial answer must cover every service
    the trace ran on.
    """
    if result.trace_id != trace.trace_id:
        return f"answered {result.trace_id}"
    if result.is_miss:
        return "miss"
    if result.is_exact:
        if result.trace is None:
            return "exact status without a trace"
        return _span_mismatch(trace, result.trace)
    if result.approximate is None:
        return "partial status without an approximate trace"
    missing = trace.services - result.approximate.services
    return f"partial answer lacks services {sorted(missing)}" if missing else None


def _span_mismatch(original: Trace, rebuilt: Trace) -> str | None:
    want = {span.span_id: span for span in original.spans}
    got = {span.span_id: span for span in rebuilt.spans}
    if want.keys() != got.keys():
        return f"span ids differ ({len(want)} generated, {len(got)} rebuilt)"
    for span_id, a in want.items():
        b = got[span_id]
        fields_a = (a.parent_id, a.name, a.service, a.kind, a.status, a.node)
        fields_b = (b.parent_id, b.name, b.service, b.kind, b.status, b.node)
        if fields_a != fields_b:
            return f"span {span_id} topology/metadata differs"
        if a.attributes != b.attributes:
            return f"span {span_id} attributes differ"
        if a.duration != b.duration:
            return f"span {span_id} duration {b.duration} != {a.duration}"
        if round(a.start_time, 6) != round(b.start_time, 6):
            return f"span {span_id} start {b.start_time} != {a.start_time}"
    return None


def _signature(result: QueryResult) -> tuple:
    return (result.trace_id, result.status, result.trace, result.approximate)


# ----------------------------------------------------------------------
# Counters the program keeps
# ----------------------------------------------------------------------
def byte_tables(framework: MintFramework) -> dict[str, int]:
    """The deterministic byte counts one seed must reproduce exactly."""
    storage = framework.backend.storage
    return {
        "network_bytes": framework.network_bytes,
        "storage_bytes": framework.storage_bytes,
        "pattern_bytes": storage.pattern_bytes,
        "bloom_bytes": storage.bloom_bytes,
        "params_bytes": storage.params_bytes,
    }


def counters(framework: MintFramework, queued_high_water: int) -> dict[str, float]:
    """Public counters of the framework after its lifecycle."""
    observer = framework.observer
    plan = framework.backend.plan_totals
    net = framework.net_stats() or {}
    traces = observer.counter("mint_ingest_traces", plane="ingest").value
    sampled = observer.counter("mint_ingest_sampled_traces", plane="ingest").value
    tried = plan.filters_probed + plan.filters_pruned
    return {
        "ingest_traces": traces,
        "sampled_ratio": sampled / traces if traces else 0.0,
        "transport_reports": observer.counter(
            "mint_transport_reports", plane="transport"
        ).value,
        "transport_deliver_hist": observer.stage_histogram("transport_deliver").count,
        "query_plans": observer.counter("mint_query_plans", plane="query").value,
        "plan_candidates": plan.candidates,
        "filters_probed": plan.filters_probed,
        "filters_pruned": plan.filters_pruned,
        "prune_ratio": plan.filters_pruned / tried if tried else 0.0,
        "cache_hits": plan.cache_hits,
        "stored_traces": len(framework.stored_trace_ids()),
        "retransmit_bytes": net.get("retransmit_bytes", 0),
        "queued_reports": queued_high_water,
        "networked": 1 if net else 0,
    }


def reset_process_caches() -> None:
    """Empty the program's process-wide memo caches.

    Every lifecycle after the first runs in a process that already ran
    one; clearing ``lru_cache``-wrapped functions and module-level
    ``*_CACHE`` dicts makes it start as cold as a fresh process.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()
            elif attr.isupper() and attr.endswith("_CACHE") and isinstance(value, dict):
                value.clear()
