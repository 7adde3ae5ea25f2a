"""The three workloads of the end-to-end benchmark and their seeded inputs.

Each workload is one closed-loop client driving one ``MintFramework``
through its whole public lifecycle.  The stream, the analyst's query
ids and the incident window are generated from the ``--seed`` argument
before any timing starts; the framework only ever sees the generated
traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.model.encoding import encoded_size
from repro.model.trace import Trace
from repro.net.transport import NetworkDescriptor
from repro.sim.experiment import generate_stream
from repro.transport import Deployment
from repro.workloads import (
    QueryWorkload,
    TraceRecord,
    build_dataset,
    build_onlineboutique,
    build_trainticket,
)
from repro.workloads.specs import Workload

#: Simulated request rate of the stream timestamps (the paper's 100 req/s).
REQUESTS_PER_MINUTE = 6000.0


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: what is generated and how it is read."""

    name: str
    build: Callable[[], Workload]
    deployment: Callable[[], Deployment]
    traces: int
    warmup: int = 100
    #: Post-finalize analyst ids (point sweep, then one batch over them).
    analyst_queries: int = 1000
    #: A point ``query`` of a recent id every this many ingested traces.
    point_every: int = 50
    #: A ``query_many`` batch plus an incident predicate every this many
    #: ingested traces (0: none mid-stream).
    batch_every: int = 0
    #: Set-ups timed on their own before each lifecycle, where a set-up
    #: is short enough that more samples of ``setup_s`` fit in a run.
    extra_setups: int = 0


def _ali_deployment() -> Deployment:
    return Deployment.sharded(
        4,
        network=NetworkDescriptor(
            latency_s=0.005, max_batch_reports=16, max_batch_age_s=1.0
        ),
    )


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        # trainticket's 45-service attribute vocabulary makes warm-up
        # template learning (clustering + LCS) most of the lifecycle.
        WorkloadSpec(
            name="tt-coldstart",
            build=build_trainticket,
            deployment=Deployment.single,
            traces=2000,
        ),
        # onlineboutique learns in ~1 s, so the warm agent hot path at
        # params-buffer capacity (eviction on) is what gets timed.
        WorkloadSpec(
            name="ob-steady",
            build=build_onlineboutique,
            deployment=Deployment.single,
            traces=10_000,
            analyst_queries=2000,
            extra_setups=1,
        ),
        # alibaba A on 4 shards behind a batching 5 ms wire: reads run
        # beside writes through the merge view and Bloom pre-screen.
        WorkloadSpec(
            name="ali-analyst",
            build=lambda: build_dataset("A"),
            deployment=_ali_deployment,
            traces=3000,
            analyst_queries=3000,
            batch_every=300,
        ),
    )
}


@dataclass
class Inputs:
    """Everything one run generates from its seed, before timing."""

    stream: list[tuple[float, Trace]]
    fault_targets: dict[str, str]
    records: list[TraceRecord]
    analyst_ids: list[str]
    warmup_traces: list[Trace]
    spans: int
    raw_bytes: int


def make_inputs(spec: WorkloadSpec, seed: int) -> Inputs:
    """The seeded stream, request log and analyst ids of one run."""
    stream, fault_targets = generate_stream(
        spec.build(),
        spec.traces,
        requests_per_minute=REQUESTS_PER_MINUTE,
        seed=seed,
    )
    records = [
        TraceRecord(
            trace_id=trace.trace_id,
            timestamp=now,
            is_abnormal=trace.trace_id in fault_targets,
        )
        for now, trace in stream
    ]
    analyst_ids = QueryWorkload(seed=seed).sample_queries(
        records, spec.analyst_queries
    )
    return Inputs(
        stream=stream,
        fault_targets=fault_targets,
        records=records,
        analyst_ids=analyst_ids,
        warmup_traces=[trace for _, trace in stream[: spec.warmup]],
        spans=sum(len(trace.spans) for _, trace in stream),
        raw_bytes=sum(encoded_size(trace) for _, trace in stream),
    )
