"""The end-to-end benchmark's own tests, at tiny scale.

They check that every metric ``BENCHMARK.json`` names is printed with
its unit, that the correctness checks pass on the program and catch a
wrong answer, that the deterministic metrics repeat exactly across two
runs of one seed, and that the command refuses to run without the
program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import run as bench
from e2e_lifecycle import answer_problem
from e2e_workloads import WORKLOADS, make_inputs

from repro.query.result import QueryResult, QueryStatus

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: alibaba A on the sharded, networked deployment exercises every layer
#: (the Bloom pre-screen and the wire included) in a few seconds.
TINY = dataclasses.replace(
    WORKLOADS["ali-analyst"],
    traces=160,
    warmup=40,
    analyst_queries=80,
    point_every=20,
    batch_every=80,
)
SEED = 7

DETERMINISTIC_END_TO_END = (
    "network_ratio",
    "storage_ratio",
    "query_exact_ratio",
    "query_hit_ratio",
)
DETERMINISTIC_PER_LAYER = (
    "parsing.lcs.calls",
    "agent.params_buffer.evicted_blocks",
    "query.filters_pruned",
)


@pytest.fixture(scope="module")
def inputs():
    return make_inputs(TINY, SEED)


@pytest.fixture(scope="module")
def untraced(inputs):
    return [bench.untraced_run(TINY, inputs, seconds=0) for _ in range(2)]


@pytest.fixture(scope="module")
def traced(inputs, tmp_path_factory):
    out = tmp_path_factory.mktemp("spans")
    return [bench.traced_run(TINY, inputs, 0, out, SEED) for _ in range(2)], out


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def test_every_end_to_end_metric_is_reported_with_its_unit(untraced):
    report = untraced[0]
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] > TINY.traces
    got = {name: m["unit"] for name, m in report["metrics"].items()}
    assert got == _units(CONTRACT["end_to_end"])
    assert all(m["value"] > 0 for m in report["metrics"].values())
    # The "all requests" claim: every post-finalize lookup hits.
    assert report["metrics"]["query_hit_ratio"]["value"] == 1.0


def test_every_per_layer_metric_is_reported_with_its_unit(traced):
    reports, out = traced
    report = reports[0]
    assert report["correct"] and report["failed"] == 0
    got = {name: m["unit"] for name, m in report["metrics"].items()}
    assert got == _units(CONTRACT["per_layer"])
    metrics = {name: m["value"] for name, m in report["metrics"].items()}
    assert metrics["trace.unattributed_share"] < 0.1
    assert metrics["query.filters_pruned"] > 0
    assert metrics["parsing.span_parse.calls"] > 0
    assert list(out.glob("*.spans.tsv.gz"))


def test_deterministic_metrics_repeat_exactly(untraced, traced):
    first, second = (r["metrics"] for r in untraced)
    for name in DETERMINISTIC_END_TO_END:
        assert first[name]["value"] == second[name]["value"], name
    first, second = (r["metrics"] for r in traced[0])
    for name in DETERMINISTIC_PER_LAYER:
        assert first[name]["value"] == second[name]["value"], name


def test_checks_catch_wrong_answers(inputs):
    trace = inputs.stream[0][1]
    assert answer_problem(QueryResult(trace.trace_id, QueryStatus.MISS), trace) == "miss"
    exact = QueryResult(trace.trace_id, QueryStatus.EXACT, trace=trace)
    assert answer_problem(exact, trace) is None
    span = trace.spans[-1]
    tampered = dataclasses.replace(
        trace,
        spans=[*trace.spans[:-1], dataclasses.replace(span, duration=span.duration + 1)],
    )
    problem = answer_problem(
        QueryResult(trace.trace_id, QueryStatus.EXACT, trace=tampered), trace
    )
    assert problem is not None and "duration" in problem


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ob-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
