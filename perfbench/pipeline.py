"""One benchmark run: set-up, then mining passes interleaved with serving.

All inside one process:

1. **Set-up** (``SETUP_REPEATS`` times, median reported): generate the
   seeded relation, write it to CSV, draw the query pool.
2. **Mining passes**: each is ``load_csv`` → ``repro.mine`` (serial,
   default config) → ``compile_snapshot``, timed call by call.  Every
   pass must produce the first pass's rule digest; the dense workload
   must also recover its planted modes.
3. **Reference traffic**, in ``REFERENCE_CHUNKS`` slices between the
   passes: each slice publishes the latest result to a ``RuleServer``
   (a cold query cache), then sends Zipf-popular queries at the
   workload's reference rate.  Passes and slices alternate for
   ``INTERLEAVE_SHARE`` of the run, so both sample the whole run: on a
   shared machine speed drifts over tens of seconds.
4. **Rate ladder**, reads only, for the rest of the run; then each
   oracle-sampled query once more.  Every answer is checked against its
   query's constraints, and the sample against ``apply_query``.

Around every set-up, pass and slice the machine's speed is sampled
(see ``speed``).  In a traced run (``trace=True``) the program's tracer
records every other pass and all serving; the benchmark's own spans
(``bench.*``) wrap each call into a layer, so one span tree also holds
the program's existing ``phase1`` / ``phase2.*`` / ``serve.*`` spans.
"""

from __future__ import annotations

import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

import repro
from repro.data.io import load_csv, save_csv
from repro.obs.trace import (
    current_trace_id,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
)
from repro.serve.http import RuleServer
from repro.serve.publisher import SnapshotPublisher
from repro.serve.query import apply_query
from repro.serve.snapshot import compile_snapshot

import speed
from checks import planted_problems, response_problems, rule_digest, uid_partitions
from loadgen import Step, max_rate, poisson_offsets, run_step
from workloads import (
    POOL_SEED,
    POOL_SIZE,
    Workload,
    make_query_specs,
    oracle_indices,
    zipf_draws,
)

SETUP_REPEATS = 3
#: Mining passes alternate with reference-rate traffic for this share of
#: ``--seconds``; the read-only rate ladder gets the rest.
INTERLEAVE_SHARE = 0.65
LADDER_SHARE = 0.35
MIN_PASSES = 4
#: Reference-rate traffic: this share of ``--seconds``, in this many slices.
REFERENCE_SHARE = 0.25
REFERENCE_CHUNKS = 4
#: Each reference slice first publishes for at least this long.
MIN_PUBLISH_S = 0.25
#: One ladder step above the reference rate lasts this share of ``--seconds``.
STEP_SHARE = 0.08
#: The ladder's top rung.  Above it the benchmark's own client, which
#: shares the process and both cores with the server, sets the pace: on
#: dense_refresh the 256 req/s step's tail read 109–503 ms from run to
#: run.  A server that meets this rate reports it.
MAX_LADDER_RATE = 128.0
#: Tail-latency limit a ladder step must meet (ms, at the ≥10-beyond percentile).
LIMIT_MS = 200.0
TRACE_CAPACITY = 2_000_000


@dataclass
class Pass:
    """One CSV → rules → snapshot pass."""

    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    load_s: float = 0.0
    mine_s: float = 0.0
    compile_s: float = 0.0
    slowdown: float = 1.0
    result: Any = None
    n_rules: int = 0
    digest: str = ""
    stats: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


@dataclass
class Run:
    """Everything one run measured, before it is reduced to metrics."""

    workload: Workload
    seed: int
    trace: bool
    #: Machine slowdown samples (see ``speed``), in the order taken.
    calibration: List[float] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    setup_slowdown: List[float] = field(default_factory=list)
    passes: List[Pass] = field(default_factory=list)
    reference: List[Step] = field(default_factory=list)
    steps: List[Step] = field(default_factory=list)
    verify: Optional[Step] = None
    publish_s: List[float] = field(default_factory=list)
    publish_slice: List[int] = field(default_factory=list)
    reference_slowdown: List[float] = field(default_factory=list)
    publish_errors: List[str] = field(default_factory=list)
    request_problems: Dict[str, List[str]] = field(default_factory=dict)
    query_calls: List[tuple] = field(default_factory=list)
    cache_info: List[Dict[str, int]] = field(default_factory=list)
    max_rps: float = 0.0
    peak_rss_mb: float = 0.0
    spans: list = field(default_factory=list)


class TimedPublisher(SnapshotPublisher):
    """A publisher that times each query and keeps every engine it swapped in.

    Used only in the traced run: it wraps the public :meth:`query` with a
    ``bench.query`` span and records ``(request id, cached, seconds)``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.calls: List[tuple] = []
        self.engines: list = []

    def query(self, query=None, **kwargs):
        started = time.perf_counter()
        with span("bench.query"):
            answer = super().query(query, **kwargs)
        self.calls.append(
            (current_trace_id(), answer.cached, time.perf_counter() - started)
        )
        return answer

    def swap(self, snapshot) -> None:
        super().swap(snapshot)
        self.engines.append(self.engine)


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def set_up(workload: Workload, seed: int, scale: float, csv_path: Path):
    """Generate the seeded inputs; returns ``(names, planted, query specs)``."""
    relation, planted = workload.make_relation(seed, scale)
    save_csv(relation, csv_path)
    names = list(relation.schema.names)
    specs = make_query_specs(np.random.default_rng(POOL_SEED), names)
    return names, planted, specs


def program_stats(result) -> Dict[str, float]:
    """What the program reports about its own mine, as plain numbers."""
    scan = result.scan_summary()
    phase2 = result.phase2
    stages = phase2.stage_breakdown()
    considered = phase2.comparisons + phase2.comparisons_skipped
    return {
        "phase1_s": sum(stats.seconds for stats in result.phase1.values()),
        "items": scan.items if scan else float("nan"),
        "absorb_ratio": scan.absorb_rate if scan else float("nan"),
        "splits": scan.splits if scan else float("nan"),
        "rebuilds": sum(stats.rebuilds for stats in result.phase1.values()),
        "phase2_s": phase2.seconds,
        "extract_s": stages["extract"],
        "graph_s": stages["graph"],
        "cliques_s": stages["cliques"],
        "rules_s": stages["rules"],
        "comparisons": phase2.comparisons,
        "skip_ratio": phase2.comparisons_skipped / considered if considered else 0.0,
        "rules": phase2.n_rules,
        "guard_events": len(phase2.events),
    }


def mine_pass(csv_path: Path, traced: bool) -> Pass:
    """One timed CSV → rules → snapshot pass (exceptions become problems)."""
    record = Pass(traced=traced)
    if traced:
        enable_tracing()
    cpu_started = _cpu_seconds()
    started = time.perf_counter()
    try:
        with span("bench.pass"):
            t = time.perf_counter()
            with span("bench.load"):
                relation = load_csv(csv_path)
            record.load_s = time.perf_counter() - t
            t = time.perf_counter()
            with span("bench.mine"):
                result = repro.mine(relation)
            record.mine_s = time.perf_counter() - t
            t = time.perf_counter()
            with span("bench.compile"):
                snapshot = compile_snapshot(result)
            record.compile_s = time.perf_counter() - t
    except Exception as error:  # a failed pass is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        record.problems.append(f"{type(error).__name__}: {error}")
        return record
    finally:
        record.wall_s = time.perf_counter() - started
        record.cpu_s = _cpu_seconds() - cpu_started
        disable_tracing()
    record.result = result
    record.n_rules = len(result.rules)
    record.digest = rule_digest(result.rules)
    record.stats = program_stats(result)
    if snapshot.n_rules != record.n_rules:
        record.problems.append(
            f"snapshot holds {snapshot.n_rules} rules, result {record.n_rules}"
        )
    return record


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    scale: float = 1.0,
) -> Run:
    """Set up, mine and serve one workload; see the module docstring."""
    record = Run(workload=workload, seed=seed, trace=trace)
    workdir.mkdir(parents=True, exist_ok=True)
    csv_path = workdir / f"{workload.name}-seed{seed}.csv"
    record.calibration.append(speed.slowdown())

    def calibrate() -> float:
        """Slowdown over the stretch since the previous sample."""
        record.calibration.append(speed.slowdown())
        return (record.calibration[-2] + record.calibration[-1]) / 2

    try:
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            names, planted, specs = set_up(workload, seed, scale, csv_path)
            record.setup_s.append(time.perf_counter() - started)
            record.setup_slowdown.append(calibrate())
        if trace:
            enable_tracing(capacity=TRACE_CAPACITY)
            disable_tracing()
        interleave_until = time.perf_counter() + INTERLEAVE_SHARE * seconds
        results: list = []  # the last two clean results, for publishing

        def next_pass() -> None:
            p = mine_pass(csv_path, trace and len(record.passes) % 2 == 1)
            p.slowdown = calibrate()
            record.passes.append(p)
            _check_pass(p, record.passes[0].digest, planted, names)
            if p.result is not None and not p.problems:
                results.append(p.result)
                del results[:-2]
            # Dropping results keeps the live heap, and so the cyclic GC's
            # work in later passes, the same size in every pass.
            p.result = None

        next_pass()
        if not results:
            raise RuntimeError("the first mining pass failed; nothing to serve")
        serving = Serving(record, results, specs, seconds, trace)
        try:
            chunks = 0
            while (
                chunks < REFERENCE_CHUNKS
                or len(record.passes) < MIN_PASSES
                or time.perf_counter() < interleave_until
            ):
                if chunks < REFERENCE_CHUNKS:
                    serving.reference_chunk()
                    record.reference_slowdown.append(calibrate())
                    chunks += 1
                next_pass()
            serving.ladder()
            serving.verify()
        finally:
            serving.close()
        serving.check_answers()
    finally:
        disable_tracing()
        csv_path.unlink(missing_ok=True)
    record.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return record


def _check_pass(p: Pass, reference: str, planted, names) -> None:
    """Flag a digest that differs from the first pass, and lost planted modes."""
    if p.result is None:
        return
    if p.digest != reference:
        p.problems.append(f"rule digest {p.digest} != first pass {reference}")
    if planted is not None:
        p.problems.extend(planted_problems(p.result, planted, names))


class Serving:
    """The server, its publisher and the traffic sent to it during one run.

    ``results`` is the run's list of the last two clean mining results; it
    is updated in place between reference chunks, and each chunk
    publishes the latest.
    """

    def __init__(self, record: Run, results: list, specs, seconds: float, trace: bool):
        self.record = record
        self.results = results
        self.seconds = seconds
        self.trace = trace
        self.workload = record.workload
        first = results[-1]
        degrees = np.sort(np.array([rule.degree for rule in first.rules]))
        self.queries = [spec.resolve(degrees) for spec in specs]
        self.paths = ["/rules?" + query.to_query_string() for query in self.queries]
        self.sample = oracle_indices(len(self.queries), self.workload.oracle_sample)
        self.expected = {
            i: [str(rule) for rule in apply_query(first.rules, self.queries[i])]
            for i in self.sample
        }
        self.partitions = uid_partitions(first)
        self.publisher = TimedPublisher() if trace else SnapshotPublisher()
        self.versions: List[int] = []
        self.server = RuleServer(self.publisher, port=0).start()
        self.rng = np.random.default_rng([record.seed, 2])
        self.traffic: List[tuple] = []  # (step, pool indices)

    def _step(self, rate: float, step_s: float, picks=None, offsets=None) -> Step:
        if offsets is None:
            offsets = poisson_offsets(self.rng, rate, step_s)
            picks = zipf_draws(self.rng, POOL_SIZE, len(offsets))
        step = run_step(
            self.server.address,
            [self.paths[i] for i in picks],
            offsets,
            rate,
            step_s,
            keepalive=self.workload.keepalive,
            span=span if self.trace else None,
            label=f"r{len(self.traffic)}-",
        )
        self.traffic.append((step, picks))
        return step

    def reference_chunk(self) -> None:
        """Publish the latest result, then one slice of the reference rate.

        A publish compiles a fresh snapshot and swaps it in, so each slice
        starts on a cold query cache.  Publishing repeats for at least
        ``MIN_PUBLISH_S``, so a 20 ms publish is timed more than once.
        The reference traffic is split into ``REFERENCE_CHUNKS`` slices
        between mining passes, so its latencies and the mining times both
        sample the whole run rather than one stretch of it: on a shared
        machine, speed drifts over tens of seconds.
        """
        if self.trace:
            enable_tracing()
        try:
            publishing_until = time.perf_counter() + MIN_PUBLISH_S
            while True:
                started = time.perf_counter()
                try:
                    with span("bench.publish"):
                        snapshot = self.publisher.publish(self.results[-1])
                except Exception as error:  # a failed publish is counted
                    traceback.print_exc(file=sys.stderr)
                    self.record.publish_errors.append(
                        f"{type(error).__name__}: {error}"
                    )
                else:
                    self.record.publish_s.append(time.perf_counter() - started)
                    self.record.publish_slice.append(len(self.record.reference))
                    self.versions.append(snapshot.version)
                if time.perf_counter() >= publishing_until:
                    break
            step = self._step(
                self.workload.reference_rate,
                REFERENCE_SHARE * self.seconds / REFERENCE_CHUNKS,
            )
        finally:
            disable_tracing()
        self.record.reference.append(step)

    def ladder(self) -> None:
        """Reads only: double the rate from the reference rate until a step
        misses the limit, the rate would pass ``MAX_LADDER_RATE``, or the
        run's time is up.

        The reference slices, pooled, are the ladder's first rung: they
        are the same read traffic, and their tail comes from the most
        samples.
        """
        rate = self.workload.reference_rate
        step_s = STEP_SHARE * self.seconds
        ladder_until = time.perf_counter() + LADDER_SHARE * self.seconds
        last = Step(rate=rate, seconds=sum(s.seconds for s in self.record.reference))
        last.requests = [r for s in self.record.reference for r in s.requests]
        rungs = [last]
        if self.trace:
            enable_tracing()
        try:
            while (
                last.meets(LIMIT_MS)
                and rate * 2 <= MAX_LADDER_RATE
                and time.perf_counter() + step_s <= ladder_until
            ):
                rate *= 2
                last = self._step(rate, step_s)
                self.record.steps.append(last)
                rungs.append(last)
        finally:
            disable_tracing()
        self.record.max_rps = max_rate(rungs, LIMIT_MS)

    def verify(self) -> None:
        """Ask each oracle-sampled query once: under Zipf traffic the
        sampled queries may never come up."""
        picks = np.array(self.sample)
        self.record.verify = self._step(0.0, 0.0, picks, np.zeros(len(picks)))

    def close(self) -> None:
        self.server.shutdown()
        if self.trace:
            self.record.query_calls = self.publisher.calls
            self.record.cache_info = [e.cache_info() for e in self.publisher.engines]
            self.record.spans = get_tracer().spans()

    def check_answers(self) -> None:
        """Check every answer against its query; record the problems."""
        for step, picks in self.traffic:
            for request, pick in zip(step.requests, picks):
                problems = (
                    [request.error]
                    if request.error
                    else response_problems(
                        request.status,
                        request.body,
                        self.queries[pick],
                        self.versions,
                        self.partitions,
                        self.expected.get(int(pick)),
                    )
                )
                if problems:
                    self.record.request_problems[f"{step.label}{request.index}"] = problems
