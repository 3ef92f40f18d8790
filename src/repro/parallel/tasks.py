"""Task descriptions and worker entry points for parallel mining.

This module is the "what to compute" half of the parallel engine (the
"where it runs" half is :mod:`repro.parallel.executor`).  A
:class:`Phase1Task` describes one attribute partition's clustering pass —
the unit of work of every miner's Phase I — and :class:`Phase2Tile` one
row block of the pairwise distance matrix.  :func:`run_phase1_tasks` runs
a list of Phase I tasks on a backend: in-process tasks read the
coordinator's matrices directly, pool tasks open a
:class:`~repro.data.columnar.ColumnStore` by directory.  The worker entry
points (:func:`run_phase1_task`, :func:`run_phase2_tile`) are plain
top-level functions so ``ProcessPoolExecutor`` can pickle references to
them under any start method.

What crosses the process boundary: a task carries the store directory
and the partitions, never row data; the worker returns the pickled
:class:`~repro.birch.features.ACF` clusters and
:class:`~repro.birch.birch.Phase1Stats` (floats travel as raw float64
bytes, so they arrive bit-exact), plus observability as a
metrics-registry dump and exported span and log rows that the
coordinator folds into its own recorders.

Worker-death testing: when the ``REPRO_PARALLEL_KILL_WORKER``
environment variable names a partition, the worker assigned that
partition exits hard (``os._exit``) before touching the tree — the
reproducible stand-in for an OOM kill, which surfaces to the coordinator
as ``BrokenProcessPool``.
"""

from __future__ import annotations

import os
import shutil
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.birch.birch import BirchClusterer, BirchOptions, Phase1Stats
from repro.birch.features import ACF
from repro.core.phase2_kernel import pairwise_block
from repro.data.columnar.chunks import ChunkIterator
from repro.data.columnar.store import ColumnStore
from repro.data.relation import AttributePartition, Relation
from repro.obs import context as obs_context
from repro.obs import flight as obs_flight
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import span
from repro.parallel.executor import ExecutorBackend
from repro.resilience import faults

__all__ = [
    "KILL_WORKER_ENV",
    "Phase1Task",
    "Phase2Tile",
    "fit_partition",
    "run_phase1_task",
    "run_phase1_tasks",
    "run_phase2_tile",
]

#: Set this env var to a partition name to make the worker holding that
#: partition die hard (``os._exit``) mid-scan — the faults suite's
#: reproducible worker-death switch.
KILL_WORKER_ENV = "REPRO_PARALLEL_KILL_WORKER"


@dataclass(frozen=True)
class Phase1Task:
    """One partition's Phase I clustering pass, as shippable data.

    ``partition``, ``others`` and ``options`` are what ``BirchClusterer``
    needs.  ``chunk_rows`` selects the scan: ``None`` scans whole
    matrices (``fit_arrays``), a row count streams a
    :class:`~repro.data.columnar.ChunkIterator` at that cadence
    (``fit_chunks``, the out-of-core path).  ``store`` is the directory
    of the :class:`~repro.data.columnar.ColumnStore` a pool worker reads
    the partition matrices from (``None`` for in-process tasks, which
    read the coordinator's matrices); the remaining fields are the
    observability switches and request context the worker mirrors.
    """

    partition: AttributePartition
    others: Tuple[AttributePartition, ...]
    options: BirchOptions
    chunk_rows: Optional[int] = None
    store: Optional[str] = None
    trace: bool = False
    metrics: bool = False
    log: bool = False
    context: Optional[Mapping[str, Any]] = None


@dataclass(frozen=True)
class Phase2Tile:
    """One row block of the pairwise image-distance matrix.

    The block boundaries are exactly the serial kernel's
    (``DEFAULT_BLOCK_SIZE`` rows), so a tile computed on a worker is
    bit-identical to the block the serial loop would have produced.
    """

    metric: str
    n: np.ndarray
    ls: np.ndarray
    ss: np.ndarray
    start: int
    stop: int


def fit_partition(
    task: Phase1Task, matrices: Mapping[str, np.ndarray]
) -> Tuple[List[ACF], Phase1Stats]:
    """Cluster ``task.partition`` over ``matrices`` (partition name → rows).

    The one Phase I scan of every miner: in the coordinator's process
    over its own matrices, or in a pool worker over memory-mapped store
    views of the same values — the clusters are bit-identical either way.
    """
    clusterer = BirchClusterer(task.partition, task.others, task.options)
    if task.chunk_rows is not None:
        names = [task.partition.name, *(p.name for p in task.others)]
        result = clusterer.fit_chunks(
            ChunkIterator({name: matrices[name] for name in names}, task.chunk_rows)
        )
    else:
        result = clusterer.fit_arrays(
            matrices[task.partition.name],
            {p.name: matrices[p.name] for p in task.others},
        )
    return result.clusters, result.stats


def run_phase1_tasks(
    backend: ExecutorBackend,
    tasks: Sequence[Phase1Task],
    source: "Relation | ColumnStore",
    matrices: Mapping[str, np.ndarray],
) -> List[Tuple[List[ACF], Phase1Stats]]:
    """Run every task on ``backend``; ``(clusters, stats)`` in task order.

    A one-worker backend runs :func:`fit_partition` in-process over
    ``matrices`` (no copy).  A pool gets tasks that name a store
    directory: ``source``'s own when it is a
    :class:`~repro.data.columnar.ColumnStore` (the coordinator has
    already stacked its multi-attribute matrices), else a temporary store
    spilled once from the in-memory relation and removed when the pool is
    done, whatever way it finishes.
    """
    if backend.n_workers <= 1:
        return backend.map_tasks(partial(fit_partition, matrices=matrices), tasks)
    ambient = obs_context.current()
    with span(
        "phase1.scatter", tasks=len(tasks), workers=backend.n_workers
    ) as scatter_span, _worker_store(source, tasks) as directory:
        shipped = [
            replace(
                task,
                store=directory,
                trace=obs_trace.tracing_enabled(),
                metrics=obs_metrics.metrics_enabled(),
                log=obs_log.logging_enabled(),
                context=ambient.to_dict() if ambient is not None else None,
            )
            for task in tasks
        ]
        dispatch_base = time.perf_counter()
        payloads = backend.map_tasks(run_phase1_task, shipped)
        _merge_worker_obs(payloads, scatter_span, dispatch_base)
    return [(payload["clusters"], payload["stats"]) for payload in payloads]


@contextmanager
def _worker_store(
    source: "Relation | ColumnStore", tasks: Sequence[Phase1Task]
) -> Iterator[str]:
    """The directory pool workers open: ``source``'s, or a one-off spill."""
    if isinstance(source, ColumnStore):
        yield str(source.directory)
        return
    partitions = [task.partition for task in tasks]
    names = list(dict.fromkeys(name for p in partitions for name in p.attributes))
    spill = ColumnStore.from_relation(source.project(names))
    try:
        for partition in partitions:
            if len(partition.attributes) > 1:
                spill.matrix(partition.attributes)
        yield str(spill.directory)
    finally:
        spill.close()
        shutil.rmtree(spill.directory, ignore_errors=True)


def _merge_worker_obs(payloads, scatter_span, dispatch_base: float) -> None:
    """Fold per-worker span/metric/log exports into the parent recorders.

    Worker metrics merge additively into the process registry
    (counters/histograms add, labeled gauges land on their own series);
    worker spans are re-parented under the scatter span and rebased from
    the worker's epoch to the dispatch time, so the parent trace shows
    worker scans as children of the fan-out.
    """
    parent_id = getattr(scatter_span, "span_id", 0)
    for payload in payloads:
        state = payload.get("metrics")
        if state is not None:
            obs_metrics.get_registry().merge(state)
        spans = payload.get("spans")
        if spans:
            obs_trace.get_tracer().ingest(
                spans,
                parent_id=parent_id,
                epoch=payload.get("epoch"),
                base=dispatch_base,
            )
        records = payload.get("logs")
        if records:
            obs_log.get_logger().ingest(records)


def _reset_worker_obs(trace: bool, metrics: bool, log: bool = False) -> None:
    """Give the worker a clean observability slate mirroring the parent.

    Under the ``fork`` start method the worker inherits the parent's
    tracer buffer, metrics registry and log buffer wholesale; without
    this reset the coordinator would merge the parent's own spans,
    counters and records back into itself, double-counting everything.
    Each task starts from empty and exports only what it recorded
    itself.  The flight recorder is always disabled in workers — the
    coordinator owns the postmortem window, and a worker must never
    write bundles of its own.
    """
    obs_flight.disable_flight()
    if metrics:
        obs_metrics.enable_metrics().reset()
    else:
        obs_metrics.disable_metrics()
    if trace:
        obs_trace.enable_tracing().clear()
    else:
        obs_trace.disable_tracing()
        obs_trace.get_tracer().clear()
    if log:
        # Sink-less on purpose: records buffer in memory and ship home
        # with the result payload; only the coordinator's sink writes.
        obs_log.enable_logging(level=obs_log.DEBUG, stream=None, capacity=None)
        obs_log.get_logger().clear()
    else:
        obs_log.disable_logging()
        obs_log.get_logger().clear()


def _export_worker_obs(
    trace: bool, metrics: bool, log: bool = False
) -> Dict[str, Any]:
    """The task's recorded spans/metrics/logs, ready to ship to the parent."""
    out: Dict[str, Any] = {
        "metrics": None, "spans": None, "epoch": None, "logs": None,
    }
    if metrics:
        out["metrics"] = obs_metrics.get_registry().export_state()
    if trace:
        tracer = obs_trace.get_tracer()
        out["spans"] = [record.to_dict() for record in tracer.spans()]
        out["epoch"] = tracer.epoch
    if log:
        out["logs"] = obs_log.get_logger().export_records()
    return out


def run_phase1_task(task: Phase1Task) -> Dict[str, Any]:
    """Pool worker entry point: cluster one partition read from ``task.store``.

    Opens the store read-only (a worker never writes to it) and runs
    :func:`fit_partition`, the scan the coordinator would run in-process,
    over memory-mapped views of the same bytes.  Returns the clusters and
    stats with the worker's observability exports.
    """
    faults.fire("parallel.worker")
    if os.environ.get(KILL_WORKER_ENV) == task.partition.name:
        # Simulated OOM-kill: die without cleanup so the coordinator sees
        # BrokenProcessPool, exactly like a real worker death.
        os._exit(1)
    _reset_worker_obs(task.trace, task.metrics, task.log)
    ambient = (
        obs_context.activate(obs_context.RequestContext.from_dict(task.context))
        if task.context is not None
        else nullcontext()
    )
    with ambient:
        store = ColumnStore.open(task.store, read_only=True)
        try:
            matrices = {
                p.name: store.matrix(p.attributes)
                for p in (task.partition, *task.others)
            }
            clusters, stats = fit_partition(task, matrices)
        finally:
            store.close()
        obs_log.info(
            "parallel.partition_done",
            partition=task.partition.name,
            clusters=len(clusters),
            points=stats.points_inserted,
            pid=os.getpid(),
        )
    payload: Dict[str, Any] = {"clusters": clusters, "stats": stats}
    payload.update(_export_worker_obs(task.trace, task.metrics, task.log))
    return payload


def run_phase2_tile(tile: Phase2Tile) -> np.ndarray:
    """Worker entry point: rows ``[start, stop)`` of the distance matrix."""
    faults.fire("parallel.worker")
    return pairwise_block(
        tile.metric, tile.n, tile.ls, tile.ss, tile.start, tile.stop
    )
