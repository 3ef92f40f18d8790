"""The parallel two-phase miner: same decisions, more cores.

:class:`ParallelDARMiner` subclasses :class:`~repro.core.miner.DARMiner`
and adds only the worker pool: it holds an executor backend for the
length of a :meth:`~ParallelDARMiner.mine` call, and overrides
:meth:`~repro.core.miner.DARMiner._make_kernel` to return a
:class:`~repro.parallel.kernel.ParallelPhase2Kernel` that tiles the
blocked pairwise computation over the same pool.

Phase I is the serial miner's own
:meth:`~repro.core.miner.DARMiner._run_phase1`: one
:class:`~repro.parallel.tasks.Phase1Task` per attribute partition, which
the pool runs over a memory-mapped
:class:`~repro.data.columnar.ColumnStore` — the input store itself, or
one the coordinator spills from an in-memory relation.  Workers return
pickled ACF clusters and Phase I stats; the coordinator assigns uids in
partition-list order, exactly as the serial miner does, so everything
downstream is decision-identical.

Correctness rests on two facts.  First, each Phase I task is a *whole*
partition: the scan inside a worker is byte-for-byte the serial scan, so
no floating-point re-association can creep in (the ACF Additivity
Theorem would make row-sharded scans merge exactly in ``N``/``LS``/``SS``,
but the BIRCH tree's *decisions* depend on insertion order, so the
partition is the natural parallel unit).  Second, Phase II tiles reuse
the serial block boundaries and the shared
:func:`~repro.core.phase2_kernel.pairwise_block` function, so assembled
distance matrices are bit-identical.

``workers=1`` uses the :class:`~repro.parallel.executor.SerialBackend`,
which runs the tasks in-process like the serial miner.  Pool failures
surface as :class:`~repro.resilience.errors.WorkerPoolError` for the
degradation ladder to catch.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.cluster import Cluster
from repro.core.config import DARConfig
from repro.core.miner import DARMiner, DARResult
from repro.core.phase2_kernel import Phase2Kernel
from repro.data.columnar.store import ColumnStore
from repro.data.relation import AttributePartition, Relation
from repro.obs import flight as obs_flight
from repro.obs import metrics as obs_metrics
from repro.parallel.executor import (
    ExecutorBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_workers,
)
from repro.parallel.kernel import ParallelPhase2Kernel

__all__ = ["ParallelDARMiner"]


class ParallelDARMiner(DARMiner):
    """Mines with Phase I/II fanned out over a process pool.

    ``workers=None`` (or 0) resolves automatically — ``REPRO_WORKERS``
    when set, else ``os.cpu_count()`` (see
    :func:`~repro.parallel.executor.resolve_workers`).  ``pool_retry``
    and ``task_timeout`` flow to the
    :class:`~repro.parallel.executor.ProcessPoolBackend`: a pool failure
    is retried on a fresh pool with backoff before the guard ladder's
    serial rung ever engages, and a hung worker becomes a
    ``WorkerPoolError`` after ``task_timeout`` seconds.

    >>> from repro.data.synthetic import make_planted_rule_relation
    >>> relation, _ = make_planted_rule_relation(seed=7)
    >>> result = ParallelDARMiner(workers=2).mine(relation)
    >>> len(result.rules) > 0
    True
    """

    def __init__(
        self,
        config: DARConfig = DARConfig(),
        workers: Optional[int] = None,
        *,
        pool_retry=None,
        task_timeout: Optional[float] = None,
    ):
        super().__init__(config)
        self.workers = resolve_workers(workers)
        self.pool_retry = pool_retry
        self.task_timeout = task_timeout

    # ------------------------------------------------------------------

    def mine(
        self,
        relation: "Relation | ColumnStore",
        partitions: Optional[Sequence[AttributePartition]] = None,
        targets: Optional[Sequence[str]] = None,
    ) -> DARResult:
        """Run both phases with the worker pool held for the whole run.

        The backend is opened before Phase I and closed (with queued
        tasks cancelled) when the run ends — normally, on error, or on
        interrupt — so no worker processes outlive the call.
        """
        backend: ExecutorBackend
        if self.workers <= 1:
            backend = SerialBackend()
        else:
            backend = ProcessPoolBackend(
                self.workers,
                retry=self.pool_retry,
                task_timeout=self.task_timeout,
            )
        with backend:
            self._backend = backend
            try:
                result = super().mine(relation, partitions=partitions, targets=targets)
            except Exception as error:
                obs_flight.dump_on_error("parallel-mine", error)
                raise
            finally:
                self._backend = None
        if obs_metrics.metrics_enabled():
            obs_metrics.set_gauge(
                "repro_parallel_workers",
                backend.n_workers,
                help="Worker count of the latest parallel mine",
            )
        return result

    def _make_kernel(self, flat_frequent: Sequence[Cluster]) -> Phase2Kernel:
        """A Phase II kernel whose blocks tile across the pool."""
        return ParallelPhase2Kernel(
            flat_frequent, metric=self.config.metric, backend=self._backend
        )
