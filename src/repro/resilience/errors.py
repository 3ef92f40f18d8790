"""The typed error taxonomy of the resilience layer.

Every failure the mining pipeline can surface deliberately derives from
:class:`ReproError`, so callers can write one ``except ReproError`` guard
around a long-running job and know that anything else escaping is a bug,
not an operating condition.  The data-shaped errors additionally derive
from ``ValueError`` so code (and tests) written against the historical
``raise ValueError`` behaviour keeps working unchanged.

Taxonomy::

    ReproError
    ├── DataError(ValueError)        — malformed input at a file/row boundary
    │   ├── ValidationError          — pre-flight relation validation failed
    │   ├── IngestError              — a specific row could not be ingested
    │   └── ErrorBudgetExceeded      — too many bad rows; lenient run aborted
    ├── CheckpointError              — a checkpoint could not be used
    │   ├── CheckpointCorruptError   — truncated payload / CRC mismatch
    │   └── CheckpointVersionError   — format version is not understood
    ├── ResourceExhaustedError       — degradation ladder ran out of rungs
    ├── WorkerPoolError              — the parallel worker pool died or jammed
    ├── ColumnStoreError             — the out-of-core columnar backend failed
    ├── CorruptResultError           — a result failed its integrity check
    ├── OverloadError                — work refused to protect the process
    │   ├── RejectedError            — admission control shed the request
    │   ├── DeadlineExceeded         — a per-request deadline expired
    │   └── CircuitOpenError         — a circuit breaker is refusing calls
    └── InjectedFault                — raised by the fault-injection harness

The three overload errors carry a ``retry_after`` hint (seconds, possibly
``None``) so transport layers can translate them into honest backpressure
(``Retry-After`` headers) instead of silent queueing.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "DataError",
    "ValidationError",
    "IngestError",
    "ErrorBudgetExceeded",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "ResourceExhaustedError",
    "WorkerPoolError",
    "ColumnStoreError",
    "CorruptResultError",
    "OverloadError",
    "RejectedError",
    "DeadlineExceeded",
    "CircuitOpenError",
    "InjectedFault",
]


class ReproError(Exception):
    """Base class of every deliberate failure raised by this package."""


class DataError(ReproError, ValueError):
    """Malformed input data (file-level or row-level)."""


class ValidationError(DataError):
    """A relation failed pre-flight validation (empty, all-NaN column, ...)."""


class IngestError(DataError):
    """A specific input row could not be parsed or ingested."""


class ErrorBudgetExceeded(IngestError):
    """Lenient ingestion aborted: the bad-row fraction exceeded the budget."""


class CheckpointError(ReproError):
    """A checkpoint file could not be written or restored."""


class CheckpointCorruptError(CheckpointError):
    """Checkpoint payload is damaged (truncation, CRC mismatch, bad magic)."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint was written by an incompatible format version."""


class ResourceExhaustedError(ReproError):
    """The memory degradation ladder retried up to its cap and still failed."""


class WorkerPoolError(ReproError):
    """The parallel worker pool failed as *infrastructure*.

    Raised when a worker process dies (``BrokenProcessPool``), the pool
    cannot be created, or a task outlives its timeout.
    Data-shaped errors raised *inside* a worker (``ValidationError`` and
    friends) propagate as themselves — retrying them on the serial engine
    would fail identically, so the degradation ladder only catches this
    class.
    """


class ColumnStoreError(ReproError):
    """The out-of-core columnar backend failed as *infrastructure*.

    Raised when a store directory cannot be opened (missing or corrupt
    manifest, truncated column part files) or a memory-mapped read fails
    mid-scan.  Like :class:`WorkerPoolError`, this marks a backend
    problem rather than bad data: the guarded driver reacts by
    materializing the store into an in-memory relation and retrying,
    so a flaky disk degrades throughput instead of failing the job.
    """


class CorruptResultError(ReproError):
    """A mining result failed its internal consistency check.

    The guarded driver raises this instead of returning a partially
    corrupt :class:`~repro.core.miner.DARResult`.
    """


class OverloadError(ReproError):
    """Work was refused (not failed) to keep the process healthy.

    ``retry_after`` is the caller's backoff hint in seconds — ``None``
    when the refusing component cannot estimate one.  Subclasses say
    *why* the work was refused; all of them mean "try again later, the
    input was fine".
    """

    def __init__(self, message: str, *, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class RejectedError(OverloadError):
    """Admission control shed the request before any work started.

    ``reason`` distinguishes the two shedding mechanisms: ``"inflight"``
    (the bounded in-flight gauge was full — HTTP 503) and ``"rate"``
    (the token bucket was empty — HTTP 429).
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "inflight",
        retry_after: Optional[float] = None,
    ):
        super().__init__(message, retry_after=retry_after)
        self.reason = reason


class DeadlineExceeded(OverloadError):
    """A per-request deadline expired before the work finished."""


class CircuitOpenError(OverloadError):
    """A circuit breaker is open: recent calls failed, new ones are refused."""


class InjectedFault(ReproError):
    """Deterministic failure raised by :mod:`repro.resilience.faults`."""
