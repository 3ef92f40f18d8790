"""Vectorized batch ingestion for the ACF-tree.

The per-point scan loop of :meth:`repro.birch.tree.ACFTree.insert_point`
spends nearly all of its time in small Python loops: ``closest_child`` and
``closest_entry`` walk children/entries one at a time, and every absorbed
point updates the main CF, every cross CF, the bounding box and each
ancestor aggregate with separate tiny numpy operations.  This module
replaces that with a batch engine built on two ideas:

1. **Mirror caches.**  Every node visited during a batch gets a *mirror*: a
   preallocated ``(capacity, dim)`` matrix of its children's (or entries')
   counts, linear sums and centroids.  Descent and closest-entry selection
   become one subtract + one row-wise dot product + one argmin over the
   mirror instead of a Python loop.  Mirrors are updated incrementally (one
   row per insertion) and invalidated when a split restructures the node.
   One-dimensional trees (the paper's single-attribute partitions) keep
   their mirrors as Python float lists instead and run one scan loop with
   routing, closest-entry selection, the merged-diameter test, absorption
   and the ancestor notes all inlined; each step is the same scalar
   IEEE-754 operation, in the same order, as the numpy path.

2. **Deferred bulk accumulation.**  Absorption decisions only need the main
   moments ``(n, LS, SS)``, which the mirrors carry.  Everything else —
   cross moments, bounding boxes, leaf aggregates, ancestor aggregates — is
   buffered per destination leaf and applied at *flush* time, grouped by
   entry: bounding boxes with ``np.minimum.at`` / ``np.maximum.at``, and
   cross moments with one ``np.bincount`` per moment over the flattened
   ``(entry, column)`` bins of the cross columns, stacked once per batch.
   ``bincount`` adds each bin's items in item order, exactly as
   ``np.add.at`` does (``np.add.reduceat`` does not), so the flush order
   is part of the result.

**Equivalence guarantee.**  The engine makes the *same decision sequence*
as sequential insertion: points are routed one at a time against mirror
state that is updated after every point with exactly the arithmetic the
sequential path uses (same linear-sum accumulation order, same division,
same tie-breaking — ``argmin`` returns the first minimum just as the
sequential strict-``<`` scan keeps the first).  Leaf-entry main moments are
written back *from the mirrors* at flush, so they are identical to the
sequential result, not merely close; only the deferred payload (cross
moments, node aggregates) is re-associated by the bulk sums, which changes
values by at most a few ulps and influences no decision.

Rebuilds use the same engine in *entry mode* (batch of ACF summaries
instead of raw points); see :meth:`ACFTree.insert_entries`.

:class:`ScanStats` instruments the scan (throughput, absorb rate, splits,
rebuilds, per-stage wall time) and is threaded through the Phase I driver
(:mod:`repro.birch.birch`), the streaming miner and the CLI ``--stats``
flag.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from itertools import accumulate
from math import inf, nan, sqrt
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.birch.features import ACF, CF
from repro.birch.node import InternalNode, LeafNode, Node
from repro.metrics.cluster import rms_diameter_from_moments
from repro.obs import metrics as obs_metrics
from repro.obs.profile import profiled
from repro.obs.trace import span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.birch.tree import ACFTree

__all__ = ["ScanStats", "BatchInserter"]


@dataclass
class ScanStats:
    """Instrumentation of one or more batch-ingestion scans.

    One object can be threaded through many calls (chunked scans, rebuild
    replays): every counter accumulates.  ``seconds_scan`` covers routing
    and absorption decisions, ``seconds_flush`` the deferred bulk moment
    application, ``seconds_split`` node splits (including the forced
    flushes they require).
    """

    points: int = 0
    """Raw points ingested through the batch path."""
    entries: int = 0
    """Whole subcluster summaries ingested (rebuild / replay batches)."""
    absorbed: int = 0
    """Items merged into an existing leaf entry."""
    new_entries: int = 0
    """Items that started a new leaf entry."""
    splits: int = 0
    """Node splits triggered while ingesting."""
    rebuilds: int = 0
    """Tree rebuilds the owning scan performed (set by the driver)."""
    batches: int = 0
    """Number of ``insert_points`` / ``insert_entries`` calls."""
    flushes: int = 0
    """Deferred-buffer flushes (at least one per batch, plus one per split)."""
    seconds_total: float = 0.0
    seconds_scan: float = 0.0
    seconds_flush: float = 0.0
    seconds_split: float = 0.0

    @property
    def items(self) -> int:
        """Points plus entries ingested."""
        return self.points + self.entries

    @property
    def absorb_rate(self) -> float:
        """Fraction of ingested items absorbed into existing entries."""
        total = self.items
        return self.absorbed / total if total else 0.0

    @property
    def points_per_second(self) -> float:
        """Ingestion throughput over the accumulated wall time."""
        return self.items / self.seconds_total if self.seconds_total > 0 else 0.0

    def merge(self, other: "ScanStats") -> None:
        """Accumulate another scan's counters into this one."""
        self.points += other.points
        self.entries += other.entries
        self.absorbed += other.absorbed
        self.new_entries += other.new_entries
        self.splits += other.splits
        self.rebuilds += other.rebuilds
        self.batches += other.batches
        self.flushes += other.flushes
        self.seconds_total += other.seconds_total
        self.seconds_scan += other.seconds_scan
        self.seconds_flush += other.seconds_flush
        self.seconds_split += other.seconds_split

    def to_dict(self) -> dict:
        """Plain-builtin counters for checkpoints and reports."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, state: dict) -> "ScanStats":
        """Rebuild from :meth:`to_dict` output (unknown keys ignored)."""
        names = {f.name for f in fields(cls)}
        return cls(**{name: value for name, value in state.items() if name in names})

    def describe(self) -> str:
        """One-line human-readable summary (used by the CLI ``--stats``)."""
        return (
            f"{self.items} items in {self.seconds_total:.3f}s "
            f"({self.points_per_second:,.0f}/s), "
            f"absorb {100.0 * self.absorb_rate:.1f}%, "
            f"{self.new_entries} new entries, {self.splits} splits, "
            f"{self.rebuilds} rebuilds "
            f"[scan {self.seconds_scan:.3f}s flush {self.seconds_flush:.3f}s "
            f"split {self.seconds_split:.3f}s]"
        )

    def publish(self, partition: str, since: Optional[dict] = None) -> None:
        """Emit this scan's counters into the process metrics registry.

        The per-run/per-partition ``ScanStats`` object stays the
        authoritative record (it is what ``--stats`` prints and what
        checkpoints serialize); this bridge re-emits the same numbers as
        ``repro_phase1_*`` metrics labeled by ``partition``, so registry
        totals always match the stats views.  ``since`` (a prior
        :meth:`to_dict` snapshot) restricts emission to the delta
        accumulated after the snapshot — drivers that reuse one stats
        object across many updates (the streaming miner) use it to avoid
        double-counting.  No-op while metrics are disabled.
        """
        if not obs_metrics.metrics_enabled():
            return
        base = since or {}

        def delta(name: str) -> float:
            return getattr(self, name) - base.get(name, 0)

        for field_name, metric, help_text in _SCAN_METRICS:
            obs_metrics.inc(
                metric, delta(field_name), help=help_text, partition=partition
            )


#: ``ScanStats`` field → (metric name, help) for :meth:`ScanStats.publish`.
_SCAN_METRICS = (
    ("points", "repro_phase1_points_total",
     "Raw points ingested through the batch scan path"),
    ("entries", "repro_phase1_entries_total",
     "Subcluster summaries re-ingested by rebuilds and replays"),
    ("absorbed", "repro_phase1_absorbed_total",
     "Items merged into an existing leaf entry"),
    ("new_entries", "repro_phase1_new_entries_total",
     "Items that started a new leaf entry"),
    ("splits", "repro_phase1_splits_total",
     "Leaf/internal node splits triggered while ingesting"),
    ("rebuilds", "repro_phase1_rebuilds_total",
     "Threshold-escalation tree rebuilds"),
    ("batches", "repro_phase1_batches_total",
     "insert_points / insert_entries calls"),
    ("flushes", "repro_phase1_flushes_total",
     "Deferred-buffer flushes"),
    ("seconds_total", "repro_phase1_seconds_total",
     "Wall seconds spent in batch ingestion"),
    ("seconds_scan", "repro_phase1_scan_seconds_total",
     "Wall seconds spent routing and absorbing"),
    ("seconds_flush", "repro_phase1_flush_seconds_total",
     "Wall seconds spent applying deferred bulk updates"),
    ("seconds_split", "repro_phase1_split_seconds_total",
     "Wall seconds spent splitting nodes"),
)


class _InternalMirror:
    """Per-child (n, LS, centroid) rows of one internal node."""

    __slots__ = ("count", "n", "ls", "cent", "n_empty")

    def __init__(self, node: InternalNode, dimension: int):
        capacity = node.branching + 1
        self.count = len(node.children)
        self.n = np.zeros(capacity, dtype=np.int64)
        self.ls = np.zeros((capacity, dimension), dtype=np.float64)
        self.cent = np.zeros((capacity, dimension), dtype=np.float64)
        self.n_empty = 0
        for index, child in enumerate(node.children):
            cf = child.cf
            self.n[index] = cf.n
            self.ls[index] = cf.ls
            if cf.n:
                self.cent[index] = cf.ls / cf.n
            else:
                self.n_empty += 1

    def route(self, point: np.ndarray) -> int:
        """Index of the closest non-empty child (first child if all empty).

        Matches :meth:`InternalNode.closest_child` decision-for-decision:
        the same ``ls / n - point`` arithmetic per row, empty children
        skipped, and ``argmin`` keeping the first of equal minima exactly
        as the sequential strict-``<`` scan does.
        """
        k = self.count
        delta = self.cent[:k] - point
        scores = np.einsum("ij,ij->i", delta, delta)
        if self.n_empty:
            if self.n_empty == k:
                return 0
            scores[self.n[:k] == 0] = np.inf
        return int(np.argmin(scores))

    def note(self, index: int, dn: int, dls: np.ndarray) -> None:
        """Record ``dn`` points with linear sum ``dls`` below child ``index``."""
        if self.n[index] == 0:
            self.n_empty -= 1
        n = self.n[index] + dn
        self.n[index] = n
        ls = self.ls[index]
        ls += dls
        self.cent[index] = ls / n


class _LeafMirror:
    """Per-entry (n, LS, SS, centroid) rows of one leaf node."""

    __slots__ = ("count", "n", "ls", "ss", "cent", "n_empty")

    def __init__(self, leaf: LeafNode, dimension: int):
        capacity = leaf.capacity + 1
        self.count = len(leaf.entries)
        self.n = np.zeros(capacity, dtype=np.int64)
        self.ls = np.zeros((capacity, dimension), dtype=np.float64)
        self.ss = np.zeros((capacity, dimension), dtype=np.float64)
        self.cent = np.zeros((capacity, dimension), dtype=np.float64)
        self.n_empty = 0
        for index, entry in enumerate(leaf.entries):
            cf = entry.cf
            self.n[index] = cf.n
            self.ls[index] = cf.ls
            self.ss[index] = cf.ss
            if cf.n:
                self.cent[index] = cf.ls / cf.n
            else:
                self.n_empty += 1

    def closest(self, point: np.ndarray) -> int:
        """Index of the closest non-empty entry; mirrors ``closest_entry``."""
        k = self.count
        delta = self.cent[:k] - point
        scores = np.einsum("ij,ij->i", delta, delta)
        if self.n_empty:
            if self.n_empty == k:
                raise ValueError("closest_entry on a leaf with only empty entries")
            scores[self.n[:k] == 0] = np.inf
        return int(np.argmin(scores))

    def merged_point_rms_diameter(self, index: int, point: np.ndarray) -> float:
        """Same arithmetic as ``tree._merged_point_rms_diameter``."""
        n = int(self.n[index]) + 1
        if n < 2:
            return 0.0
        ls = self.ls[index] + point
        ss = float(self.ss[index].sum()) + float(point @ point)
        squared = (2.0 * n * ss - 2.0 * float(ls @ ls)) / (n * (n - 1))
        return float(np.sqrt(max(squared, 0.0)))

    def merged_cf_rms_diameter(self, index: int, cf: CF) -> float:
        """Same arithmetic as :func:`repro.birch.features.merged_rms_diameter`."""
        n = int(self.n[index]) + cf.n
        if n < 2:
            return 0.0
        ls = self.ls[index] + cf.ls
        ss = float(self.ss[index].sum()) + cf.ss_total
        return rms_diameter_from_moments(n, ls, ss)

    def absorb(self, index: int, dn: int, dls: np.ndarray, dss: np.ndarray) -> None:
        if self.n[index] == 0:
            self.n_empty -= 1
        n = self.n[index] + dn
        self.n[index] = n
        ls = self.ls[index]
        ls += dls
        self.ss[index] += dss
        self.cent[index] = ls / n

    def append(self, dn: int, ls: np.ndarray, ss: np.ndarray) -> None:
        index = self.count
        self.n[index] = dn
        self.ls[index] = ls
        self.ss[index] = ss
        if dn:
            self.cent[index] = ls / dn
        else:
            self.n_empty += 1
        self.count += 1


class _Mirror1D:
    """Scalar (pure-Python-float) mirror of one node of a 1-dimensional tree.

    Holds the per-child (internal node) or per-entry (leaf) counts, linear
    sums, square sums and centroids as Python lists.  An empty child or
    entry has a NaN centroid, which no distance comparison ever selects.
    ``children`` is the node's child list for an internal node and
    ``None`` for a leaf, so the scan loop tells the two apart without a
    property call.  Every update the scan makes is a single IEEE-754
    scalar operation, identical to what the numpy path performs
    elementwise on length-1 arrays.
    """

    __slots__ = ("children", "n", "ls", "ss", "cent")

    def __init__(self, node: Node):
        if node.is_leaf:
            self.children: Optional[List[Node]] = None
            cfs = [entry.cf for entry in node.entries]  # type: ignore[attr-defined]
        else:
            self.children = node.children  # type: ignore[attr-defined]
            cfs = [child.cf for child in self.children]
        self.n: List[int] = [cf.n for cf in cfs]
        self.ls: List[float] = [float(cf.ls[0]) for cf in cfs]
        self.ss: List[float] = [float(cf.ss[0]) for cf in cfs]
        self.cent: List[float] = [
            linear / count if count else nan for count, linear in zip(self.n, self.ls)
        ]


class _LeafBuffer:
    """Deferred updates destined for one leaf (flushed in bulk)."""

    __slots__ = ("absorbed_entry", "absorbed_item", "new_items")

    def __init__(self) -> None:
        self.absorbed_entry: List[int] = []
        self.absorbed_item: List[int] = []
        self.new_items: List[int] = []


class _Batch:
    """Precomputed column-stacked views of one batch of points or entries.

    The cross partitions' columns are stacked once per batch into
    ``cross_ls`` / ``cross_ss`` (``(B, C)``, ``C`` the summed cross
    arities); ``cross_layout`` names each partition's column slice and
    ``cross_columns`` each stacked column's ``(partition, offset)``.
    """

    __slots__ = (
        "size", "n", "ls", "ss", "lo", "hi", "cross_layout", "cross_columns",
        "cross_ls", "cross_ss", "cross_n", "entries",
    )

    def __init__(
        self,
        n: np.ndarray,
        ls: np.ndarray,
        ss: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        cross_layout: Sequence[tuple],
        cross_ls: np.ndarray,
        cross_ss: np.ndarray,
        cross_n: Optional[np.ndarray],
        entries: Optional[Sequence[ACF]],
    ):
        self.size = ls.shape[0]
        self.n = n          # (B,) int — 1 for raw points
        self.ls = ls        # (B, dim) — the points themselves in point mode
        self.ss = ss        # (B, dim) — elementwise squares / entry SS rows
        self.lo = lo        # (B, dim) bounding-box contribution
        self.hi = hi
        self.cross_layout = tuple(cross_layout)  # ((name, start, stop), ...)
        self.cross_columns = tuple(
            (name, offset)
            for name, start, stop in self.cross_layout
            for offset in range(stop - start)
        )
        self.cross_ls = cross_ls          # (B, C)
        self.cross_ss = cross_ss          # (B, C)
        self.cross_n = cross_n  # (B, partitions) int; None for raw points
        self.entries = entries  # entry mode only: the source ACFs

    @staticmethod
    def _layout(names: Sequence[str], widths: Sequence[int]) -> tuple:
        bounds = [0, *accumulate(widths)]
        return tuple(zip(names, bounds[:-1], bounds[1:]))

    @classmethod
    def of_points(
        cls, points: np.ndarray, cross_values: Mapping[str, np.ndarray]
    ) -> "_Batch":
        names = list(cross_values)
        matrices = [
            np.atleast_2d(np.asarray(cross_values[name], dtype=np.float64))
            for name in names
        ]
        cross_ls = np.hstack(matrices) if matrices else np.empty((points.shape[0], 0))
        return cls(
            n=np.ones(points.shape[0], dtype=np.int64),
            ls=points,
            ss=points * points,
            lo=points,
            hi=points,
            cross_layout=cls._layout(names, [matrix.shape[1] for matrix in matrices]),
            cross_ls=cross_ls,
            cross_ss=cross_ls * cross_ls,
            cross_n=None,
            entries=None,
        )

    @classmethod
    def of_entries(cls, entries: Sequence[ACF]) -> "_Batch":
        names = list(entries[0].cross)
        size = len(entries)
        if names:
            cross_ls = np.stack(
                [np.concatenate([entry.cross[name].ls for name in names]) for entry in entries]
            )
            cross_ss = np.stack(
                [np.concatenate([entry.cross[name].ss for name in names]) for entry in entries]
            )
        else:
            cross_ls = cross_ss = np.empty((size, 0))
        return cls(
            n=np.array([entry.n for entry in entries], dtype=np.int64),
            ls=np.stack([entry.cf.ls for entry in entries]),
            ss=np.stack([entry.cf.ss for entry in entries]),
            lo=np.stack([entry.lo for entry in entries]),
            hi=np.stack([entry.hi for entry in entries]),
            cross_layout=cls._layout(
                names, [entries[0].cross[name].ls.shape[0] for name in names]
            ),
            cross_ls=cross_ls,
            cross_ss=cross_ss,
            cross_n=np.array(
                [[entry.cross[name].n for name in names] for entry in entries],
                dtype=np.int64,
            ).reshape(size, len(names)),
            entries=entries,
        )


class BatchInserter:
    """Reusable batch-ingestion engine bound to one :class:`ACFTree`.

    Owned by the tree (created lazily by ``insert_points`` /
    ``insert_entries``) and discarded whenever the sequential mutators run,
    so mirror caches can never go stale.  All buffered updates are flushed
    before every split and before control returns to the caller, so the
    tree object graph is always consistent between calls.
    """

    def __init__(self, tree: "ACFTree"):
        self.tree = tree
        # 1-D trees (the paper's single-attribute partitions) use scalar
        # Python-float mirrors: identical IEEE arithmetic, none of the
        # per-point numpy dispatch cost.
        self._scalar = tree.dimension == 1
        self._mirrors: Dict[Node, object] = {}
        self._buffers: Dict[LeafNode, _LeafBuffer] = {}
        self._batch: Optional[_Batch] = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def run(self, batch: _Batch, stats: ScanStats) -> None:
        """Ingest one prepared batch, updating ``stats`` and the tree."""
        point_mode = batch.entries is None
        with span(
            "phase1.insert_batch",
            size=batch.size,
            mode="points" if point_mode else "entries",
        ) as current_span, profiled("phase1.insert_batch"):
            started = time.perf_counter()
            tree = self.tree
            splits_before = tree.n_splits
            absorbed_before = stats.absorbed
            self._batch = batch

            if self._scalar:
                flush_split_seconds = self._scan_scalar(batch, stats)
            else:
                flush_split_seconds = self._scan_generic(batch, stats)

            flush_started = time.perf_counter()
            self.flush(stats)
            flush_seconds = time.perf_counter() - flush_started
            stats.seconds_flush += flush_seconds

            if point_mode:
                stats.points += batch.size
                tree._n_points += batch.size
            else:
                stats.entries += batch.size
                tree._n_points += int(batch.n.sum())
            stats.splits += tree.n_splits - splits_before
            stats.batches += 1
            elapsed = time.perf_counter() - started
            stats.seconds_total += elapsed
            stats.seconds_scan += elapsed - flush_seconds - flush_split_seconds
            self._batch = None
            current_span.set("absorbed", stats.absorbed - absorbed_before)
            current_span.set("splits", tree.n_splits - splits_before)

    def _scan_generic(self, batch: _Batch, stats: ScanStats) -> float:
        """Route and absorb every batch item via the numpy mirrors."""
        flush_split_seconds = 0.0
        tree = self.tree
        threshold = tree.threshold
        point_mode = batch.entries is None

        for i in range(batch.size):
            point = batch.ls[i] if point_mode else batch.entries[i].centroid
            dn = 1 if point_mode else int(batch.n[i])

            # Descend by closest mirrored centroid.
            path: List[tuple] = []
            node = tree._root
            while not node.is_leaf:
                mirror = self._internal_mirror(node)
                child_index = mirror.route(point)
                path.append((node, mirror, child_index))
                node = node.children[child_index]  # type: ignore[attr-defined]
            leaf: LeafNode = node  # type: ignore[assignment]
            leaf_mirror = self._leaf_mirror(leaf)

            # Absorb into the closest entry if the threshold allows.
            absorbed = False
            if leaf_mirror.count:
                entry_index = leaf_mirror.closest(point)
                if point_mode:
                    diameter = leaf_mirror.merged_point_rms_diameter(entry_index, point)
                else:
                    diameter = leaf_mirror.merged_cf_rms_diameter(
                        entry_index, batch.entries[i].cf
                    )
                if diameter <= threshold:
                    leaf_mirror.absorb(entry_index, dn, batch.ls[i], batch.ss[i])
                    buffer = self._buffer(leaf)
                    buffer.absorbed_entry.append(entry_index)
                    buffer.absorbed_item.append(i)
                    absorbed = True
            if not absorbed:
                entry = self._materialize_entry(batch, i)
                leaf.add_entry(entry)
                leaf_mirror.append(dn, batch.ls[i], batch.ss[i])
                self._buffer(leaf).new_items.append(i)

            # Ancestor aggregates, mirrored incrementally (objects deferred).
            dls = batch.ls[i]
            for _, mirror, child_index in path:
                mirror.note(child_index, dn, dls)

            if absorbed:
                stats.absorbed += 1
            else:
                stats.new_entries += 1
                if leaf.entry_count() > tree.leaf_capacity:
                    split_started = time.perf_counter()
                    self.flush(stats)
                    tree._split_leaf(leaf)
                    # The split restructured the whole root-to-leaf chain;
                    # drop exactly those caches (fresh nodes have none).
                    for path_node, _, _ in path:
                        self._mirrors.pop(path_node, None)
                    self._mirrors.pop(leaf, None)
                    split_seconds = time.perf_counter() - split_started
                    flush_split_seconds += split_seconds
                    stats.seconds_split += split_seconds
        return flush_split_seconds

    def _scan_scalar(self, batch: _Batch, stats: ScanStats) -> float:
        """The scan loop for 1-dimensional trees, points and entries alike.

        Decision-for-decision the same as :meth:`_scan_generic`, with the
        routing, closest-entry, merged-diameter, absorb and ancestor-note
        steps inlined over :class:`_Mirror1D` lists.  For ``dimension ==
        1`` every numpy elementwise operation is a single scalar IEEE-754
        operation, which Python floats reproduce exactly and in the same
        order: each scan keeps the first non-empty child or entry of
        strictly smallest squared centroid distance, and an ancestor is
        noted as the descent leaves it (nothing reads its mirror again
        before the next item, so this is the order the sequential path
        produces).  An item routes by its centroid ``LS / n``, which for a
        raw point (``n == 1``) is the point itself.
        """
        flush_split_seconds = 0.0
        tree = self.tree
        threshold = tree.threshold
        leaf_capacity = tree.leaf_capacity
        mirrors = self._mirrors
        buffers = self._buffers
        clock = time.perf_counter
        point_mode = batch.entries is None
        xs = batch.ls[:, 0].tolist()
        qs = batch.ss[:, 0].tolist()
        ns = batch.n.tolist()
        root = tree._root
        absorbed_count = 0

        for i, (dls, dss, dn) in enumerate(zip(xs, qs, ns)):
            point = dls if point_mode else dls / dn

            node = root
            while True:
                mirror = mirrors.get(node)
                if mirror is None:
                    mirror = mirrors[node] = _Mirror1D(node)
                counts = mirror.n
                cent = mirror.cent
                best = -1
                best_squared = inf
                for index, centroid in enumerate(cent):
                    delta = centroid - point
                    squared = delta * delta
                    if squared < best_squared:
                        best = index
                        best_squared = squared
                children = mirror.children
                if children is None:
                    break
                if best < 0:
                    best = 0  # no child qualifies: take the first
                n = counts[best] + dn
                counts[best] = n
                linear = mirror.ls[best] + dls
                mirror.ls[best] = linear
                cent[best] = linear / n
                node = children[best]

            absorbed = False
            if best >= 0:
                merged_n = counts[best] + dn
                merged_ls = mirror.ls[best] + dls
                merged_ss = mirror.ss[best] + dss
                if merged_n < 2:
                    diameter = 0.0
                else:
                    squared = (2.0 * merged_n * merged_ss - 2.0 * merged_ls * merged_ls) / (
                        merged_n * (merged_n - 1)
                    )
                    diameter = sqrt(squared) if squared > 0.0 else 0.0
                absorbed = diameter <= threshold
            elif cent:
                raise ValueError("closest_entry on a leaf with only empty entries")

            buffer = buffers.get(node)
            if buffer is None:
                buffer = buffers[node] = _LeafBuffer()
            if absorbed:
                counts[best] = merged_n
                mirror.ls[best] = merged_ls
                mirror.ss[best] = merged_ss
                cent[best] = merged_ls / merged_n
                buffer.absorbed_entry.append(best)
                buffer.absorbed_item.append(i)
                absorbed_count += 1
                continue

            node.add_entry(self._materialize_entry(batch, i))  # type: ignore[attr-defined]
            counts.append(dn)
            mirror.ls.append(dls)
            mirror.ss.append(dss)
            cent.append(dls / dn if dn else nan)
            buffer.new_items.append(i)
            if len(counts) > leaf_capacity:
                split_started = clock()
                self.flush(stats)
                # The split restructures the root-to-leaf chain: drop the
                # caches of the leaf and every ancestor.
                ancestor = node
                while ancestor is not None:
                    mirrors.pop(ancestor, None)
                    ancestor = ancestor.parent
                tree._split_leaf(node)  # type: ignore[arg-type]
                root = tree._root
                split_seconds = clock() - split_started
                flush_split_seconds += split_seconds
                stats.seconds_split += split_seconds

        stats.absorbed += absorbed_count
        stats.new_entries += batch.size - absorbed_count
        return flush_split_seconds

    def _buffer(self, leaf: LeafNode) -> _LeafBuffer:
        buffer = self._buffers.get(leaf)
        if buffer is None:
            buffer = _LeafBuffer()
            self._buffers[leaf] = buffer
        return buffer

    def _materialize_entry(self, batch: _Batch, i: int) -> ACF:
        if batch.entries is not None:
            # The engine takes a copy: absorptions may later merge other
            # batch items into this object, and callers (rebuilds) still
            # hold references to the originals.
            return batch.entries[i].copy()
        row = batch.cross_ls[i]
        cross_values = {name: row[start:stop] for name, start, stop in batch.cross_layout}
        return ACF.of_point(batch.ls[i], cross_values)

    # ------------------------------------------------------------------
    # Mirrors
    # ------------------------------------------------------------------

    def _internal_mirror(self, node: InternalNode) -> _InternalMirror:
        mirror = self._mirrors.get(node)
        if mirror is None:
            mirror = _InternalMirror(node, self.tree.dimension)
            self._mirrors[node] = mirror
        return mirror  # type: ignore[return-value]

    def _leaf_mirror(self, leaf: LeafNode) -> _LeafMirror:
        mirror = self._mirrors.get(leaf)
        if mirror is None:
            mirror = _LeafMirror(leaf, self.tree.dimension)
            self._mirrors[leaf] = mirror
        return mirror  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Flush: deferred bulk application of buffered updates
    # ------------------------------------------------------------------

    def flush(self, stats: Optional[ScanStats] = None) -> None:
        """Apply every buffered update to the tree's object graph.

        Main leaf-entry moments are copied from the mirrors (bit-identical
        to sequential accumulation); bounding boxes are scattered with
        ``np.minimum.at`` / ``np.maximum.at`` and cross moments with one
        ``np.bincount`` per moment, grouped by entry; node aggregates get
        one summed delta per touched leaf, propagated up the parent chain.
        """
        if not self._buffers:
            return
        batch = self._batch
        assert batch is not None
        for leaf, buffer in self._buffers.items():
            self._flush_leaf(leaf, buffer, batch)
        self._buffers.clear()
        if stats is not None:
            stats.flushes += 1

    def _flush_leaf(self, leaf: LeafNode, buffer: _LeafBuffer, batch: _Batch) -> None:
        mirror = self._mirrors.get(leaf)
        k = len(leaf.entries)
        dimension = self.tree.dimension

        if buffer.absorbed_item:
            entry_idx = np.asarray(buffer.absorbed_entry, dtype=np.intp)
            item_idx = np.asarray(buffer.absorbed_item, dtype=np.intp)
            counts = np.bincount(entry_idx, minlength=k)
            touched = np.flatnonzero(counts).tolist()

            # Main moments: authoritative values live in the mirror, which
            # accumulated them point-by-point exactly as the sequential
            # path would have.
            assert mirror is not None
            for j in touched:
                cf = leaf.entries[j].cf
                cf.n = int(mirror.n[j])
                cf.ls[...] = mirror.ls[j]
                cf.ss[...] = mirror.ss[j]

            # Bounding boxes: bulk min/max scatter, then one update per
            # touched entry.
            lo = np.full((k, dimension), np.inf)
            hi = np.full((k, dimension), -np.inf)
            np.minimum.at(lo, entry_idx, batch.lo[item_idx])
            np.maximum.at(hi, entry_idx, batch.hi[item_idx])
            for j in touched:
                entry = leaf.entries[j]
                np.minimum(entry.lo, lo[j], out=entry.lo)
                np.maximum(entry.hi, hi[j], out=entry.hi)

            # Cross moments: one bincount per moment over the flattened
            # (entry, column) bins of the stacked cross columns.  bincount
            # adds each bin's items in item order from zero, exactly as
            # ``np.add.at`` does (``np.add.reduceat`` would not).
            layout = batch.cross_layout
            if layout:
                width = batch.cross_ls.shape[1]
                bins = (entry_idx[:, None] * width + np.arange(width)).ravel()
                cross_ls = np.bincount(
                    bins, batch.cross_ls[item_idx].ravel(), k * width
                ).reshape(k, width)
                cross_ss = np.bincount(
                    bins, batch.cross_ss[item_idx].ravel(), k * width
                ).reshape(k, width)
                if batch.cross_n is None:
                    cross_n = [[count] * len(layout) for count in counts.tolist()]
                else:
                    parts = len(layout)
                    part_bins = (entry_idx[:, None] * parts + np.arange(parts)).ravel()
                    cross_n = (
                        np.bincount(part_bins, batch.cross_n[item_idx].ravel(), k * parts)
                        .astype(np.int64)
                        .reshape(k, parts)
                        .tolist()
                    )
                # Scalar element updates: the same IEEE additions as an
                # in-place array add, without a view and a ufunc call each.
                columns = batch.cross_columns
                for j in touched:
                    cross = leaf.entries[j].cross
                    for (name, _, _), count in zip(layout, cross_n[j]):
                        cross[name].n += count
                    for (name, offset), dls, dss in zip(
                        columns, cross_ls[j].tolist(), cross_ss[j].tolist()
                    ):
                        cross_cf = cross[name]
                        cross_cf.ls[offset] += dls
                        cross_cf.ss[offset] += dss

            # Leaf aggregate: one summed delta (new entries were already
            # merged by ``add_entry``).
            leaf_cf = leaf.cf
            leaf_cf.n += int(batch.n[item_idx].sum())
            leaf_cf.ls += batch.ls[item_idx].sum(axis=0)
            leaf_cf.ss += batch.ss[item_idx].sum(axis=0)

        # Ancestor aggregates: absorbed *and* new items both flowed through
        # every ancestor of this leaf.
        all_items = buffer.absorbed_item + buffer.new_items
        if all_items:
            idx = np.asarray(all_items, dtype=np.intp)
            dn = int(batch.n[idx].sum())
            dls = batch.ls[idx].sum(axis=0)
            dss = batch.ss[idx].sum(axis=0)
            ancestor = leaf.parent
            while ancestor is not None:
                cf = ancestor.cf
                cf.n += dn
                cf.ls += dls
                cf.ss += dss
                ancestor = ancestor.parent
