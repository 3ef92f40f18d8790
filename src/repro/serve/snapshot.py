"""Immutable, versioned rule snapshots in columnar form.

A :class:`RuleSnapshot` is a ``DARResult`` compiled for serving: rule
measures packed into flat numpy columns (degree, support, CSR-encoded
antecedent/consequent cluster uids with per-consequent degrees), every
referenced cluster's label and JSON descriptor, and inverted indexes
mapping partition names to the rule ids that mention them on each side.
Rule id = position in the result's ``rules`` list, so ids are stable
across save/load and comparable against direct ``DARResult`` filtering.

A compiled snapshot renders no ``str(rule)`` text: a rule's description
is rendered from the cluster labels the first time a caller reads it.
The query engine's tie-break instead reads ``description_rank``, each
rule's rank in the order of the descriptions, derived (like the
partition indexes) from the columns and never persisted.

Persistence reuses the resilience layer's versioned+CRC checkpoint
container (:mod:`repro.resilience.checkpoint`): floats round-trip
through JSON ``repr`` exactly, so a loaded snapshot's ``state_dict`` is
bit-identical to the saved one.  :func:`compile_snapshot` is the
any-source entry point — a ``DARResult``, an existing snapshot file, or
a streaming-miner checkpoint (which is restored and asked for its
current rules).
"""

from __future__ import annotations

import copy
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.rules import describe_rule, description_rank, text_rank
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience.checkpoint import read_checkpoint, write_checkpoint
from repro.resilience.errors import CheckpointCorruptError

__all__ = ["SNAPSHOT_KIND", "RuleSnapshot", "compile_snapshot"]

#: The ``kind`` tag distinguishing snapshot checkpoints from streaming ones.
SNAPSHOT_KIND = "rule-snapshot"

#: Bump when the snapshot ``state_dict`` layout changes meaning.
SNAPSHOT_STATE_VERSION = 1

PathLike = Union[str, Path]


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class RuleSnapshot:
    """One compiled, immutable rule set ready for query serving.

    Construct via :meth:`from_result`, :meth:`from_state` or :meth:`load`.
    The constructor checks the CSR columns' shapes and takes the rule
    text either as ``descriptions`` (a loaded snapshot) or as cluster
    ``labels`` (uid → ``str(cluster)``, a compiled one).  Instances are
    treated as frozen: the publisher swaps whole snapshots instead of
    mutating one, so readers can keep using a reference with no locking.
    """

    def __init__(
        self,
        *,
        version: int,
        created_at: str,
        degree: np.ndarray,
        support: np.ndarray,
        ant_offsets: np.ndarray,
        ant_uids: np.ndarray,
        con_offsets: np.ndarray,
        con_uids: np.ndarray,
        con_degrees: np.ndarray,
        clusters: Dict[int, Dict[str, Any]],
        partitions: List[str],
        density_thresholds: Dict[str, float],
        degree_thresholds: Dict[str, float],
        frequency_count: int,
        descriptions: Optional[List[str]] = None,
        labels: Optional[Dict[int, str]] = None,
    ):
        self.version = int(version)
        self.created_at = created_at
        self.degree = np.asarray(degree, dtype=np.float64)
        self.support = np.asarray(support, dtype=np.int64)
        self.ant_offsets = np.asarray(ant_offsets, dtype=np.int64)
        self.ant_uids = np.asarray(ant_uids, dtype=np.int64)
        self.con_offsets = np.asarray(con_offsets, dtype=np.int64)
        self.con_uids = np.asarray(con_uids, dtype=np.int64)
        self.con_degrees = np.asarray(con_degrees, dtype=np.float64)
        self.clusters = dict(clusters)
        self.partitions = list(partitions)
        self.density_thresholds = {k: float(v) for k, v in density_thresholds.items()}
        self.degree_thresholds = {k: float(v) for k, v in degree_thresholds.items()}
        self.frequency_count = int(frequency_count)
        if (descriptions is None) == (labels is None):
            raise ValueError("a snapshot takes either descriptions or cluster labels")
        if not (
            len(self.degree)
            == len(self.support)
            == len(self.ant_offsets) - 1
            == len(self.con_offsets) - 1
            == (self.n_rules if descriptions is None else len(descriptions))
        ):
            raise ValueError("snapshot columns disagree on the rule count")
        for name in ("ant_offsets", "con_offsets"):
            offsets = getattr(self, name)
            refs = getattr(self, name.replace("offsets", "uids"))
            if offsets[0] != 0 or offsets[-1] != len(refs) or (np.diff(offsets) < 0).any():
                raise ValueError(
                    f"{name} must rise from 0 to len({name.replace('offsets', 'uids')})"
                    f" = {len(refs)} without decreasing"
                )
        if len(self.con_degrees) != len(self.con_uids):
            raise ValueError(
                f"con_degrees holds {len(self.con_degrees)} values for "
                f"{len(self.con_uids)} con_uids"
            )
        self._labels = labels
        # Filled in by description() as callers read them, unless loaded.
        self._descriptions: List[Optional[str]] = (
            [None] * self.n_rules if descriptions is None else list(descriptions)
        )
        self.antecedent_index: Dict[str, np.ndarray] = {}
        self.consequent_index: Dict[str, np.ndarray] = {}
        self._build_indexes()
        self.description_rank = self._rank_descriptions()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_result(cls, result, *, version: int = 1) -> "RuleSnapshot":
        """Compile a ``DARResult`` into a snapshot (rule id = list position)."""
        from repro.report.export import cluster_to_dict

        with span("serve.compile", rules=len(result.rules)):
            rules = list(result.rules)
            # Each distinct cluster is described and labelled once, in
            # first-mention order, however many rules refer to it.
            distinct = {
                c.uid: c for r in rules for side in (r.antecedent, r.consequent) for c in side
            }
            snapshot = cls(
                version=version,
                created_at=_utc_now(),
                degree=[r.degree for r in rules],
                support=[-1 if r.support_count is None else r.support_count for r in rules],
                ant_offsets=np.cumsum([0] + [len(r.antecedent) for r in rules]),
                ant_uids=[c.uid for r in rules for c in r.antecedent],
                con_offsets=np.cumsum([0] + [len(r.consequent) for r in rules]),
                con_uids=[c.uid for r in rules for c in r.consequent],
                con_degrees=[r.degrees.get(c.uid, r.degree) for r in rules for c in r.consequent],
                clusters={uid: cluster_to_dict(c) for uid, c in distinct.items()},
                partitions=sorted(result.density_thresholds),
                density_thresholds=result.density_thresholds,
                degree_thresholds=result.degree_thresholds,
                frequency_count=result.frequency_count,
                labels={uid: str(c) for uid, c in distinct.items()},
            )
        if obs_metrics.metrics_enabled():
            obs_metrics.inc(
                "repro_serve_compiles_total", help="Rule snapshots compiled"
            )
        return snapshot

    def _build_indexes(self) -> None:
        """Derive the partition → rule-id inverted indexes from the CSR
        columns (rebuilt on load — derived state is never persisted)."""
        uids = np.fromiter(self.clusters, dtype=np.int64, count=len(self.clusters))
        names, codes = np.unique(
            [str(entry["partition"]) for entry in self.clusters.values()],
            return_inverse=True,
        )

        def index(offsets: np.ndarray, refs: np.ndarray) -> Dict[str, np.ndarray]:
            rule_ids = np.repeat(np.arange(self.n_rules, dtype=np.int64), np.diff(offsets))
            ref_codes = codes[_positions(uids, refs)]
            indexes = {}
            for code in np.unique(ref_codes):
                # Ascending already: keep the first of each run of a rule id.
                ids = rule_ids[ref_codes == code]
                indexes[str(names[code])] = ids[np.append(True, ids[1:] != ids[:-1])]
            return indexes

        self.antecedent_index = index(self.ant_offsets, self.ant_uids)
        self.consequent_index = index(self.con_offsets, self.con_uids)

    def _rank_descriptions(self) -> np.ndarray:
        """Each rule's dense rank in the order of the descriptions (derived
        like the indexes, never persisted).  Compiled snapshots rank label
        tokens (:func:`~repro.core.rules.description_rank`) and render
        only tied rules; loaded ones rank the descriptions they hold."""
        if self._labels is None:
            return text_rank(self._descriptions)
        uids = np.fromiter(self._labels, dtype=np.int64, count=len(self._labels))
        return description_rank(
            list(self._labels.values()),
            self.ant_offsets,
            _positions(uids, self.ant_uids),
            self.con_offsets,
            _positions(uids, self.con_uids),
            self.description,
        )

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------

    @property
    def n_rules(self) -> int:
        """How many rules the snapshot holds."""
        return len(self.degree)

    def antecedent_uids(self, rule_id: int) -> Tuple[int, ...]:
        """The antecedent cluster uids of one rule, in rule order."""
        lo, hi = self.ant_offsets[rule_id], self.ant_offsets[rule_id + 1]
        return tuple(int(u) for u in self.ant_uids[lo:hi])

    def consequent_uids(self, rule_id: int) -> Tuple[int, ...]:
        """The consequent cluster uids of one rule, in rule order."""
        lo, hi = self.con_offsets[rule_id], self.con_offsets[rule_id + 1]
        return tuple(int(u) for u in self.con_uids[lo:hi])

    def rule_dict(self, rule_id: int) -> Dict[str, Any]:
        """One rule as a JSON-ready dict (the ``/rules`` response row).

        Matches :func:`repro.report.export.rule_to_dict` plus the stable
        ``id`` and the rendered ``description``.
        """
        if not 0 <= rule_id < self.n_rules:
            raise IndexError(f"no rule with id {rule_id}")
        lo, hi = self.con_offsets[rule_id], self.con_offsets[rule_id + 1]
        support = int(self.support[rule_id])
        return {
            "id": int(rule_id),
            "antecedent": list(self.antecedent_uids(rule_id)),
            "consequent": list(self.consequent_uids(rule_id)),
            "degree": float(self.degree[rule_id]),
            "degrees": {
                str(int(uid)): float(value)
                for uid, value in zip(self.con_uids[lo:hi], self.con_degrees[lo:hi])
            },
            "support_count": None if support < 0 else support,
            "description": self.description(rule_id),
        }

    def description(self, rule_id: int) -> str:
        """``str`` of one rule, rendered from the cluster labels on first
        read and kept."""
        text = self._descriptions[rule_id]
        if text is None:
            labels = self._labels
            support = int(self.support[rule_id])
            text = describe_rule(
                [labels[uid] for uid in self.antecedent_uids(rule_id)],
                [labels[uid] for uid in self.consequent_uids(rule_id)],
                float(self.degree[rule_id]),
                None if support < 0 else support,
            )
            self._descriptions[rule_id] = text
        return text

    @property
    def descriptions(self) -> List[str]:
        """Every rule's description, in rule-id order (renders the missing)."""
        return [self.description(rule_id) for rule_id in range(self.n_rules)]

    def describe(self) -> str:
        """One status line (the CLI/serve banner)."""
        return (
            f"snapshot v{self.version}: {self.n_rules} rules over "
            f"{len(self.partitions)} partitions, {len(self.clusters)} clusters, "
            f"compiled {self.created_at}"
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Everything needed to reconstruct the snapshot, as JSON built-ins."""
        return {
            "kind": SNAPSHOT_KIND,
            "state_version": SNAPSHOT_STATE_VERSION,
            "version": self.version,
            "created_at": self.created_at,
            "partitions": list(self.partitions),
            "density_thresholds": dict(self.density_thresholds),
            "degree_thresholds": dict(self.degree_thresholds),
            "frequency_count": self.frequency_count,
            "rules": {
                "degree": [float(v) for v in self.degree],
                "support": [int(v) for v in self.support],
                "ant_offsets": [int(v) for v in self.ant_offsets],
                "ant_uids": [int(v) for v in self.ant_uids],
                "con_offsets": [int(v) for v in self.con_offsets],
                "con_uids": [int(v) for v in self.con_uids],
                "con_degrees": [float(v) for v in self.con_degrees],
                "descriptions": self.descriptions,
            },
            "clusters": {str(uid): entry for uid, entry in self.clusters.items()},
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "RuleSnapshot":
        """Rebuild a snapshot from :meth:`state_dict` output."""
        if state.get("kind") != SNAPSHOT_KIND:
            raise CheckpointCorruptError(
                f"state holds a {state.get('kind')!r} payload, not a "
                f"{SNAPSHOT_KIND!r}"
            )
        if state.get("state_version") != SNAPSHOT_STATE_VERSION:
            raise CheckpointCorruptError(
                f"snapshot state version {state.get('state_version')!r} is not "
                f"supported (this build reads version {SNAPSHOT_STATE_VERSION})"
            )
        columns = state["rules"]
        return cls(
            version=int(state["version"]),
            created_at=str(state["created_at"]),
            degree=np.asarray(columns["degree"], dtype=np.float64),
            support=np.asarray(columns["support"], dtype=np.int64),
            ant_offsets=np.asarray(columns["ant_offsets"], dtype=np.int64),
            ant_uids=np.asarray(columns["ant_uids"], dtype=np.int64),
            con_offsets=np.asarray(columns["con_offsets"], dtype=np.int64),
            con_uids=np.asarray(columns["con_uids"], dtype=np.int64),
            con_degrees=np.asarray(columns["con_degrees"], dtype=np.float64),
            descriptions=list(columns["descriptions"]),
            clusters={int(uid): entry for uid, entry in state["clusters"].items()},
            partitions=list(state["partitions"]),
            density_thresholds=state["density_thresholds"],
            degree_thresholds=state["degree_thresholds"],
            frequency_count=int(state["frequency_count"]),
        )

    def save(self, path: PathLike):
        """Persist atomically via the checkpoint container; returns its
        :class:`~repro.resilience.checkpoint.CheckpointInfo`."""
        return write_checkpoint(self.state_dict(), path)

    @classmethod
    def load(cls, path: PathLike) -> "RuleSnapshot":
        """Load a snapshot written by :meth:`save` (CRC-verified)."""
        state = read_checkpoint(path)
        if state.get("kind") != SNAPSHOT_KIND:
            raise CheckpointCorruptError(
                f"{path}: checkpoint holds a {state.get('kind')!r} state, not "
                f"a {SNAPSHOT_KIND!r}"
            )
        return cls.from_state(state)


def _positions(keys: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Where each of ``refs`` sits in ``keys``; ``KeyError`` for one absent."""
    order = np.argsort(keys)
    slots = np.searchsorted(keys, refs, sorter=order)
    known = slots < len(keys)
    known[known] = keys[order[slots[known]]] == refs[known]
    if not known.all():
        raise KeyError(int(refs[~known][0]))
    return order[slots]


def compile_snapshot(
    source, *, version: int = 1, existing_version: Optional[int] = None
) -> "RuleSnapshot":
    """Turn any rule source into a :class:`RuleSnapshot`.

    Accepts, in order of directness: a ready snapshot (returned as-is,
    or as a re-versioned copy via ``existing_version``), a ``DARResult``,
    or a path to either a snapshot checkpoint or a streaming-miner
    checkpoint (the latter is restored and its current :meth:`rules`
    compiled).
    Anything else raises ``TypeError``.
    """
    if isinstance(source, RuleSnapshot):
        if existing_version is None or source.version == existing_version:
            return source
        # A caller (or a publisher already serving it) may hold this very
        # object: re-version a shallow copy that shares the columns.
        renumbered = copy.copy(source)
        renumbered.version = int(existing_version)
        return renumbered
    if hasattr(source, "rules") and hasattr(source, "density_thresholds"):
        return RuleSnapshot.from_result(source, version=version)
    if isinstance(source, (str, Path)):
        state = read_checkpoint(source)
        kind = state.get("kind")
        if kind == SNAPSHOT_KIND:
            snapshot = RuleSnapshot.from_state(state)
            if existing_version is not None:
                snapshot.version = int(existing_version)
            return snapshot
        if kind == "streaming-darminer":
            from repro.core.streaming import StreamingDARMiner

            miner = StreamingDARMiner.from_checkpoint(source)
            return RuleSnapshot.from_result(miner.rules(), version=version)
        raise CheckpointCorruptError(
            f"{source}: checkpoint holds a {kind!r} state; expected a "
            f"{SNAPSHOT_KIND!r} or 'streaming-darminer' checkpoint"
        )
    raise TypeError(
        "compile_snapshot needs a DARResult, a RuleSnapshot, or a checkpoint "
        f"path, got {type(source).__name__!r}"
    )
