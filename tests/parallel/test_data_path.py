"""One Phase I data path for serial, parallel and out-of-core mining.

Every configuration below runs the same per-partition task: in-process
over the coordinator's matrices, or in a pool worker over a memory-mapped
:class:`~repro.data.columnar.ColumnStore` opened by directory — the input
store itself, or a temporary one spilled from an in-memory relation.  The
contract is bit-identity of the leaf ACF moments and of the rules, that
workers never write to a store, and that no spill directory outlives the
run, however it ends.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import pytest

import repro
from repro.birch.birch import BirchOptions
from repro.core.config import DARConfig
from repro.core.miner import DARMiner
from repro.data.columnar import ColumnStore
from repro.data.relation import AttributePartition
from repro.data.synthetic import make_planted_rule_relation
from repro.data.wbcd import make_scaled_wbcd
from repro.parallel import KILL_WORKER_ENV, ParallelDARMiner
from repro.resilience import faults
from repro.resilience.errors import ValidationError

from tests.parallel.test_equivalence import rule_signature

BUDGETED = DARConfig(birch=BirchOptions(memory_limit_bytes=64 * 1024))


def leaf_bytes(result):
    """Every leaf's ``N`` and the raw bytes of its LS, SS and cross moments."""
    return {
        name: [
            (
                cluster.uid,
                cluster.acf.n,
                cluster.acf.cf.ls.tobytes(),
                cluster.acf.cf.ss.tobytes(),
                tuple(
                    (other, cf.n, cf.ls.tobytes(), cf.ss.tobytes())
                    for other, cf in sorted(cluster.acf.cross.items())
                ),
            )
            for cluster in sorted(clusters, key=lambda c: c.uid)
        ]
        for name, clusters in result.all_clusters.items()
    }


def rule_digest(result):
    """Hash of the sorted rule descriptions (the benchmark's digest)."""
    lines = sorted(str(rule) for rule in result.rules)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def fingerprint(result):
    return leaf_bytes(result), rule_digest(result), rule_signature(result)


@pytest.fixture(scope="module")
def planted():
    relation, _ = make_planted_rule_relation(seed=11)
    return relation


@pytest.fixture
def spill_root(tmp_path, monkeypatch):
    """A private temp root, so leftover spill directories are visible."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


def spill_dirs(root: Path):
    return sorted(path.name for path in root.glob("repro-columnar-*"))


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_in_memory_parallel_matches_serial(self, planted, workers):
        serial = DARMiner(DARConfig()).mine(planted)
        parallel = ParallelDARMiner(DARConfig(), workers=workers).mine(planted)
        assert fingerprint(parallel) == fingerprint(serial)

    @pytest.mark.parametrize("chunk_rows", [7, 64, None])
    def test_budgeted_store_matches_in_memory(self, planted, tmp_path, chunk_rows):
        """The SCALING.md contract, at workers 1 and 2 alike."""
        expected = fingerprint(DARMiner(BUDGETED).mine(planted))
        assert fingerprint(
            ParallelDARMiner(BUDGETED, workers=2).mine(planted)
        ) == expected
        kwargs = {} if chunk_rows is None else {"chunk_rows": chunk_rows}
        store = ColumnStore.from_relation(planted, directory=tmp_path / "s", **kwargs)
        assert fingerprint(DARMiner(BUDGETED).mine(store)) == expected
        assert fingerprint(
            ParallelDARMiner(BUDGETED, workers=2).mine(store)
        ) == expected

    def test_wbcd_shape_matches_across_paths(self, tmp_path):
        """Thirty cross partitions per ACF, through every transport."""
        relation = make_scaled_wbcd(200, outlier_fraction=0.05, seed=42)
        expected = fingerprint(DARMiner(BUDGETED).mine(relation))
        store = ColumnStore.from_relation(
            relation, directory=tmp_path / "s", chunk_rows=64
        )
        for result in (
            ParallelDARMiner(BUDGETED, workers=2).mine(relation),
            ParallelDARMiner(BUDGETED, workers=2).mine(store),
        ):
            assert fingerprint(result) == expected

    def test_multi_attribute_partition(self, planted, tmp_path):
        partitions = [
            AttributePartition("person", ("age", "dependents")),
            AttributePartition("claims", ("claims",)),
        ]
        expected = fingerprint(DARMiner(BUDGETED).mine(planted, partitions))
        store = ColumnStore.from_relation(
            planted, directory=tmp_path / "s", chunk_rows=64
        )
        for result in (
            ParallelDARMiner(BUDGETED, workers=2).mine(planted, partitions),
            DARMiner(BUDGETED).mine(store, partitions),
            ParallelDARMiner(BUDGETED, workers=2).mine(store, partitions),
        ):
            assert fingerprint(result) == expected

    def test_in_process_tasks_keep_the_coordinators_tracer(self, planted):
        """One worker runs tasks in-process: no worker-side obs reset."""
        from repro.obs import trace as obs_trace

        tracer = obs_trace.enable_tracing()
        ParallelDARMiner(workers=1).mine(planted)
        assert obs_trace.tracing_enabled()
        names = [record.name for record in tracer.spans()]
        assert names.count("phase1.fit") == len(planted.schema.interval_names())
        assert "phase1.scatter" not in names


class TestStoreAccess:
    def test_workers_never_write_to_the_store(self, planted, tmp_path):
        partitions = [
            AttributePartition("person", ("age", "dependents")),
            AttributePartition("claims", ("claims",)),
        ]
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        DARMiner().mine(ColumnStore.from_relation(planted, directory=serial_dir), partitions)
        ParallelDARMiner(workers=2).mine(
            ColumnStore.from_relation(planted, directory=parallel_dir), partitions
        )
        serial_files = sorted(os.listdir(serial_dir))
        assert any(name.startswith("_stack_") for name in serial_files)
        assert sorted(os.listdir(parallel_dir)) == serial_files
        for name in serial_files:
            assert (parallel_dir / name).read_bytes() == (serial_dir / name).read_bytes()

    def test_read_only_store_never_stacks(self, planted, tmp_path):
        from repro.resilience.errors import ColumnStoreError

        ColumnStore.from_relation(planted, directory=tmp_path / "s")
        reader = ColumnStore.open(tmp_path / "s", read_only=True)
        with pytest.raises(ColumnStoreError, match="read-only"):
            reader.matrix(["age", "claims"])
        assert not list((tmp_path / "s").glob("_stack_*"))


class TestSpillCleanup:
    def test_normal_mine_leaves_no_spill(self, planted, spill_root):
        ParallelDARMiner(workers=2).mine(planted)
        assert spill_dirs(spill_root) == []

    def test_killed_worker_leaves_no_spill(self, planted, spill_root, monkeypatch):
        monkeypatch.setenv(KILL_WORKER_ENV, "age")
        result = repro.mine(planted, engine="parallel", workers=2)
        assert [event.kind for event in result.phase2.events] == [
            "worker_pool_failure"
        ]
        assert rule_signature(result) == rule_signature(DARMiner().mine(planted))
        assert spill_dirs(spill_root) == []

    def test_worker_validation_error_leaves_no_spill(
        self, planted, spill_root, monkeypatch
    ):
        import repro.parallel.tasks as tasks

        coordinator = os.getpid()
        fit = tasks.fit_partition

        def failing(task, matrices):
            if os.getpid() != coordinator:
                raise ValidationError(f"bad rows in {task.partition.name}")
            return fit(task, matrices)

        monkeypatch.setattr(tasks, "fit_partition", failing)
        with pytest.raises(ValidationError, match="bad rows"):
            repro.mine(planted, engine="parallel", workers=2)
        assert spill_dirs(spill_root) == []

    @pytest.mark.faults
    def test_worker_store_error_falls_back_to_memory(self, planted, tmp_path):
        store = ColumnStore.from_relation(planted, directory=tmp_path / "s")
        coordinator_hits = len(planted.schema.interval_names())
        # The coordinator's own matrix() calls pass; the first one inside
        # a worker (forked after them) raises ColumnStoreError there.
        injector = faults.FaultInjector().fail_at(
            "columnar.matrix", after=coordinator_hits, times=None
        )
        with faults.injected(injector):
            result = repro.mine(store, engine="parallel", workers=2)
        assert injector.hits("columnar.matrix") == coordinator_hits
        assert [event.kind for event in result.phase2.events] == [
            "columnar_fallback"
        ]
        assert rule_signature(result) == rule_signature(DARMiner().mine(planted))
