"""The on-disk column store: construction, manifest, chunks, failure modes."""

from __future__ import annotations

import gc
import json

import numpy as np
import pytest

from repro.data.columnar import (
    ColumnStore,
    ColumnStoreWriter,
    MaskedNumericDtype,
    MANIFEST_NAME,
)
from repro.data.io import load_csv, save_csv
from repro.data.relation import Relation, Schema, default_partitions
from repro.data.synthetic import make_planted_rule_relation
from repro.resilience.errors import ColumnStoreError, IngestError


@pytest.fixture
def relation():
    relation, _ = make_planted_rule_relation(seed=3)
    return relation


@pytest.fixture
def mixed_schema():
    return Schema.of(age="interval", job="nominal")


class TestConstructors:
    def test_from_arrays_round_trips(self, mixed_schema, tmp_path):
        store = ColumnStore.from_arrays(
            mixed_schema,
            {"age": [30.0, np.nan, 45.0], "job": ["nurse", None, "pilot"]},
            directory=tmp_path / "store",
        )
        assert len(store) == 3
        assert store.schema == mixed_schema
        assert store.column("age").to_numpy()[0] == 30.0
        assert np.isnan(store.column("age").to_numpy()[1])
        assert list(store.column("job").to_numpy()) == ["nurse", None, "pilot"]

    def test_from_tuples_matches_from_arrays(self, mixed_schema, tmp_path):
        rows = [(30.0, "nurse"), (41.0, None), (45.0, "nurse")]
        streamed = ColumnStore.from_tuples(
            mixed_schema, rows, directory=tmp_path / "a", chunk_rows=2
        )
        eager = ColumnStore.from_arrays(
            mixed_schema,
            {"age": [r[0] for r in rows], "job": [r[1] for r in rows]},
            directory=tmp_path / "b",
        )
        for name in mixed_schema.names:
            assert streamed.column(name).equals(eager.column(name))

    def test_from_relation_and_back(self, relation, tmp_path):
        store = ColumnStore.from_relation(relation, directory=tmp_path / "s")
        back = store.to_relation()
        assert back.schema == relation.schema
        for name in relation.schema.names:
            assert np.array_equal(back.column(name), relation.column(name))

    def test_dtype_override(self, tmp_path):
        schema = Schema.of(a="interval")
        store = ColumnStore.from_arrays(
            schema,
            {"a": [1.0, np.nan]},
            directory=tmp_path / "s",
            dtypes={"a": MaskedNumericDtype()},
        )
        column = store.column("a")
        assert column.dtype == MaskedNumericDtype()
        assert column.isna().tolist() == [False, True]

    def test_ragged_arrays_rejected(self, mixed_schema, tmp_path):
        with pytest.raises(ValueError, match="ragged"):
            ColumnStore.from_arrays(
                mixed_schema,
                {"age": [1.0, 2.0], "job": ["a"]},
                directory=tmp_path / "s",
            )

    def test_missing_arrays_rejected(self, mixed_schema, tmp_path):
        with pytest.raises(ValueError, match="job"):
            ColumnStore.from_arrays(
                mixed_schema, {"age": [1.0]}, directory=tmp_path / "s"
            )

    def test_ephemeral_directory_removed_on_collection(self):
        store = ColumnStore.from_arrays(
            Schema.of(a="interval"), {"a": [1.0, 2.0]}
        )
        directory = store.directory
        assert (directory / MANIFEST_NAME).exists()
        del store
        gc.collect()
        assert not directory.exists()


class TestManifest:
    def test_reopen_reads_manifest(self, relation, tmp_path):
        ColumnStore.from_relation(relation, directory=tmp_path / "s", chunk_rows=77)
        store = ColumnStore.open(tmp_path / "s")
        assert len(store) == len(relation)
        assert store.chunk_rows == 77
        assert store.schema == relation.schema

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ColumnStoreError, match="cannot read store manifest"):
            ColumnStore.open(tmp_path)

    def test_corrupt_manifest_json(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ColumnStoreError, match="not valid JSON"):
            ColumnStore.open(tmp_path)

    def test_wrong_format_tag(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": "parquet"}))
        with pytest.raises(ColumnStoreError, match="not a repro-columnar manifest"):
            ColumnStore.open(tmp_path)

    def test_unsupported_version(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps({"format": "repro-columnar", "schema_version": 99})
        )
        with pytest.raises(ColumnStoreError, match="99"):
            ColumnStore.open(tmp_path)

    def test_truncated_part_file(self, relation, tmp_path):
        store = ColumnStore.from_relation(relation, directory=tmp_path / "s")
        victim = next((tmp_path / "s").glob("*.data.bin"))
        victim.write_bytes(victim.read_bytes()[:-8])
        reopened = ColumnStore.open(tmp_path / "s")
        with pytest.raises(ColumnStoreError, match="cannot be opened"):
            for name in reopened.schema.names:
                reopened.column(name)
        del store


class TestMiningSurface:
    def test_single_column_matrix_is_zero_copy(self, relation, tmp_path):
        store = ColumnStore.from_relation(relation, directory=tmp_path / "s")
        name = relation.schema.names[0]
        matrix = store.matrix([name])
        assert matrix.shape == (len(relation), 1)
        assert np.shares_memory(matrix, store.column(name).parts["data"])
        assert np.array_equal(matrix[:, 0], relation.column(name))

    def test_stacked_matrix_matches_relation(self, relation, tmp_path):
        store = ColumnStore.from_relation(relation, directory=tmp_path / "s")
        names = list(relation.schema.names[:2])
        stacked = store.matrix(names)
        assert np.array_equal(stacked, relation.matrix(names))
        # The stack is built once and cached (same mapped object back).
        assert store.matrix(names) is stacked

    def test_processes_share_one_stack_file(self, relation, tmp_path):
        """The stack file name is stable across processes' str-hash salts."""
        import hashlib
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        directory = tmp_path / "s"
        ColumnStore.from_relation(relation, directory=directory)
        names = list(relation.schema.names[:2])
        script = (
            "import hashlib, sys\n"
            "from repro.data.columnar import ColumnStore\n"
            "matrix = ColumnStore.open(sys.argv[1]).matrix(sys.argv[2:])\n"
            "print(hashlib.sha256(matrix.tobytes()).hexdigest())\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        digests = []
        for salt in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=salt, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", script, str(directory), *names],
                env=env, check=True, capture_output=True, text=True,
            )
            digests.append(out.stdout.strip())
        stacks = list(directory.glob("_stack_*"))
        assert len(stacks) == 1
        on_disk = np.load(stacks[0])
        assert np.array_equal(on_disk, relation.matrix(names))
        assert digests == [hashlib.sha256(on_disk.tobytes()).hexdigest()] * 2

    def test_matrix_rejects_nominal(self, tmp_path):
        store = ColumnStore.from_arrays(
            Schema.of(job="nominal"), {"job": ["a", "b"]},
            directory=tmp_path / "s",
        )
        with pytest.raises(TypeError, match="nominal"):
            store.matrix(["job"])

    def test_chunks_cover_every_row_in_order(self, relation, tmp_path):
        store = ColumnStore.from_relation(
            relation, directory=tmp_path / "s", chunk_rows=97
        )
        partitions = default_partitions(relation.schema)
        chunks = list(store.chunks(partitions))
        assert len(chunks) == -(-len(relation) // 97)
        name = partitions[0].name
        rebuilt = np.concatenate([chunk.arrays[name] for chunk in chunks])
        assert np.array_equal(rebuilt, relation.matrix(partitions[0].attributes))
        assert chunks[0].start == 0 and chunks[-1].stop == len(relation)

    def test_n_bytes_counts_part_files(self, relation, tmp_path):
        store = ColumnStore.from_relation(relation, directory=tmp_path / "s")
        expected = len(relation) * 8 * relation.arity
        assert store.n_bytes == expected


class TestWriter:
    def test_abort_on_exception_removes_ephemeral_dir(self, mixed_schema):
        with pytest.raises(RuntimeError, match="boom"):
            with ColumnStoreWriter(mixed_schema) as writer:
                writer.append_row((1.0, "a"))
                directory = writer.directory
                raise RuntimeError("boom")
        assert not directory.exists()

    def test_explicit_directory_survives_abort(self, mixed_schema, tmp_path):
        with pytest.raises(RuntimeError, match="boom"):
            with ColumnStoreWriter(mixed_schema, tmp_path / "s") as writer:
                writer.append_row((1.0, "a"))
                raise RuntimeError("boom")
        assert (tmp_path / "s").exists()

    def test_finish_twice_rejected(self, mixed_schema, tmp_path):
        writer = ColumnStoreWriter(mixed_schema, tmp_path / "s")
        writer.finish()
        with pytest.raises(RuntimeError, match="already finished"):
            writer.finish()

    def test_vocabulary_grows_across_flushes(self, tmp_path):
        schema = Schema.of(job="nominal")
        with ColumnStoreWriter(schema, tmp_path / "s", chunk_rows=1) as writer:
            writer.append_rows([("a",), ("b",), ("a",), (None,)])
            store = writer.finish()
        assert list(store.column("job").to_numpy()) == ["a", "b", "a", None]

    def test_chunk_rows_validated(self, mixed_schema):
        with pytest.raises(ValueError, match="chunk_rows"):
            ColumnStoreWriter(mixed_schema, chunk_rows=0)


class TestFromCsv:
    def test_spill_matches_in_memory_load(self, relation, tmp_path):
        csv = tmp_path / "r.csv"
        save_csv(relation, csv)
        in_memory = load_csv(csv)
        store = ColumnStore.from_csv(
            csv, directory=tmp_path / "s", chunk_rows=113
        )
        assert len(store) == len(in_memory)
        for name in in_memory.schema.names:
            assert np.array_equal(
                store.column(name).to_numpy(), in_memory.column(name)
            )

    def test_strict_error_keeps_path_and_line(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("# a:interval\na\n1.5\nnope\n")
        with pytest.raises(IngestError, match=r"bad.csv:4"):
            ColumnStore.from_csv(csv, directory=tmp_path / "s")

    def test_quarantine_sink_diverts_bad_rows(self, tmp_path):
        from repro.resilience.sink import Quarantine

        csv = tmp_path / "dirty.csv"
        csv.write_text("# a:interval\na\n1.5\nnope\n2.5\n")
        sink = Quarantine()
        store = ColumnStore.from_csv(csv, directory=tmp_path / "s", sink=sink)
        assert len(store) == 2
        assert store.column("a").to_numpy().tolist() == [1.5, 2.5]
        assert sink.n_quarantined == 1

    def test_load_csv_flag_validation(self, tmp_path):
        csv = tmp_path / "r.csv"
        csv.write_text("# a:interval\na\n1.0\n")
        with pytest.raises(ValueError, match="out_of_core"):
            load_csv(csv, chunk_rows=8)
        with pytest.raises(ValueError, match="out_of_core"):
            load_csv(csv, spill_dir=tmp_path / "s")


class TestRelationParity:
    def test_len_arity_schema_match(self, relation, tmp_path):
        store = ColumnStore.from_relation(relation, directory=tmp_path / "s")
        assert len(store) == len(relation)
        assert store.arity == relation.arity
        assert store.schema == relation.schema

    def test_to_relation_is_a_copy(self, relation, tmp_path):
        store = ColumnStore.from_relation(relation, directory=tmp_path / "s")
        materialized = store.to_relation()
        assert isinstance(materialized, Relation)
        name = relation.schema.names[0]
        assert not np.shares_memory(
            materialized.column(name), store.column(name).parts["data"]
        )
