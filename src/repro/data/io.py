"""CSV persistence for relations, with the schema in a header comment.

Format: a first line ``# name:kind,name:kind,...`` followed by a standard
CSV with a header row of attribute names.  Round-trips exactly for
interval/ordinal columns (repr-precision floats) and nominal strings.

:func:`load_csv` has two modes over one single-pass row parser: the
default materializes an in-memory :class:`~repro.data.relation.Relation`;
``out_of_core=True`` streams rows to a memory-mapped
:class:`~repro.data.columnar.ColumnStore` so files larger than RAM load
in constant memory.  A strict in-memory load of an all-interval schema
first tries a vectorised ``np.loadtxt`` parse of the body, which gives
bitwise the same columns; the row parser re-reads the file whenever that
parse fails, so it alone reports ``path:line`` errors.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.data.relation import Attribute, AttributeKind, Relation, Schema
from repro.obs.trace import span
from repro.resilience.errors import IngestError

__all__ = ["save_csv", "load_csv", "load_plain_csv"]

PathLike = Union[str, Path]


def save_csv(relation: Relation, path: PathLike) -> None:
    """Write ``relation`` to ``path`` (parent directory must exist)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        schema_line = ",".join(
            f"{attribute.name}:{attribute.kind.value}"
            for attribute in relation.schema
        )
        handle.write(f"# {schema_line}\n")
        csv.writer(handle).writerow(relation.schema.names)
        names = relation.schema.names
        columns = [_csv_fields(relation.column(name), len(names) == 1) for name in names]
        handle.writelines(f"{','.join(row)}\r\n" for row in zip(*columns))


#: The characters that make ``csv.writer`` (``QUOTE_MINIMAL``) quote a field.
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_fields(column: np.ndarray, alone: bool) -> List[str]:
    """One column's cells as the CSV fields ``csv.writer`` writes for them.

    Cells are rendered column by column (``tolist`` hands back Python
    scalars), quoted when they hold a delimiter, quote or line break, and
    a lone empty field (``alone``: a one-column relation) becomes ``""``.
    """
    fields = list(map(_render, column.tolist()))
    if _NEEDS_QUOTES.search("".join(fields)):
        fields = [
            '"' + field.replace('"', '""') + '"' if _NEEDS_QUOTES.search(field) else field
            for field in fields
        ]
    if alone:
        fields = [field or '""' for field in fields]
    return fields


def _render(value: object) -> str:
    if type(value) is float:
        return repr(value)
    # Numpy scalars repr as "np.float64(...)" under numpy >= 2; go through
    # the plain Python float, whose repr round-trips exactly.
    if isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def load_csv(
    path: PathLike,
    *,
    sink=None,
    out_of_core: bool = False,
    chunk_rows: Optional[int] = None,
    spill_dir: Optional[PathLike] = None,
):
    """Read a relation written by :func:`save_csv`.

    Strict by default: a missing or malformed schema header, a column row
    disagreeing with it, a row with the wrong number of cells, or an
    unparseable numeric cell all raise an
    :class:`~repro.resilience.errors.IngestError` (a ``ValueError``)
    naming the file, line and offending value.

    With ``sink`` (a :class:`~repro.resilience.sink.RowSink`), per-row
    problems — wrong arity, unparseable numbers, non-finite numeric
    values — are diverted to the sink instead of aborting, and the
    relation is built from the remaining clean rows.  File-level problems
    (missing header, bad schema line) always raise.  Row numbers reported
    to the sink are 0-based data-row indices (header lines excluded).

    With ``out_of_core=True`` the file is *spilled* instead of
    materialized: rows stream through a
    :class:`~repro.data.columnar.ColumnStoreWriter` into ``spill_dir``
    (a fresh temp directory when ``None``) in batches of ``chunk_rows``,
    and the return value is a memory-mapped
    :class:`~repro.data.columnar.ColumnStore` rather than a
    :class:`Relation`.  Parsing, the ``path:line`` error contract, and
    quarantine behaviour are byte-for-byte identical to the in-memory
    path — both are fed by the same single-pass row generator, so no
    mode ever re-reads the file to discover its row count.

    A strict in-memory load of an all-interval schema parses the body
    with ``np.loadtxt`` instead (see :func:`_load_vector`); the columns
    are bitwise the row parser's, and any file that parse rejects is
    re-read by the row parser to raise its exact error.  The load is
    traced as one ``data.load`` span with ``rows``, ``columns`` and
    ``parser`` (``"vector"`` or ``"rows"``) attributes.
    """
    path = Path(path)
    if not out_of_core and (chunk_rows is not None or spill_dir is not None):
        raise ValueError("chunk_rows/spill_dir are only meaningful with out_of_core=True")
    with span("data.load", path=str(path)) as current:
        loaded = None
        if sink is None and not out_of_core:
            loaded = _load_vector(path)
        current.set("parser", "rows" if loaded is None else "vector")
        if loaded is None:
            loaded = _load_rows(path, sink, out_of_core, chunk_rows, spill_dir)
        current.set("rows", len(loaded))
        current.set("columns", len(loaded.schema))
    return loaded


def _load_vector(path: Path) -> Optional[Relation]:
    """Strict in-memory load of an all-interval schema through ``np.loadtxt``.

    Returns ``None`` for any other schema and whenever the vectorised
    parse cannot vouch for its result — a cell or row ``np.loadtxt``
    rejects, or a body with the wrong number of columns — and
    :func:`load_csv` then re-reads the file with the row parser, which
    stays the only source of ``path:line`` errors.  Whatever it does
    accept, it parses as ``float()`` does (both end in CPython's
    ``PyOS_string_to_double``), and like the row parser it skips blank
    lines, so the columns are bitwise the row parser's.  Spellings only
    ``float()`` accepts (``1_000``, non-ASCII digits) fail here and come
    back through the row parser.
    """
    with path.open(newline="") as handle:
        schema, _ = _parse_header(handle, path)
        if any(attribute.kind is not AttributeKind.INTERVAL for attribute in schema):
            return None
        # An empty body loads empty (and ``np.loadtxt`` would warn on it).
        for first in handle:
            if first.strip("\r\n"):
                break
        else:
            return Relation(schema, {name: [] for name in schema.names})
        try:
            matrix = np.loadtxt(
                itertools.chain((first,), handle), delimiter=",", comments=None, ndmin=2
            )
        except ValueError:
            return None
    if matrix.shape[1] != len(schema):
        return None
    columns = np.ascontiguousarray(matrix.T)
    return Relation(schema, dict(zip(schema.names, columns)))


def _load_rows(path: Path, sink, out_of_core: bool, chunk_rows, spill_dir):
    """The row parser: every mode of :func:`load_csv`, one pass per file."""
    with path.open(newline="") as handle:
        schema, reader = _parse_header(handle, path)
        clean_rows = _iter_clean_rows(path, schema, reader, sink)
        if out_of_core:
            from repro.data.columnar.store import DEFAULT_CHUNK_ROWS, ColumnStoreWriter

            with span("columnar.spill", path=str(path)):
                with ColumnStoreWriter(
                    schema,
                    spill_dir,
                    chunk_rows=chunk_rows or DEFAULT_CHUNK_ROWS,
                ) as writer:
                    writer.append_rows(clean_rows)
                    return writer.finish()
        columns: dict = {name: [] for name in schema.names}
        for row in clean_rows:
            for name, value in zip(schema.names, row):
                columns[name].append(value)
    return Relation(schema, columns)


def _parse_header(handle, path: Path):
    """Parse the schema comment + column header; return ``(schema, reader)``.

    The reader is positioned at the first data row.  All file-level
    problems raise :class:`IngestError` naming the file.
    """
    first = handle.readline()
    if not first:
        raise IngestError(
            f"{path}: file is empty — expected a '# name:kind,...' "
            f"schema header as the first line"
        )
    if not first.startswith("#"):
        raise IngestError(f"{path}: missing '# name:kind,...' schema header")
    attributes = []
    for chunk in first[1:].strip().split(","):
        name, _, kind = chunk.partition(":")
        if not kind:
            raise IngestError(f"{path}: malformed schema entry {chunk!r}")
        try:
            parsed_kind = AttributeKind(kind.strip())
        except ValueError:
            raise IngestError(
                f"{path}: malformed schema entry {chunk!r}: unknown "
                f"attribute kind {kind.strip()!r}"
            ) from None
        attributes.append(Attribute(name.strip(), parsed_kind))
    schema = Schema(attributes)

    reader = csv.reader(handle)
    header = next(reader, None)
    if header is None:
        raise IngestError(
            f"{path}: file ends after the schema line — expected a "
            f"column header row naming {list(schema.names)}"
        )
    if tuple(header) != schema.names:
        raise IngestError(
            f"{path}: column header {header} does not match schema {schema.names}"
        )
    return schema, reader


def _iter_clean_rows(path: Path, schema: Schema, reader, sink):
    """Generate converted row tuples, one pass, diverting bad rows to ``sink``.

    Shared by the in-memory and out-of-core paths of :func:`load_csv`, so
    both see identical rows, identical errors, and identical quarantine
    records.  Row numbers reported to the sink are 0-based data-row
    indices; error messages use 1-based physical line numbers.
    """
    data_index = 0
    for line_number, row in enumerate(reader, start=3):
        if not row:
            continue  # blank line
        try:
            converted = _convert_row(path, schema, row, line_number, sink)
        except _RowRejected as rejection:
            sink.divert(data_index, rejection.reason, tuple(row))
        else:
            if sink is not None:
                sink.note_ok()
            yield converted
        data_index += 1


class _RowRejected(Exception):
    """Internal: a row failed conversion and a sink will absorb it."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _convert_row(path: Path, schema: Schema, row, line_number: int, sink):
    """One CSV row → typed tuple; raise precisely on anything wrong.

    Without a sink the error is an :class:`IngestError` naming
    ``path:line``; with one it is the internal ``_RowRejected`` carrying
    the same reason, which ``load_csv`` turns into a quarantine record.
    """
    def reject(reason: str):
        if sink is not None:
            return _RowRejected(reason)
        return IngestError(f"{path}:{line_number}: {reason}")

    if len(row) != len(schema):
        raise reject(
            f"row has {len(row)} cells, schema {tuple(schema.names)} "
            f"expects {len(schema)}"
        )
    converted = []
    for attribute, text in zip(schema, row):
        if attribute.kind.is_numeric:
            try:
                value = float(text)
            except ValueError:
                raise reject(
                    f"unparseable value {text!r} for "
                    f"{attribute.kind.value} attribute {attribute.name!r}"
                ) from None
            # Strict mode keeps NaN (cleaning may handle it downstream);
            # lenient mode quarantines it with the other bad rows.
            if sink is not None and not math.isfinite(value):
                raise reject(
                    f"non-finite value {text!r} for "
                    f"{attribute.kind.value} attribute {attribute.name!r}"
                )
            converted.append(value)
        else:
            converted.append(text)
    return tuple(converted)


def load_plain_csv(path: PathLike) -> Relation:
    """Read an ordinary CSV (header row, no schema comment), inferring kinds.

    A column whose every non-empty cell parses as a float becomes an
    ``interval`` attribute (blank cells load as NaN — clean them with
    :mod:`repro.data.cleaning` before mining); anything else is
    ``nominal``, with blanks kept as empty strings.  This is the
    permissive entry point for data not written by :func:`save_csv`; when
    ordinal semantics matter, construct the :class:`Schema` explicitly.
    Raises ``ValueError`` on an empty file or ragged rows.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header:
            raise ValueError(f"{path}: empty file, expected a header row")
        rows = []
        for line_number, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{line_number}: row has {len(row)} cells, "
                    f"header has {len(header)}"
                )
            rows.append(row)

    def is_numeric(column_index: int) -> bool:
        saw_value = False
        for row in rows:
            text = row[column_index].strip()
            if not text:
                continue
            saw_value = True
            try:
                float(text)
            except ValueError:
                return False
        return saw_value

    attributes = []
    numeric = []
    for index, name in enumerate(header):
        column_is_numeric = is_numeric(index)
        numeric.append(column_is_numeric)
        kind = AttributeKind.INTERVAL if column_is_numeric else AttributeKind.NOMINAL
        attributes.append(Attribute(name.strip(), kind))
    schema = Schema(attributes)

    def convert(index: int, cell: str):
        if not numeric[index]:
            return cell
        text = cell.strip()
        return float(text) if text else float("nan")

    converted = []
    for row in rows:
        converted.append(tuple(convert(index, cell) for index, cell in enumerate(row)))
    return Relation.from_rows(schema, converted)
