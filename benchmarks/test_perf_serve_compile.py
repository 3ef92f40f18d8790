"""Snapshot compile and a cache-miss query on the dense shape, token vs text.

The dense benchmark shape (8 co-occurring modes x 9 attributes, ~31k
rules) is mined once.  Its result is then compiled and queried twice:

* the frozen **reference** below renders every ``str(rule)`` at compile
  time and ranks a query's ids with a Python key over those strings, as
  snapshots did before ``description_rank``;
* the **optimised** path is :func:`~repro.serve.snapshot.compile_snapshot`
  plus :class:`~repro.serve.query.QueryEngine`, which rank label tokens
  and render no description.

Each row is the median of ``REPEATS`` timings.  The outputs must be
identical: the snapshot's columns, descriptions, cluster descriptors
and partition indexes, and the ranked ids of the unconstrained query,
which orders every rule.
Reported, not gated.
"""

import statistics
import time

import numpy as np

from repro.core.config import DARConfig
from repro.core.miner import DARMiner
from repro.data.synthetic import make_clustered_relation
from repro.report.export import cluster_to_dict
from repro.report.tables import Table
from repro.serve.query import QueryEngine, RuleQuery
from repro.serve.snapshot import compile_snapshot

from conftest import bench_scale

REPEATS = 5


def reference_compile(result):
    """Frozen: the snapshot columns with every description rendered, and
    the partition indexes."""
    rules = list(result.rules)
    distinct = {
        c.uid: c for r in rules for side in (r.antecedent, r.consequent) for c in side
    }
    columns = {
        "degree": np.asarray([r.degree for r in rules], dtype=np.float64),
        "support": np.asarray(
            [-1 if r.support_count is None else r.support_count for r in rules],
            dtype=np.int64,
        ),
        "ant_offsets": np.cumsum([0] + [len(r.antecedent) for r in rules]),
        "ant_uids": [c.uid for r in rules for c in r.antecedent],
        "con_offsets": np.cumsum([0] + [len(r.consequent) for r in rules]),
        "con_uids": [c.uid for r in rules for c in r.consequent],
        "con_degrees": [r.degrees.get(c.uid, r.degree) for r in rules for c in r.consequent],
        "descriptions": [str(r) for r in rules],
        "clusters": {uid: cluster_to_dict(c) for uid, c in distinct.items()},
    }
    for side in ("ant", "con"):
        columns[f"{side}_index"] = reference_index(
            columns["clusters"], columns[f"{side}_offsets"], columns[f"{side}_uids"]
        )
    return columns


def reference_index(clusters, offsets, refs):
    """Frozen: partition name -> ids of the rules that mention it."""
    uids = np.fromiter(clusters, dtype=np.int64, count=len(clusters))
    names, codes = np.unique(
        [str(entry["partition"]) for entry in clusters.values()], return_inverse=True
    )
    order = np.argsort(uids)
    known_uids, known_codes = uids[order], codes[order]
    rule_ids = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))
    ref_codes = known_codes[np.searchsorted(known_uids, refs)]
    return {
        str(names[code]): np.unique(rule_ids[ref_codes == code])
        for code in np.unique(ref_codes)
    }


def reference_query(columns):
    """Frozen: the unconstrained query, ranked by a key over the strings."""
    degree, support = columns["degree"], columns["support"]
    descriptions = columns["descriptions"]
    ids = [int(i) for i in np.nonzero(np.ones(len(degree), dtype=bool))[0]]
    ids.sort(key=lambda i: (float(degree[i]), -max(int(support[i]), 0), descriptions[i]))
    return ids


def median_seconds(run):
    times, value = [], None
    for _ in range(REPEATS):
        started = time.perf_counter()
        value = run()
        times.append(time.perf_counter() - started)
    return statistics.median(times), value


def run_comparison():
    relation, _ = make_clustered_relation(
        n_modes=8, points_per_mode=int(round(150 * bench_scale())), n_attributes=9,
        spread=1.0, outlier_fraction=0.0, seed=1,
    )
    result = DARMiner(DARConfig()).mine(relation)
    run = {"rules": len(result.rules)}
    run["compile:reference"], columns = median_seconds(lambda: reference_compile(result))
    run["compile:optimised"], snapshot = median_seconds(lambda: compile_snapshot(result))
    run["query:reference"], run["ids:reference"] = median_seconds(
        lambda: reference_query(columns)
    )
    run["query:optimised"], run["ids:optimised"] = median_seconds(
        lambda: list(QueryEngine(snapshot, cache_size=0).query(RuleQuery()).ids)
    )
    run["columns"], run["snapshot"] = columns, snapshot
    return run


def test_perf_serve_compile(benchmark, emit):
    run = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    table = Table(
        f"Snapshot compile and an unconstrained cache-miss query, dense shape "
        f"({run['rules']} rules): str-ranked reference vs label tokens "
        f"(median of {REPEATS})",
        ["stage", "reference s", "optimised s", "speedup"],
    )
    for stage, label in (("compile", "compile"), ("query", "miss query")):
        reference, optimised = run[f"{stage}:reference"], run[f"{stage}:optimised"]
        table.add_row(label, reference, optimised, reference / optimised)
    emit(table, "perf_serve_compile.txt")

    columns, snapshot = run["columns"], run["snapshot"]
    state = snapshot.state_dict()["rules"]
    assert state["descriptions"] == columns["descriptions"]
    assert [float(v).hex() for v in state["degree"]] == [
        float(v).hex() for v in columns["degree"]
    ]
    assert state["support"] == columns["support"].tolist()
    for name in ("ant_offsets", "ant_uids", "con_offsets", "con_uids"):
        assert state[name] == [int(v) for v in columns[name]]
    assert [float(v).hex() for v in state["con_degrees"]] == [
        float(v).hex() for v in columns["con_degrees"]
    ]
    assert snapshot.clusters == columns["clusters"]
    for built, reference in (
        (snapshot.antecedent_index, columns["ant_index"]),
        (snapshot.consequent_index, columns["con_index"]),
    ):
        assert {k: v.tolist() for k, v in built.items()} == {
            k: v.tolist() for k, v in reference.items()
        }
    assert run["ids:optimised"] == run["ids:reference"]
