"""Scalar vs vectorized Phase II graph build on the Figure 6 workload.

Phase I (batch path, PR 1) leaves one ACF-tree per partition; its leaf
entries — wrapped as :class:`~repro.core.cluster.Cluster` — are exactly
the population Phase II runs over.  This benchmark times the Dfn 6.1
clustering-graph construction twice over that population: the per-pair
scalar loop and the blocked numpy kernel (``engine="vector"``, extraction
included), checks decision-equivalence (identical edge sets, identical
``GraphStats`` accounting) and gates a ``MIN_SPEEDUP`` throughput ratio,
mirroring the Phase I batch-ingestion gate.  The ``assoc``-set stage of
rule formation is measured the same way (reported, not gated).

The ``rules`` row times §6.2 rule formation on the dense benchmark shape
(8 co-occurring modes x 9 attributes, ~31k rules): the frozen per-rule
reference loop (``tests/core/rule_reference.py``) against
:func:`~repro.core.formation.form_rules`, both reading the same vector
kernel, and asserts the two rule lists are identical (reported, not
gated).  Its baseline column is that reference, not the scalar engine.
"""

import itertools
import time

from repro.birch.features import CF
from repro.birch.tree import ACFTree
from repro.core.cluster import Cluster, image_distance
from repro.core.config import DARConfig
from repro.core.formation import form_rules
from repro.core.graph import build_clustering_graph
from repro.core.miner import DARMiner
from repro.core.phase2_kernel import Phase2Kernel
from repro.data.relation import AttributePartition
from repro.data.synthetic import make_clustered_relation
from repro.data.wbcd import make_scaled_wbcd, make_wbcd_like
from repro.report.tables import Table
from tests.core.rule_reference import reference_rules

from conftest import bench_scale

N_ATTRIBUTES = 4
# Tighter than the miner's 0.15 default: finer summaries mean more
# frequent clusters, the regime where Phase II dominates (the point of
# the vectorized kernel).
DENSITY_FRACTION = 0.05
PHASE2_LENIENCY = 2.0
DEGREE_FACTOR = 2.0
MIN_SPEEDUP = 3.0


def build_population():
    """Phase I over the fig6 workload → flat frequent-cluster population."""
    size = int(round(20_000 * bench_scale()))
    base = make_wbcd_like(seed=42)
    names = list(base.schema.names[:N_ATTRIBUTES])
    relation = make_scaled_wbcd(size, outlier_fraction=0.05, seed=42, base=base)
    matrices = {name: relation.matrix((name,)) for name in names}

    thresholds = {}
    clusters = []
    uid = itertools.count()
    for name in names:
        column = matrices[name]
        d0 = DENSITY_FRACTION * CF.of_points(column).rms_diameter
        thresholds[name] = PHASE2_LENIENCY * d0
        tree = ACFTree(
            dimension=column.shape[1],
            threshold=d0,
            branching=8,
            leaf_capacity=8,
            cross_dimensions={
                other: matrices[other].shape[1] for other in names if other != name
            },
        )
        tree.insert_points(
            column, {other: matrices[other] for other in names if other != name}
        )
        partition = AttributePartition(name, (name,))
        for acf in tree.entries():
            clusters.append(Cluster(uid=next(uid), partition=partition, acf=acf))
    return names, clusters, thresholds


def scalar_assoc(clusters, degree_thresholds):
    assoc = {}
    for y in clusters:
        y_name = y.partition.name
        threshold = degree_thresholds[y_name]
        assoc[y.uid] = {
            x.uid
            for x in clusters
            if x.partition.name != y_name
            and image_distance(x, y, on=y_name, metric="d2") <= threshold
        }
    return assoc


def dense_phase2():
    """The dense benchmark shape mined once: its graph, cliques and thresholds."""
    relation, _ = make_clustered_relation(
        n_modes=8, points_per_mode=int(round(150 * bench_scale())), n_attributes=9,
        spread=1.0, outlier_fraction=0.0, seed=1,
    )
    return DARMiner(DARConfig()).mine(relation)


def time_rule_formation(run):
    dense = dense_phase2()
    graph, config = dense.graph, DARConfig()
    kernel = Phase2Kernel(list(graph.clusters.values()), metric=config.metric)
    args = (graph, dense.cliques, dense.degree_thresholds, config)
    for label, form in (("reference", reference_rules), ("formed", form_rules)):
        started = time.perf_counter()
        run[f"rules:{label}"] = form(*args, kernel=kernel)
        run[f"rules:{label}_seconds"] = time.perf_counter() - started


def run_comparison():
    names, clusters, thresholds = build_population()
    degree = {name: DEGREE_FACTOR * value for name, value in thresholds.items()}
    run = {"names": names, "clusters": clusters}

    # Gated configuration: density pruning off, so both engines evaluate
    # every cross-partition pair and the comparison measures the distance
    # kernel itself.  With pruning on, the §6.2 diameter check discards
    # most pairs before any distance is computed, so that row (reported
    # below) measures the mask machinery instead.
    for label, pruning in (("graph", False), ("graph+prune", True)):
        started = time.perf_counter()
        run[f"{label}:scalar"] = build_clustering_graph(
            clusters, thresholds, use_density_pruning=pruning, engine="scalar"
        )
        run[f"{label}:scalar_seconds"] = time.perf_counter() - started

        started = time.perf_counter()
        kernel = Phase2Kernel(clusters, metric="d2")
        run[f"{label}:vector"] = kernel.build_graph(
            thresholds, use_density_pruning=pruning
        )
        run[f"{label}:vector_seconds"] = time.perf_counter() - started

    started = time.perf_counter()
    run["assoc:scalar"] = scalar_assoc(clusters, degree)
    run["assoc:scalar_seconds"] = time.perf_counter() - started

    started = time.perf_counter()
    run["assoc:vector"] = kernel.assoc_sets(degree)
    run["assoc:vector_seconds"] = time.perf_counter() - started

    time_rule_formation(run)
    return run


def edge_set(graph):
    return {
        frozenset((a, b))
        for a, neighbors in graph.adjacency.items()
        for b in neighbors
    }


def test_perf_phase2_graph(benchmark, emit):
    run = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    k = len(run["clusters"])

    table = Table(
        "Phase II baseline vs optimised: graph/assoc scalar vs vector "
        f"(fig6 workload, {N_ATTRIBUTES} partitions, {k} clusters); "
        "rules per-rule reference vs form_rules (dense shape)",
        ["stage", "baseline s", "optimised s", "speedup", "edges", "comparisons",
         "pruned"],
    )
    for label in ("graph", "graph+prune"):
        graph = run[f"{label}:vector"]
        table.add_row(
            label,
            run[f"{label}:scalar_seconds"],
            run[f"{label}:vector_seconds"],
            run[f"{label}:scalar_seconds"] / run[f"{label}:vector_seconds"],
            graph.n_edges,
            graph.stats.comparisons,
            graph.stats.skipped,
        )
    table.add_row(
        "assoc",
        run["assoc:scalar_seconds"],
        run["assoc:vector_seconds"],
        run["assoc:scalar_seconds"] / run["assoc:vector_seconds"],
        "", "", "",
    )
    table.add_row(
        f"rules ({len(run['rules:formed'])}, dense)",
        run["rules:reference_seconds"],
        run["rules:formed_seconds"],
        run["rules:reference_seconds"] / run["rules:formed_seconds"],
        "", "", "",
    )
    emit(table, "perf_phase2_graph.txt")

    # Decision-equivalence: identical edges and identical accounting.
    for label in ("graph", "graph+prune"):
        scalar_graph = run[f"{label}:scalar"]
        vector_graph = run[f"{label}:vector"]
        assert edge_set(scalar_graph) == edge_set(vector_graph)
        assert scalar_graph.n_edges == vector_graph.n_edges
        assert scalar_graph.stats.comparisons == vector_graph.stats.comparisons
        assert scalar_graph.stats.skipped == vector_graph.stats.skipped
        assert scalar_graph.stats.edges == vector_graph.stats.edges
    assert run["assoc:scalar"] == run["assoc:vector"]
    formed, reference = run["rules:formed"], run["rules:reference"]
    assert [str(r) for r in formed] == [str(r) for r in reference]
    assert [(r.degree.hex(), r.degrees) for r in formed] == [
        (r.degree.hex(), r.degrees) for r in reference
    ]

    speedup = run["graph:scalar_seconds"] / run["graph:vector_seconds"]
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized graph build only {speedup:.2f}x faster than scalar "
        f"(required {MIN_SPEEDUP}x)"
    )
