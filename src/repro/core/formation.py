"""Section 6.2 rule formation, the one implementation every engine calls.

A consequent sub-clique ``C_Y`` concludes every pairwise-adjacent,
partition-distinct subset of its candidates ``∩ assoc(C_Yj)``.  All of
that depends on ``C_Y`` alone, never on the clique it was drawn from, so
each distinct consequent is formed once, the first time the clique walk
reaches it.  Every distance is a lookup in one table
``A[x, y] = D(C_x[Y], C_y[Y])`` (``Y`` the partition of ``C_y``).
The final ``(degree, str(rule))`` order comes from label-rank tokens of
those same table rows (:func:`~repro.core.rules.description_rank`), so
no rule is rendered to be sorted.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.cluster import Cluster, image_distance
from repro.core.config import DARConfig
from repro.core.graph import ClusteringGraph
from repro.core.phase2_kernel import Phase2Kernel, assoc_mask, require_finite
from repro.core.rules import DistanceRule, description_rank

__all__ = ["form_rules"]


def form_rules(
    graph: ClusteringGraph,
    cliques: Sequence[FrozenSet[int]],
    degree_thresholds: Mapping[str, float],
    config: DARConfig,
    targets: Optional[FrozenSet[str]] = None,
    kernel: Optional[Phase2Kernel] = None,
) -> List[DistanceRule]:
    """Every Dfn 5.3-valid rule of ``cliques`` within ``config``'s arity bounds.

    Consequents are sub-cliques of at most ``config.max_consequent``
    clusters, all on ``targets`` partitions when given.  A consequent's
    candidates are ranked by worst image distance to it (ties by uid)
    and cut to ``config.max_antecedent_candidates``; antecedents are
    their pairwise-adjacent, partition-distinct subsets of at most
    ``config.max_antecedent`` clusters.  Rules are sorted by degree, then
    description.

    ``kernel``, when given, must cover exactly ``graph``'s clusters; its
    cached matrices supply the distances.  Otherwise each one is an
    ``image_distance`` call under ``config.metric``, and a non-finite one
    raises ``ValueError`` naming its partition, as the kernel does.
    """
    order = sorted(graph.clusters.values(), key=lambda cluster: cluster.uid)
    uids = [cluster.uid for cluster in order]
    index = {uid: i for i, uid in enumerate(uids)}
    names = sorted({cluster.partition.name for cluster in order})
    part = np.array([names.index(c.partition.name) for c in order], dtype=np.int64)
    if kernel is None:
        table = _scalar_distance_table(order, part, names, targets, config.metric)
    elif kernel.uids.tolist() != uids:
        raise ValueError("the kernel and the clustering graph cover different clusters")
    else:
        table = kernel.distance_table(targets)
    assoc = assoc_mask(table, part, names, degree_thresholds, targets)
    # Co-antecedents must share an edge and lie on distinct partitions.
    compatible = np.zeros((len(order), len(order)), dtype=bool)
    for uid, neighbours in graph.adjacency.items():
        compatible[index[uid], [index[other] for other in neighbours]] = True
    compatible &= part[:, None] != part[None, :]

    seen = set()
    rules: List[DistanceRule] = []
    batches: List[tuple] = []
    for clique in cliques:
        members = sorted(
            uid for uid in clique
            if targets is None or graph.clusters[uid].partition.name in targets
        )
        for size in range(1, min(config.max_consequent, len(members)) + 1):
            for consequent in itertools.combinations(members, size):
                if consequent not in seen:
                    seen.add(consequent)
                    _consequent_rules(
                        consequent, [index[uid] for uid in consequent], order,
                        table, assoc, compatible, config, rules, batches,
                    )
    return _sorted_rules(rules, batches, order)


def _sorted_rules(rules, batches, order) -> List[DistanceRule]:
    """``rules`` sorted by ``(degree, str(rule))``, rendering none of them.

    ``batches`` holds, per appended run of rules, their antecedent table
    rows (one row per rule), the consequent's table rows and the degrees.
    """
    if not rules:
        return rules
    sizes = [(len(ant), ant.shape[1], len(ys)) for ant, ys, _ in batches]
    rank = description_rank(
        [str(cluster) for cluster in order],
        _offsets([np.full(m, s) for m, s, _ in sizes]),
        np.concatenate([ant.ravel() for ant, _, _ in batches]),
        _offsets([np.full(m, c) for m, _, c in sizes]),
        np.concatenate([np.tile(ys, len(ant)) for ant, ys, _ in batches]),
        lambda i: str(rules[i]),
    )
    degree = np.concatenate([degrees for _, _, degrees in batches])
    return [rules[i] for i in np.lexsort((rank, degree)).tolist()]


def _offsets(lengths: List[np.ndarray]) -> np.ndarray:
    """CSR offsets of the concatenated per-rule ``lengths``."""
    return np.concatenate([[0], np.cumsum(np.concatenate(lengths))])


def _scalar_distance_table(order, part, names, targets, metric) -> np.ndarray:
    """The cross-partition entries of the target columns of ``A``, one
    ``image_distance`` call each."""
    table = np.zeros((len(order), len(order)), dtype=np.float64)
    for p, name in enumerate(names):
        if targets is not None and name not in targets:
            continue
        columns = np.flatnonzero(part == p)
        rows = np.flatnonzero(part != p).tolist()
        for y in columns.tolist():
            table[rows, y] = [
                image_distance(order[x], order[y], on=name, metric=metric) for x in rows
            ]
        require_finite(table[:, columns], "image distances", name)
    return table


def _consequent_rules(
    consequent: tuple,
    ys: List[int],
    order: Sequence[Cluster],
    table: np.ndarray,
    assoc: np.ndarray,
    compatible: np.ndarray,
    config: DARConfig,
    rules: List[DistanceRule],
    batches: List[tuple],
) -> None:
    """Append the rules concluding ``consequent`` (uids; table rows ``ys``),
    and their order-key rows to ``batches``."""
    # assoc(C_y) excludes y's own partition, so the intersection already
    # excludes every consequent partition.
    candidates = np.flatnonzero(assoc[:, ys].all(axis=1))
    if candidates.size == 0:
        return
    strength = table[np.ix_(candidates, ys)].max(axis=1)
    ranked = candidates[np.lexsort((candidates, strength))[: config.max_antecedent_candidates]]
    distances = table[np.ix_(ranked, ys)]
    adjacent = compatible[np.ix_(ranked, ranked)]
    later = np.triu(np.ones(adjacent.shape, dtype=bool), 1)
    clusters = np.empty(ranked.size, dtype=object)
    clusters[:] = [order[i] for i in ranked.tolist()]
    right = tuple(order[y] for y in ys)

    # Antecedents of size s + 1 extend those of size s by a later-ranked
    # candidate adjacent to all of them; row-major nonzero keeps each size
    # in itertools.combinations order over the ranking.
    subsets = np.arange(ranked.size)[:, None]
    while True:
        per_consequent = distances[subsets].max(axis=1)
        degrees = per_consequent.max(axis=1)
        rules.extend(map(
            DistanceRule,
            map(tuple, clusters[subsets].tolist()),
            itertools.repeat(right),
            degrees.tolist(),
            [dict(zip(consequent, row)) for row in per_consequent.tolist()],
        ))
        batches.append((ranked[subsets], ys, degrees))
        if subsets.shape[1] == config.max_antecedent:
            return
        grow = later[subsets[:, -1]]
        for column in subsets.T:
            grow &= adjacent[column]
        rows, extra = np.nonzero(grow)
        if rows.size == 0:
            return
        subsets = np.column_stack((subsets[rows], extra))
