"""Frozen per-rule reference for Section 6.2 rule formation.

A verbatim copy of the rule-formation loop the miners used before
:func:`repro.core.formation.form_rules`: every (clique, consequent) pair
is visited, every candidate ranking and every rule degree calls the
distance function once per cluster pair, and a ``seen`` set of
``(frozenset, frozenset)`` keys drops repeats.  The conformance tests and
the Phase II benchmark hold ``form_rules`` to this list: same order, same
descriptions, bitwise-equal degrees.  Do not optimise it.
"""

import itertools

import numpy as np

from repro.core.cluster import image_distance
from repro.core.rules import DistanceRule


def reference_rules(graph, cliques, degree_thresholds, config, targets=None, kernel=None):
    """The rules of ``cliques``, formed one rule at a time."""
    metric = config.metric
    clusters = graph.clusters
    if kernel is not None:
        def dist(a, b, on):
            return float(kernel.pairwise_on(on)[kernel.index[a.uid], kernel.index[b.uid]])
    else:
        def dist(a, b, on):
            return image_distance(a, b, on=on, metric=metric)

    if kernel is not None:
        assoc = _kernel_assoc_sets(kernel, degree_thresholds, targets)
    else:
        assoc = {}
        for y_uid, y_cluster in clusters.items():
            y_name = y_cluster.partition.name
            if targets is not None and y_name not in targets:
                continue
            threshold = degree_thresholds[y_name]
            members = set()
            for x_uid, x_cluster in clusters.items():
                if x_cluster.partition.name == y_name:
                    continue
                if dist(x_cluster, y_cluster, y_name) <= threshold:
                    members.add(x_uid)
            assoc[y_uid] = members

    seen = set()
    rules = []
    for clique in cliques:
        ordered = sorted(clique)
        max_y = min(config.max_consequent, len(ordered))
        for y_size in range(1, max_y + 1):
            for consequent_uids in itertools.combinations(ordered, y_size):
                consequent = tuple(clusters[u] for u in consequent_uids)
                consequent_names = {c.partition.name for c in consequent}
                if targets is not None and not consequent_names <= targets:
                    continue
                candidates = set.intersection(*(assoc[u] for u in consequent_uids))
                candidates -= set(consequent_uids)
                candidates = {
                    u
                    for u in candidates
                    if clusters[u].partition.name not in consequent_names
                }
                if not candidates:
                    continue
                ranked = _rank_candidates(config, candidates, consequent, clusters, dist)
                for antecedent_uids in _antecedent_subsets(config, ranked, graph):
                    antecedent = tuple(clusters[u] for u in antecedent_uids)
                    antecedent_names = [c.partition.name for c in antecedent]
                    if len(set(antecedent_names)) != len(antecedent_names):
                        continue
                    key = (frozenset(antecedent_uids), frozenset(consequent_uids))
                    if key in seen:
                        continue
                    seen.add(key)
                    rules.append(_make_rule(antecedent, consequent, dist))
    rules.sort(key=lambda rule: (rule.degree, str(rule)))
    return rules


def _kernel_assoc_sets(kernel, degree_thresholds, targets):
    assoc = {}
    uids = kernel.uids
    for p, name in enumerate(kernel.partition_names):
        if targets is not None and name not in targets:
            continue
        rows = np.nonzero(kernel.partition_of == p)[0]
        if rows.size == 0:
            continue
        threshold = float(degree_thresholds[name])
        others = kernel.partition_of != p
        distances = kernel.pairwise_on(name)
        for row in rows:
            members = others & (distances[row] <= threshold)
            assoc[int(uids[row])] = {int(u) for u in uids[members]}
    return assoc


def _rank_candidates(config, candidates, consequent, clusters, dist):
    def strength(uid):
        x_cluster = clusters[uid]
        return max(
            dist(x_cluster, y_cluster, y_cluster.partition.name)
            for y_cluster in consequent
        )

    ranked = sorted(candidates, key=lambda uid: (strength(uid), uid))
    return ranked[: config.max_antecedent_candidates]


def _antecedent_subsets(config, candidates, graph):
    max_size = min(config.max_antecedent, len(candidates))
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(candidates, size):
            if size == 1 or all(
                graph.has_edge(a, b) for a, b in itertools.combinations(subset, 2)
            ):
                yield subset


def _make_rule(antecedent, consequent, dist):
    degrees = {}
    worst = 0.0
    for y_cluster in consequent:
        y_name = y_cluster.partition.name
        y_worst = 0.0
        for x_cluster in antecedent:
            distance = dist(x_cluster, y_cluster, y_name)
            y_worst = max(y_worst, distance)
        degrees[y_cluster.uid] = y_worst
        worst = max(worst, y_worst)
    return DistanceRule(
        antecedent=antecedent, consequent=consequent, degree=worst, degrees=degrees
    )
