"""Correctness checks on what the program returned; every problem is a failure.

The benchmark counts a pass or a request as failed when its output is
wrong, not only when it raises: a mine whose rule digest differs from
the run's first pass, a dense mine that lost a planted mode, or an HTTP
answer that breaks its own query's constraints or disagrees with the
``apply_query`` reference.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.serve.query import RuleQuery


def rule_digest(rules: Iterable) -> str:
    """A short hash of the sorted rule descriptions (order-independent)."""
    lines = sorted(str(rule) for rule in rules)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def planted_problems(result, planted, names: Sequence[str]) -> List[str]:
    """Planted mode centres the frequent clusters failed to recover.

    ``names`` are the attribute names, in the column order of
    ``planted.centers``.  A centre counts as recovered when some frequent
    cluster of that attribute has its centroid within the planted spread
    of it, so two modes merged into one cluster fail.
    """
    problems = []
    for j, name in enumerate(names):
        clusters = result.frequent_clusters.get(name, [])
        for centre in planted.centers[:, j]:
            if not any(
                abs(float(c.centroid[0]) - centre) <= planted.spread
                for c in clusters
            ):
                problems.append(f"{name}: planted centre {centre:.3f} not recovered")
    return problems


def uid_partitions(result) -> Dict[int, str]:
    """Cluster uid → partition name, for checking consequents against targets."""
    return {
        cluster.uid: name
        for name, clusters in result.all_clusters.items()
        for cluster in clusters
    }


def response_problems(
    status: int,
    body: bytes,
    query: RuleQuery,
    versions: Sequence[int],
    partitions: Mapping[int, str],
    expected: Optional[List[str]] = None,
) -> List[str]:
    """Everything wrong with one ``/rules`` answer to ``query``.

    Checks the status, the count against ``top_k``, the degree bound,
    consequents inside ``targets``, the canonical strongest-first order,
    and that ``snapshot_version`` is one that was published.  With
    ``expected`` (the reference descriptions from ``apply_query``) the
    answer must match it exactly, in order.
    """
    if status != 200:
        return [f"HTTP {status}"]
    try:
        payload = json.loads(body)
        rules = payload["rules"]
        version = payload["snapshot_version"]
    except (ValueError, KeyError, TypeError) as error:
        return [f"unreadable answer: {error}"]
    problems = []
    if version not in versions:
        problems.append(f"snapshot_version {version} was never published")
    if payload.get("count") != len(rules):
        problems.append("count disagrees with the rules returned")
    if query.top_k is not None and len(rules) > query.top_k:
        problems.append(f"{len(rules)} rules > top_k {query.top_k}")
    keys = []
    for rule in rules:
        if query.min_degree is not None and rule["degree"] < query.min_degree:
            problems.append(f"rule {rule['id']} degree below min_degree")
        if query.targets is not None:
            outside = {partitions.get(uid) for uid in rule["consequent"]} - set(
                query.targets
            )
            if outside:
                problems.append(f"rule {rule['id']} concludes outside targets")
        support = rule["support_count"] or 0
        keys.append((rule["degree"], -support, rule["description"]))
    if keys != sorted(keys):
        problems.append("rules not in canonical rank order")
    if expected is not None and [r["description"] for r in rules] != expected:
        problems.append("answer differs from the apply_query reference")
    return problems
