"""Distance-based association rules (Dfn 5.1, 5.2, 5.3).

A DAR ``C_X1 ... C_Xx => C_Y1 ... C_Yy`` asserts that tuples whose ``X_i``
values fall in the antecedent clusters have ``Y_j`` values *close to* the
consequent clusters.  Its interest measures replace the classical pair:

* the *degree of association* — the worst-case image distance
  ``D(C_Yj[Yj], C_Xi[Yj])`` — replaces confidence (smaller is stronger);
* the density conditions between co-antecedent (and co-consequent)
  clusters replace support on the combined itemset; the frequency
  threshold survives only on the individual clusters (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.cluster import Cluster

__all__ = [
    "DistanceRule",
    "RuleList",
    "describe_rule",
    "description_rank",
    "text_rank",
    "validate_rule_partitions",
]

#: Order codes of the text that follows a label in a rule description:
#: `` & `` < `` (degree`` < `` => `` (``&`` < ``(`` < ``=``).  Label
#: tokens are label ranks offset past these codes.
_AND, _DEGREE, _IMPLIES, _LABEL = 0, 1, 2, 3


def validate_rule_partitions(
    antecedent: Tuple[Cluster, ...], consequent: Tuple[Cluster, ...]
) -> None:
    """Dfn 5.3 requires all X_i and Y_j to be pairwise disjoint attribute sets.

    With named partitions, disjointness is simply name uniqueness across
    both sides.  Raises ``ValueError`` on violation or on an empty side.
    """
    if not antecedent or not consequent:
        raise ValueError("both rule sides must be non-empty")
    names = [cluster.partition.name for cluster in antecedent + consequent]
    if len(set(names)) != len(names):
        raise ValueError(f"rule partitions are not pairwise disjoint: {names}")


@dataclass(frozen=True)
class DistanceRule:
    """A DAR with its measured degree of association.

    ``degree`` is the maximum image distance over all (antecedent,
    consequent) cluster pairs — the rule "holds with degree D0" for any
    ``D0 >= degree``.  ``degrees`` records the per-consequent detail and
    ``support_count`` is filled only when the optional post-scan of
    Section 6.2 is enabled.
    """

    antecedent: Tuple[Cluster, ...]
    consequent: Tuple[Cluster, ...]
    degree: float
    degrees: Dict[int, float] = field(default_factory=dict, compare=False, hash=False)
    support_count: Optional[int] = field(default=None, compare=False, hash=False)

    def __post_init__(self) -> None:
        validate_rule_partitions(self.antecedent, self.consequent)
        if self.degree < 0:
            raise ValueError("degree of association cannot be negative")

    @property
    def arity(self) -> Tuple[int, int]:
        """(x, y) — antecedent and consequent cluster counts."""
        return len(self.antecedent), len(self.consequent)

    @property
    def is_one_to_one(self) -> bool:
        """Whether the rule has exactly one cluster on each side."""
        return self.arity == (1, 1)

    @property
    def antecedent_uids(self) -> frozenset:
        """Uids of the antecedent clusters."""
        return frozenset(cluster.uid for cluster in self.antecedent)

    @property
    def consequent_uids(self) -> frozenset:
        """Uids of the consequent clusters."""
        return frozenset(cluster.uid for cluster in self.consequent)

    def key(self) -> Tuple[frozenset, frozenset]:
        """Identity for deduplication across clique pairs."""
        return self.antecedent_uids, self.consequent_uids

    def __str__(self) -> str:
        return describe_rule(
            [str(cluster) for cluster in self.antecedent],
            [str(cluster) for cluster in self.consequent],
            self.degree,
            self.support_count,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistanceRule):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


def describe_rule(
    antecedent: Sequence[str],
    consequent: Sequence[str],
    degree: float,
    support_count: Optional[int] = None,
) -> str:
    """A rule's description from its clusters' labels: ``str(rule)``."""
    suffix = f" (degree={degree:.4g}"
    if support_count is not None:
        suffix += f", support={support_count}"
    return f"{' & '.join(antecedent)} => {' & '.join(consequent)}{suffix})"


def text_rank(texts: Sequence[str]) -> np.ndarray:
    """Dense rank of each string in ``texts`` (equal strings, equal rank)."""
    order = sorted(range(len(texts)), key=texts.__getitem__)
    rank = np.empty(len(texts), dtype=np.int64)
    current, previous = -1, None
    for i in order:
        if current < 0 or texts[i] != previous:
            current, previous = current + 1, texts[i]
        rank[i] = current
    return rank


def description_rank(
    labels: Sequence[str],
    ant_offsets: np.ndarray,
    ant_codes: np.ndarray,
    con_offsets: np.ndarray,
    con_codes: np.ndarray,
    describe: Callable[[int], str],
) -> np.ndarray:
    """Dense rank of each rule's description, rendering none of them.

    Rules are CSR-encoded: rule ``i`` concludes ``labels[con_codes[j]]``
    for ``j`` in ``con_offsets[i]:con_offsets[i + 1]`` from the
    antecedent labels picked out the same way.  ``describe(i)`` must
    return ``str`` of rule ``i``; it is called only to break ties.

    A description ``L_a1 & … => L_c1 & … (degree=…)`` compares label by
    label when no label is a prefix of another (``C1(`` and ``C12(``
    differ before either ends), and where labels match the separators
    decide: `` & `` < `` (degree`` < `` => ``.  So the token row
    ``(rank(L_a1)+3, 0, …, 2, rank(L_c1)+3, 0, …, 1)`` orders rules as
    their text does.  Rows with equal tokens (the same labels) are
    ordered by their rendered text.  Prefixed labels or an empty side
    fall back to ranking every rendered description.
    """
    n = len(ant_offsets) - 1
    ant_len, con_len = np.diff(ant_offsets), np.diff(con_offsets)
    ordered = sorted(range(len(labels)), key=labels.__getitem__)
    prefixed = any(
        labels[b].startswith(labels[a]) for a, b in zip(ordered, ordered[1:])
    )
    if prefixed or not (ant_len.all() and con_len.all()):
        return text_rank([describe(i) for i in range(n)])
    if n == 0:
        return np.zeros(0, dtype=np.int64)

    label_rank = np.empty(len(labels), dtype=np.int64)
    label_rank[ordered] = np.arange(len(labels)) + _LABEL
    tokens = np.zeros((n, 2 * int((ant_len + con_len).max())), dtype=np.int64)
    for offsets, codes, lengths, skip, last in (
        (ant_offsets, ant_codes, ant_len, np.zeros_like(ant_len), _IMPLIES),
        (con_offsets, con_codes, con_len, ant_len, _DEGREE),
    ):
        rows = np.repeat(np.arange(n), lengths)
        slot = np.arange(len(codes)) - np.repeat(offsets[:-1], lengths)
        column = 2 * (skip[rows] + slot)
        tokens[rows, column] = label_rank[codes]
        tokens[rows, column + 1] = np.where(slot == lengths[rows] - 1, last, _AND)

    order = np.lexsort(tokens.T[::-1])
    ranked = tokens[order]
    new = np.ones(n, dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], n)
    tied = ends - starts > 1
    for lo, hi in zip(starts[tied].tolist(), ends[tied].tolist()):
        texts = {i: describe(i) for i in order[lo:hi].tolist()}
        group = sorted(texts, key=texts.__getitem__)
        order[lo:hi] = group
        new[lo + 1:hi] = [texts[a] != texts[b] for a, b in zip(group, group[1:])]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank


class RuleList(list):
    """A rule list that is also the unified query surface.

    ``DARResult.rules`` is one of these: it behaves exactly like the
    plain list it always was (iteration, indexing, ``len``), and calling
    it filters through :func:`repro.serve.query.apply_query` — the same
    semantics the snapshot query engine and the HTTP endpoint use::

        result.rules(RuleQuery(targets=("claims",), top_k=5))
        result.rules(targets="claims", top_k=5)       # keyword form

    The deprecated ad-hoc keywords (``target=``, ``partition_names=``)
    keep working through the warn-once shim in
    :meth:`~repro.serve.query.RuleQuery.coerce`.
    """

    def __call__(self, query=None, **kwargs) -> "RuleList":
        """Filter and rank per a :class:`~repro.serve.query.RuleQuery`."""
        from repro.serve.query import apply_query

        return RuleList(apply_query(self, query, **kwargs))
