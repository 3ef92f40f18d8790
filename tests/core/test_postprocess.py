"""Tests for rule post-processing: filtering, pruning, selection."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.birch.features import ACF
from repro.core.cluster import Cluster
from repro.core.postprocess import (
    filter_by_antecedent,
    filter_by_consequent,
    prune_redundant,
    select_rules,
)
from repro.core.rules import DistanceRule
from repro.data.relation import AttributePartition
from tests.core.test_rule_order import rule_sets


def cluster(uid, name):
    acf = ACF.of_points(np.array([[float(uid)]]), {})
    return Cluster(uid=uid, partition=AttributePartition(name, (name,)), acf=acf)


A1 = cluster(1, "age")
A2 = cluster(2, "deps")
C1 = cluster(3, "claims")
C2 = cluster(4, "income")


def rule(antecedent, consequent, degree, support=None):
    return DistanceRule(
        antecedent=tuple(antecedent),
        consequent=tuple(consequent),
        degree=degree,
        support_count=support,
    )


class TestFilters:
    def test_filter_by_consequent(self):
        rules = [
            rule([A1], [C1], 0.1),
            rule([A1], [C2], 0.2),
            rule([A2], [C1, C2], 0.3),
        ]
        kept = filter_by_consequent(rules, ["claims"])
        assert len(kept) == 1
        assert kept[0].consequent == (C1,)

    def test_filter_by_consequent_multiple_targets(self):
        rules = [rule([A1], [C1, C2], 0.3)]
        assert filter_by_consequent(rules, ["claims", "income"]) == rules

    def test_filter_requires_targets(self):
        with pytest.raises(ValueError):
            filter_by_consequent([], [])

    def test_filter_by_antecedent(self):
        rules = [rule([A1], [C1], 0.1), rule([A1, A2], [C1], 0.2)]
        kept = filter_by_antecedent(rules, ["age"])
        assert kept == [rules[0]]


class TestPruneRedundant:
    def test_longer_weaker_rule_dropped(self):
        short = rule([A1], [C1], 0.1)
        long = rule([A1, A2], [C1], 0.2)  # superset antecedent, worse degree
        assert prune_redundant([long, short]) == [short]

    def test_longer_stronger_rule_kept(self):
        short = rule([A1], [C1], 0.3)
        long = rule([A1, A2], [C1], 0.1)  # superset but strictly stronger
        kept = prune_redundant([short, long])
        assert set(kept) == {short, long}

    def test_different_consequents_independent(self):
        a = rule([A1], [C1], 0.1)
        b = rule([A1, A2], [C2], 0.5)
        assert set(prune_redundant([a, b])) == {a, b}

    def test_equal_degree_prefers_shorter(self):
        short = rule([A1], [C1], 0.2)
        long = rule([A1, A2], [C1], 0.2)
        assert prune_redundant([long, short]) == [short]

    def test_output_sorted_by_degree(self):
        a = rule([A1], [C1], 0.5)
        b = rule([A2], [C2], 0.1)
        assert prune_redundant([a, b]) == [b, a]


class TestSelectRules:
    def test_max_degree(self):
        rules = [rule([A1], [C1], 0.1), rule([A2], [C1], 0.9)]
        assert select_rules(rules, max_degree=0.5) == [rules[0]]

    def test_top_k(self):
        rules = [rule([A1], [C1], 0.3), rule([A2], [C1], 0.1)]
        assert select_rules(rules, top_k=1)[0].degree == 0.1

    def test_top_k_validated(self):
        with pytest.raises(ValueError):
            select_rules([], top_k=0)

    def test_min_support_requires_counts(self):
        rules = [rule([A1], [C1], 0.1)]  # no support_count
        with pytest.raises(ValueError, match="count_rule_support"):
            select_rules(rules, min_support=5)

    def test_min_support_filters(self):
        rules = [
            rule([A1], [C1], 0.1, support=3),
            rule([A2], [C1], 0.2, support=50),
        ]
        assert select_rules(rules, min_support=10) == [rules[1]]

    def test_support_breaks_degree_ties(self):
        weak = rule([A1], [C1], 0.2, support=5)
        strong = rule([A2], [C1], 0.2, support=80)
        assert select_rules([weak, strong])[0] is strong


def all_pairs_prune(rules):
    """``prune_redundant`` as it was: every rule against every kept rule.

    Frozen as the reference the per-consequent version must reproduce.
    """
    ordered = sorted(
        rules, key=lambda rule: (len(rule.antecedent), rule.degree, str(rule))
    )
    kept, kept_index = [], []
    for candidate in ordered:
        consequent = candidate.consequent_uids
        antecedent = candidate.antecedent_uids
        redundant = any(
            consequent == kept_consequent
            and kept_antecedent < antecedent
            and kept_degree <= candidate.degree + 1e-12
            for kept_consequent, kept_antecedent, kept_degree in kept_index
        )
        if not redundant:
            kept.append(candidate)
            kept_index.append((consequent, antecedent, candidate.degree))
    kept.sort(key=lambda rule: (rule.degree, str(rule)))
    return kept


class TestPruneReference:
    @settings(max_examples=150, deadline=None)
    @given(rule_sets())
    def test_matches_all_pairs_reference(self, rules):
        pruned = prune_redundant(rules)
        assert [id(r) for r in pruned] == [id(r) for r in all_pairs_prune(rules)]
