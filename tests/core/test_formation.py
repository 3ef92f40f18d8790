"""Section 6.2 rule formation (core/formation.py) against its frozen reference.

``form_rules`` forms each distinct consequent once and reads every
distance from one table; ``tests/core/rule_reference.py`` is the per-rule
loop it replaced.  The two must return identical lists: the same rules
in the same order, the same descriptions, bitwise-equal degrees and the
same per-consequent ``degrees`` dicts — under both engines, both
metrics, with and without targets, across the arity bounds.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.birch.features import ACF
from repro.core.cluster import Cluster
from repro.core.config import DARConfig
from repro.core.formation import form_rules
from repro.core.graph import ClusteringGraph
from repro.core.miner import DARMiner
from repro.core.phase2_kernel import Phase2Kernel
from repro.data.relation import AttributePartition
from repro.data.synthetic import make_clustered_relation
from tests.core.rule_reference import reference_rules

NAMES = ("a0", "a1", "a2", "a3")


def assert_identical(got, want):
    assert len(got) == len(want)
    for new, old in zip(got, want):
        assert [c.uid for c in new.antecedent] == [c.uid for c in old.antecedent]
        assert [c.uid for c in new.consequent] == [c.uid for c in old.consequent]
        assert str(new) == str(old)
        assert float(new.degree).hex() == float(old.degree).hex()
        assert list(new.degrees) == list(old.degrees)
        assert [float(d).hex() for d in new.degrees.values()] == [
            float(d).hex() for d in old.degrees.values()
        ]


@functools.lru_cache(maxsize=None)
def mined(seed, metric):
    """A mined population whose cliques overlap heavily.

    Odd seeds merge two attributes into one 2-D partition, so the d2
    kernel's matrix products run over more than one dimension.
    """
    relation, _ = make_clustered_relation(
        n_modes=3, points_per_mode=30, n_attributes=len(NAMES), spread=1.5,
        separation=8.0, outlier_fraction=0.05, seed=seed,
    )
    partitions = None
    if seed % 2:
        partitions = [
            AttributePartition("a0", ("a0", "a1")),
            AttributePartition("a2", ("a2",)),
            AttributePartition("a3", ("a3",)),
        ]
    return DARMiner(DARConfig(metric=metric)).mine(relation, partitions)


def both(graph, cliques, degree, config, targets=None, engine="scalar"):
    kernel = None
    if engine == "vector":
        kernel = Phase2Kernel(list(graph.clusters.values()), metric=config.metric)
    return (
        form_rules(graph, cliques, degree, config, targets=targets, kernel=kernel),
        reference_rules(graph, cliques, degree, config, targets=targets, kernel=kernel),
    )


class TestConformance:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 3),
        metric=st.sampled_from(["d1", "d2"]),
        engine=st.sampled_from(["vector", "scalar"]),
        targets=st.none() | st.sets(st.sampled_from(NAMES), min_size=1).map(frozenset),
        max_consequent=st.integers(1, 3),
        max_antecedent=st.integers(1, 4),
        max_candidates=st.integers(1, 6) | st.just(32),
        degree_scale=st.sampled_from([0.25, 1.0, 3.0]),
    )
    def test_matches_per_rule_reference(
        self, seed, metric, engine, targets, max_consequent, max_antecedent,
        max_candidates, degree_scale,
    ):
        result = mined(seed, metric)
        config = DARConfig(
            metric=metric,
            max_consequent=max_consequent,
            max_antecedent=max_antecedent,
            max_antecedent_candidates=max_candidates,
        )
        degree = {
            name: degree_scale * d0 for name, d0 in result.degree_thresholds.items()
        }
        got, want = both(
            result.graph, result.cliques, degree, config, targets, engine
        )
        assert_identical(got, want)

    def test_mixed_data(self):
        from repro.mixed.miner import MixedDARConfig, MixedDARMiner
        from tests.mixed.test_miner import make_mixed_relation

        base = DARConfig(max_consequent=2, max_antecedent=2)
        miner = MixedDARMiner(MixedDARConfig(base=base))
        result = miner.mine_mixed(make_mixed_relation())
        got, want = both(
            result.graph, result.cliques, result.degree_thresholds, miner.config
        )
        assert got
        assert_identical(got, want)


# ----------------------------------------------------------------------
# Hand-built graphs
# ----------------------------------------------------------------------

PARTITIONS = {name: AttributePartition(name, (name,)) for name in "wxyz"}


def cluster(uid, own, centre, points=4):
    """A cluster on ``own`` whose images sit at ``centre`` on every partition."""
    columns = {
        name: np.full((points, 1), float(centre[name])) + np.arange(points)[:, None] * 0.01
        for name in PARTITIONS
    }
    acf = ACF.of_points(
        columns[own], {name: columns[name] for name in PARTITIONS if name != own}
    )
    return Cluster(uid=uid, partition=PARTITIONS[own], acf=acf)


def graph_of(clusters, edges):
    adjacency = {c.uid: set() for c in clusters}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return ClusteringGraph(clusters={c.uid: c for c in clusters}, adjacency=adjacency)


HERE = {name: 0.0 for name in PARTITIONS}
FAR = {name: 1000.0 for name in PARTITIONS}
LOOSE = {name: 1.0 for name in PARTITIONS}


class TestEdgeCases:
    def test_shared_consequent_sub_clique_emits_each_rule_once(self):
        # Maximal cliques {0, 1, 2} and {0, 1, 3} share the sub-clique {0, 1}.
        clusters = [
            cluster(0, "x", HERE), cluster(1, "y", HERE),
            cluster(2, "z", HERE), cluster(3, "w", HERE),
        ]
        graph = graph_of(clusters, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        cliques = [frozenset({0, 1, 2}), frozenset({0, 1, 3})]
        config = DARConfig(max_consequent=2, max_antecedent=2)
        got, want = both(graph, cliques, LOOSE, config)
        assert_identical(got, want)
        keys = [rule.key() for rule in got]
        assert len(keys) == len(set(keys))
        # {0, 1} => {2} and {0, 1} => {3} both conclude from one visit.
        shared = [r for r in got if r.consequent_uids == frozenset({0, 1})]
        assert {r.antecedent_uids for r in shared} == {frozenset({2}), frozenset({3})}

    @pytest.mark.parametrize("engine", ["vector", "scalar"])
    def test_equal_strengths_under_truncation_break_by_uid(self, engine):
        # Candidates 5 and 2 are indistinguishable images of x; only one
        # survives a one-candidate cut, and it must be the smaller uid.
        clusters = [cluster(5, "x", HERE), cluster(2, "x", HERE), cluster(7, "y", HERE)]
        graph = graph_of(clusters, [(5, 7), (2, 7)])
        cliques = [frozenset({2, 7}), frozenset({5, 7})]
        config = DARConfig(max_antecedent_candidates=1)
        got, want = both(graph, cliques, LOOSE, config, engine=engine)
        assert_identical(got, want)
        concluding_y = [r for r in got if r.consequent_uids == frozenset({7})]
        assert [r.antecedent_uids for r in concluding_y] == [frozenset({2})]

    @pytest.mark.parametrize("engine", ["vector", "scalar"])
    def test_candidate_exactly_at_the_degree_threshold_associates(self, engine):
        # Single-point images: D1 between them is exactly 1.0 == D0.
        clusters = [cluster(0, "x", {**HERE, "y": 1.0}, points=1), cluster(1, "y", HERE, points=1)]
        graph = graph_of(clusters, [(0, 1)])
        got, want = both(graph, [frozenset({0, 1})], LOOSE, DARConfig(metric="d1"), engine=engine)
        assert_identical(got, want)
        assert [(r.antecedent_uids, r.degree) for r in got if r.consequent_uids == {1}] == [
            (frozenset({0}), 1.0)
        ]

    def test_zero_cliques_form_no_rules(self):
        clusters = [cluster(0, "x", HERE), cluster(1, "y", HERE)]
        assert form_rules(graph_of(clusters, [(0, 1)]), [], LOOSE, DARConfig()) == []

    def test_empty_graph_forms_no_rules(self):
        assert form_rules(graph_of([], []), [], LOOSE, DARConfig()) == []

    def test_all_singleton_cliques_of_unassociated_clusters_form_no_rules(self):
        apart = {**HERE, "x": 500.0, "z": 500.0}
        clusters = [cluster(0, "x", HERE), cluster(1, "y", FAR), cluster(2, "z", apart)]
        graph = graph_of(clusters, [])
        cliques = [frozenset({c.uid}) for c in clusters]
        got, want = both(graph, cliques, LOOSE, DARConfig())
        assert got == want == []

    def test_singleton_cliques_still_conclude_from_assoc(self):
        # Section 6.2 draws antecedents from assoc, not from the clique:
        # an isolated consequent with a close image still gets 1:1 rules.
        clusters = [cluster(0, "x", HERE), cluster(1, "y", HERE)]
        graph = graph_of(clusters, [])
        cliques = [frozenset({0}), frozenset({1})]
        got, want = both(graph, cliques, LOOSE, DARConfig())
        assert_identical(got, want)
        assert sorted(r.arity for r in got) == [(1, 1), (1, 1)]

    def test_kernel_over_other_clusters_is_rejected(self):
        clusters = [cluster(0, "x", HERE), cluster(1, "y", HERE)]
        kernel = Phase2Kernel(clusters[:1] + [cluster(9, "y", HERE)])
        with pytest.raises(ValueError, match="different clusters"):
            form_rules(
                graph_of(clusters, [(0, 1)]), [frozenset({0, 1})], LOOSE,
                DARConfig(), kernel=kernel,
            )


class TestNonFiniteDistances:
    @pytest.mark.parametrize("engine", ["vector", "scalar"])
    def test_non_finite_image_distance_names_the_partition(self, engine):
        columns = {"x": np.array([[0.0], [1.0]]), "y": np.array([[np.nan], [1.0]])}
        broken = Cluster(
            uid=0, partition=PARTITIONS["x"],
            acf=ACF.of_points(columns["x"], {"y": columns["y"]}),
        )
        clusters = [broken, cluster(1, "y", HERE)]
        graph = graph_of(clusters, [(0, 1)])
        kernel = Phase2Kernel(clusters) if engine == "vector" else None
        with pytest.raises(ValueError, match="partition 'y'"):
            form_rules(graph, [frozenset({0, 1})], LOOSE, DARConfig(), kernel=kernel)
