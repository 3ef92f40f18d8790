"""The integer order key of rule descriptions (``core.rules.description_rank``).

Rules are ranked by label tokens instead of by ``str(rule)``; these tests
hold the key to the text order on adversarial rule sets: uids that are
decimal prefixes of each other (1 / 12 / 123), attribute names that
contain the rule separators, tied and signed-zero degrees, support
counts and duplicate rules.  ``form_rules`` must return exactly the
``(degree, str(rule))`` order without rendering a rule.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.birch.features import ACF
from repro.core.cliques import maximal_cliques
from repro.core.cluster import Cluster
from repro.core.config import DARConfig
from repro.core.formation import form_rules
from repro.core.graph import ClusteringGraph
from repro.core.rules import (
    DistanceRule,
    describe_rule,
    description_rank,
    text_rank,
)
from repro.data.relation import AttributePartition
from tests.core.rule_reference import reference_rules

#: Partition names that contain the text between labels.
NAMES = ("a", "a & b", "x => y", "p (degree=1", "c,d", "C1(", "z")
#: Uids whose decimal forms prefix each other.
UIDS = (1, 12, 123, 2, 21, 3)
DEGREES = (0.0, -0.0, 0.5, 0.5000001, 1e-5, 0.123451, 0.123452, 2.0)


def make_cluster(uid, name, lo, width, cross=None):
    points = np.array([[lo], [lo + width]])
    partition = AttributePartition(name, (name,))
    return Cluster(uid=uid, partition=partition, acf=ACF.of_points(points, cross or {}))


@st.composite
def clusters(draw, min_size=2):
    uids = draw(st.lists(st.sampled_from(UIDS), min_size=min_size, max_size=6, unique=True))
    return [
        make_cluster(
            uid,
            draw(st.sampled_from(NAMES)),
            draw(st.sampled_from([0.0, -0.0, 1.5])),
            draw(st.sampled_from([0.0, 2.0])),
        )
        for uid in uids
    ]


@st.composite
def rule_sets(draw):
    """Rules over shared clusters, with tied degrees and duplicates."""
    pool = draw(clusters())
    rules = []
    for _ in range(draw(st.integers(0, 25))):
        picked, names = [], set()
        for cluster in draw(st.permutations(pool)):
            if cluster.partition.name not in names:
                names.add(cluster.partition.name)
                picked.append(cluster)
        if len(picked) < 2:
            continue
        picked = picked[: draw(st.integers(2, len(picked)))]
        split = draw(st.integers(1, len(picked) - 1))
        degree = draw(st.sampled_from(DEGREES))
        rules.append(DistanceRule(
            tuple(picked[:split]),
            tuple(picked[split:]),
            degree,
            {c.uid: degree for c in picked[split:]},
            draw(st.none() | st.integers(0, 3)),
        ))
    for index in draw(st.lists(st.integers(0, max(len(rules) - 1, 0)), max_size=4)):
        if rules:
            rules.append(dataclasses.replace(rules[index]))
    return rules


def csr(rules):
    """Labels plus CSR label codes of ``rules``, as the callers build them."""
    labels, code = [], {}
    for rule in rules:
        for cluster in rule.antecedent + rule.consequent:
            if cluster.uid not in code:
                code[cluster.uid] = len(labels)
                labels.append(str(cluster))

    def side(get):
        lengths = [len(get(rule)) for rule in rules]
        codes = [code[c.uid] for rule in rules for c in get(rule)]
        return np.cumsum([0] + lengths), np.array(codes, dtype=np.int64)

    ant_offsets, ant_codes = side(lambda rule: rule.antecedent)
    con_offsets, con_codes = side(lambda rule: rule.consequent)
    return labels, ant_offsets, ant_codes, con_offsets, con_codes


def assert_ranks_text(rank, texts):
    """``rank`` is the dense rank of ``texts``."""
    for i, left in enumerate(texts):
        for j, right in enumerate(texts):
            assert (rank[i] < rank[j]) == (left < right)
            assert (rank[i] == rank[j]) == (left == right)


class TestDescriptionRank:
    @settings(max_examples=150, deadline=None)
    @given(rule_sets())
    def test_rank_is_the_text_order(self, rules):
        texts = [str(rule) for rule in rules]
        rank = description_rank(*csr(rules), lambda i: texts[i])
        assert_ranks_text(rank, texts)
        assert rank.tolist() == text_rank(texts).tolist()
        by_key = [rules[i] for i in np.lexsort((rank, [r.degree for r in rules]))]
        by_text = sorted(rules, key=lambda rule: (rule.degree, str(rule)))
        assert [id(r) for r in by_key] == [id(r) for r in by_text]

    @settings(max_examples=100, deadline=None)
    @given(rule_sets())
    def test_only_tied_rules_are_rendered(self, rules):
        rendered = []

        def describe(i):
            rendered.append(i)
            return str(rules[i])

        description_rank(*csr(rules), describe)
        labels = [tuple(c.uid for c in r.antecedent + r.consequent) for r in rules]
        arity = [len(r.antecedent) for r in rules]
        tied = {
            i for i, key in enumerate(zip(labels, arity))
            if list(zip(labels, arity)).count(key) > 1
        }
        assert set(rendered) == tied

    def test_uid_prefixes_and_separator_names(self):
        one, twelve, hundred = (make_cluster(u, n, 0.0, 1.0)
                                for u, n in ((1, "a & b"), (12, "x => y"), (123, "c,d")))
        rules = [
            DistanceRule((one,), (twelve,), 0.5),
            DistanceRule((one, twelve), (hundred,), 0.5),
            DistanceRule((twelve,), (one, hundred), 0.5),
            DistanceRule((one,), (twelve, hundred), 0.5),
            DistanceRule((hundred,), (one,), 0.5, support_count=3),
            DistanceRule((hundred,), (one,), 0.5),
            DistanceRule((one,), (twelve,), -0.0),
            DistanceRule((one,), (twelve,), 0.0),
        ]
        texts = [str(rule) for rule in rules]
        assert_ranks_text(description_rank(*csr(rules), lambda i: texts[i]), texts)

    def test_prefixed_labels_rank_the_rendered_text(self):
        # "a" prefixes "a\x1f", and "a\x1f => " sorts before "a => ",
        # unlike the labels: the descriptions themselves are ranked.
        labels = ["a\x1f", "a", "b"]
        offsets = np.array([0, 1, 2])
        ant, con = np.array([0, 1]), np.array([2, 2])
        texts = [describe_rule([labels[a]], [labels[c]], 1.0) for a, c in zip(ant, con)]
        rank = description_rank(labels, offsets, ant, offsets, con, lambda i: texts[i])
        assert_ranks_text(rank, texts)

    def test_empty_side_ranks_the_rendered_text(self):
        labels = ["C1(a)", "C2(b)"]
        texts = [describe_rule([], ["C2(b)"], 1.0), describe_rule(["C1(a)"], ["C2(b)"], 1.0)]
        rank = description_rank(
            labels, np.array([0, 0, 1]), np.array([0]), np.array([0, 1, 2]),
            np.array([1, 1]), lambda i: texts[i],
        )
        assert_ranks_text(rank, texts)

    def test_no_rules(self):
        empty = np.zeros(0, dtype=np.int64)
        rank = description_rank([], np.zeros(1, dtype=np.int64), empty,
                                np.zeros(1, dtype=np.int64), empty, str)
        assert rank.tolist() == []

    def test_str_is_describe_rule_of_the_labels(self):
        a, b = make_cluster(1, "a", 0.0, 1.0), make_cluster(12, "b", 1.0, 1.0)
        rule = DistanceRule((a,), (b,), 0.25, support_count=4)
        assert str(rule) == describe_rule([str(a)], [str(b)], 0.25, 4)


def graph_of(pool):
    """Every cross-partition pair adjacent."""
    adjacency = {
        c.uid: {o.uid for o in pool if o.partition.name != c.partition.name}
        for c in pool
    }
    return ClusteringGraph(clusters={c.uid: c for c in pool}, adjacency=adjacency)


@st.composite
def formation_inputs(draw):
    """Clusters on adversarial partitions whose images coincide, so many
    rules tie on degree."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=4, unique=True))
    pool = []
    for uid in draw(st.lists(st.sampled_from(UIDS), min_size=2, max_size=6, unique=True)):
        own = draw(st.sampled_from(names))
        at = draw(st.sampled_from([0.0, 1.0]))
        cross = {n: np.array([[at], [at + 1.0]]) for n in names if n != own}
        pool.append(make_cluster(uid, own, at, 1.0, cross))
    return pool, {name: 5.0 for name in names}


class TestFormationOrder:
    @settings(max_examples=60, deadline=None)
    @given(formation_inputs(), st.integers(1, 3), st.integers(1, 3))
    def test_form_rules_is_the_text_order(self, inputs, max_consequent, max_antecedent):
        pool, degree = inputs
        graph = graph_of(pool)
        cliques = maximal_cliques(graph.adjacency)
        config = DARConfig(max_consequent=max_consequent, max_antecedent=max_antecedent)
        formed = form_rules(graph, cliques, degree, config)
        want = reference_rules(graph, cliques, degree, config)
        assert [str(r) for r in formed] == [str(r) for r in want]
        by_text = sorted(formed, key=lambda rule: (rule.degree, str(rule)))
        assert [id(r) for r in formed] == [id(r) for r in by_text]

    def test_mixed_data_forms_the_text_order_unrendered(self, monkeypatch):
        from repro.mixed.miner import MixedDARConfig, MixedDARMiner
        from tests.mixed.test_miner import make_mixed_relation

        base = DARConfig(max_consequent=2, max_antecedent=2)
        miner = MixedDARMiner(MixedDARConfig(base=base))
        result = miner.mine_mixed(make_mixed_relation())
        args = (result.graph, result.cliques, result.degree_thresholds, miner.config)
        rendered = []
        original = DistanceRule.__str__
        monkeypatch.setattr(
            DistanceRule, "__str__", lambda rule: rendered.append(1) or original(rule)
        )
        formed = form_rules(*args)
        assert formed and not rendered
        monkeypatch.undo()
        texts = [str(r) for r in formed]
        assert texts == [str(r) for r in reference_rules(*args)]
        by_text = sorted(formed, key=lambda rule: (rule.degree, str(rule)))
        assert [id(r) for r in formed] == [id(r) for r in by_text]
