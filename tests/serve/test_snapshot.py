"""RuleSnapshot compilation, persistence and checkpoint dispatch."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.report.export as export
from repro.core.config import DARConfig
from repro.resilience.checkpoint import write_checkpoint
from repro.resilience.errors import CheckpointCorruptError
from repro.serve.snapshot import RuleSnapshot, compile_snapshot


class TestCompile:
    def test_one_row_per_rule(self, planted_result, snapshot):
        assert snapshot.n_rules == len(planted_result.rules)
        assert len(snapshot.descriptions) == snapshot.n_rules

    def test_columns_mirror_rules(self, planted_result, snapshot):
        for index, rule in enumerate(planted_result.rules):
            assert snapshot.degree[index] == rule.degree
            assert snapshot.descriptions[index] == str(rule)
            assert snapshot.antecedent_uids(index) == tuple(
                cluster.uid for cluster in rule.antecedent
            )
            assert snapshot.consequent_uids(index) == tuple(
                cluster.uid for cluster in rule.consequent
            )

    def test_thresholds_and_partitions_carried(self, planted_result, snapshot):
        assert snapshot.density_thresholds == dict(
            planted_result.density_thresholds
        )
        assert snapshot.degree_thresholds == dict(planted_result.degree_thresholds)
        assert set(snapshot.partitions) == set(planted_result.all_clusters)

    def test_support_sentinel_for_uncounted(self, snapshot):
        # Mined without count_rule_support: every support is the -1
        # sentinel and rule_dict renders it as None.
        assert (snapshot.support < 0).all()
        assert snapshot.rule_dict(0)["support_count"] is None

    def test_support_preserved_when_counted(self, support_result, support_snapshot):
        for index, rule in enumerate(support_result.rules):
            expected = rule.support_count
            rendered = support_snapshot.rule_dict(index)["support_count"]
            assert rendered == expected

    def test_rule_dict_shape(self, planted_result, snapshot):
        entry = snapshot.rule_dict(2)
        rule = planted_result.rules[2]
        assert entry["id"] == 2
        assert entry["degree"] == rule.degree
        assert entry["description"] == str(rule)
        assert entry["consequent"]

    def test_rule_dict_bad_id(self, snapshot):
        with pytest.raises(IndexError):
            snapshot.rule_dict(snapshot.n_rules)


def _per_rule_state(result):
    """The snapshot state of ``result`` as the original per-rule compile
    loop built it (every field but ``created_at``): the frozen reference
    the columnar compile must reproduce byte for byte."""
    columns = {key: [] for key in (
        "degree", "support", "ant_offsets", "ant_uids", "con_offsets",
        "con_uids", "con_degrees", "descriptions")}
    columns["ant_offsets"].append(0)
    columns["con_offsets"].append(0)
    clusters = {}
    for rule in result.rules:
        columns["degree"].append(float(rule.degree))
        columns["support"].append(
            -1 if rule.support_count is None else int(rule.support_count)
        )
        for cluster in rule.antecedent:
            columns["ant_uids"].append(cluster.uid)
            clusters.setdefault(str(cluster.uid), export.cluster_to_dict(cluster))
        for cluster in rule.consequent:
            columns["con_uids"].append(cluster.uid)
            columns["con_degrees"].append(
                float(rule.degrees.get(cluster.uid, rule.degree))
            )
            clusters.setdefault(str(cluster.uid), export.cluster_to_dict(cluster))
        columns["ant_offsets"].append(len(columns["ant_uids"]))
        columns["con_offsets"].append(len(columns["con_uids"]))
        columns["descriptions"].append(str(rule))
    return {
        "kind": "rule-snapshot",
        "state_version": 1,
        "version": 1,
        "partitions": sorted(result.density_thresholds),
        "density_thresholds": {k: float(v) for k, v in result.density_thresholds.items()},
        "degree_thresholds": {k: float(v) for k, v in result.degree_thresholds.items()},
        "frequency_count": int(result.frequency_count),
        "rules": columns,
        "clusters": clusters,
    }


def _naive_indexes(snapshot):
    """Partition → rule ids, derived rule by rule from the CSR columns."""
    indexes = ({}, {})
    for rule_id in range(snapshot.n_rules):
        sides = (snapshot.antecedent_uids(rule_id), snapshot.consequent_uids(rule_id))
        for index, uids in zip(indexes, sides):
            for uid in uids:
                index.setdefault(snapshot.clusters[uid]["partition"], set()).add(rule_id)
    return tuple(
        {name: sorted(ids) for name, ids in index.items()} for index in indexes
    )


def _columns(clusters, ant, con):
    """Constructor arguments for rules with antecedent uid lists ``ant``
    and consequent uid lists ``con``."""
    return dict(
        version=1,
        created_at="t",
        degree=np.zeros(len(ant)),
        support=np.full(len(ant), -1),
        ant_offsets=np.cumsum([0] + [len(a) for a in ant]),
        ant_uids=[u for a in ant for u in a],
        con_offsets=np.cumsum([0] + [len(c) for c in con]),
        con_uids=[u for c in con for u in c],
        con_degrees=np.zeros(sum(len(c) for c in con)),
        descriptions=[""] * len(ant),
        clusters=clusters,
        partitions=[],
        density_thresholds={},
        degree_thresholds={},
        frequency_count=0,
    )


@st.composite
def csr_columns(draw):
    """Random CSR rule columns (zero rules included) over a random
    uid → partition map."""
    uids = draw(st.lists(st.integers(-50, 10**6), min_size=1, max_size=12, unique=True))
    names = st.sampled_from(["p0", "p1", "p2", "p3"])
    clusters = {uid: {"partition": draw(names)} for uid in uids}
    sides = st.lists(st.sampled_from(uids), min_size=1, max_size=4)
    rules = draw(st.lists(st.tuples(sides, sides), max_size=30))
    return _columns(clusters, [r[0] for r in rules], [r[1] for r in rules])


class TestColumnarCompile:
    def test_state_matches_the_per_rule_reference(self, planted_result):
        assert any(len(r.antecedent) + len(r.consequent) > 2 for r in planted_result.rules)
        state = RuleSnapshot.from_result(planted_result).state_dict()
        del state["created_at"]
        assert json.dumps(state) == json.dumps(_per_rule_state(planted_result))

    def test_support_counted_state_matches_too(self, support_result):
        state = RuleSnapshot.from_result(support_result).state_dict()
        del state["created_at"]
        assert json.dumps(state) == json.dumps(_per_rule_state(support_result))

    def test_each_cluster_described_once(self, planted_result, monkeypatch):
        described = []

        def counting(cluster):
            described.append(cluster.uid)
            return original(cluster)

        original = export.cluster_to_dict
        monkeypatch.setattr(export, "cluster_to_dict", counting)
        snapshot = RuleSnapshot.from_result(planted_result)
        referenced = {
            c.uid for r in planted_result.rules for c in r.antecedent + r.consequent
        }
        assert sorted(described) == sorted(referenced)
        assert len(snapshot.ant_uids) + len(snapshot.con_uids) > len(referenced)

    @settings(max_examples=200, deadline=None)
    @given(csr_columns())
    def test_indexes_match_a_per_rule_derivation(self, columns):
        snapshot = RuleSnapshot(**columns)
        antecedent, consequent = _naive_indexes(snapshot)
        for built, expected in (
            (snapshot.antecedent_index, antecedent),
            (snapshot.consequent_index, consequent),
        ):
            assert {name: ids.tolist() for name, ids in built.items()} == expected
            assert all(ids.dtype == np.int64 for ids in built.values())

    def test_zero_rules_have_empty_indexes(self):
        for clusters in ({}, {7: {"partition": "p0"}}):
            snapshot = RuleSnapshot(**_columns(clusters, [], []))
            assert snapshot.antecedent_index == {} == snapshot.consequent_index

    def test_unknown_uid_is_a_key_error(self, snapshot):
        state = snapshot.state_dict()
        del state["clusters"][str(snapshot.con_uids[0])]
        with pytest.raises(KeyError):
            RuleSnapshot.from_state(state)


class TestPersistence:
    def test_save_load_bit_identical(self, snapshot, tmp_path):
        path = tmp_path / "rules.snap"
        info = snapshot.save(path)
        assert info.n_bytes > 0
        loaded = RuleSnapshot.load(path)
        assert loaded.state_dict() == snapshot.state_dict()

    def test_load_rejects_foreign_checkpoint(self, tmp_path):
        path = tmp_path / "other.ckpt"
        write_checkpoint({"kind": "something-else"}, path)
        with pytest.raises(CheckpointCorruptError, match="rule-snapshot"):
            RuleSnapshot.load(path)

    def test_loaded_snapshot_answers_identically(self, snapshot, tmp_path):
        from repro.serve.query import QueryEngine, RuleQuery

        path = tmp_path / "rules.snap"
        snapshot.save(path)
        loaded = RuleSnapshot.load(path)
        query = RuleQuery(top_k=5, prune_redundant=True)
        assert (
            QueryEngine(loaded, cache_size=0).query(query).ids
            == QueryEngine(snapshot, cache_size=0).query(query).ids
        )


class TestCompileSnapshotDispatch:
    def test_result_source(self, planted_result):
        compiled = compile_snapshot(planted_result, version=4)
        assert compiled.version == 4
        assert compiled.n_rules == len(planted_result.rules)

    def test_snapshot_passthrough(self, planted_result):
        compiled = compile_snapshot(planted_result, version=1)
        assert compile_snapshot(compiled) is compiled

    def test_reversioning_leaves_the_source_alone(self, planted_result):
        compiled = compile_snapshot(planted_result, version=1)
        renumbered = compile_snapshot(compiled, existing_version=2)
        assert (compiled.version, renumbered.version) == (1, 2)
        assert renumbered.degree is compiled.degree
        assert renumbered.antecedent_index is compiled.antecedent_index

    def test_snapshot_checkpoint_path(self, planted_result, tmp_path):
        path = tmp_path / "rules.snap"
        compile_snapshot(planted_result).save(path)
        loaded = compile_snapshot(str(path))
        assert loaded.n_rules == len(planted_result.rules)

    def test_streaming_checkpoint_path(self, tmp_path):
        from repro.core.streaming import StreamingDARMiner
        from repro.data.relation import default_partitions
        from repro.data.synthetic import make_planted_rule_relation

        relation, _ = make_planted_rule_relation(seed=7)
        miner = StreamingDARMiner(
            default_partitions(relation.schema), DARConfig()
        )
        miner.update(relation)
        path = tmp_path / "stream.ckpt"
        miner.save_checkpoint(path)
        compiled = compile_snapshot(str(path))
        assert compiled.n_rules == len(miner.rules().rules)

    def test_foreign_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "other.ckpt"
        write_checkpoint({"kind": "mystery"}, path)
        with pytest.raises(CheckpointCorruptError, match="mystery"):
            compile_snapshot(str(path))

    def test_garbage_source_rejected(self):
        with pytest.raises(TypeError, match="compile_snapshot"):
            compile_snapshot(42)
