"""Snapshots rank rules by label tokens and render descriptions on demand.

A compiled snapshot's ``description_rank`` must order rules exactly as
their ``str(rule)`` text does, and every :class:`QueryEngine` answer must
equal :func:`apply_query` over the source rules, on adversarial rule
sets (see ``tests/core/test_rule_order.py``).  Neither mining nor
compiling renders a rule, and one HTTP answer renders at most ``top_k``
descriptions.
"""

import types
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.rules import DistanceRule, RuleList, text_rank
from repro.data.synthetic import make_planted_rule_relation
from repro.serve import snapshot as snapshot_module
from repro.serve.http import RuleServer
from repro.serve.publisher import SnapshotPublisher
from repro.serve.query import QueryEngine, RuleQuery, apply_query
from repro.serve.snapshot import RuleSnapshot, compile_snapshot
from tests.core.test_rule_order import DEGREES, NAMES, rule_sets


def result_of(rules):
    """A minimal ``DARResult`` stand-in over ``rules``."""
    names = sorted({c.partition.name for r in rules for c in r.antecedent + r.consequent})
    return types.SimpleNamespace(
        rules=RuleList(rules),
        density_thresholds={name: 1.0 for name in names},
        degree_thresholds={name: 1.0 for name in names},
        frequency_count=1,
    )


_names = st.sets(st.sampled_from(NAMES), min_size=1).map(lambda s: tuple(sorted(s)))
_degree = st.none() | st.sampled_from(DEGREES).map(abs)
_queries = st.builds(
    lambda bounds, **fields: RuleQuery(
        min_degree=bounds[0], max_degree=bounds[1], **fields
    ),
    st.tuples(_degree, _degree).map(
        lambda b: tuple(sorted(b)) if None not in b else b
    ),
    targets=st.none() | _names,
    antecedents=st.none() | _names,
    min_support=st.none() | st.integers(0, 3),
    top_k=st.none() | st.integers(1, 8),
    prune_redundant=st.booleans(),
)


def answer(run):
    """``run()``'s value, or the ``ValueError`` message it raised."""
    try:
        return run()
    except ValueError as error:
        return str(error)


class TestSnapshotOrder:
    @settings(max_examples=100, deadline=None)
    @given(rule_sets())
    def test_rank_and_descriptions_match_the_rules(self, rules):
        snapshot = RuleSnapshot.from_result(result_of(rules))
        texts = [str(rule) for rule in rules]
        assert snapshot.description_rank.tolist() == text_rank(texts).tolist()
        assert snapshot.descriptions == texts
        loaded = RuleSnapshot.from_state(snapshot.state_dict())
        assert loaded.description_rank.tolist() == snapshot.description_rank.tolist()

    @settings(max_examples=150, deadline=None)
    @given(rule_sets(), st.lists(_queries, min_size=1, max_size=4))
    def test_engine_answers_equal_apply_query(self, rules, queries):
        result = result_of(rules)
        compiled = RuleSnapshot.from_result(result)
        loaded = RuleSnapshot.from_state(compiled.state_dict())
        position = {id(rule): i for i, rule in enumerate(rules)}
        for query in queries:
            expected = answer(
                lambda: [position[id(r)] for r in apply_query(result.rules, query)]
            )
            for snap in (compiled, loaded):
                engine = QueryEngine(snap, cache_size=0)
                assert answer(lambda: list(engine.query(query).ids)) == expected


class TestNothingRenderedUnread:
    def test_mine_and_compile_render_no_rule(self, monkeypatch):
        relation, _ = make_planted_rule_relation(seed=11)
        calls = []
        original = DistanceRule.__str__
        monkeypatch.setattr(
            DistanceRule, "__str__", lambda rule: calls.append(1) or original(rule)
        )
        result = repro.mine(relation)
        snapshot = compile_snapshot(result)
        assert snapshot.n_rules > 10
        assert calls == []

    def test_an_http_answer_renders_at_most_top_k(self, planted_result, monkeypatch):
        rendered = []
        original = snapshot_module.describe_rule

        def counting(*args):
            rendered.append(1)
            return original(*args)

        monkeypatch.setattr(snapshot_module, "describe_rule", counting)
        publisher = SnapshotPublisher(planted_result)
        assert rendered == []
        with RuleServer(publisher, port=0).start() as server:
            for path, top_k in (("/rules?top_k=3", 3), ("/rules?top_k=2&targets=claims", 2)):
                before = len(rendered)
                with urllib.request.urlopen(server.url + path, timeout=10) as response:
                    assert response.status == 200
                assert len(rendered) - before <= top_k


class TestMalformedColumns:
    """The constructor rejects CSR columns that do not describe the rules."""

    @pytest.fixture()
    def state(self, snapshot):
        return snapshot.state_dict()

    def test_con_degrees_shorter_than_con_uids(self, state):
        state["rules"]["con_degrees"].pop()
        with pytest.raises(ValueError, match="con_degrees"):
            RuleSnapshot.from_state(state)

    def test_offsets_overrun_their_uids(self, state):
        state["rules"]["ant_offsets"][-1] += 1
        with pytest.raises(ValueError, match="ant_offsets"):
            RuleSnapshot.from_state(state)

    def test_offsets_that_decrease(self, state):
        offsets = state["rules"]["con_offsets"]
        offsets[1], offsets[2] = offsets[2], offsets[1]
        with pytest.raises(ValueError, match="con_offsets"):
            RuleSnapshot.from_state(state)

    def test_offsets_that_do_not_start_at_zero(self, state):
        state["rules"]["ant_offsets"][0] = 1
        with pytest.raises(ValueError, match="ant_offsets"):
            RuleSnapshot.from_state(state)
