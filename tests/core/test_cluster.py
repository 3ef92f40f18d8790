"""Tests for the Cluster wrapper and image distances."""

import pickle

import numpy as np
import pytest

from repro.birch.features import ACF
from repro.core.cluster import CLUSTER_METRICS, Cluster, image_distance
from repro.core.rules import DistanceRule
from repro.data.relation import AttributePartition


def make_cluster(uid, x_points, cross=None, partition_name="x"):
    x = np.asarray(x_points, dtype=float).reshape(len(x_points), -1)
    cross_arrays = {
        name: np.asarray(values, dtype=float).reshape(len(values), -1)
        for name, values in (cross or {}).items()
    }
    acf = ACF.of_points(x, cross_arrays)
    partition = AttributePartition(partition_name, tuple(f"{partition_name}{i}" for i in range(x.shape[1])))
    return Cluster(uid=uid, partition=partition, acf=acf)


class TestClusterBasics:
    def test_counts_and_dimension(self):
        cluster = make_cluster(1, [[1.0, 2.0], [3.0, 4.0]])
        assert cluster.n == 2
        assert cluster.dimension == 2

    def test_centroid_and_diameter(self):
        cluster = make_cluster(1, [[0.0], [4.0]])
        assert cluster.centroid[0] == 2.0
        assert cluster.diameter == pytest.approx(4.0)

    def test_bounding_box(self):
        cluster = make_cluster(1, [[0.0, 5.0], [2.0, 1.0]])
        lo, hi = cluster.bounding_box()
        assert list(lo) == [0.0, 1.0]
        assert list(hi) == [2.0, 5.0]

    def test_identity_by_uid(self):
        a = make_cluster(1, [[0.0]])
        b = make_cluster(1, [[99.0]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != make_cluster(2, [[0.0]])

    def test_str_mentions_bounds_and_count(self):
        cluster = make_cluster(3, [[1.0], [2.0]])
        text = str(cluster)
        assert "n=2" in text and "C3" in text


def _rendered(cluster):
    """The bounding-box description, rendered from scratch."""
    lo, hi = cluster.acf.bounding_box()
    parts = ", ".join(
        f"{name}:[{lo[i]:g}, {hi[i]:g}]"
        for i, name in enumerate(cluster.partition.attributes)
    )
    return f"C{cluster.uid}({parts}; n={cluster.n})"


class TestClusterLabel:
    def test_str_is_the_bounding_box_rendering(self):
        cluster = make_cluster(4, [[0.5, -2.0], [1.25, 3e-7], [9.0, 1e12]])
        assert str(cluster) == cluster.label == _rendered(cluster)
        assert str(cluster) == "C4(x0:[0.5, 9], x1:[-2, 1e+12]; n=3)"

    def test_rendered_once(self, monkeypatch):
        cluster = make_cluster(5, [[1.0], [2.0]])
        calls = []
        original = Cluster.bounding_box

        def counting(self):
            calls.append(self.uid)
            return original(self)

        monkeypatch.setattr(Cluster, "bounding_box", counting)
        assert str(cluster) == str(cluster) == _rendered(cluster)
        assert calls == [5]

    @pytest.mark.parametrize("rendered_first", [False, True])
    def test_survives_pickling(self, rendered_first):
        cluster = make_cluster(6, [[1.0, 2.0], [3.0, -4.5]], cross={"y": [[1.0], [2.0]]})
        if rendered_first:
            str(cluster)
        copy = pickle.loads(pickle.dumps(cluster))
        assert copy == cluster
        assert str(copy) == str(cluster) == _rendered(cluster)

    def test_rules_reuse_labels_without_caching_their_own(self):
        a = make_cluster(1, [[0.0], [1.0]], partition_name="x")
        b = make_cluster(2, [[5.0], [6.0]], partition_name="y")
        rule = DistanceRule(antecedent=(a,), consequent=(b,), degree=0.5)
        fields = set(vars(rule))
        assert str(rule) == f"{_rendered(a)} => {_rendered(b)} (degree=0.5)"
        # Caching a string per rule costs memory on large rule sets; only
        # the few clusters keep their label.
        assert set(vars(rule)) == fields
        assert "label" in vars(a) and "label" in vars(b)


class TestImages:
    def test_own_image_is_primary_cf(self):
        cluster = make_cluster(1, [[1.0]], cross={"y": [[9.0]]})
        assert cluster.image("x") is cluster.acf.cf
        assert cluster.image("y").ls[0] == 9.0

    def test_image_diameter_of_cross(self):
        cluster = make_cluster(1, [[0.0], [0.1]], cross={"y": [[0.0], [10.0]]})
        assert cluster.image_diameter("y") == pytest.approx(10.0)
        assert cluster.image_diameter("x") == pytest.approx(0.1)


class TestImageDistance:
    def setup_method(self):
        self.a = make_cluster(1, [[0.0], [2.0]], cross={"y": [[0.0], [0.0]]})
        self.b = make_cluster(2, [[10.0], [12.0]], cross={"y": [[5.0], [5.0]]}, partition_name="x")

    def test_d1_is_centroid_manhattan(self):
        assert image_distance(self.a, self.b, on="x", metric="d1") == pytest.approx(10.0)

    def test_d2_on_cross_image(self):
        assert image_distance(self.a, self.b, on="y", metric="d2") == pytest.approx(5.0)

    def test_unknown_metric_raises(self):
        with pytest.raises(KeyError, match="d1"):
            image_distance(self.a, self.b, on="x", metric="bogus")

    def test_metric_registry_contents(self):
        assert set(CLUSTER_METRICS) == {"d1", "d2"}
