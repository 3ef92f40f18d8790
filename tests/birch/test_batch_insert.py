"""Batch ingestion must reproduce sequential insertion exactly.

The contract of :meth:`ACFTree.insert_points` / :meth:`insert_entries`
(see :mod:`repro.birch.batch`) is decision equivalence: same routing, same
absorb-vs-new choices, same splits as the per-point loop, with the leaf
entry main moments ``(n, LS, SS)`` and bounding boxes identical bit for
bit and the deferred cross moments within accumulation-order noise.
"""

import numpy as np
import pytest

from repro.birch.batch import ScanStats
from repro.birch.features import ACF
from repro.birch.rebuild import rebuild_tree
from repro.birch.tree import ACFTree
from repro.data.wbcd import make_scaled_wbcd


def make_tree(dim=1, threshold=0.5, branching=3, leaf_capacity=3, cross=None):
    return ACFTree(
        dimension=dim,
        threshold=threshold,
        branching=branching,
        leaf_capacity=leaf_capacity,
        cross_dimensions=cross or {},
    )


def sequential_fill(tree, points, cross):
    names = list(cross)
    for i in range(points.shape[0]):
        tree.insert_point(points[i], {name: cross[name][i] for name in names})
    return tree


def entry_key(entry):
    return (entry.cf.n, tuple(entry.cf.ls), tuple(entry.cf.ss))


def assert_main_moments_identical(expected, actual):
    """Same counts, same entry multiset: ``(n, LS, SS)`` and boxes bit for bit.

    Returns the matched ``(expected, actual)`` entry pairs.
    """
    assert actual.n_points == expected.n_points
    assert actual.entry_count() == expected.entry_count()
    assert actual.n_splits == expected.n_splits
    want = sorted(expected.entries(), key=entry_key)
    got = sorted(actual.entries(), key=entry_key)
    for moment in (
        lambda entry: entry.cf.n,
        lambda entry: entry.cf.ls,
        lambda entry: entry.cf.ss,
        lambda entry: entry.lo,
        lambda entry: entry.hi,
    ):
        np.testing.assert_array_equal(
            np.array([moment(entry) for entry in got]),
            np.array([moment(entry) for entry in want]),
        )
    return list(zip(want, got))


def assert_trees_equivalent(expected, actual, atol=1e-9):
    """Identical main moments and boxes; crosses within accumulation noise."""
    for a, b in assert_main_moments_identical(expected, actual):
        assert set(a.cross) == set(b.cross)
        for name in a.cross:
            assert a.cross[name].n == b.cross[name].n
            np.testing.assert_allclose(
                b.cross[name].ls, a.cross[name].ls, atol=atol, rtol=0
            )
            np.testing.assert_allclose(
                b.cross[name].ss, a.cross[name].ss, atol=atol, rtol=0
            )


class TestPointEquivalence:
    def test_1d_scalar_path_with_crosses_and_splits(self):
        rng = np.random.default_rng(11)
        points = np.round(rng.normal(size=(2000, 1)) * 20)
        cross = {"y": rng.normal(size=(2000, 2)), "z": rng.normal(size=(2000, 1))}
        dims = {"y": 2, "z": 1}
        seq = sequential_fill(
            make_tree(threshold=1.0, cross=dims), points, cross
        )
        bat = make_tree(threshold=1.0, cross=dims)
        bat.insert_points(points, cross)
        assert seq.n_splits > 0  # the workload must actually exercise splits
        assert_trees_equivalent(seq, bat)

    def test_multidim_generic_path(self):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(1200, 3)) * 4
        cross = {"y": rng.normal(size=(1200, 2))}
        seq = sequential_fill(
            make_tree(dim=3, threshold=1.5, branching=4, leaf_capacity=4,
                      cross={"y": 2}),
            points, cross,
        )
        bat = make_tree(dim=3, threshold=1.5, branching=4, leaf_capacity=4,
                        cross={"y": 2})
        bat.insert_points(points, cross)
        assert seq.n_splits > 0
        assert_trees_equivalent(seq, bat)

    def test_zero_threshold_split_storm(self):
        rng = np.random.default_rng(13)
        points = np.round(rng.normal(size=(1500, 1)) * 50)
        seq = sequential_fill(make_tree(threshold=0.0), points, {})
        bat = make_tree(threshold=0.0)
        bat.insert_points(points)
        assert_trees_equivalent(seq, bat)

    def test_chunked_batches_match_single_batch(self):
        rng = np.random.default_rng(14)
        points = rng.normal(size=(901, 2)) * 3
        cross = {"y": rng.normal(size=(901, 1))}
        one = make_tree(dim=2, threshold=0.8, cross={"y": 1})
        one.insert_points(points, cross)
        chunked = make_tree(dim=2, threshold=0.8, cross={"y": 1})
        stats = ScanStats()
        for start in range(0, 901, 128):
            chunked.insert_points(
                points[start : start + 128],
                {"y": cross["y"][start : start + 128]},
                stats=stats,
            )
        assert_trees_equivalent(one, chunked)
        assert stats.points == 901
        assert stats.batches == 8

    def test_interleaved_point_inserts_invalidate_engine(self):
        """insert_point between batches must not leave stale mirror caches."""
        rng = np.random.default_rng(15)
        points = rng.normal(size=(600, 1)) * 10
        seq = sequential_fill(make_tree(threshold=0.3), points, {})
        mixed = make_tree(threshold=0.3)
        mixed.insert_points(points[:200])
        for i in range(200, 400):
            mixed.insert_point(points[i])
        mixed.insert_points(points[400:])
        assert_trees_equivalent(seq, mixed)

    def test_empty_batch_is_noop(self):
        tree = make_tree(cross={"y": 1})
        stats = tree.insert_points(np.empty((0, 1)), {"y": np.empty((0, 1))})
        assert tree.n_points == 0
        assert tree.entry_count() == 0
        assert stats.items == 0


class TestFlushOrder:
    def test_cross_moments_add_items_in_item_order(self):
        """A flush sums an entry's absorbed items from zero, in item order.

        That order (``np.bincount``'s, as ``np.add.at``'s before it) is
        part of the result: wide magnitudes make any other association
        round differently.
        """
        rng = np.random.default_rng(20)
        ys = rng.normal(size=200) * 10.0 ** rng.integers(-8, 9, size=200)
        ys[0] = 0.1  # the entry's own value, materialized before any flush
        tree = make_tree(threshold=1.0, cross={"y": 1})
        tree.insert_points(np.zeros((200, 1)), {"y": ys[:, None]})
        (entry,) = tree.entries()  # the first point's entry absorbed the rest
        ls = ss = sequential = 0.0
        for y in ys[1:].tolist():
            ls += y
            ss += y * y
        for y in ys.tolist():
            sequential += y
        assert entry.cross["y"].n == 200
        assert entry.cross["y"].ls[0] == ys[0] + ls
        assert entry.cross["y"].ss[0] == ys[0] * ys[0] + ss
        assert ys[0] + ls != sequential  # the data does tell the orders apart


class TestEntryEquivalence:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_insert_entries_matches_entry_loop(self, dim):
        rng = np.random.default_rng(16)
        entries = [
            ACF.of_points(
                rng.normal(size=(rng.integers(1, 5), dim)) + rng.normal() * 8,
                {},
            )
            for _ in range(300)
        ]
        seq = make_tree(dim=dim, threshold=2.0)
        for entry in entries:
            seq.insert_entry(entry.copy())
        bat = make_tree(dim=dim, threshold=2.0)
        bat.insert_entries([entry.copy() for entry in entries])
        assert_trees_equivalent(seq, bat)

    def test_insert_entries_does_not_mutate_input(self):
        entries = [ACF.of_points(np.array([[0.0], [0.4]]), {}) for _ in range(3)]
        tree = make_tree(threshold=5.0)
        tree.insert_entries(entries)
        assert tree.entry_count() == 1  # everything merged...
        for entry in entries:
            assert entry.n == 2  # ...but the caller's objects are untouched

    def test_rebuild_matches_sequential_replay(self):
        rng = np.random.default_rng(17)
        points = np.round(rng.normal(size=(800, 1)) * 30)
        tree = make_tree(threshold=0.0)
        tree.insert_points(points)

        replay = make_tree(threshold=4.0)
        for entry in tree.entries():
            replay.insert_entry(entry.copy())

        stats = ScanStats()
        rebuilt = rebuild_tree(tree, 4.0, stats=stats)
        assert_trees_equivalent(replay, rebuilt)
        assert stats.rebuilds == 1
        assert stats.entries == tree.entry_count()


class TestValidation:
    def test_wrong_point_dimension(self):
        with pytest.raises(ValueError, match="shape"):
            make_tree(dim=2).insert_points(np.zeros((4, 1)))

    def test_missing_cross_partition(self):
        with pytest.raises(ValueError, match="cross"):
            make_tree(cross={"y": 1}).insert_points(np.zeros((4, 1)))

    def test_unexpected_cross_partition(self):
        with pytest.raises(ValueError, match="cross"):
            make_tree().insert_points(np.zeros((4, 1)), {"y": np.zeros((4, 1))})

    def test_misshaped_cross_matrix(self):
        with pytest.raises(ValueError, match="shape"):
            make_tree(cross={"y": 2}).insert_points(
                np.zeros((4, 1)), {"y": np.zeros((4, 1))}
            )

    def test_entry_dimension_mismatch(self):
        entry = ACF.of_points(np.array([[1.0, 2.0]]), {})
        with pytest.raises(ValueError, match="dimension"):
            make_tree(dim=1).insert_entries([entry])

    def test_entry_cross_layout_mismatch(self):
        entry = ACF.of_points(np.array([[1.0]]), {"z": np.array([[2.0]])})
        with pytest.raises(ValueError, match="cross"):
            make_tree(cross={"y": 1}).insert_entries([entry])


class TestScanStats:
    def test_counters_are_consistent(self):
        rng = np.random.default_rng(18)
        points = np.round(rng.normal(size=(1000, 1)) * 15)
        tree = make_tree(threshold=0.5)
        stats = tree.insert_points(points)
        assert stats.points == 1000
        assert stats.entries == 0
        assert stats.items == 1000
        assert stats.absorbed + stats.new_entries == 1000
        assert stats.new_entries == tree.entry_count()
        assert stats.splits == tree.n_splits
        assert stats.batches == 1
        assert stats.flushes >= 1
        assert stats.seconds_total > 0
        assert 0.0 <= stats.absorb_rate <= 1.0
        assert stats.points_per_second > 0

    def test_stats_accumulate_across_batches(self):
        rng = np.random.default_rng(19)
        points = rng.normal(size=(400, 1))
        tree = make_tree(threshold=1.0)
        stats = ScanStats()
        tree.insert_points(points[:200], stats=stats)
        tree.insert_points(points[200:], stats=stats)
        assert stats.points == 400
        assert stats.batches == 2

    def test_merge_sums_counters(self):
        a = ScanStats(points=5, absorbed=3, new_entries=2, seconds_total=1.0)
        b = ScanStats(entries=4, splits=1, rebuilds=2, seconds_total=0.5)
        a.merge(b)
        assert a.items == 9
        assert a.splits == 1
        assert a.rebuilds == 2
        assert a.seconds_total == 1.5

    def test_describe_mentions_the_key_numbers(self):
        stats = ScanStats(points=42, absorbed=40, new_entries=2, seconds_total=0.1)
        text = stats.describe()
        assert "42 items" in text
        assert "2 new entries" in text


class TestWbcdPartitions:
    """The paper's Figure 6 shape: 30 one-attribute partitions of WBCD data.

    Each partition's tree carries the other 29 attributes as 29 one-wide
    cross partitions.  The sequential reference carries them as one
    29-wide cross partition instead: elementwise it adds the same values
    in the same order, at a fraction of the per-point cost.  The
    magnitudes (areas in the thousands) make the cross tolerance relative.
    """

    @pytest.fixture(scope="class")
    def wbcd(self):
        relation = make_scaled_wbcd(2_000, outlier_fraction=0.05, seed=42)
        names = relation.schema.names
        matrix = np.column_stack([relation.column(name) for name in names])
        references = []
        for j in range(len(names)):
            points = matrix[:, [j]]
            rest = np.delete(matrix, j, axis=1)
            tree = make_tree(
                threshold=0.05 * float(points.std()), branching=8, leaf_capacity=8,
                cross={"rest": rest.shape[1]},
            )
            for i in range(points.shape[0]):
                tree.insert_point(points[i], {"rest": rest[i]})
            references.append(tree)
        return names, matrix, references

    @pytest.fixture(scope="class")
    def one_batch(self, wbcd):
        """Each partition's tree from one ``insert_points`` call."""
        names, matrix, references = wbcd
        return [
            self.scan(names, matrix, j, reference.threshold, matrix.shape[0])
            for j, reference in enumerate(references)
        ]

    @staticmethod
    def others(names, j):
        return [name for name in names if name != names[j]]

    @classmethod
    def empty_tree(cls, names, j, threshold):
        return make_tree(
            threshold=threshold, branching=8, leaf_capacity=8,
            cross={name: 1 for name in cls.others(names, j)},
        )

    @classmethod
    def scan(cls, names, matrix, j, threshold, chunk_rows):
        tree = cls.empty_tree(names, j, threshold)
        stats = ScanStats()
        for start in range(0, matrix.shape[0], chunk_rows):
            block = matrix[start : start + chunk_rows]
            tree.insert_points(
                block[:, [j]],
                {name: block[:, [k]] for k, name in enumerate(names) if k != j},
                stats=stats,
            )
        assert stats.batches == -(-matrix.shape[0] // chunk_rows)
        return tree

    @staticmethod
    def crosses(entries, names):
        """``(n, LS, SS)`` of every entry's one-wide crosses as matrices."""
        return (
            np.array([[entry.cross[name].n for name in names] for entry in entries]),
            np.array([[entry.cross[name].ls[0] for name in names] for entry in entries]),
            np.array([[entry.cross[name].ss[0] for name in names] for entry in entries]),
        )

    def assert_matches_reference(self, reference, tree, others):
        pairs = assert_main_moments_identical(reference, tree)
        want = [a.cross["rest"] for a, _ in pairs]
        got_n, got_ls, got_ss = self.crosses([b for _, b in pairs], others)
        np.testing.assert_array_equal(got_n, [[cf.n] * len(others) for cf in want])
        np.testing.assert_allclose(got_ls, [cf.ls for cf in want], rtol=1e-12, atol=0)
        np.testing.assert_allclose(got_ss, [cf.ss for cf in want], rtol=1e-12, atol=0)

    def test_one_batch_matches_sequential(self, wbcd, one_batch):
        names, _, references = wbcd
        assert len(names) == 30
        for j, (reference, tree) in enumerate(zip(references, one_batch)):
            assert reference.n_splits > 0
            self.assert_matches_reference(reference, tree, self.others(names, j))

    def test_256_row_chunks_match_sequential(self, wbcd):
        names, matrix, references = wbcd
        for j, reference in enumerate(references):
            tree = self.scan(names, matrix, j, reference.threshold, 256)
            self.assert_matches_reference(reference, tree, self.others(names, j))

    def test_insert_entries_match_entry_loop(self, wbcd, one_batch):
        names, _, references = wbcd
        for j, (reference, fine) in enumerate(zip(references, one_batch)):
            coarse = 4.0 * reference.threshold
            replay = self.empty_tree(names, j, coarse)
            for entry in fine.entries():
                replay.insert_entry(entry.copy())
            batched = self.empty_tree(names, j, coarse)
            batched.insert_entries(list(fine.entries()))
            assert batched.entry_count() < fine.entry_count()
            pairs = assert_main_moments_identical(replay, batched)
            others = self.others(names, j)
            want = self.crosses([a for a, _ in pairs], others)
            got = self.crosses([b for _, b in pairs], others)
            np.testing.assert_array_equal(got[0], want[0])
            for moment in (1, 2):
                np.testing.assert_allclose(got[moment], want[moment], rtol=1e-12, atol=0)
