import itertools

import numpy as np
import pytest

from admissa import (Dataset, Partition, ari, gen_blobs, gen_elongated,
                     generate_population, kmeans, linkage, mst_cluster,
                     snn_cluster)
from admissa.initializers import (SNN_GRID, InitPopulation,
                                  interesting_mst_edges, lloyd_run)
from admissa.seeding import rng_for
from conftest import tie_grids
from oracles import oracle_single_linkage, oracle_snn


def enumerate_bipartitions(n):
    """All 2-cluster partitions of n points (up to relabeling)."""
    for bits in itertools.product([0, 1], repeat=n - 1):
        labels = np.array((0,) + bits)
        if labels.max() == 1:
            yield Partition(labels)


class TestKmeans:
    def test_fix4_reaches_enumerated_optimum(self, fix4, fix4_truth):
        # pi* is the TWCV-optimal bipartition by exhaustive enumeration
        def twcv(pi):
            total = 0.0
            for idx in pi.members:
                z = fix4.points[idx].mean(axis=0)
                total += float(((fix4.points[idx] - z) ** 2).sum())
            return total

        best = min(enumerate_bipartitions(4), key=twcv)
        assert best.same_as(fix4_truth)
        for seed in range(5):
            assert kmeans(fix4, 2, seed=seed).same_as(fix4_truth)

    def test_k_equals_n(self, fix4):
        assert kmeans(fix4, 4, seed=0).same_as(Partition(np.arange(4)))

    def test_k_above_n_rejected(self, fix4):
        with pytest.raises(ValueError):
            kmeans(fix4, 5, seed=0)

    def test_twcv_monotone_within_run(self):
        ds = gen_blobs(3, 25, 4.0, seed=5)
        for seed in range(3):
            _, history = lloyd_run(ds, 3, rng_for(seed, "t"), max_iter=50)
            diffs = np.diff(history)
            assert np.all(diffs <= 1e-9)

    def test_deterministic(self, fix4):
        a = kmeans(fix4, 2, seed=9)
        b = kmeans(fix4, 2, seed=9)
        assert np.array_equal(a.assignment, b.assignment)


class TestLinkage:
    def test_fix4_both_modes(self, fix4, fix4_truth):
        assert linkage(fix4, 2, "single").same_as(fix4_truth)
        assert linkage(fix4, 2, "average").same_as(fix4_truth)

    def test_boundary_ks(self, fix4):
        assert linkage(fix4, 1, "single").k == 1
        assert linkage(fix4, 4, "average").same_as(Partition(np.arange(4)))

    def test_k_above_n_rejected(self, fix4):
        with pytest.raises(ValueError):
            linkage(fix4, 5, "single")

    def test_bad_mode_rejected(self, fix4):
        with pytest.raises(ValueError):
            linkage(fix4, 2, "complete")

    def test_single_matches_oracle_on_tie_grids(self):
        for pts in tie_grids(seed=5):
            ds = Dataset(pts)
            want = oracle_single_linkage(pts.tolist())
            for k in range(1, ds.n + 1):
                assert linkage(ds, k, "single").same_as(Partition(want[k]))

    def test_single_is_not_the_kruskal_prefix_under_ties(self):
        # 3x3 unit grid, point 3y+x. Every side edge weighs 1, so the
        # second merge joins point 2 (row-major smallest slot pair (0, 2)),
        # while the second MST edge in Kruskal order, (0, 3), joins point 3.
        gx, gy = np.meshgrid(np.arange(3), np.arange(3))
        ds = Dataset(np.c_[gx.ravel(), gy.ravel()].astype(float))
        assert linkage(ds, 7, "single").members[0].tolist() == [0, 1, 2]
        edges = ds.mst_edges
        w = ds.distances[edges[:, 0], edges[:, 1]]
        kruskal = edges[np.lexsort((edges[:, 1], edges[:, 0], w))]
        assert kruskal[:2].tolist() == [[0, 1], [0, 3]]

    def test_average_matches_naive_cross_mean(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.normal(size=(12, 2)))
        pi = linkage(ds, 3, "average")
        # re-run one step manually: merging the closest mean-distance pair
        # of the k=4 partition must give the k=3 partition
        prev = linkage(ds, 4, "average")

        def mean_cross(ia, ib):
            return float(ds.distances[np.ix_(ia, ib)].mean())

        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        i, j = min(pairs, key=lambda p: (mean_cross(prev.members[p[0]],
                                                    prev.members[p[1]]),
                                         p[0], p[1]))
        labels = prev.assignment.copy()
        labels[labels == j] = i
        assert Partition(labels).same_as(pi)


class TestSnn:
    def test_fix4_mutual_pairs(self, fix4, fix4_truth):
        assert snn_cluster(fix4, 1, 0, 1).same_as(fix4_truth)

    def test_all_noise(self, fix4):
        assert snn_cluster(fix4, 1, 0, 99).same_as(Partition(np.arange(4)))

    def test_recovers_separated_blobs(self):
        ds = gen_blobs(3, 40, 10.0, seed=7)
        pi = snn_cluster(ds, 15, 1, 3)
        assert ari(pi, ds.true_partition()) == 1.0

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        sets = tie_grids(seed) + [rng.normal(size=(int(rng.integers(8, 40)), 2))
                                  for _ in range(5)]
        for pts in sets:
            ds = Dataset(pts)
            for knn_k, eps, min_pts in itertools.product(*SNN_GRID.values()):
                want = oracle_snn(pts.tolist(), knn_k, eps, min_pts)
                assert snn_cluster(ds, knn_k, eps, min_pts).assignment.tolist() == want


class TestMstCluster:
    def test_fix4_cut(self, fix4, fix4_truth):
        assert mst_cluster(fix4, 2).same_as(fix4_truth)
        assert interesting_mst_edges(fix4)[0].tolist() == [0, 2]

    def test_k_equals_n(self, fix4):
        assert mst_cluster(fix4, 4).same_as(Partition(np.arange(4)))

    def test_k_above_n_rejected(self, fix4):
        with pytest.raises(ValueError):
            mst_cluster(fix4, 9)

    def test_elongated_chain_cut(self):
        ds = gen_elongated("long", 300, seed=6)
        assert ari(mst_cluster(ds, 2), ds.true_partition()) == 1.0

    def test_nested_refinement(self):
        ds = gen_blobs(4, 15, 8.0, seed=8)
        parts = {k: mst_cluster(ds, k) for k in range(2, 7)}
        for k in range(2, 6):
            coarse, fine = parts[k], parts[k + 1]
            # every fine cluster sits inside one coarse cluster
            for idx in fine.members:
                assert len(set(coarse.assignment[idx].tolist())) == 1


class TestGeneratePopulation:
    def test_fix4_mst_range(self, fix4):
        pop = generate_population(fix4, "mst", master_seed=0)
        assert [p.k for p in pop.partitions] == [2, 3, 4]

    def test_k_star_one_single_member(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(10, 2)))
        pop = generate_population(ds, "km", k_star=1, master_seed=0)
        assert len(pop.partitions) == 1 and pop.partitions[0].k == 2

    def test_k_star_too_large(self, fix4):
        with pytest.raises(ValueError):
            generate_population(fix4, "mst", k_star=3)

    def test_missing_k_star(self):
        ds = Dataset(np.random.default_rng(1).normal(size=(8, 2)))
        with pytest.raises(ValueError):
            generate_population(ds, "km")

    def test_unknown_algorithm(self, fix4):
        with pytest.raises(ValueError):
            generate_population(fix4, "dbscan")

    def test_all_partitions_valid_and_unique(self):
        ds = gen_blobs(3, 20, 6.0, seed=9)
        for algo in ("km", "al", "sl", "snn", "mst"):
            pop = generate_population(ds, algo, master_seed=3)
            keys = [p.key for p in pop.partitions]
            assert len(keys) == len(set(keys))
            for p in pop.partitions:
                assert p.n == ds.n
                assert all(m.size > 0 for m in p.members)

    def test_snn_out_of_range_recorded(self):
        ds = gen_blobs(2, 8, 2.0, seed=10)  # k*=2 -> allowed range {2..4}
        pop = generate_population(ds, "snn", master_seed=0)
        flagged = [p.k for p, oor in zip(pop.partitions, pop.out_of_range) if oor]
        assert all(not (2 <= k <= 4) for k in flagged)
        assert len(pop.partitions) == len(pop.out_of_range)

    def test_twenty_analog_contains_truth(self):
        ds = gen_blobs(20, 25, 10.0, seed=11)
        truth = ds.true_partition()
        pop = generate_population(ds, "mst", master_seed=0)
        assert any(p.same_as(truth) for p in pop.partitions)

    def test_serialization_roundtrip_and_determinism(self):
        ds = gen_blobs(3, 15, 8.0, seed=12)
        a = generate_population(ds, "km", master_seed=42).to_json()
        b = generate_population(ds, "km", master_seed=42).to_json()
        assert a == b
        pop = InitPopulation.from_json(a)
        assert pop.to_json() == a
        c = generate_population(ds, "km", master_seed=43).to_json()
        assert c != a
