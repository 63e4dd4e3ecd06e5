import itertools
import json
import tracemalloc

import numpy as np
import pytest

from admissa import (ALGORITHMS, DataError, Dataset, Partition, ari,
                     canonical_labels, gen_blobs, gen_elongated,
                     generate_population, kmeans, linkage, mst_cluster,
                     snn_cluster)
from admissa.initializers import (KMEANS_RESTARTS, SNN_GRID, InitPopulation,
                                  _centroid_d2, _seed_centroids,
                                  interesting_mst_edges, lloyd_run)
from admissa.seeding import derive_seed, rng_for
from conftest import one_class, tie_grids
from oracles import (oracle_lloyd, oracle_seed_centroids,
                     oracle_single_linkage, oracle_snn)


def pcg64_with_second_output(x, hi):
    """A PCG64 generator whose second 64-bit output is ``x``: the state
    (hi, lo) outputs rotr64(hi ^ lo, hi >> 58), and one step is
    state * multiplier + increment mod 2**128, which is inverted twice."""
    rng = np.random.Generator(np.random.PCG64(0))
    doc = rng.bit_generator.state
    inc = doc["state"]["inc"]
    rot = hi >> 58
    lo = hi ^ (((x << rot) | (x >> (64 - rot))) & (2 ** 64 - 1) if rot else x)
    state = (hi << 64) | lo
    inverse = pow(0x2360ED051FC65DA44385DF649FCCF645, -1, 2 ** 128)
    for _ in range(2):
        state = (state - inc) * inverse % 2 ** 128
    doc["state"]["state"] = state
    doc["has_uint32"] = doc["uinteger"] = 0
    rng.bit_generator.state = doc
    return rng


def seeded(ds, k, rng):
    """The k-means++ centroids of one run."""
    return ds.points[_seed_centroids(ds, [k], [rng])[0]]


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
            _, history = lloyd_run(ds, seeded(ds, 3, rng_for(seed, "t")))
            diffs = np.diff(history)
            assert np.all(diffs <= 1e-9)

    def test_deterministic(self, fix4):
        a = kmeans(fix4, 2, seed=9)
        b = kmeans(fix4, 2, seed=9)
        assert np.array_equal(a.assignment, b.assignment)

    @pytest.mark.parametrize("u", [0.0, 0.5])
    def test_seeding_variate_on_a_cdf_step(self, u):
        # After picking point 0 or 1 the weights are (0, 0, 1, 1), so the
        # cumulative weights are exactly (0, 0, .5, 1). A variate equal to
        # a step must take the next index with mass, as rng.choice does,
        # never a zero-mass point. The first pick uses the first output and
        # the variate the second, (x >> 11) / 2**53 for output x.
        ds = one_class(np.array([[0.0], [0.0], [1.0], [-1.0]]))
        plateau = 0
        for hi in range(1, 2 ** 64, 2 ** 60 - 7):
            rng = pcg64_with_second_output(int(u * 2 ** 64), hi)
            probe = np.random.Generator(np.random.PCG64())
            probe.bit_generator.state = rng.bit_generator.state
            plateau += int(probe.integers(ds.n)) < 2
            assert probe.random() == u
            replay = np.random.Generator(np.random.PCG64())
            replay.bit_generator.state = rng.bit_generator.state
            assert np.array_equal(seeded(ds, 2, rng),
                                  oracle_seed_centroids(ds.points, ds.distances, 2, replay))
            assert rng.bit_generator.state == replay.bit_generator.state
        assert plateau >= 3

    @staticmethod
    def random_sets(rng, dims, count=10):
        """Random sets of the given column counts and scales, plus integer
        sets full of tied and duplicate points."""
        sets = []
        for _ in range(count):
            n, d = int(rng.integers(5, 60)), int(rng.choice(dims))
            sets.append(rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-2, 3))
            sets.append(rng.integers(0, 4, size=(n, d)).astype(float))
        return sets

    @pytest.mark.parametrize("seed", range(2))
    def test_lloyd_matches_oracle(self, seed):
        # With two or more columns the centroid step adds each cluster's
        # rows in index order, as the per-cluster mean does: every
        # partition and every TWCV in the history agree to the bit.
        rng = np.random.default_rng(seed)
        for pts in tie_grids(seed) + self.random_sets(rng, (2, 3, 5)):
            ds = one_class(pts)
            for k in sorted({2, 3, 7, ds.n} & set(range(2, ds.n + 1))):
                for r in range(2):
                    part, history = lloyd_run(ds, seeded(ds, k, rng_for(r, "lloyd", k)))
                    want, want_history = oracle_lloyd(ds.points, ds.distances, k,
                                                      rng_for(r, "lloyd", k))
                    assert part.same_as(Partition(want))
                    assert history == want_history

    @pytest.mark.parametrize("seed", range(2))
    def test_lloyd_one_column_partitions_match_oracle(self, seed):
        # numpy sums a single column pairwise, so only the low bits of the
        # history may differ from the per-cluster mean; the partitions agree.
        rng = np.random.default_rng(seed + 20)
        for pts in self.random_sets(rng, (1,), count=20):
            ds = one_class(pts)
            for k in sorted({2, 3, 7, ds.n} & set(range(2, ds.n + 1))):
                part, _ = lloyd_run(ds, seeded(ds, k, rng_for(seed, "lloyd", k)))
                want, _ = oracle_lloyd(ds.points, ds.distances, k,
                                       rng_for(seed, "lloyd", k))
                assert part.same_as(Partition(want))

    @pytest.mark.parametrize("seed", range(2))
    def test_seeding_draws_as_rng_choice(self, seed):
        # Every chosen point has zero mass afterwards, and the tie grids'
        # duplicates add more zero-mass entries. The normal sets have
        # distinct points, so equal rows there mean equal indices.
        rng = np.random.default_rng(seed + 40)
        sets = tie_grids(seed) + [rng.normal(size=(int(rng.integers(2, 40)), 2))
                                  for _ in range(10)]
        for pts in sets:
            ds = one_class(pts)
            for k in range(1, ds.n + 1):
                got, want = rng_for(seed, "seeding", k), rng_for(seed, "seeding", k)
                assert np.array_equal(seeded(ds, k, got),
                                      oracle_seed_centroids(ds.points, ds.distances,
                                                            k, want))
                assert got.bit_generator.state == want.bit_generator.state


    @pytest.mark.parametrize("seed", range(2))
    def test_lockstep_seeding_equals_separate_runs(self, seed):
        # One batch of runs with mixed k, some drawing more centroids than
        # the set has distinct points (they reach the zero-mass rule) and
        # some fewer, gives each run the indices and the generator state
        # of its own oracle call. The oracle, handed the indices as its
        # points, returns the indices it chose.
        zero_mass = positive = 0
        for pts in tie_grids(seed):
            ds = one_class(pts)
            distinct = len(np.unique(pts, axis=0))
            ks = [int(k) for k in np.random.default_rng(ds.n).integers(1, ds.n + 1, 12)]
            got = [rng_for(seed, "batch", i) for i in range(len(ks))]
            want = [rng_for(seed, "batch", i) for i in range(len(ks))]
            picks = _seed_centroids(ds, ks, got)
            for k, chosen, g, w in zip(ks, picks, got, want):
                oracle = oracle_seed_centroids(np.arange(ds.n), ds.distances, k, w)
                assert chosen.tolist() == oracle.tolist()
                assert g.bit_generator.state == w.bit_generator.state
                zero_mass += k > distinct
                positive += k <= distinct
        assert zero_mass >= 20 and positive >= 20

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_columnwise_difference_equals_broadcast(self, d):
        rng = np.random.default_rng(d)
        for k in (1, 2, 7, 31, 90):
            points = rng.normal(size=(120, d)) * 10.0 ** rng.uniform(-2, 3)
            cents = points[rng.choice(120, k, replace=False)] + rng.normal(size=(k, d))
            diff = points[:, None, :] - cents[None, :, :]
            want = np.einsum("nkd,nkd->nk", diff, diff)
            got = _centroid_d2(points, cents, np.empty((120, k, d)))
            assert got.tobytes() == want.tobytes()

    def test_population_equals_oracle_best_of_restarts(self):
        # Each k keeps the first restart of least final TWCV; of equal
        # partitions the smaller k is kept.
        ds = gen_blobs(4, 12, 2.0, seed=3)
        pop = generate_population(ds, "km", master_seed=5)
        found = {}
        for k in range(2, 2 * ds.k_star + 1):
            seed = derive_seed(5, "init-km", ds.name, k)
            best, best_twcv = None, np.inf
            for r in range(KMEANS_RESTARTS):
                labels, history = oracle_lloyd(ds.points, ds.distances, k,
                                               rng_for(seed, "kmeans-restart", r))
                if history[-1] < best_twcv:
                    best, best_twcv = Partition(canonical_labels(labels)), history[-1]
            found.setdefault(best.key, (best, {"seed": seed, "params": {"k": k},
                                               "out_of_range": False}))
        want = sorted(found.values(), key=lambda m: m[0].k)
        assert len(want) > 4
        assert [p.assignment.tolist() for p in pop.partitions] == \
            [p.assignment.tolist() for p, _ in want]
        assert pop.records == [rec for _, rec in want]


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
            ds = one_class(pts)
            want = oracle_single_linkage(pts.tolist())
            for k in range(1, ds.n + 1):
                assert linkage(ds, k, "single").same_as(Partition(want[k]))

    def test_single_is_not_the_kruskal_prefix_under_ties(self):
        # 3x3 unit grid, point 3y+x. Every side edge weighs 1, so the
        # second merge joins point 2 (row-major smallest slot pair (0, 2)),
        # while the second MST edge in Kruskal order, (0, 3), joins point 3.
        gx, gy = np.meshgrid(np.arange(3), np.arange(3))
        ds = one_class(np.c_[gx.ravel(), gy.ravel()].astype(float))
        assert linkage(ds, 7, "single").members[0].tolist() == [0, 1, 2]
        edges = ds.mst_edges
        w = ds.distances[edges[:, 0], edges[:, 1]]
        kruskal = edges[np.lexsort((edges[:, 1], edges[:, 0], w))]
        assert kruskal[:2].tolist() == [[0, 1], [0, 3]]

    def test_average_matches_naive_cross_mean(self):
        rng = np.random.default_rng(2)
        ds = one_class(rng.normal(size=(12, 2)))
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
            ds = one_class(pts)
            for knn_k, eps, min_pts in itertools.product(*SNN_GRID.values()):
                want = oracle_snn(pts.tolist(), knn_k, eps, min_pts)
                assert snn_cluster(ds, knn_k, eps, min_pts).assignment.tolist() == want

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_oracle_at_extreme_settings(self, seed):
        # one neighbor, k >= n-1 (everything mutual), no similarity bar,
        # a bar no pair can reach, and every linked point core
        rng = np.random.default_rng(seed + 10)
        sets = tie_grids(seed, draws=8) + [rng.normal(size=(int(rng.integers(3, 30)), 2))
                                           for _ in range(4)]
        for pts in sets:
            ds = one_class(pts)
            for knn_k in (1, 3, ds.n - 1, ds.n + 2):
                for eps, min_pts in itertools.product((0, 1, knn_k + 1), (1, 3)):
                    want = oracle_snn(pts.tolist(), knn_k, eps, min_pts)
                    assert snn_cluster(ds, knn_k, eps, min_pts).assignment.tolist() == want

    def test_memory_below_one_n_squared_int32(self):
        # The pair list needs O(n * knn_k**2) bytes; one n x n int32 array
        # alone would take 4 n^2.
        ds = gen_blobs(3, 500, 5.0, seed=3)
        ds.neighbor_index  # the cached geometry is built outside the window
        tracemalloc.start()
        try:
            snn_cluster(ds, 10, 2, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * ds.n ** 2


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
        ds = one_class(rng.normal(size=(10, 2)))
        pop = generate_population(ds, "km", master_seed=0)
        assert len(pop.partitions) == 1 and pop.partitions[0].k == 2

    def test_snn_keeps_first_copy_sorted_by_k(self):
        # Reference: walk the grid in order, keep each partition's first
        # copy, then sort stably by k.
        ds = gen_blobs(3, 20, 6.0, seed=9)
        first = {}
        for knn_k in SNN_GRID["knn_k"]:
            for eps in SNN_GRID["eps"]:
                for min_pts in SNN_GRID["min_pts"]:
                    pi = snn_cluster(ds, knn_k, eps, min_pts)
                    params = {"knn_k": knn_k, "eps": eps, "min_pts": min_pts,
                              "k": pi.k}
                    if pi.key not in first:
                        first[pi.key] = (pi.k, params)
        want = sorted(first.values(), key=lambda m: m[0])
        assert len(want) < 12  # the grid repeats partitions
        pop = generate_population(ds, "snn", master_seed=0)
        assert [(p.k, rec["params"]) for p, rec in
                zip(pop.partitions, pop.records)] == want
        assert [rec["out_of_range"] for rec in pop.records] == [
            not 2 <= k <= 6 for k, _ in want]

    def test_k_star_too_large(self, fix4):
        ds = Dataset(fix4.points, labels=np.array([0, 1, 2, 0]), name=fix4.name)
        with pytest.raises(DataError):
            generate_population(ds, "mst")

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
        flagged = [p.k for p, rec in zip(pop.partitions, pop.records)
                   if rec["out_of_range"]]
        assert all(not (2 <= k <= 4) for k in flagged)
        assert len(pop.partitions) == len(pop.records)

    def test_twenty_analog_contains_truth(self):
        ds = gen_blobs(20, 25, 10.0, seed=11)
        truth = ds.true_partition()
        pop = generate_population(ds, "mst", master_seed=0)
        assert any(p.same_as(truth) for p in pop.partitions)

    def test_every_population_has_canonical_labels(self):
        # generate_population keeps partitions as given, so each generator
        # must return canonical labels.
        rng = np.random.default_rng(3)
        sets = tie_grids(3, draws=8) + [rng.normal(size=(60, 2))]
        for pts in sets:
            k_star = max(1, min(3, len(pts) // 2))
            ds = Dataset(pts, labels=np.arange(len(pts)) % k_star)
            for algorithm in ALGORITHMS:
                pop = generate_population(ds, algorithm)
                for pi in pop.partitions:
                    assert np.array_equal(pi.assignment,
                                          canonical_labels(pi.assignment))

    def test_serialization_roundtrip_and_determinism(self):
        ds = gen_blobs(3, 15, 8.0, seed=12)
        a = generate_population(ds, "km", master_seed=42).to_dict()
        b = generate_population(ds, "km", master_seed=42).to_dict()
        assert a == b
        pop = InitPopulation.from_dict(json.loads(json.dumps(a)))
        assert pop.to_dict() == a
        c = generate_population(ds, "km", master_seed=43).to_dict()
        assert c != a
