import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissa import (DataError, Partition, canonical_labels,
                     centroids, dataset_csv, load_dataset,
                     minimum_spanning_tree)
from admissa import data
from admissa.components import ComponentGeometry
from admissa.criteria import eval_con, ksize_graph
from admissa.data import cluster_means, components
from admissa.emoc import delta_relevant_loci
from admissa.initializers import snn_cluster
from conftest import one_class, tie_grids, translated
from oracles import (neighbor_list, oracle_cluster_means, oracle_components,
                     oracle_distances, oracle_mst_edges, oracle_mst_weight,
                     oracle_neighbor_index)


class TestLoadDataset:
    def test_with_label_column(self):
        ds = load_dataset(b"x0,x1,label\n0,0,a\n0,1,a\n10,0,b\n10,1,b\n",
                          label_column="label", name="data")
        assert ds.n == 4 and ds.dim == 2 and ds.k_star == 2
        assert ds.labels.tolist() == [0, 0, 1, 1]

    def test_labels_numbered_in_order_of_first_appearance(self):
        ds = load_dataset(b"x0,label\n0,b\n1,a\n2,b\n3,c\n",
                          label_column="label", name="data")
        assert ds.labels.tolist() == [0, 1, 0, 2]

    def test_inconsistent_arity(self):
        with pytest.raises(DataError, match=r"^line 3: inconsistent arity"):
            load_dataset(b"x0,label\n0,0\n1,1,9\n", label_column="label", name="data")

    def test_non_numeric_feature(self):
        with pytest.raises(DataError, match="non-numeric"):
            load_dataset(b"x0,x1,label\n0,zap,0\n1,1,0\n",
                         label_column="label", name="data")

    def test_empty_file(self):
        with pytest.raises(DataError, match="empty"):
            load_dataset(b"", label_column="label", name="data")

    def test_missing_label_column(self):
        with pytest.raises(DataError, match="absent"):
            load_dataset(b"x0,x1\n0,0\n1,1\n", label_column="label", name="data")

    def test_roundtrip(self, fix4):
        back = load_dataset(dataset_csv(fix4).encode(), label_column="label",
                            name="data")
        assert np.array_equal(back.points, fix4.points)
        assert np.array_equal(back.labels, fix4.labels)


class TestPartition:
    def test_rejects_empty_cluster(self):
        with pytest.raises(DataError):
            Partition(np.array([0, 0, 2, 2]))

    def test_members_and_sizes(self):
        pi = Partition(np.array([1, 0, 1, 0, 1]))
        assert [m.tolist() for m in pi.members] == [[1, 3], [0, 2, 4]]
        assert pi.sizes.tolist() == [2, 3]

    def test_same_as_is_relabel_invariant(self):
        a = Partition(np.array([0, 0, 1, 1]))
        b = Partition(np.array([1, 1, 0, 0]))
        assert a.same_as(b)
        assert canonical_labels(b.assignment).tolist() == [0, 0, 1, 1]

    @pytest.mark.parametrize("labels", [[0, -1, 1], [0, 2], [0, 10 ** 12]])
    def test_rejects_ids_outside_range(self, labels):
        with pytest.raises(DataError, match="cluster ids"):
            Partition(np.array(labels))

    def test_key_computed_once(self, monkeypatch):
        calls = []

        def counting(assignment):
            calls.append(1)
            return canonical_labels(assignment)

        monkeypatch.setattr(data, "canonical_labels", counting)
        a = Partition(np.array([0, 0, 1, 1]))
        b = Partition(np.array([1, 1, 0, 0]))
        c = Partition(np.array([0, 1, 1, 1]))
        for _ in range(5):
            assert a.same_as(b) and not a.same_as(c)
        assert len(calls) == 3


class TestDistances:
    def test_fix4_values(self, fix4):
        dm = fix4.distances
        assert dm[0, 0] == 0.0
        assert dm[0, 1] == 1.0
        assert dm[0, 3] == pytest.approx(np.sqrt(101), rel=1e-12)

    def test_symmetry_and_diagonal(self, fix4):
        dm = fix4.distances
        assert np.array_equal(dm, dm.T)
        assert np.all(np.diag(dm) == 0.0)

    def test_triangle_inequality_spot(self):
        rng = np.random.default_rng(0)
        ds = one_class(rng.normal(size=(12, 3)))
        dm = ds.distances
        for a in range(12):
            for b in range(12):
                for c in range(12):
                    assert dm[a, b] <= dm[a, c] + dm[c, b] + 1e-9


class TestKnnIndex:
    def test_fix4_row0(self, fix4):
        assert fix4.neighbor_index[0].tolist() == [1, 2, 3]

    def test_tie_broken_by_index(self):
        ds = one_class(np.array([[0.0], [1.0], [-1.0]]))
        assert ds.neighbor_index[0].tolist() == [1, 2]

    def test_n2_length_one(self):
        ds = one_class(np.array([[0.0], [3.0]]))
        assert ds.neighbor_index.shape == (2, 1)

    def test_permutation_and_sorted(self):
        rng = np.random.default_rng(1)
        ds = one_class(rng.normal(size=(15, 2)))
        nn = ds.neighbor_index
        for a in range(15):
            assert sorted(nn[a].tolist()) == [i for i in range(15) if i != a]
            dists = ds.distances[a, nn[a]]
            assert np.all(np.diff(dists) >= 0)

    def test_tie_grids_match_oracle_and_rank_inverts(self):
        for pts in tie_grids(seed=4):
            ds = one_class(pts)
            n = ds.n
            for a in range(n):
                assert ds.neighbor_index[a].tolist() == neighbor_list(pts.tolist(), a)
            assert ds.neighbor_rank.shape == (n - 1, 2)
            for (a, b), ranks in zip(ds.mst_edges.tolist(), ds.neighbor_rank.tolist()):
                assert ranks == [neighbor_list(pts.tolist(), a).index(b) + 1,
                                 neighbor_list(pts.tolist(), b).index(a) + 1]


class TestNeighbors:
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=2, max_value=12), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_every_reader_clamps_k_through_neighbors(self, seed, n, ties):
        rng = np.random.default_rng(seed)
        pts = (rng.integers(0, 4, size=(n, 2)).astype(float) if ties
               else rng.normal(size=(n, 2)))
        ds = one_class(pts)
        for k in (1, n - 1, n, n + 7):
            assert np.array_equal(ds.neighbors(k), ds.neighbor_index[:, :min(k, n - 1)])

        pi = Partition(canonical_labels(rng.integers(0, 3, n)))
        eps, min_pts = int(rng.integers(0, n)), int(rng.integers(1, n + 1))
        delta = float(rng.uniform(1, 100))
        scheme = delta_relevant_loci(ds, delta_percent=delta)
        geometry = ComponentGeometry(ds, scheme.base_labels, scheme.n_base)

        def read(k):
            """What each neighbor-list reader gives at k."""
            domains = delta_relevant_loci(ds, delta_percent=delta, L=k)
            return [eval_con(ds, pi, k), *ksize_graph(ds, k),
                    snn_cluster(ds, k, eps, min_pts).assignment,
                    domains.domain_pad, domains.domain_len, *geometry.links(k)]

        widest = read(n - 1)
        for k in (n, n + 7):
            assert all(np.array_equal(g, w) for g, w in zip(read(k), widest, strict=True))


def block_crossing_sets():
    """Tie-heavy and continuous point sets, some with sizes that cross the
    geometry's row block: integer draws (duplicate points included),
    shuffled unit grids, random normal points, and n=2."""
    rng = np.random.default_rng(13)
    sets = tie_grids(seed=13) + [np.array([[0.0, 0.0], [3.0, 4.0]]),
                                 np.array([[1.0], [1.0]])]
    for n in (255, 256, 257, 513):
        sets.append(rng.integers(0, 5, size=(n, 2)).astype(float))
        sets.append(rng.normal(size=(n, 3)))
    for g in (16, 23):
        gx, gy = np.meshgrid(np.arange(g), np.arange(g))
        sets.append(np.c_[gx.ravel(), gy.ravel()].astype(float)[rng.permutation(g * g)])
    return sets


class TestGeometryReferences:
    """The in-place distances, the row-block neighbor index and the
    counted MST ranks have the bits of the whole-matrix references."""

    @pytest.mark.parametrize("pts", block_crossing_sets(),
                             ids=lambda p: f"n{len(p)}")
    def test_bits_match_references(self, pts):
        ds = one_class(pts)
        ref = oracle_distances(pts)
        assert np.array_equal(ds.distances.view(np.int64), ref.view(np.int64))
        nn = oracle_neighbor_index(ref)
        assert ds.neighbor_index.shape == (ds.n, ds.n - 1)
        assert ds.neighbor_index.dtype == np.int64
        assert np.array_equal(ds.neighbor_index, nn)
        fresh = one_class(pts)
        ranks = [[list(nn[a]).index(b) + 1, list(nn[b]).index(a) + 1]
                 for a, b in fresh.mst_edges.tolist()]
        assert fresh.neighbor_rank.tolist() == ranks

    def test_rank_does_not_build_neighbor_index(self):
        ds = one_class(np.random.default_rng(2).normal(size=(40, 2)))
        ds.neighbor_rank
        assert "neighbor_index" not in ds.__dict__

    def test_peak_memory_per_n2(self):
        # Continuous data, so every row takes the fast sort alone; the
        # parent's whole-matrix builds peaked at about 16 n^2 bytes for the
        # neighbor index and 24 n^2 for the distances.
        n = 1500
        ds = one_class(np.random.default_rng(5).normal(size=(n, 2)))
        tracemalloc.start()
        try:
            ds.distances
            distances_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            ds.neighbor_index
            index_peak = tracemalloc.get_traced_memory()[1] - ds.distances.nbytes
        finally:
            tracemalloc.stop()
        assert distances_peak < 20 * n * n
        assert index_peak < 10 * n * n


class TestFarFromOrigin:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_translation_keeps_neighbors_and_mst(self, seed):
        rng = np.random.default_rng(seed)
        sets = tie_grids(seed, draws=4) + [
            rng.normal(size=(int(rng.integers(2, 40)), int(rng.integers(1, 4))))]
        for pts in sets:
            ds = one_class(pts)
            far = translated(ds, np.full(ds.dim, 1e7))
            assert np.array_equal(far.neighbor_index, ds.neighbor_index)
            assert np.array_equal(far.mst_parent, ds.mst_parent)


class TestCentroids:
    def test_fix4(self, fix4, fix4_truth):
        cents = centroids(fix4, fix4_truth)
        assert cents.tolist() == [[0.0, 0.5], [10.0, 0.5]]

    def test_single_cluster_equals_global(self, fix4):
        cents = centroids(fix4, Partition(np.zeros(4, dtype=int)))
        assert cents.tolist() == [fix4.points.mean(axis=0).tolist()] == [[5.0, 0.5]]

    def test_singletons_are_points(self, fix4):
        cents = centroids(fix4, Partition(np.arange(4)))
        assert np.array_equal(cents, fix4.points)

    def test_cluster_means_match_per_cluster_mean_bits(self):
        # two or more columns: rows are added in index order either way
        rng = np.random.default_rng(7)
        for d in (2, 3, 5):
            pts = rng.normal(size=(300, d)) * 1e3
            labels = np.concatenate([np.arange(9), rng.integers(0, 9, 291)])
            want = np.array([pts[labels == i].mean(axis=0) for i in range(9)])
            assert np.array_equal(cluster_means(pts, labels, np.bincount(labels)), want)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_cluster_means_equal_add_at_bits(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 300)), int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        labels = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
        offset = rng.normal(size=d) * 10.0 ** rng.integers(0, 13)
        pts = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4) + offset
        sizes = np.bincount(labels)
        assert np.array_equal(cluster_means(pts, labels, sizes).view(np.int64),
                              oracle_cluster_means(pts, labels, sizes).view(np.int64))

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=-50, max_value=50),
           st.floats(min_value=-50, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_translation_equivariance(self, seed, vx, vy):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(10, 2))
        labels = np.concatenate([np.arange(3), rng.integers(0, 3, 7)])
        ds = one_class(pts)
        pi = Partition(labels)
        cents = centroids(ds, pi)
        cents2 = centroids(translated(ds, [vx, vy]), pi)
        assert np.allclose(cents2, cents + np.array([vx, vy]), rtol=1e-9, atol=1e-9)


class TestMst:
    def test_fix4_edges_and_weight(self, fix4):
        edges = fix4.mst_edges
        assert {(0, 1), (2, 3)} <= {tuple(e) for e in edges.tolist()}
        total = sum(fix4.distances[a, b] for a, b in edges)
        assert total == pytest.approx(12.0, rel=1e-12)

    def test_n2_single_edge(self):
        ds = one_class(np.array([[0.0], [2.0]]))
        assert ds.mst_edges.tolist() == [[0, 1]]

    def test_collinear_chain(self):
        ds = one_class(np.arange(6, dtype=float).reshape(-1, 1))
        assert ds.mst_edges.tolist() == [[i, i + 1] for i in range(5)]

    def test_matches_bruteforce_on_random(self):
        rng = np.random.default_rng(3)
        for trial in range(12):
            n = int(rng.integers(3, 8))
            pts = rng.normal(size=(n, 2))
            ds = one_class(pts)
            total = sum(ds.distances[a, b] for a, b in ds.mst_edges)
            assert total == pytest.approx(oracle_mst_weight(pts.tolist()),
                                          rel=1e-9)

    def test_deterministic_under_ties(self):
        # unit square: four tied side edges; lexicographically smaller wins
        ds = one_class(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]))
        assert ds.mst_edges.tolist() == [[0, 1], [0, 2], [1, 3]]
        again = minimum_spanning_tree(ds.distances)
        assert np.array_equal(ds.mst_parent, again)

    @pytest.mark.parametrize("seed", range(3))
    def test_tie_grids_and_random_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        sets = tie_grids(seed) + [rng.normal(size=(int(rng.integers(2, 30)), 2))
                                  for _ in range(10)]
        for pts in sets:
            ds = one_class(pts)
            assert ds.mst_edges.tolist() == oracle_mst_edges(pts.tolist())

    @pytest.mark.parametrize("seed", range(3))
    def test_parent_array_roots_the_tree_at_0(self, seed):
        for pts in tie_grids(seed):
            ds = one_class(pts)
            parent = ds.mst_parent
            assert parent[0] == 0
            for v in range(ds.n):
                for _ in range(ds.n):
                    v = int(parent[v])
                assert v == 0
            child = np.arange(1, ds.n)
            pairs = sorted(zip(np.minimum(child, parent[1:]).tolist(),
                               np.maximum(child, parent[1:]).tolist()))
            assert [list(p) for p in pairs] == ds.mst_edges.tolist()


@st.composite
def graphs(draw):
    """Edge lists on 1..40 nodes with self-loops, duplicate and reversed
    edges, plus part of a path through a random node order, in random
    edge order."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    if draw(st.booleans()):
        edges += [(b, a) for a, b in edges]
    path = draw(st.permutations(range(n)))
    edges += list(zip(path, path[1:]))[:draw(st.integers(0, n))]
    return n, draw(st.permutations(edges))


def smallest_members(n, edges):
    labels = oracle_components(n, edges)
    first = {}
    for v, lab in enumerate(labels):
        first.setdefault(lab, v)
    return [first[lab] for lab in labels]


class TestComponents:
    @given(graphs())
    @settings(max_examples=300, deadline=None)
    def test_smallest_member_of_bfs_component(self, graph):
        n, edges = graph
        a = [e[0] for e in edges]
        b = [e[1] for e in edges]
        assert components(n, a, b).tolist() == smallest_members(n, edges)

    @pytest.mark.parametrize("n, edges", [
        (1, []),
        (1, [(0, 0)]),
        (5, []),
        (4, [(2, 2), (3, 1), (1, 3), (3, 1)]),
        (50, [(i, i - 1) for i in range(49, 0, -1)]),
        (50, [(i - 1, i) for i in range(49, 0, -1)]),
        (50, [(i, 49) for i in range(49)]),
    ])
    def test_edge_cases(self, n, edges):
        a = np.array([e[0] for e in edges], dtype=np.int64)
        b = np.array([e[1] for e in edges], dtype=np.int64)
        assert components(n, a, b).tolist() == smallest_members(n, edges)
