from dataclasses import asdict

import numpy as np
import pytest

from admissa import (GeneratorSpec, ari, gen_blobs, gen_elongated, gen_mixed,
                     gen_nested, kmeans, load_dataset, write_dataset_csv)


class TestBlobs:
    def test_shape_and_labels(self):
        ds = gen_blobs(k_star=20, per_cluster_n=50, separation=10.0, seed=0)
        assert ds.n == 1000 and ds.dim == 2 and ds.k_star == 20
        assert np.bincount(ds.labels).min() == 50

    def test_overlapping_control(self):
        ds = gen_blobs(k_star=3, per_cluster_n=10, separation=0.0, seed=1)
        assert ds.k_star == 3  # labels survive even with full overlap

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            gen_blobs(k_star=1, per_cluster_n=10, separation=5.0, seed=0)

    def test_determinism(self):
        a = gen_blobs(4, 20, 10.0, seed=9)
        b = gen_blobs(4, 20, 10.0, seed=9)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_kmeans_recovers_separated_blobs(self):
        for seed in range(5):
            ds = gen_blobs(k_star=4, per_cluster_n=40, separation=10.0,
                           seed=seed)
            pi = kmeans(ds, 4, seed=seed)
            assert ari(pi, ds.true_partition()) >= 0.99


class TestElongated:
    @pytest.mark.parametrize("kind", ["long", "spiral"])
    def test_shapes(self, kind):
        ds = gen_elongated(kind, 1000, seed=0)
        assert ds.n == 1000 and ds.k_star == 2

    def test_minimal_instance(self):
        ds = gen_elongated("long", 20, seed=0)
        assert ds.n == 20

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            gen_elongated("long", 19, seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            gen_elongated("zigzag", 100, seed=0)


class TestNested:
    def test_levels(self):
        for level, k in ((1, 2), (2, 5), (3, 13)):
            ds = gen_nested(level, seed=3)
            assert ds.n == 588 and ds.k_star == k

    def test_same_points_different_labels(self):
        a = gen_nested(1, seed=4)
        b = gen_nested(3, seed=4)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.labels, b.labels)

    def test_labels_are_consistent_refinements(self):
        coarse = gen_nested(1, seed=5)
        fine = gen_nested(3, seed=5)
        for blob in range(13):
            idx = np.flatnonzero(fine.labels == blob)
            assert len(set(coarse.labels[idx].tolist())) == 1

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            gen_nested(4, seed=0)


class TestMixed:
    @pytest.mark.parametrize("recipe,k", [("3mc", 3), ("aggregation", 7),
                                          ("spiralsquare", 6)])
    def test_recipes(self, recipe, k):
        ds = gen_mixed(recipe, seed=0, n=400)
        assert ds.n == 400 and ds.k_star == k

    def test_default_sizes(self):
        assert gen_mixed("3mc", seed=0).n == 400
        assert gen_mixed("aggregation", seed=0).n == 788
        assert gen_mixed("spiralsquare", seed=0).n == 2000

    def test_unknown_recipe_rejected(self):
        with pytest.raises(ValueError):
            gen_mixed("banana", seed=0)

    def test_determinism(self):
        a = gen_mixed("aggregation", seed=2, n=300)
        b = gen_mixed("aggregation", seed=2, n=300)
        assert np.array_equal(a.points, b.points)


class TestGeneratorSpec:
    def test_roundtrip(self):
        spec = GeneratorSpec(archetype="gaussian_blobs", seed=5,
                             params={"k_star": 3, "per_cluster_n": 10,
                                     "separation": 8.0}, name="g")
        ds = spec.build()
        assert ds.n == 30 and ds.name == "g"
        again = GeneratorSpec(**asdict(spec))
        assert np.array_equal(again.build().points, ds.points)

    def test_unknown_archetype_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(archetype="torus", seed=0)

    def test_csv_bytes_deterministic(self, tmp_path):
        spec = GeneratorSpec(archetype="nested", seed=1, params={"level": 2})
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(spec.build(), p1)
        write_dataset_csv(spec.build(), p2)
        assert p1.read_bytes() == p2.read_bytes()
        back = load_dataset(p1, label_column="label")
        assert back.k_star == 5
