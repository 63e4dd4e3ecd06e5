import json

import numpy as np
import pytest

from admissa import (Partition, aggregate_runs, ari, build_admissibility_table,
                     five_number_summary, generate_population, objective,
                     render_tables)
from admissa.evaluation import RunSummary, summaries_to_csv
from oracles import oracle_ari_paircount


def random_partition(rng, n, k):
    k = min(k, n)
    labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
    rng.shuffle(labels)
    return Partition(labels)


class TestAri:
    def test_identity(self, fix4_truth):
        assert ari(fix4_truth, fix4_truth) == 1.0

    def test_fix4_example(self, fix4_truth):
        other = Partition(np.array([0, 1, 2, 2]))
        assert ari(fix4_truth, other) == pytest.approx(4.0 / 7.0, rel=1e-12)

    def test_single_vs_singletons(self):
        a = Partition(np.zeros(5, dtype=np.int64))
        b = Partition(np.arange(5))
        assert ari(a, b) == 0.0

    def test_degenerate_same_way(self):
        a = Partition(np.zeros(4, dtype=np.int64))
        assert ari(a, a) == 1.0
        s = Partition(np.arange(4))
        assert ari(s, s) == 1.0

    def test_size_mismatch_rejected(self, fix4_truth):
        with pytest.raises(ValueError):
            ari(fix4_truth, Partition(np.array([0, 1])))

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            a = random_partition(rng, n, int(rng.integers(2, 5)))
            b = random_partition(rng, n, int(rng.integers(2, 5)))
            assert ari(a, b) == ari(b, a)

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(4, 30))
            a = random_partition(rng, n, 3)
            b = random_partition(rng, n, 3)
            perm = rng.permutation(3)
            assert ari(Partition(perm[a.assignment]), b) == ari(a, b)

    def test_matches_paircounting_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(4, 31))
            a = random_partition(rng, n, int(rng.integers(2, 6)))
            b = random_partition(rng, n, int(rng.integers(2, 6)))
            want = oracle_ari_paircount(a.assignment.tolist(),
                                        b.assignment.tolist())
            assert ari(a, b) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_random_partitions_mean_near_zero(self):
        rng = np.random.default_rng(3)
        truth = random_partition(rng, 60, 3)
        values = [ari(random_partition(rng, 60, 3), truth)
                  for _ in range(200)]
        assert -0.05 <= float(np.mean(values)) <= 0.05


class TestAggregateRuns:
    def test_constant(self):
        assert aggregate_runs([1.0, 1.0, 1.0]) == (1.0, 0.0)

    def test_symmetric_pair(self):
        assert aggregate_runs([0.0, 1.0]) == (0.5, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])

    def test_order_independent(self):
        rng = np.random.default_rng(4)
        values = rng.random(30).tolist()
        assert aggregate_runs(values) == aggregate_runs(list(reversed(values)))

    def test_population_std(self):
        mean, std = aggregate_runs([0.0, 2.0])
        assert std == 1.0  # population, not sample (sample would be sqrt(2))


class TestFiveNumberSummary:
    def test_quartiles_and_outliers(self):
        doc = five_number_summary([1, 2, 3, 4, 100])
        assert doc["median"] == 3.0
        assert doc["outliers"] == [100.0]
        assert doc["whisker_high"] == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            five_number_summary([])


class TestRenderTables:
    def make_summary(self):
        return RunSummary(dataset="d1", group="G1", pair="var+con",
                          run_aris=[1.0, 0.8], truth_dominated_runs=[False, True])

    def test_empty_inputs_empty_documents(self):
        assert render_tables([], [], "csv") == {}

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_tables([], [], "xml")

    def test_one_cell_table_csv(self, fix4):
        table = build_admissibility_table([fix4], "mst", [objective("var")],
                                          [generate_population(fix4, "mst")])
        docs = render_tables([table], [], "csv")
        body = docs["admissibility_mst.csv"].splitlines()
        assert body[0] == "dataset,var"
        assert body[1].startswith("fix4,")
        assert "×" in body[1]
        assert "admissibility_summary.csv" in docs

    def test_markdown_summary_columns(self):
        docs = render_tables([], [self.make_summary()], "markdown")
        text = docs["optimization_summary.md"]
        assert "mean ARI" in text and "var+con" in text

    def test_markdown_in_op_summary(self, fix4):
        table = build_admissibility_table([fix4], "mst", [objective("var")],
                                          [generate_population(fix4, "mst")])
        docs = render_tables([table], [], "markdown")
        text = docs["admissibility_summary.md"]
        assert "| initializer | objective | IN | OP |" in text
        assert "| mst | var |" in text

    def test_json_summary_recomputable(self):
        docs = render_tables([], [self.make_summary()], "json")
        rec = json.loads(docs["optimization_summary.json"])[0]
        assert rec["mean_ari"] == pytest.approx(0.9)
        assert rec["std_ari"] == pytest.approx(np.std([1.0, 0.8]))
        assert rec["truth_dominated_freq"] == 0.5
        assert rec["selection_rule"] == "best-ari-on-front"

    def test_csv_columns_fixed(self):
        text = summaries_to_csv([self.make_summary()])
        assert text.splitlines()[0] == \
            "dataset,group,pair,mean_ari,std_ari,truth_dominated_freq"
