import tracemalloc

import numpy as np
import pytest

from admissa import criteria
from admissa import (Dataset, DegenerateError, KTooSmallError, Partition,
                     ZeroVectorError, canonical_labels, evaluate,
                     evaluate_vector, mst_cluster, objective, objectives)
from admissa.criteria import (ALL_IDS, DIRECTIONS, MAXIMIZE, MINIMIZE,
                              eval_abgss, eval_ch, eval_con, eval_db,
                              eval_dcd, eval_dev, eval_dunn, eval_ent,
                              eval_mod, eval_pbm, eval_sep_al, eval_sep_cl,
                              eval_sep_graph, eval_sil, eval_twcv, eval_var,
                              eval_xb)
from conftest import random_instance, tie_grids, translated
from oracles import ORACLES, oracle_dcd, oracle_ent, oracle_masked_dunn

# Frozen reference values for the fix4 fixture, re-derived with the
# brute-force oracles in oracles.py before being frozen here.
SQ101 = float(np.sqrt(101.0))
FIX4_EXPECTED = {
    "dev": 2.0,
    "var": 0.5,
    "twcv": 1.0,
    "sep_al": 10.0,
    "abgss": 10.0,
    "dunn": 10.0,
    "db": 0.1,
    "ch": 20.0,
    "xb": 0.05,
    "sep_cl": 20.0 + 2.0 * SQ101,          # 40.09975124224178
    "sil": 1.0 - 2.0 / (10.0 + SQ101),     # 0.9002487577582194
    "pbm": 20.0 * np.sqrt(25.25),          # 100.4987562112089
    "mod": 2.0 * (2.0 / (44.0 + 4.0 * SQ101) - 0.25),  # -0.45249378105604454
}


def singletons(n):
    return Partition(np.arange(n))


def single_cluster(n):
    return Partition(np.zeros(n, dtype=np.int64))


class TestFix4Values:
    @pytest.mark.parametrize("crit,expected", sorted(FIX4_EXPECTED.items()))
    def test_frozen_value(self, fix4, fix4_truth, crit, expected):
        assert evaluate(fix4, fix4_truth, objective(crit)) == pytest.approx(
            expected, rel=1e-9)

    def test_cross_checked_against_oracles(self, fix4, fix4_truth):
        pts = fix4.points.tolist()
        lab = fix4_truth.assignment.tolist()
        prm = {"L": 10, "k_size": 10, "con_penalty": "paper"}
        for crit, expected in FIX4_EXPECTED.items():
            assert ORACLES[crit](pts, lab, prm) == pytest.approx(expected, rel=1e-9)


class TestEnt:
    def test_matches_oracle_on_shifted_fixture(self, fix4_shifted):
        pi = fix4_shifted.true_partition()
        got = eval_ent(fix4_shifted, pi)
        want = oracle_ent(fix4_shifted.points.tolist(), pi.assignment.tolist())
        assert got == pytest.approx(want, rel=1e-9)

    def test_aligned_cluster_has_unit_term(self):
        # both members point along their centroid direction: g=1, H=0
        ds = Dataset(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 2.0]]))
        pi = Partition(np.array([0, 0, 1, 1]))
        assert eval_ent(ds, pi) == pytest.approx(2.0, rel=1e-9)

    def test_zero_vector_rejected(self, fix4, fix4_truth):
        with pytest.raises(ZeroVectorError):
            eval_ent(fix4, fix4_truth)


class TestTrivialCases:
    def test_dev_var_twcv_zero_on_singletons(self, fix4):
        pi = singletons(4)
        assert eval_dev(fix4, pi) == 0.0
        assert eval_var(fix4, pi) == 0.0
        assert eval_twcv(fix4, pi) == 0.0

    def test_dev_single_cluster(self, fix4):
        assert eval_dev(fix4, single_cluster(4)) == pytest.approx(
            4.0 * np.sqrt(25.25), rel=1e-9)

    def test_twcv_single_cluster(self, fix4):
        assert eval_twcv(fix4, single_cluster(4)) == pytest.approx(101.0)

    def test_con_perfect_and_broken(self, fix4, fix4_truth):
        assert eval_con(fix4, fix4_truth, L=1) == 0.0
        assert eval_con(fix4, singletons(4), L=1) == pytest.approx(1.0)
        assert eval_con(fix4, single_cluster(4), L=3) == 0.0

    def test_con_rank_penalty(self, fix4):
        # singletons: every neighbor split; rank penalty sums 1/h per point
        want = 4 * (1.0 + 0.5 + 1.0 / 3.0)
        assert eval_con(fix4, singletons(4), L=3,
                        penalty="rank") == pytest.approx(want)

    def test_dcd_cases(self, fix4, fix4_truth):
        assert eval_dcd(fix4, fix4_truth, k_size=1) == pytest.approx(1.0)
        assert eval_dcd(fix4, singletons(4), k_size=2) == 0.0
        # single cluster over the full graph: whole-dataset MST weight / 1
        assert eval_dcd(fix4, single_cluster(4), k_size=3) == pytest.approx(12.0)

    def test_abgss_single_cluster_zero(self, fix4):
        assert eval_abgss(fix4, single_cluster(4)) == 0.0

    def test_sep_al_equidistant(self):
        t = 6.0
        pts = np.array([[0.0, 0.0], [t, 0.0], [t / 2, t * np.sqrt(3) / 2]])
        ds = Dataset(np.repeat(pts, 2, axis=0))
        pi = Partition(np.repeat(np.arange(3), 2))
        assert eval_sep_al(ds, pi) == pytest.approx(t, rel=1e-9)

    def test_sep_cl_all_singletons_is_total(self, fix4):
        total = fix4.distances.sum() / 2.0
        assert eval_sep_cl(fix4, singletons(4)) == pytest.approx(total)

    def test_sep_graph_k1_graph_no_cross(self, fix4, fix4_truth):
        assert eval_sep_graph(fix4, fix4_truth, k_size=1) == 0.0

    def test_db_singletons_zero(self, fix4):
        assert eval_db(fix4, singletons(4)) == 0.0

    def test_mod_single_cluster_zero(self, fix4):
        assert eval_mod(fix4, single_cluster(4)) == 0.0


class TestErrors:
    @pytest.mark.parametrize("crit", ["sep_al", "sep_cl", "sep_graph", "ch",
                                      "db", "dunn", "xb", "sil", "pbm"])
    def test_k1_rejected(self, fix4, crit):
        with pytest.raises(KTooSmallError):
            evaluate(fix4, single_cluster(4), objective(crit))

    def test_ch_k_equals_n_rejected(self, fix4):
        with pytest.raises(KTooSmallError):
            eval_ch(fix4, singletons(4))

    def test_dunn_zero_diameter(self, fix4):
        with pytest.raises(DegenerateError):
            eval_dunn(fix4, singletons(4))

    def test_pbm_zero_scatter(self, fix4):
        with pytest.raises(DegenerateError):
            eval_pbm(fix4, singletons(4))

    def test_db_xb_coincident_centroids(self):
        # two clusters arranged symmetrically around the same centroid
        ds = Dataset(np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0]]))
        pi = Partition(np.array([0, 0, 1, 1]))
        with pytest.raises(DegenerateError):
            eval_db(ds, pi)
        with pytest.raises(DegenerateError):
            eval_xb(ds, pi)

    def test_mod_all_identical(self):
        ds = Dataset(np.zeros((4, 2)))
        with pytest.raises(DegenerateError):
            eval_mod(ds, Partition(np.array([0, 0, 1, 1])))

    def test_xb_singletons_zero_numerator(self):
        ds = Dataset(np.array([[0.0], [1.0], [5.0]]))
        assert eval_xb(ds, singletons(3)) == 0.0


class TestIdentitiesAndInvariance:
    def test_dev_equals_n_var(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ds, pi = random_instance(rng)
            dev = eval_dev(ds, pi)
            var = eval_var(ds, pi)
            assert dev == pytest.approx(ds.n * var, rel=1e-12)

    def test_twcv_independent_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            ds, pi = random_instance(rng)
            manual = 0.0
            for idx in pi.members:
                z = ds.points[idx].mean(axis=0)
                for a in idx:
                    manual += float(((ds.points[a] - z) ** 2).sum())
            assert eval_twcv(ds, pi) == pytest.approx(manual, rel=1e-9)

    TRANSLATION_INVARIANT = ["dev", "var", "twcv", "con", "dcd", "sep_al",
                             "sep_cl", "sep_graph", "ch", "db", "dunn",
                             "mod", "sil", "pbm", "xb"]

    @pytest.mark.parametrize("crit", TRANSLATION_INVARIANT)
    def test_translation_invariance(self, crit):
        rng = np.random.default_rng(11)
        spec = objective(crit, L=3, k_size=3)
        for _ in range(10):
            ds, pi = random_instance(rng)
            shift = rng.normal(size=ds.dim) * 10.0
            a = evaluate(ds, pi, spec)
            b = evaluate(translated(ds, shift), pi, spec)
            assert b == pytest.approx(a, rel=1e-9, abs=1e-9)

    SCALE_LINEAR = ["dev", "var", "sep_al", "sep_cl", "sep_graph", "abgss", "dcd"]
    SCALE_FREE = ["dunn", "sil", "mod", "db", "ch", "xb", "con"]

    @pytest.mark.parametrize("crit", SCALE_LINEAR + SCALE_FREE + ["twcv"])
    def test_scaling_behaviour(self, crit):
        rng = np.random.default_rng(13)
        spec = objective(crit, L=3, k_size=3)
        s = 3.7
        for _ in range(8):
            ds, pi = random_instance(rng)
            scaled = Dataset(ds.points * s)
            a = evaluate(ds, pi, spec)
            b = evaluate(scaled, pi, spec)
            if crit in self.SCALE_LINEAR:
                assert b == pytest.approx(s * a, rel=1e-9)
            elif crit == "twcv":
                assert b == pytest.approx(s * s * a, rel=1e-9)
            else:
                assert b == pytest.approx(a, rel=1e-9, abs=1e-12)

    def test_range_checks(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            ds, pi = random_instance(rng)
            assert -1.0 <= eval_sil(ds, pi) <= 1.0
            assert eval_db(ds, pi) >= 0.0
            assert eval_dunn(ds, pi) > 0.0
            assert eval_con(ds, pi, L=3) >= 0.0
            # each cluster term of ent is ((1-H)*g)^(1/k) with g in [0,1]
            assert 0.0 <= eval_ent(ds, pi) <= pi.k


class TestOracleEquivalence:
    def test_all_criteria_match_oracles_on_random_instances(self):
        rng = np.random.default_rng(23)
        prm = {"L": 4, "k_size": 3, "con_penalty": "paper"}
        for _ in range(50):
            ds, pi = random_instance(rng)
            pts = ds.points.tolist()
            lab = pi.assignment.tolist()
            for crit in ALL_IDS:
                spec = objective(crit, L=prm["L"], k_size=prm["k_size"])
                got = evaluate(ds, pi, spec)
                want = ORACLES[crit](pts, lab, prm)
                assert got == pytest.approx(want, rel=1e-9), crit

    def test_con_rank_penalty_matches_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            ds, pi = random_instance(rng)
            got = eval_con(ds, pi, L=5, penalty="rank")
            want = ORACLES["con"](ds.points.tolist(), pi.assignment.tolist(),
                                  {"L": 5, "con_penalty": "rank"})
            assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("seed", range(2))
    def test_dcd_matches_oracle_on_tie_grids(self, seed):
        # Under tied weights a tie rule that is not one strict order lets
        # Borůvka's rounds close a cycle and keep a heavier forest.
        rng = np.random.default_rng(seed)
        for pts in tie_grids(seed):
            ds = Dataset(pts)
            labelings = [mst_cluster(ds, k).assignment for k in range(1, ds.n + 1)]
            labelings += [rng.integers(0, 3, ds.n) for _ in range(3)]
            for labels in labelings:
                pi = Partition(canonical_labels(labels))
                for k_size in (1, 3, 10):
                    want = oracle_dcd(pts.tolist(), pi.assignment.tolist(), k_size)
                    assert eval_dcd(ds, pi, k_size) == pytest.approx(want, rel=1e-9)


class TestDunn:
    @staticmethod
    def labelings(rng, n):
        """Random partitions with singletons, plus all singletons (k = n)."""
        out = [np.arange(n)]
        for k in sorted({2, 3, max(2, n // 2)} & set(range(2, n + 1))):
            out += [np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
                    for _ in range(3)]
        return [rng.permutation(labels) for labels in out]

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_masked_reference(self, seed):
        # min and max do not depend on order, so the masked reductions
        # give the reference's bits; duplicates make zero diameters.
        rng = np.random.default_rng(seed)
        sets = tie_grids(seed) + [rng.normal(size=(int(rng.integers(2, 30)), 2))
                                  for _ in range(10)]
        sets += [pts[rng.integers(0, len(pts), 2 * len(pts))] for pts in sets[-5:]]
        for pts in sets:
            ds = Dataset(pts)
            for labels in self.labelings(rng, ds.n):
                pi = Partition(canonical_labels(labels))
                want = oracle_masked_dunn(ds.distances, pi.assignment)
                if want is None:
                    with pytest.raises(DegenerateError):
                        eval_dunn(ds, pi)
                else:
                    assert eval_dunn(ds, pi) == want

    def test_memory_below_two_n_squared_bytes(self):
        # One n x n boolean mask takes n^2 bytes; a copy of the cross
        # distances alone would take up to 8 n^2.
        rng = np.random.default_rng(5)
        n = 1500
        ds = Dataset(rng.normal(size=(n, 2)))
        pi = Partition(np.concatenate([np.arange(7), rng.integers(0, 7, n - 7)]))
        ds.distances  # the cached geometry is built outside the window
        tracemalloc.start()
        try:
            eval_dunn(ds, pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n ** 2


class TestEvaluateVector:
    def test_composition(self, fix4, fix4_truth):
        vec = evaluate_vector(fix4, fix4_truth, objectives("var", "con", L=1))
        assert vec.values == (0.5, 0.0)

    def test_empty_spec_list(self, fix4, fix4_truth):
        vec = evaluate_vector(fix4, fix4_truth, ())
        assert vec.values == ()

    def test_error_annotated_with_criterion(self, fix4):
        with pytest.raises(KTooSmallError, match="sep_al") as err:
            evaluate_vector(fix4, single_cluster(4),
                            objectives("var", "sep_al"))
        assert err.value.criterion == "sep_al"

    def test_criterion_functions_looked_up_at_call_time(self, fix4, fix4_truth,
                                                         monkeypatch):
        calls = []

        def counting(ds, pi):
            calls.append(pi)
            return eval_var(ds, pi)

        monkeypatch.setattr(criteria, "eval_var", counting)
        assert evaluate(fix4, fix4_truth, objective("var")) == 0.5
        vec = evaluate_vector(fix4, fix4_truth, objectives("var", "dev"))
        assert vec.values == (0.5, 2.0)
        assert len(calls) == 2

    def test_directions_fixed_per_id(self):
        maximized = {"ent", "dcd", "abgss", "sep_al", "sep_cl", "sep_graph",
                     "ch", "dunn", "mod", "sil", "pbm", "xb"} - {"xb"}
        for crit in ALL_IDS:
            want = MAXIMIZE if crit in maximized else MINIMIZE
            assert DIRECTIONS[crit] == want

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            objective("con", L=0)
        with pytest.raises(ValueError):
            objective("con", con_penalty="nope")
        with pytest.raises(ValueError):
            objective("nope")
