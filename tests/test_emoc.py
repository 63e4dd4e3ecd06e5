import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissa import (Dataset, EmocConfig, Partition, ari, decode,
                     delta_relevant_loci, encode, evolve, gen_blobs,
                     gen_elongated, generate_population, objective,
                     objectives, truth_dominated, variation)
from admissa.admissibility import dominance
from admissa.components import ComponentGeometry
from admissa.criteria import (CriterionError, ObjectiveVector, evaluate_vector,
                              minimize_signs)
from admissa.emoc import (EmocError, FrontMember, ParetoFront, _minimized,
                          _rank_population, _tournament, _truncate,
                          crowding_distance, fast_nondominated_sort, mutate)
from admissa.initializers import InitPopulation, mst_cluster
from admissa.seeding import rng_for
from conftest import tie_grids
from oracles import oracle_decode


def small_config(**over):
    base = dict(objectives=objectives("var", "con"), population_size=12,
                generations=8, seed=0)
    base.update(over)
    return EmocConfig(**base)


def fronts_by_generation(ds, pop, cfg):
    """The front after each generation 0..cfg.generations of ``cfg``'s run.
    A run of g generations is the first g + 1 generations of a longer run
    with the same seed, so it stops with the longer run's population."""
    return [evolve(ds, dataclasses.replace(cfg, generations=g), pop)
            for g in range(cfg.generations + 1)]


class TestDeltaScheme:
    def test_locus_count_default_rule(self):
        ds = gen_blobs(4, 25, 8.0, seed=0)  # n = 100
        scheme = delta_relevant_loci(ds)
        assert len(scheme.relevant_loci) == 50  # ceil(5 * sqrt(100))

    def test_delta_100_percent_all_edges(self, fix4):
        scheme = delta_relevant_loci(fix4, delta_percent=100.0)
        assert len(scheme.relevant_loci) == fix4.n - 1
        assert scheme.fixed_edges.shape == (0, 2)

    def test_fix4_single_relevant_is_cross_edge(self, fix4):
        scheme = delta_relevant_loci(fix4, delta_percent=25.0)  # 1 edge
        locus = int(scheme.relevant_loci[0])
        parent = int(scheme.parent[locus])
        assert {locus, parent} == {0, 2}  # the 10-weight bridge

    def test_bad_delta_rejected(self):
        # EmocConfig checks the range, so a bad config fails before any run
        for delta in (0.0, -1.0, 150.0):
            with pytest.raises(ValueError, match="delta_percent"):
                small_config(delta_percent=delta)
        assert small_config(delta_percent=100.0).delta_percent == 100.0

    def test_domains_include_self_and_parent(self, fix4):
        scheme = delta_relevant_loci(fix4, delta_percent=100.0, L=1)
        for locus, dom in zip(scheme.relevant_loci.tolist(), scheme.domains):
            assert locus in dom
            assert int(scheme.parent[locus]) in dom


class TestDecodeEncode:
    def test_all_self_genes_gives_fixed_components(self, fix4):
        scheme = delta_relevant_loci(fix4, delta_percent=25.0)
        pi = decode(scheme, scheme.relevant_loci.copy())
        assert pi.same_as(fix4.true_partition())  # only the bridge is cut

    def test_cut_cross_edge_gives_truth(self, fix4, fix4_truth):
        scheme = delta_relevant_loci(fix4, delta_percent=100.0)
        genes = encode(fix4_truth, scheme)
        assert decode(scheme, genes).same_as(fix4_truth)

    def test_all_parents_single_cluster(self, fix4):
        scheme = delta_relevant_loci(fix4, delta_percent=100.0)
        genes = np.array([int(scheme.parent[i])
                          for i in scheme.relevant_loci])
        pi = decode(scheme, genes)
        assert pi.k == 1

    def test_roundtrip_for_mst_partitions(self):
        ds = gen_blobs(3, 20, 8.0, seed=3)
        scheme = delta_relevant_loci(ds)
        for k in range(2, 7):
            pi = mst_cluster(ds, k)
            assert decode(scheme, encode(pi, scheme)).same_as(pi)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for pts in tie_grids(seed) + [rng.normal(size=(30, 2))]:
            ds = Dataset(pts)
            scheme = delta_relevant_loci(ds, delta_percent=float(rng.uniform(10, 100)),
                                         L=int(rng.integers(1, 5)))
            loci = scheme.relevant_loci
            genotypes = [loci.copy(), scheme.parent[loci]]  # all self, all parent
            genotypes += [np.array([d[rng.integers(len(d))] for d in scheme.domains])
                          for _ in range(4)]
            for genes in genotypes:
                pi = decode(scheme, genes)
                assert pi.assignment.tolist() == oracle_decode(
                    ds.n, scheme.fixed_edges.tolist(), loci.tolist(), genes.tolist())


def _outcome(evaluate):
    """The value, or the type of the criterion error raised."""
    try:
        return evaluate()
    except CriterionError as err:
        return type(err)


class TestComponentGeometry:
    COARSE_SPECS = [objective("sep_cl"), objective("mod"), objective("sil"),
                    objective("dunn"), objective("con", L=1),
                    objective("con", L=3, con_penalty="rank"),
                    objective("con", L=7)]

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.sampled_from(["random", "ties", "duplicates"]))
    @settings(max_examples=60, deadline=None)
    def test_coarse_kernels_match_point_level(self, seed, kind):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        if kind == "random":
            pts = rng.normal(size=(n, int(rng.integers(1, 4))))
        elif kind == "ties":
            sets = tie_grids(seed % 1000, draws=4)
            pts = sets[int(rng.integers(len(sets)))]
        else:
            pts = rng.normal(size=(n // 3 + 1, 2))[rng.integers(0, n // 3 + 1, n)]
        ds = Dataset(pts)
        scheme = delta_relevant_loci(ds, delta_percent=float(rng.uniform(1, 100)),
                                     L=int(rng.integers(1, 6)))
        geometry = ComponentGeometry(ds, scheme.base_labels, scheme.n_base)
        for _ in range(3):
            genes = np.array([d[rng.integers(len(d))] for d in scheme.domains])
            pi = decode(scheme, genes)
            for spec in self.COARSE_SPECS:
                want = _outcome(lambda: evaluate_vector(ds, pi, [spec]).values[0])
                got = _outcome(lambda: evaluate_vector(
                    ds, pi, [spec], geometry.evaluate).values[0])
                exact = spec.id == "dunn" or (spec.id == "con"
                                              and spec.con_penalty == "paper")
                if isinstance(want, type):
                    assert got is want, spec
                elif exact:
                    assert got == want, spec
                else:
                    assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), spec

    def test_other_criteria_are_point_level(self, fix4, fix4_truth):
        scheme = delta_relevant_loci(fix4, delta_percent=100.0)
        geometry = ComponentGeometry(fix4, scheme.base_labels, scheme.n_base)
        specs = objectives("var", "ch", "dcd", "xb")
        assert (evaluate_vector(fix4, fix4_truth, specs, geometry.evaluate)
                == evaluate_vector(fix4, fix4_truth, specs))


class TestVariation:
    def test_no_crossover_copies(self, fix4):
        scheme = delta_relevant_loci(fix4, delta_percent=100.0)
        rng = rng_for(0, "t")
        p1 = scheme.relevant_loci.copy()
        p2 = encode(fix4.true_partition(), scheme)
        cfg = small_config(crossover_prob=0.0, mutation_prob=0.0)
        c1, c2 = variation(scheme, p1, p2, cfg, rng)
        assert np.array_equal(c1, p1)
        assert np.array_equal(c2, p2)

    def test_singleton_domain_mutation_is_identity(self):
        ds = Dataset(np.array([[0.0], [1.0], [2.0]]))
        scheme = delta_relevant_loci(ds, delta_percent=100.0, L=1)
        # shrink every domain to just the current gene
        genes = np.array([int(d[0]) for d in scheme.domains])
        scheme.domains = [d[:1] for d in scheme.domains]
        out = mutate(scheme, genes, 1.0, rng_for(0, "m"))
        assert np.array_equal(out, genes)

    def test_fixed_seed_reproducible(self, fix4):
        scheme = delta_relevant_loci(fix4, delta_percent=100.0)
        p1 = scheme.relevant_loci.copy()
        p2 = encode(fix4.true_partition(), scheme)
        cfg = small_config(mutation_prob=0.5)
        a = variation(scheme, p1, p2, cfg, rng_for(7, "v"))
        b = variation(scheme, p1, p2, cfg, rng_for(7, "v"))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestSortingMachinery:
    def test_fronts_partition_population(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(40, 2))
        fronts = fast_nondominated_sort(values)
        seen = np.concatenate(fronts)
        assert sorted(seen.tolist()) == list(range(40))

    def test_front0_is_nondominated(self):
        values = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0], [2.0, 2.0]])
        fronts = fast_nondominated_sort(values)
        assert sorted(fronts[0].tolist()) == [0, 1, 2]
        assert fronts[1].tolist() == [3]

    def test_tolerance_cycle_keeps_dominated_row_out(self):
        t = 1e-12  # ABS_FLOOR sets the tolerance this close to zero
        values = np.array([[0.0, .8 * t, 1.5 * t],
                           [1.5 * t, 0.0, .8 * t],
                           [.8 * t, 1.5 * t, 0.0],
                           [1.0, 1.0, 1.0]])
        dom = dominance(values[:, None, :], values[None, :, :])
        assert dom[0, 1] and dom[1, 2] and dom[2, 0]  # a dominance cycle
        assert dom[:3, 3].all()
        fronts = fast_nondominated_sort(values)
        assert [f.tolist() for f in fronts] == [[0, 1, 2], [3]]

    def test_disqualified_rank_after_every_front(self):
        specs = objectives("var", "con")
        vectors = [None] + [ObjectiveVector(specs=specs, values=v)
                            for v in [(1.0, 1.0), (2.0, 2.0), (0.0, 3.0)]] + [None]
        rank, crowding = _rank_population(vectors)
        assert rank.tolist() == [5, 0, 1, 0, 5]
        assert crowding[[0, 4]].tolist() == [0.0, 0.0]
        assert np.isinf(crowding[1:4]).all()  # fronts of one or two members

    def test_minimized_rows_equal_each_vector_minimized(self):
        specs = objectives("var", "sep_cl", "sil")
        assert minimize_signs(specs).tolist() == [1.0, -1.0, -1.0]
        rng = np.random.default_rng(3)
        vectors = [ObjectiveVector(specs=specs, values=tuple(
                       rng.normal(size=3) * 10.0 ** rng.integers(-5, 5, size=3)))
                   for _ in range(20)]
        assert np.array_equal(_minimized(vectors),
                              np.array([v.minimized() for v in vectors]))

    def test_truncate_orders_by_rank_crowding_index(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            rank = rng.integers(0, 4, n)
            crowding = rng.choice([0.0, 0.5, 1.0, np.inf], n)
            want = sorted(range(n), key=lambda i: (rank[i], -crowding[i], i))
            assert _truncate(rank, crowding, n).tolist() == want
            assert _truncate(rank, crowding, 3).tolist() == want[:3]

    def test_tournament_returns_better_of_two_draws(self):
        rank = np.array([0, 1, 0])
        crowding = np.array([1.0, np.inf, np.inf])
        preference = [2, 0, 1]  # best first
        rng, replay = rng_for(0, "t"), rng_for(0, "t")
        for _ in range(30):
            i, j = replay.integers(3, size=2)
            want = min(int(i), int(j), key=preference.index)
            assert _tournament(rank, crowding, rng) == want

    def test_crowding_extremes_infinite(self):
        values = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        dist = crowding_distance(values)
        assert np.isinf(dist[0]) and np.isinf(dist[3])
        assert np.isfinite(dist[1]) and np.isfinite(dist[2])


class TestEvolve:
    def test_zero_generations_is_nondominated_init(self, fix4):
        pop = generate_population(fix4, "mst", master_seed=0)
        cfg = small_config(population_size=4, generations=0,
                           mutation_prob=0.0, crossover_prob=0.0)
        front = evolve(fix4, cfg, pop)
        specs = cfg.objectives
        init_vectors = []
        for pi in pop.partitions:
            init_vectors.append(evaluate_vector(fix4, pi, specs))
        for m in front.members:
            assert not any(
                _dominates(v, m.vector) for v in init_vectors)

    def test_deterministic_front(self):
        ds = gen_blobs(3, 15, 8.0, seed=5)
        pop = generate_population(ds, "mst", master_seed=0)
        cfg = small_config(generations=5, seed=99)
        a = evolve(ds, cfg, pop)
        b = evolve(ds, cfg, pop)
        ser_a = [(m.partition.key, m.vector.values) for m in a.members]
        ser_b = [(m.partition.key, m.vector.values) for m in b.members]
        assert ser_a == ser_b

    def test_front_mutually_nondominated_each_generation(self):
        ds = gen_blobs(3, 15, 8.0, seed=6)
        pop = generate_population(ds, "mst", master_seed=0)
        for front in fronts_by_generation(ds, pop, small_config(generations=6)):
            members = [m.vector for m in front.members]
            assert members
            for u in members:
                for v in members:
                    assert not _dominates(u, v)

    def test_elitism_best_never_worsens(self):
        ds = gen_blobs(3, 15, 8.0, seed=7)
        pop = generate_population(ds, "mst", master_seed=0)
        fronts = fronts_by_generation(ds, pop, small_config(generations=10))
        best = np.array([_minimized([m.vector for m in front.members]).min(axis=0)
                         for front in fronts])
        assert np.all(np.diff(best, axis=0) <= 1e-9)

    def test_long_analog_front_contains_truth(self):
        ds = gen_elongated("long", 300, seed=8)
        truth = ds.true_partition()
        pop = generate_population(ds, "mst", master_seed=0)
        specs = objectives("var", "con")
        cfg = EmocConfig(objectives=specs, population_size=20,
                         generations=15, seed=4)
        fronts = fronts_by_generation(ds, pop, cfg)
        assert max(ari(m.partition, truth) for m in fronts[-1].members) == 1.0
        # the truth stays unbeaten on the front throughout the run
        truth_vec = evaluate_vector(ds, truth, specs)
        for front in fronts:
            assert not truth_dominated(front, truth_vec)

    # sha256 of the front's partition keys, recorded from the point-level
    # evaluation; the component-level evaluation and the partition memo must
    # leave the fronts unchanged.
    GOLDEN_FRONTS = {
        (("var", "con"), 11): "1ce88917f435239ca7d4df8dd4543b3188d9c5701c1f7de09e0e934d4ea0b0f3",
        (("var", "con"), 12): "6bd7dd1cdb3c0b6f85a481187787bbebfa28cfdb00ba492f60e399a1adcee203",
        (("var", "sep_cl"), 11): "84e03fa8a0e274d9effd31bf8d6c9a26fa6e6944134eaa11867504826ee3a5af",
        (("var", "sep_cl"), 12): "19a066962f6e0e0c05c6b5bab04f54020d3a027738e078417f9f20a3b08a8903",
    }

    @pytest.mark.parametrize("pair, seed", list(GOLDEN_FRONTS))
    def test_golden_fronts(self, pair, seed):
        ds = gen_elongated("spiral", 300, seed=3)
        pop = generate_population(ds, "mst", master_seed=0)
        specs = objectives(*pair)
        cfg = EmocConfig(objectives=specs, population_size=20, generations=10,
                         seed=seed)
        front = evolve(ds, cfg, pop)
        keys = b"".join(m.partition.key for m in front.members)
        assert hashlib.sha256(keys).hexdigest() == self.GOLDEN_FRONTS[pair, seed]
        for m in front.members:
            want = evaluate_vector(ds, m.partition, specs).values
            if pair == ("var", "con"):
                assert m.vector.values == want
            else:
                assert all(math.isclose(a, b, rel_tol=1e-9)
                           for a, b in zip(m.vector.values, want))

    def test_empty_init_rejected(self, fix4):
        pop = InitPopulation(source="mst", dataset="fix4", k_star=2,
                             master_seed=0)
        with pytest.raises(EmocError):
            evolve(fix4, small_config(), pop)

    def test_all_disqualified_rejected(self, fix4):
        pop = InitPopulation(source="mst", dataset="fix4", k_star=2,
                             master_seed=0,
                             partitions=[Partition(np.zeros(4, dtype=np.int64))],
                             records=[{"seed": None, "params": {"k": 1},
                                       "out_of_range": False}])
        cfg = small_config(objectives=objectives("sep_al", "sep_cl"),
                           generations=0, mutation_prob=0.0)
        with pytest.raises(EmocError):
            evolve(fix4, cfg, pop)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            small_config(population_size=7)
        with pytest.raises(ValueError):
            small_config(generations=-1)
        with pytest.raises(ValueError):
            EmocConfig(objectives=objectives("var"))
        with pytest.raises(ValueError):
            small_config(crossover_prob=1.5)

    def test_bad_L_rejected(self):
        for L in (0, -3, 2.5, "x", True):
            with pytest.raises(ValueError, match="L must be"):
                small_config(L=L)


def _dominates(u, v):
    from admissa import dominates
    return dominates(u, v)


class TestTruthDominated:
    def test_front_of_truth_itself(self, fix4, fix4_truth):
        specs = objectives("var", "con", L=1)
        tv = evaluate_vector(fix4, fix4_truth, specs)
        front = ParetoFront(members=[FrontMember(fix4_truth, tv)])
        assert truth_dominated(front, tv) is False

    def test_dominating_member(self, fix4, fix4_truth):
        specs = objectives("var", "con", L=1)
        good = ObjectiveVector(specs=specs, values=(1.0, 1.0))
        truth = ObjectiveVector(specs=specs, values=(2.0, 2.0))
        front = ParetoFront(members=[FrontMember(fix4_truth, good)])
        assert truth_dominated(front, truth) is True
