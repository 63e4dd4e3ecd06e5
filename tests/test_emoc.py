import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admissa import (DataError, EmocConfig, Partition, ari, decode,
                     delta_relevant_loci, encode, evolve, gen_blobs,
                     gen_elongated, generate_population, objective,
                     objectives, truth_dominated, variation)
from admissa.components import ComponentGeometry
from admissa.criteria import (CriterionError, KTooSmallError, ObjectiveVector,
                              evaluate, evaluate_vector, minimize_signs)
from admissa.emoc import (FrontMember, ParetoFront, _crowding, _rank_population,
                          _tournament, _truncate, mutate)
from admissa.initializers import InitPopulation, mst_cluster
from admissa.seeding import rng_for
from conftest import edge_values, one_class, tie_grids
from oracles import (oracle_crowding_distance, oracle_decode, oracle_mutate,
                     oracle_nondominated_sort)


def small_config(**over):
    base = dict(objectives=objectives("var", "con"), population_size=12,
                generations=8, seed=0)
    base.update(over)
    return EmocConfig(**base)


def domains(scheme):
    """Each relevant locus's gene domain, in locus order."""
    return [row[:n] for row, n in zip(scheme.domain_pad, scheme.domain_len)]


def fixed_edges(ds, loci):
    """(c, MST parent of c) for every point c but the root that is not a
    locus: the MST links that no genotype cuts."""
    parent, loci = ds.mst_parent, set(loci.tolist())
    return [(c, int(parent[c])) for c in range(ds.n)
            if parent[c] != c and c not in loci]


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
        assert scheme.relevant_loci.tolist() == list(range(1, fix4.n))

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
        for locus, dom in zip(scheme.relevant_loci.tolist(), domains(scheme)):
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
            ds = one_class(pts)
            scheme = delta_relevant_loci(ds, delta_percent=float(rng.uniform(10, 100)),
                                         L=int(rng.integers(1, 5)))
            loci = scheme.relevant_loci
            genotypes = [loci.copy(), scheme.parent[loci]]  # all self, all parent
            genotypes += [np.array([d[rng.integers(len(d))] for d in domains(scheme)])
                          for _ in range(4)]
            for genes in genotypes:
                pi = decode(scheme, genes)
                assert pi.assignment.tolist() == oracle_decode(
                    ds.n, fixed_edges(ds, loci), loci.tolist(), genes.tolist())

    @pytest.mark.parametrize("n", [2, 3, 17, 128, 129, 301])
    def test_long_parent_chains_match_oracle(self, n):
        # Points on a line with growing gaps: the MST is one path, and with
        # every edge relevant each point is its own base component, so
        # n_base = n and an all-parent genotype is one chain n long.
        ds = one_class(np.cumsum(np.arange(1.0, n + 1.0))[:, None])
        scheme = delta_relevant_loci(ds, delta_percent=100.0, L=2)
        assert scheme.n_base == n
        loci, parents = scheme.relevant_loci, scheme.parent[scheme.relevant_loci]
        rng = np.random.default_rng(n)
        genotypes = [parents, loci.copy()]
        genotypes += [np.where(rng.random(loci.size) < p, loci, parents)
                      for p in (0.01, 0.1, 0.5)]  # chains cut at random loci
        genotypes += [np.array([d[rng.integers(len(d))] for d in domains(scheme)])
                      for _ in range(3)]
        for genes in genotypes:
            assert decode(scheme, genes).assignment.tolist() == oracle_decode(
                ds.n, fixed_edges(ds, loci), loci.tolist(), genes.tolist())

    @pytest.mark.parametrize("n", [17, 100, 300])
    def test_one_long_cycle_matches_oracle(self, n):
        # Point 0, the MST root, at the center of a circle of the others,
        # each point its own base component: linking every circle point to
        # the next one round makes one cycle of n - 1 components, the
        # longest a genotype can make.
        angle = np.cumsum(np.linspace(1.0, 1.5, n - 1))
        angle *= 2 * np.pi / (angle[-1] + 1.25)
        ds = one_class(np.vstack([[0.0, 0.0], np.c_[np.cos(angle), np.sin(angle)]]))
        scheme = delta_relevant_loci(ds, delta_percent=100.0, L=2)
        loci = scheme.relevant_loci
        assert scheme.n_base == n and loci.tolist() == list(range(1, n))
        ring = np.roll(loci, -1)
        assert all(g in d for g, d in zip(ring, domains(scheme)))
        for genes in (ring, np.where(loci == n // 2, loci, ring)):
            assert decode(scheme, genes).assignment.tolist() == oracle_decode(
                ds.n, fixed_edges(ds, loci), loci.tolist(), genes.tolist())

    @pytest.mark.parametrize("seed", range(3))
    def test_links_inside_own_component_match_oracle(self, seed):
        # Few loci leave large base components, so many domain values lie
        # in the locus's own component: such a link changes nothing.
        rng = np.random.default_rng(seed)
        ds = one_class(rng.normal(size=(200, 2)))
        scheme = delta_relevant_loci(ds, delta_percent=float(rng.uniform(2, 20)), L=8)
        loci, base = scheme.relevant_loci, scheme.base_labels
        inside = [[g for g in d if g != i and base[g] == base[i]]
                  for i, d in zip(loci.tolist(), domains(scheme))]
        assert any(inside)
        for _ in range(5):
            genes = np.array([
                g[rng.integers(len(g))] if g and rng.random() < 0.7
                else d[rng.integers(len(d))]
                for g, d in zip(inside, domains(scheme))])
            assert decode(scheme, genes).assignment.tolist() == oracle_decode(
                ds.n, fixed_edges(ds, loci), loci.tolist(), genes.tolist())


def _outcome(evaluate):
    """The value, or the type of the criterion error raised."""
    try:
        return evaluate()
    except CriterionError as err:
        return type(err)


class TestComponentGeometry:
    COARSE_SPECS = [objective("sep_cl"), objective("con", L=1),
                    objective("con", L=3), objective("con", L=7)]

    @staticmethod
    def random_geometry(seed, kind):
        """A random, tie-grid or duplicate-point dataset, its scheme and
        the scheme's geometry, all drawn from ``seed``."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        if kind == "random":
            pts = rng.normal(size=(n, int(rng.integers(1, 4))))
        elif kind == "ties":
            sets = tie_grids(seed % 1000, draws=4)
            pts = sets[int(rng.integers(len(sets)))]
        else:
            pts = rng.normal(size=(n // 3 + 1, 2))[rng.integers(0, n // 3 + 1, n)]
        ds = one_class(pts)
        scheme = delta_relevant_loci(ds, delta_percent=float(rng.uniform(1, 100)),
                                     L=int(rng.integers(1, 6)))
        return rng, ds, scheme, ComponentGeometry(ds, scheme.base_labels,
                                                  scheme.n_base)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.sampled_from(["random", "ties", "duplicates"]))
    @settings(max_examples=60, deadline=None)
    def test_coarse_kernels_match_point_level(self, seed, kind):
        rng, ds, scheme, geometry = self.random_geometry(seed, kind)
        for _ in range(3):
            genes = np.array([d[rng.integers(len(d))] for d in domains(scheme)])
            pi = decode(scheme, genes)
            for spec in self.COARSE_SPECS:
                want = _outcome(lambda: evaluate_vector(ds, pi, [spec]).values[0])
                got = _outcome(lambda: evaluate_vector(
                    ds, pi, [spec], geometry.evaluate).values[0])
                if isinstance(want, type):
                    assert got is want, spec
                elif spec.id == "con":
                    assert got == want, spec
                else:
                    assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), spec

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.sampled_from(["random", "ties", "duplicates"]))
    @settings(max_examples=60, deadline=None)
    def test_sums_equal_two_step_reduceat_bits(self, seed, kind):
        # The (n_base x n) stack of each component's distance-row sums,
        # reduced over the components' columns in one call.
        _, ds, _, geometry = self.random_geometry(seed, kind)
        order = np.argsort(geometry.labels, kind="stable")
        starts = np.searchsorted(geometry.labels[order], np.arange(geometry.n_base))
        P = np.stack([ds.distances[geometry.labels == c].sum(axis=0)
                      for c in range(geometry.n_base)])
        want = np.add.reduceat(P[:, order], starts, axis=1)
        assert np.array_equal(geometry.sums.view(np.int64), want.view(np.int64))

    def test_evaluate_vector_passes_evaluator_error_on(self, fix4):
        scheme = delta_relevant_loci(fix4, delta_percent=100.0)
        geometry = ComponentGeometry(fix4, scheme.base_labels, scheme.n_base)
        one = Partition(np.zeros(fix4.n, dtype=np.int64))
        for evaluator in (evaluate, geometry.evaluate):
            raised = []

            def recording(ds, pi, spec):
                try:
                    return evaluator(ds, pi, spec)
                except CriterionError as err:
                    raised.append(err)
                    raise

            with pytest.raises(KTooSmallError) as err:
                evaluate_vector(fix4, one, objectives("var", "sep_cl"), recording)
            assert err.value is raised[0]

    def test_other_criteria_are_point_level(self, fix4, fix4_truth):
        scheme = delta_relevant_loci(fix4, delta_percent=100.0)
        geometry = ComponentGeometry(fix4, scheme.base_labels, scheme.n_base)
        specs = objectives("var", "ch", "dcd", "xb", "mod", "sil", "dunn")
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
        ds = one_class(np.array([[0.0], [1.0], [2.0]]))
        scheme = delta_relevant_loci(ds, delta_percent=100.0, L=1)
        # shrink every domain to just the current gene
        genes = scheme.domain_pad[:, 0].copy()
        scheme.domain_len = np.ones_like(scheme.domain_len)
        out = mutate(scheme, genes, 1.0, rng_for(0, "m"))
        assert np.array_equal(out, genes)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.sampled_from([0.0, None, 0.3, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_mutate_matches_scalar_oracle(self, seed, prob):
        # The same genes, and the generator left in the same state.
        rng = np.random.default_rng(seed)
        ds = one_class(rng.normal(size=(int(rng.integers(2, 60)), 2)))
        scheme = delta_relevant_loci(ds, delta_percent=float(rng.uniform(1, 100)),
                                     L=int(rng.integers(1, 8)))
        if prob is None:
            prob = 1.0 / len(scheme.relevant_loci)
        a, b = rng_for(seed, "mutate"), rng_for(seed, "mutate")
        genes = scheme.relevant_loci.copy()
        for _ in range(10):
            got = mutate(scheme, genes, prob, a)
            assert np.array_equal(got, oracle_mutate(domains(scheme), genes, prob, b))
            genes = got
        assert a.bit_generator.state == b.bit_generator.state

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
        rank, _ = _rank_population(values)
        assert rank.max() < len(values)  # every row is on a front
        assert set(rank.tolist()) == set(range(rank.max() + 1))

    def test_front0_is_nondominated(self):
        values = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0], [2.0, 2.0]])
        rank, _ = _rank_population(values)
        assert rank.tolist() == [0, 0, 0, 1]

    @given(edge_values(st.just(2)).flatmap(lambda v: st.tuples(
        st.just(v), st.lists(st.booleans(), min_size=len(v), max_size=len(v)))))
    @example((np.array([[0.9999999995, 1.0000000005], [1.0000000005, 0.9999999995],
                        [0.0, 2.0], [3.0, 3.0]]), [False, False, False, True]))
    @example((np.array([[5e-13, 1.5e-12], [1.5e-12, 5e-13], [0.0, 1.0],
                        [2.0, 2.0]]), [False, True, False, False]))
    @settings(max_examples=300, deadline=None)
    def test_peel_and_crowding_equal_oracle(self, case):
        # Two-objective rows at the tolerance's edge, some disqualified
        # (NaN rows): the peel gives the dominator-count sort's fronts,
        # and the crowding is each oracle front's, bit for bit. A pinned
        # case holds a pair that the old "no worse" and "better" tests let
        # dominate each other; it shared a front behind an undominated
        # third row.
        values, nan = case
        values = values.copy()
        values[np.array(nan)] = np.nan
        feasible = np.flatnonzero(~np.isnan(values[:, 0]))
        want_rank = np.full(len(values), len(values))
        want_crowding = np.zeros(len(values))
        for r, front in enumerate(oracle_nondominated_sort(values[feasible])):
            rows = feasible[front]
            want_rank[rows] = r
            want_crowding[rows] = oracle_crowding_distance(values[rows])
        rank, crowding = _rank_population(values)
        assert np.array_equal(rank, want_rank)
        assert np.array_equal(crowding.view(np.int64), want_crowding.view(np.int64))

    def test_disqualified_rank_after_every_front(self):
        nan = np.nan
        values = np.array([[nan, nan], [1.0, 1.0], [2.0, 2.0], [0.0, 3.0],
                           [nan, nan]])
        rank, crowding = _rank_population(values)
        assert rank.tolist() == [5, 0, 1, 0, 5]
        assert crowding[[0, 4]].tolist() == [0.0, 0.0]
        assert np.isinf(crowding[1:4]).all()  # fronts of one or two members

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_survivors_keep_ranks_with_two_objectives(self, seed):
        # evolve's step after truncation: with two objectives the survivors
        # keep their ranks and only their crowding is computed again. It
        # gives the ranks and crowding, and so the next truncation order,
        # of ranking the survivors from scratch, on tie-heavy values with
        # duplicate rows and disqualified members (NaN rows).
        rng = np.random.default_rng(seed)
        specs = objectives("var", "sep_cl")  # minimize, maximize
        size = int(rng.integers(2, 30))
        grid = rng.integers(0, int(rng.integers(1, 6)), size=(2 * size, 2))
        values = np.array([
            np.full(2, np.nan) if rng.random() < 0.15 else
            ObjectiveVector(specs=specs, values=tuple(map(float, row))).minimized()
            for row in grid])
        rank, crowding = _rank_population(values)
        keep = _truncate(rank, crowding, size)
        survivors = values[keep]
        want_rank, want_crowding = _rank_population(survivors)
        got_rank = np.minimum(rank[keep], size)
        assert np.array_equal(got_rank, want_rank)
        assert np.array_equal(_crowding(survivors, got_rank), want_crowding)

    def test_minimized_rows_equal_each_vector_minimized(self):
        # evolve keeps each member's values as ``signs * vector.values`` and
        # rebuilds a front member's vector as ``signs * row``: both are exact.
        specs = objectives("var", "sep_cl", "sil")
        signs = minimize_signs(specs)
        assert signs.tolist() == [1.0, -1.0, -1.0]
        rng = np.random.default_rng(3)
        vectors = [ObjectiveVector(specs=specs, values=tuple(
                       rng.normal(size=3) * 10.0 ** rng.integers(-5, 5, size=3)))
                   for _ in range(20)] + [ObjectiveVector(specs, (0.0, -0.0, 0.0))]
        rows = np.array([signs * v.values for v in vectors])
        assert np.array_equal(rows, np.array([v.minimized() for v in vectors]))
        for v, row in zip(vectors, rows):
            back = tuple((signs * row).tolist())
            assert back == v.values
            assert [math.copysign(1, x) for x in back] == \
                [math.copysign(1, x) for x in v.values]

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
        dist = _crowding(values, np.zeros(4, dtype=np.int64))
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
        best = np.array([np.min([m.vector.minimized() for m in front.members], axis=0)
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
        with pytest.raises(DataError):
            evolve(fix4, small_config(), pop)

    def test_init_of_wrong_size_rejected(self):
        ds = gen_blobs(3, 12, 10.0, seed=0)
        pop = InitPopulation(source="mst", dataset=ds.name, k_star=3,
                             master_seed=0,
                             partitions=[Partition(np.arange(37) % 3)],
                             records=[{"seed": None, "params": {"k": 3},
                                       "out_of_range": False}])
        with pytest.raises(DataError, match="36 points"):
            evolve(ds, small_config(), pop)

    def test_all_disqualified_rejected(self, fix4):
        pop = InitPopulation(source="mst", dataset="fix4", k_star=2,
                             master_seed=0,
                             partitions=[Partition(np.zeros(4, dtype=np.int64))],
                             records=[{"seed": None, "params": {"k": 1},
                                       "out_of_range": False}])
        cfg = small_config(objectives=objectives("sep_al", "sep_cl"),
                           generations=0, mutation_prob=0.0)
        with pytest.raises(DataError):
            evolve(fix4, cfg, pop)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            small_config(population_size=7)
        with pytest.raises(ValueError):
            small_config(generations=-1)
        with pytest.raises(ValueError):
            EmocConfig(objectives=objectives("var"))
        with pytest.raises(ValueError, match="exactly 2 objectives"):
            EmocConfig(objectives=objectives("var", "con", "sep_cl"))
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
