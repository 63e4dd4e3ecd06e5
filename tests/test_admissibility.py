import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admissa import (ADMISSIBLE, ALL_IDS, INADMISSIBLE, OPTIMAL_IN_INIT,
                     DataError, Dataset, Partition, build_admissibility_table,
                     classify_objective, dominates, gen_blobs, gen_elongated,
                     gen_mixed, gen_nested, generate_population, objective,
                     objectives, render_tables)
from admissa.criteria import MAXIMIZE, MINIMIZE, ObjectiveVector
from admissa import admissibility
from admissa.admissibility import (ABS_FLOOR, REL_TOL, AdmissibilityVerdict,
                                   classify_cell, dominance)
from admissa.initializers import InitPopulation
from conftest import centers, edge_values, finite, near
from oracles import oracle_dominance


@st.composite
def close_values(draw):
    """Rows of 1-3 objective values, each near a shared center or
    anywhere in range."""
    cs = [draw(centers) for _ in range(draw(st.integers(1, 3)))]
    m = draw(st.integers(1, 6))
    return [[draw(st.one_of(near(c), finite)) for c in cs] for _ in range(m)]


def strictly_better(a, b, direction):
    """Reference scalar rule: a beats b beyond the shared tolerance, read
    from the one difference a - b."""
    tol = max(REL_TOL * max(abs(a), abs(b)), ABS_FLOOR)
    d = a - b
    return d < -tol if direction == MINIMIZE else d > tol


def vec(values, specs=None):
    specs = specs or objectives("var", "con")
    return ObjectiveVector(specs=tuple(specs), values=tuple(values))


class TestDominates:
    def test_strict_on_both(self):
        assert dominates(vec([1.0, 1.0]), vec([2.0, 2.0]))

    def test_irreflexive(self):
        v = vec([1.0, 2.0])
        assert not dominates(v, v)

    def test_incomparable(self):
        assert not dominates(vec([1.0, 3.0]), vec([2.0, 2.0]))
        assert not dominates(vec([2.0, 2.0]), vec([1.0, 3.0]))

    def test_direction_aware(self):
        specs = objectives("var", "sep_cl")  # minimize, maximize
        assert dominates(vec([1.0, 9.0], specs), vec([2.0, 5.0], specs))
        assert not dominates(vec([1.0, 5.0], specs), vec([2.0, 9.0], specs))

    def test_mismatched_specs_rejected(self):
        with pytest.raises(ValueError):
            dominates(vec([1.0, 1.0]), vec([1.0, 1.0], objectives("var", "ch")))

    def test_axioms_on_random_triples(self):
        rng = np.random.default_rng(0)
        specs = objectives("var", "con")
        for _ in range(1000):
            u, v, w = (vec(rng.normal(size=2), specs) for _ in range(3))
            assert not dominates(u, u)
            assert not (dominates(u, v) and dominates(v, u))
            if dominates(u, v) and dominates(v, w):
                assert dominates(u, w)


class TestDominanceKernel:
    @given(close_values())
    @settings(max_examples=300, deadline=None)
    def test_matrix_form_equals_pairwise_dominates(self, rows):
        specs = objectives("var", "sep_cl", "con")[:len(rows[0])]  # min, max, min
        vecs = [vec(r, specs) for r in rows]
        mins = np.array([v.minimized() for v in vecs])
        dom = dominance(mins[:, None, :], mins[None, :, :])
        assert dom.shape == (len(rows), len(rows))
        for i, u in enumerate(vecs):
            for j, v in enumerate(vecs):
                assert dom[i, j] == dominates(u, v)

    @given(edge_values())
    @settings(max_examples=300, deadline=None)
    def test_per_objective_passes_equal_oracle(self, values):
        want = oracle_dominance(values[:, None, :], values[None, :, :])
        assert np.array_equal(dominance(values[:, None, :], values[None, :, :]), want)
        for a, b in zip(values, values[::-1]):
            assert dominance(a, b) == oracle_dominance(a, b)

    @given(edge_values())
    @example(np.array([[0.9999999995, 1.0000000005], [1.0000000005, 0.9999999995]]))
    @example(np.array([[5e-13, 1.5e-12], [1.5e-12, 5e-13]]))
    @settings(max_examples=300, deadline=None)
    def test_no_two_rows_dominate_each_other(self, values):
        # "No worse" and "better" read one difference per objective, so a
        # row no worse than another is one the other is not better than.
        # The pinned pairs sit at the tolerance's edge (relative near 1,
        # absolute near 0), where a "no worse" test of x <= y + tol and a
        # "better" test of x < y - tol let each row dominate the other.
        dom = dominance(values[:, None, :], values[None, :, :])
        assert not (dom & dom.T).any()

    @given(centers.flatmap(lambda c: st.tuples(
        st.one_of(near(c), finite), st.one_of(near(c), finite))))
    @settings(max_examples=300, deadline=None)
    def test_single_objective_form_agrees_with_classifier(self, pair):
        a, b = pair
        for direction, sign in ((MINIMIZE, 1.0), (MAXIMIZE, -1.0)):
            better = bool(dominance([sign * a], [sign * b]))
            assert better == strictly_better(a, b, direction)
            verdict, _, _ = classify_objective([a], b, direction, False)
            assert (verdict == INADMISSIBLE) == better


class TestClassifyObjective:
    def test_minimizing_seven_beats_nine(self):
        verdict, witness, margin = classify_objective([7.0], 9.0, MINIMIZE, False)
        assert verdict == INADMISSIBLE and witness == 0
        assert margin == pytest.approx(2.0)

    def test_truth_present_no_exceedance(self):
        verdict, _, _ = classify_objective([5.0, 9.0], 9.0, MAXIMIZE, True)
        assert verdict == OPTIMAL_IN_INIT

    def test_room_to_optimize(self):
        verdict, _, margin = classify_objective([10.0, 12.0], 9.0, MINIMIZE, False)
        assert verdict == ADMISSIBLE
        assert margin == pytest.approx(-1.0)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            classify_objective([], 1.0, MINIMIZE, False)

    def test_inadmissible_precedence_over_optimal(self):
        verdict, _, _ = classify_objective([7.0], 9.0, MINIMIZE, True)
        assert verdict == INADMISSIBLE

    def test_direction_flip_duality(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            values = rng.normal(size=rng.integers(1, 6)).tolist()
            true_value = float(rng.normal())
            truth_found = bool(rng.integers(2))
            a = classify_objective(values, true_value, MINIMIZE, truth_found)
            b = classify_objective([-v for v in values], -true_value,
                                   MAXIMIZE, truth_found)
            assert a[0] == b[0] and a[1] == b[1]
            assert a[2] == pytest.approx(b[2], rel=1e-12, abs=1e-12)

    def test_ties_within_tolerance_are_not_strict(self):
        verdict, _, _ = classify_objective([9.0 - 1e-12], 9.0, MINIMIZE, False)
        assert verdict == ADMISSIBLE

    @given(st.lists(finite, min_size=1, max_size=6), finite, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_duality_holds_for_arbitrary_floats(self, values, true_value,
                                                truth_found):
        a = classify_objective(values, true_value, MINIMIZE, truth_found)
        b = classify_objective([-v for v in values], -true_value, MAXIMIZE,
                               truth_found)
        assert a[0] == b[0] and a[1] == b[1]


class TestClassifyCell:
    def test_truth_in_population_excluded_from_strictness(self):
        ds = gen_blobs(3, 20, 10.0, seed=1)
        pop = generate_population(ds, "mst", master_seed=0)
        truth = ds.true_partition()
        assert any(p.same_as(truth) for p in pop.partitions)
        verdict, _ = classify_cell(ds, pop, objective("dunn"), "mst", truth, {})
        assert verdict.verdict in (OPTIMAL_IN_INIT, INADMISSIBLE)
        # adding one more copy of the truth never flips the verdict
        pop.partitions.append(truth)
        pop.records.append({"seed": None, "params": {"k": truth.k},
                            "out_of_range": False})
        verdict2, _ = classify_cell(ds, pop, objective("dunn"), "mst", truth, {})
        assert verdict2.verdict == verdict.verdict

    def test_optimal_witness_is_first_truth_copy(self):
        ds = gen_blobs(3, 20, 10.0, seed=1)
        pop = generate_population(ds, "mst", master_seed=0)
        truth = ds.true_partition()
        pop.partitions.insert(0, truth)  # a second copy, ahead of the first
        verdict, _ = classify_cell(ds, pop, objective("sil"), "mst", truth, {})
        assert verdict.verdict == OPTIMAL_IN_INIT
        assert verdict.witness == 0

    def test_criterion_errors_recorded_not_fatal(self, fix4, fix4_truth):
        pop = generate_population(fix4, "mst", master_seed=0)
        # the k=4 all-singletons member breaks dunn; the cell still resolves
        verdict, skips = classify_cell(fix4, pop, objective("dunn"), "mst",
                                       fix4_truth, {})
        assert verdict is not None
        assert any("skipped" in s for s in skips)


class TestBuildTable:
    def test_single_cell_consistency(self, fix4):
        table = build_admissibility_table([fix4], "mst", [objective("var")],
                                          [generate_population(fix4, "mst")])
        assert len(table.cells) == 1 and len(table.cells[0]) == 1
        cell = table.cells[0][0]
        # finer partitions have strictly smaller var than the truth
        assert cell.verdict == INADMISSIBLE
        summary = table.summary()
        assert summary["var"] == (1, 0)

    def test_summary_matches_recount(self):
        ds = gen_blobs(4, 15, 8.0, seed=2)
        specs = [objective(c) for c in ("var", "dunn", "con", "sep_cl")]
        table = build_admissibility_table(
            [ds], "km", specs, [generate_population(ds, "km", master_seed=1)])
        summary = table.summary()
        for j, spec in enumerate(specs):
            col = [row[j] for row in table.cells]
            assert summary[spec.id][0] == sum(
                1 for v in col if v and v.verdict == INADMISSIBLE)
            assert summary[spec.id][1] == sum(
                1 for v in col if v and v.verdict == OPTIMAL_IN_INIT)
            n_in, n_op = summary[spec.id]
            assert n_in + n_op <= len(table.dataset_names)

    def test_partition_of_wrong_size_rejected(self):
        ds = gen_blobs(3, 12, 10.0, seed=0)
        pop = InitPopulation(source="mst", dataset=ds.name, k_star=3,
                             master_seed=0,
                             partitions=[Partition(np.arange(35) % 3)],
                             records=[{"seed": None, "params": {"k": 3},
                                       "out_of_range": False}])
        for crit in ("var", "sep_cl", "mod", "con"):
            with pytest.raises(DataError, match="partition has 35 points"):
                build_admissibility_table([ds], "mst", [objective(crit)], [pop])

    def test_exports(self, fix4):
        specs = [objective("var"), objective("dunn")]
        table = build_admissibility_table([fix4], "mst", specs,
                                          [generate_population(fix4, "mst")])
        csv = render_tables([table], [], "csv")["admissibility_mst.csv"]
        assert csv.splitlines()[0] == "dataset,var,dunn"
        assert "fix4" in csv
        md = render_tables([table], [], "markdown")["admissibility_mst.md"]
        assert md.startswith("| dataset | var | dunn |")
        rec = table.to_records()
        assert rec["initializer"] == "mst"
        assert rec["summary"]["var"]["IN"] in (0, 1)

    def test_records_rebuild_verdicts(self, fix4):
        # fix4 holds the zero vector, so its ent cell is null
        datasets = [fix4, gen_blobs(3, 8, 6.0, seed=4)]
        specs = [objective(c) for c in ("var", "dunn", "sil", "ent")]
        table = build_admissibility_table(
            datasets, "mst", specs, [generate_population(ds, "mst") for ds in datasets])
        cells = table.to_records()["cells"]
        assert cells[0][3] is None
        assert [[None if c is None else AdmissibilityVerdict(**c) for c in row]
                for row in cells] == table.cells
        assert list(cells[1][0]) == [
            "objective", "dataset", "initializer", "verdict", "witness", "margin"]

    def test_shared_memos_evaluate_each_partition_once(self, fix4, monkeypatch):
        calls = []
        original = admissibility.evaluate

        def counting(ds, pi, spec):
            calls.append(spec.id)
            return original(ds, pi, spec)

        monkeypatch.setattr(admissibility, "evaluate", counting)
        datasets = [fix4, gen_blobs(3, 8, 6.0, seed=4)]
        specs = [objective(c) for c in ("var", "dunn", "sil")]
        inits = ("mst", "sl", "km")
        pops = {i: [generate_population(ds, i, master_seed=0) for ds in datasets]
                for i in inits}

        def records(memos):
            calls.clear()
            recs = [build_admissibility_table(datasets, i, specs, populations=pops[i],
                                              memos=memos).to_records()
                    for i in inits]
            return recs, len(calls)

        fresh, fresh_calls = records(None)
        memos = [{} for _ in datasets]
        shared, shared_calls = records(memos)
        assert shared == fresh
        assert any(rec["skips"] for rec in shared)  # dunn errors are replayed
        stored = sum(len(values) for m in memos for values in m.values())
        assert shared_calls == stored < fresh_calls

    def test_memo_filled_partition_by_partition(self, fix4):
        # The table evaluates each partition's objectives together, the
        # truth first; classifying the cells one objective at a time, each
        # evaluating what it reads, gives the same verdicts and skips, and
        # a memo holding the same values and errors. fix4 holds the zero
        # vector, so its truth cannot be evaluated under ent.
        datasets = [fix4, gen_blobs(3, 8, 6.0, seed=4), gen_mixed("3mc", seed=14, n=60)]
        specs = objectives(*ALL_IDS)

        def contents(memo):
            return {key: {spec: (type(v), str(v)) if isinstance(v, Exception) else v
                          for spec, v in values.items()}
                    for key, values in memo.items()}

        all_skips = []
        for ds in datasets:
            truth = ds.true_partition()
            for init in ("mst", "sl"):
                pop = generate_population(ds, init, master_seed=0)
                memo = {}
                table = build_admissibility_table([ds], init, specs, [pop], [memo])
                cell_memo, cells, skips = {}, [], []
                all_skips += table.skips
                for spec in specs:
                    verdict, cell_skips = classify_cell(ds, pop, spec, init, truth,
                                                        cell_memo)
                    cells.append(verdict)
                    skips += cell_skips
                assert table.cells == [cells] and table.skips == skips
                assert contents(memo) == contents(cell_memo)
        assert any("not evaluable" in s for s in all_skips)
        assert any("skipped" in s for s in all_skips)

    def test_population_partitions_keep_no_shared_values(self, monkeypatch):
        # Each partition is evaluated on a throwaway copy, and the copy is
        # gone before the next partition's first evaluation.
        ds = gen_mixed("3mc", seed=14, n=60)
        pop = generate_population(ds, "mst", master_seed=0)
        evaluated = []
        original = admissibility.evaluate

        def tracking(ds, pi, spec):
            alive = [ref() for ref in evaluated if ref() is not None]
            assert all(other is pi for other in alive)
            assert all(pi is not member for member in pop.partitions)
            evaluated.append(weakref.ref(pi))
            return original(ds, pi, spec)

        monkeypatch.setattr(admissibility, "evaluate", tracking)
        build_admissibility_table([ds], "mst", objectives(*ALL_IDS), [pop])
        assert len(evaluated) > len(ALL_IDS) * len(pop.partitions) / 2
        assert all("_shared" not in vars(pi) for pi in pop.partitions)

    def test_witness_points_at_proof(self, fix4):
        pop = generate_population(fix4, "mst", master_seed=0)
        table = build_admissibility_table([fix4], "mst", [objective("var")], [pop])
        cell = table.cells[0][0]
        from admissa import evaluate
        witness_value = evaluate(fix4, pop.partitions[cell.witness],
                                 objective("var"))
        truth_value = evaluate(fix4, fix4.true_partition(), objective("var"))
        assert witness_value < truth_value


def verdict_and_witness(v):
    return None if v is None else (v.verdict, v.witness)


class TestPointOrder:
    """Metamorphic check: the order of the points is not part of the data.
    Permuting them, labels carried along, leaves each deterministic
    initializer's population (mapped back to the original order) and every
    verdict and witness of the 17 objectives as they were. km is left out:
    it draws its seeds by point index, so a permutation acts as a reseed."""

    DATASETS = [gen_blobs(3, 20, 4.0, seed=11), gen_elongated("long", n=120, seed=12),
                gen_nested(2, seed=13, n=130), gen_mixed("3mc", seed=14, n=120)]

    @pytest.mark.parametrize("ds", DATASETS, ids=lambda ds: ds.name)
    def test_permuting_points_changes_no_population_or_verdict(self, ds):
        specs = objectives(*ALL_IDS)
        orders = [np.random.default_rng(draw).permutation(ds.n) for draw in range(3)]
        kinds = set()
        for init in ("mst", "al", "sl", "snn"):
            pop = generate_population(ds, init)
            table = build_admissibility_table([ds], init, specs, [pop])
            kinds.update(v.verdict for v in table.cells[0] if v is not None)
            for order in orders:
                moved = Dataset(ds.points[order], ds.labels[order], ds.name)
                moved_pop = generate_population(moved, init)
                back = np.empty((len(moved_pop.partitions), ds.n), dtype=np.int64)
                back[:, order] = [pi.assignment for pi in moved_pop.partitions]
                assert [Partition(a).key for a in back] == [pi.key for pi in pop.partitions]
                assert moved_pop.records == pop.records
                moved_table = build_admissibility_table([moved], init, specs, [moved_pop])
                assert ([verdict_and_witness(v) for v in moved_table.cells[0]]
                        == [verdict_and_witness(v) for v in table.cells[0]])
        assert INADMISSIBLE in kinds and len(kinds) > 1  # not one verdict for all
