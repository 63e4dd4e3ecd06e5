import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissa import (ADMISSIBLE, INADMISSIBLE, OPTIMAL_IN_INIT,
                     build_admissibility_table, classify_objective, dominates,
                     gen_blobs, generate_population, objective, objectives,
                     render_tables)
from admissa.criteria import MAXIMIZE, MINIMIZE, ObjectiveVector
from admissa import admissibility
from admissa.admissibility import ABS_FLOOR, REL_TOL, classify_cell, dominance

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# near zero ABS_FLOOR sets the tolerance, elsewhere REL_TOL does
centers = st.one_of(st.just(0.0), st.floats(-1e-11, 1e-11), finite)


def near(center):
    """Values within two tolerances of ``center``."""
    tol = max(REL_TOL * abs(center), ABS_FLOOR)
    return st.floats(-2.0, 2.0).map(lambda k: center + k * tol)


@st.composite
def close_values(draw):
    """Rows of 1-3 objective values, each near a shared center or
    anywhere in range."""
    cs = [draw(centers) for _ in range(draw(st.integers(1, 3)))]
    m = draw(st.integers(1, 6))
    return [[draw(st.one_of(near(c), finite)) for c in cs] for _ in range(m)]


def strictly_better(a, b, direction):
    """Reference scalar rule: a beats b beyond the shared tolerance."""
    tol = max(REL_TOL * max(abs(a), abs(b)), ABS_FLOOR)
    return a < b - tol if direction == MINIMIZE else a > b + tol


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
        verdict, _ = classify_cell(ds, pop, objective("dunn"), "mst")
        assert verdict.verdict in (OPTIMAL_IN_INIT, INADMISSIBLE)
        # adding one more copy of the truth never flips the verdict
        pop.partitions.append(truth)
        pop.records.append({"seed": None, "params": {"k": truth.k},
                            "out_of_range": False})
        verdict2, _ = classify_cell(ds, pop, objective("dunn"), "mst")
        assert verdict2.verdict == verdict.verdict

    def test_optimal_witness_is_first_truth_copy(self):
        ds = gen_blobs(3, 20, 10.0, seed=1)
        pop = generate_population(ds, "mst", master_seed=0)
        truth = ds.true_partition()
        pop.partitions.insert(0, truth)  # a second copy, ahead of the first
        verdict, _ = classify_cell(ds, pop, objective("sil"), "mst")
        assert verdict.verdict == OPTIMAL_IN_INIT
        assert verdict.witness == 0

    def test_criterion_errors_recorded_not_fatal(self, fix4):
        pop = generate_population(fix4, "mst", master_seed=0)
        # the k=4 all-singletons member breaks dunn; the cell still resolves
        verdict, skips = classify_cell(fix4, pop, objective("dunn"), "mst")
        assert verdict is not None
        assert any("skipped" in s for s in skips)


class TestBuildTable:
    def test_single_cell_consistency(self, fix4):
        table = build_admissibility_table([fix4], "mst", [objective("var")],
                                          master_seed=0)
        assert len(table.cells) == 1 and len(table.cells[0]) == 1
        cell = table.cells[0][0]
        # finer partitions have strictly smaller var than the truth
        assert cell.verdict == INADMISSIBLE
        summary = table.summary()
        assert summary["var"] == (1, 0)

    def test_summary_matches_recount(self):
        ds = gen_blobs(4, 15, 8.0, seed=2)
        specs = [objective(c) for c in ("var", "dunn", "con", "sep_cl")]
        table = build_admissibility_table([ds], "km", specs, master_seed=1)
        summary = table.summary()
        for j, spec in enumerate(specs):
            col = [row[j] for row in table.cells]
            assert summary[spec.id][0] == sum(
                1 for v in col if v and v.verdict == INADMISSIBLE)
            assert summary[spec.id][1] == sum(
                1 for v in col if v and v.verdict == OPTIMAL_IN_INIT)
            n_in, n_op = summary[spec.id]
            assert n_in + n_op <= len(table.dataset_names)

    def test_unlabeled_dataset_rejected(self):
        from admissa import Dataset
        ds = Dataset(np.random.default_rng(0).normal(size=(10, 2)))
        with pytest.raises(Exception):
            build_admissibility_table([ds], "mst", [objective("var")])

    def test_exports(self, fix4):
        specs = [objective("var"), objective("dunn")]
        table = build_admissibility_table([fix4], "mst", specs, master_seed=0)
        csv = render_tables([table], [], "csv")["admissibility_mst.csv"]
        assert csv.splitlines()[0] == "dataset,var,dunn"
        assert "fix4" in csv
        md = render_tables([table], [], "markdown")["admissibility_mst.md"]
        assert md.startswith("| dataset | var | dunn |")
        rec = table.to_records()
        assert rec["initializer"] == "mst"
        assert rec["summary"]["var"]["IN"] in (0, 1)

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

    def test_witness_points_at_proof(self, fix4):
        table = build_admissibility_table([fix4], "mst", [objective("var")],
                                          master_seed=0)
        cell = table.cells[0][0]
        pop = generate_population(fix4, "mst", master_seed=0)
        from admissa import evaluate
        witness_value = evaluate(fix4, pop.partitions[cell.witness],
                                 objective("var"))
        truth_value = evaluate(fix4, fix4.true_partition(), objective("var"))
        assert witness_value < truth_value
