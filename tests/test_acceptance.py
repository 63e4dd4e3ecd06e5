"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

The heavier criteria drive generated structural analogs of the benchmark
families at desk scale; sizes are reduced but the structural properties
(separation, elongation, nesting) that the checks rely on are preserved.
"""

import json
import os
import time

import numpy as np
import pytest

from admissa import (ADMISSIBLE, EmocConfig, INADMISSIBLE, OPTIMAL_IN_INIT,
                     Partition, ari, build_admissibility_table,
                     classify_objective, dominates, evaluate, evaluate_vector,
                     evolve, gen_blobs, gen_elongated, gen_mixed, gen_nested,
                     generate_population, load_dataset, objective, objectives,
                     truth_dominated)
from admissa.cli import main as cli_main
from admissa.criteria import ALL_IDS, MAXIMIZE, MINIMIZE, ObjectiveVector
from admissa.criteria import eval_dev, eval_var
from admissa.seeding import derive_seed
from conftest import random_instance
from oracles import ORACLES, oracle_ari_paircount


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def random_partition(rng, n, k):
    k = min(k, n)
    labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
    rng.shuffle(labels)
    return Partition(labels)


def test_c01_metric_identity_dev_equals_n_var():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        ds, pi = random_instance(rng)
        dev = eval_dev(ds, pi)
        var = eval_var(ds, pi)
        if dev != 0.0:
            worst = max(worst, abs(dev - ds.n * var) / abs(dev))
    elapsed = time.monotonic() - start
    report("1 metric-identity", worst <= 1e-12 and elapsed < 5.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_c02_oracle_equivalence_all_criteria():
    start = time.monotonic()
    rng = np.random.default_rng(102)
    prm = {"L": 4, "k_size": 3, "con_penalty": "paper"}
    worst = {crit: 0.0 for crit in ALL_IDS}
    for _ in range(50):
        ds, pi = random_instance(rng)
        pts = ds.points.tolist()
        lab = pi.assignment.tolist()
        for crit in ALL_IDS:
            got = evaluate(ds, pi, objective(crit, L=prm["L"],
                                             k_size=prm["k_size"]))
            want = ORACLES[crit](pts, lab, prm)
            denom = max(abs(want), 1e-12)
            worst[crit] = max(worst[crit], abs(got - want) / denom)
    elapsed = time.monotonic() - start
    bad = {c: e for c, e in worst.items() if e > 1e-9}
    report("2 oracle-equivalence", not bad and elapsed < 30.0,
           f"max rel err {max(worst.values()):.2e}, {elapsed:.1f}s")


def test_c03_fixture_values(fix4, fix4_truth):
    sq101 = float(np.sqrt(101.0))
    expectations = [
        ("dev", 2.0, 1e-9), ("var", 0.5, 1e-9), ("twcv", 1.0, 1e-9),
        ("sep_al", 10.0, 1e-9), ("abgss", 10.0, 1e-9), ("dunn", 10.0, 1e-9),
        ("db", 0.1, 1e-9), ("ch", 20.0, 1e-9), ("xb", 0.05, 1e-9),
        ("sep_cl", 20.0 + 2.0 * sq101, 1e-6),
        ("sil", 1.0 - 2.0 / (10.0 + sq101), 1e-4),
        ("pbm", 20.0 * np.sqrt(25.25), 1e-3),
        ("mod", 2.0 * (2.0 / (44.0 + 4.0 * sq101) - 0.25), 1e-4),
    ]
    failures = []
    for crit, expected, tol in expectations:
        got = evaluate(fix4, fix4_truth, objective(crit))
        if abs(got - expected) > tol:
            failures.append(f"{crit}: {got} != {expected}")
    report("3 fixture-values", not failures, "; ".join(failures))


def test_c04_ari_axioms():
    start = time.monotonic()
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(60):
        n = int(rng.integers(4, 30))
        a = random_partition(rng, n, int(rng.integers(2, 6)))
        b = random_partition(rng, n, int(rng.integers(2, 6)))
        ok &= ari(a, a) == 1.0
        ok &= ari(a, b) == ari(b, a)
        perm = rng.permutation(a.k)
        ok &= ari(Partition(perm[a.assignment]), b) == ari(a, b)
        want = oracle_ari_paircount(a.assignment.tolist(), b.assignment.tolist())
        denom = max(abs(want), 1e-12)
        ok &= abs(ari(a, b) - want) / denom <= 1e-12
    truth = random_partition(rng, 60, 3)
    mean = float(np.mean([ari(random_partition(rng, 60, 3), truth)
                          for _ in range(200)]))
    elapsed = time.monotonic() - start
    report("4 ari-axioms", ok and -0.05 <= mean <= 0.05 and elapsed < 10.0,
           f"random mean {mean:.4f}, {elapsed:.1f}s")


def test_c05_dominance_axioms_and_duality():
    rng = np.random.default_rng(105)
    specs = objectives("var", "con")

    def vec(values):
        return ObjectiveVector(specs=specs, values=tuple(values))

    ok = True
    for _ in range(1000):
        u, v, w = (vec(rng.normal(size=2)) for _ in range(3))
        ok &= not dominates(u, u)
        ok &= not (dominates(u, v) and dominates(v, u))
        if dominates(u, v) and dominates(v, w):
            ok &= dominates(u, w)
    for _ in range(1000):
        values = rng.normal(size=int(rng.integers(1, 6))).tolist()
        t = float(rng.normal())
        found = bool(rng.integers(2))
        a = classify_objective(values, t, MINIMIZE, found)
        b = classify_objective([-v for v in values], -t, MAXIMIZE, found)
        ok &= a[0] == b[0]
    report("5 dominance-axioms", ok)


TWENTY_OPTIMAL = ("ch", "db", "dunn", "sil", "pbm", "xb")
TWENTY_NOT_ADMISSIBLE = ("dev", "var", "twcv", "con")


def test_c06_twenty_analog_admissibility():
    start = time.monotonic()
    specs = [objective(c) for c in ALL_IDS]
    failures = []
    for seed in range(5):
        ds = gen_blobs(k_star=20, per_cluster_n=30, separation=10.0,
                       seed=seed, name="twenty")
        table = build_admissibility_table([ds], "mst", specs, master_seed=seed)
        row = {s.id: v.verdict if v else None
               for s, v in zip(specs, table.cells[0])}
        for crit in TWENTY_OPTIMAL:
            if row[crit] != OPTIMAL_IN_INIT:
                failures.append(f"seed {seed}: {crit} is {row[crit]}")
        for crit in TWENTY_NOT_ADMISSIBLE:
            if row[crit] not in (INADMISSIBLE, OPTIMAL_IN_INIT):
                failures.append(f"seed {seed}: {crit} is {row[crit]}")
    elapsed = time.monotonic() - start
    report("6 twenty-admissibility", not failures and elapsed < 120.0,
           "; ".join(failures) or f"{elapsed:.1f}s")


def _optimization_runs(ds, pair, n_runs, master_seed, population=None,
                       generations=30, population_size=60):
    truth = ds.true_partition()
    pop = population or generate_population(ds, "mst", master_seed=master_seed)
    specs = objectives(*pair)
    try:
        truth_vec = evaluate_vector(ds, truth, specs)
    except Exception:
        truth_vec = None
    aris = []
    dominated = []
    for run in range(n_runs):
        cfg = EmocConfig(objectives=specs, population_size=population_size,
                         generations=generations,
                         seed=derive_seed(master_seed, "acc", ds.name,
                                          "+".join(pair), run))
        front = evolve(ds, cfg, pop)
        aris.append(max(ari(m.partition, truth) for m in front.members))
        dominated.append(truth_vec is not None
                         and truth_dominated(front, truth_vec))
    return aris, dominated


def test_c07_elongated_var_con_optimization():
    start = time.monotonic()
    details = []
    ok = True
    for kind in ("long", "spiral"):
        ds = gen_elongated(kind, 500, seed=42, name=kind)
        aris, _ = _optimization_runs(ds, ("var", "con"), 30, master_seed=7)
        perfect = sum(1 for a in aris if a == 1.0)
        details.append(f"{kind}: {perfect}/30 perfect")
        ok &= perfect >= 28
    elapsed = time.monotonic() - start
    report("7 elongated-var-con", ok and elapsed < 600.0,
           "; ".join(details) + f", {elapsed:.0f}s")


def _criterion8_suite():
    return [
        gen_blobs(4, 60, 10.0, seed=201, name="g1_blobs4"),
        gen_blobs(20, 20, 10.0, seed=202, name="g1_blobs20"),
        gen_blobs(4, 60, 4.0, seed=203, name="g1_blobs4_close"),
        gen_blobs(10, 30, 8.0, seed=204, name="g1_blobs10"),
        gen_nested(1, seed=205, n=390, name="g2_nested1"),
        gen_nested(2, seed=206, n=390, name="g2_nested2"),
        gen_elongated("long", 400, seed=207, name="g3_long"),
        gen_elongated("spiral", 400, seed=208, name="g3_spiral"),
        gen_mixed("3mc", seed=209, n=360, name="g4_3mc"),
        gen_mixed("aggregation", seed=210, n=400, name="g4_aggregation"),
    ]


def test_c08_pair_quality_ordering():
    start = time.monotonic()
    suite = _criterion8_suite()
    pairs = [("var", "con"), ("con", "sep_cl"), ("var", "sep_cl")]
    runs_per_cell = 5
    means = {p: [] for p in pairs}
    dominated_datasets = 0
    for ds in suite:
        pop = generate_population(ds, "mst", master_seed=0)
        for pair in pairs:
            aris, dom = _optimization_runs(ds, pair, runs_per_cell,
                                           master_seed=11, population=pop)
            means[pair].append(float(np.mean(aris)))
            if pair == ("var", "sep_cl") and np.mean(dom) >= 0.5:
                dominated_datasets += 1
    mean_vc = float(np.mean(means[("var", "con")]))
    mean_cs = float(np.mean(means[("con", "sep_cl")]))
    mean_vs = float(np.mean(means[("var", "sep_cl")]))
    frac_dominated = dominated_datasets / len(suite)
    elapsed = time.monotonic() - start
    ok = (mean_vc >= mean_vs + 0.2 and mean_cs >= mean_vs + 0.2
          and frac_dominated >= 0.7 and elapsed < 1800.0)
    report("8 pair-quality-ordering", ok,
           f"(var,con) {mean_vc:.3f}, (con,sep_cl) {mean_cs:.3f}, "
           f"(var,sep_cl) {mean_vs:.3f}, dominated {frac_dominated:.0%}, "
           f"{elapsed:.0f}s")


def test_c09_pipeline_determinism(tmp_path):
    config = {
        "seed": 13,
        "runs": 2,
        "datasets": [
            {"name": "blobs3", "group": "G1",
             "generator": {"archetype": "gaussian_blobs",
                           "params": {"k_star": 3, "per_cluster_n": 15,
                                      "separation": 10.0}}},
            {"name": "long", "group": "G3",
             "generator": {"archetype": "elongated",
                           "params": {"kind": "long", "n": 80}}},
        ],
        "initializers": ["mst", "km"],
        "objectives": ["var", "con", "dunn", "sep_cl"],
        "pairs": [["var", "con"], ["var", "sep_cl"]],
        "emoc": {"population_size": 10, "generations": 4},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def run(out):
        for cmd in ("gen", "init", "admissibility", "optimize", "report"):
            args = [cmd, "--out", str(out)]
            if cmd != "report":
                args += ["--config", str(cfg_path)]
            assert cli_main(args) == 0

    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(out1)
    run(out2)
    files1 = {p.relative_to(out1): p.read_bytes()
              for p in sorted(out1.rglob("*")) if p.is_file()}
    files2 = {p.relative_to(out2): p.read_bytes()
              for p in sorted(out2.rglob("*")) if p.is_file()}
    report("9 determinism", files1 == files2,
           f"{len(files1)} artifacts compared")


R15_ENV = "ADMISSA_R15_CSV"


def test_c10_r15_spot_check():
    path = os.environ.get(R15_ENV, "data/R15.csv")
    if not os.path.exists(path):
        print(f"\nACCEPTANCE 10 r15-spot-check: SKIP (no CSV at {path}; "
              f"set {R15_ENV} to enable)")
        pytest.skip("R15 CSV not supplied")
    ds = load_dataset(path, label_column="label", name="R15")
    aris, _ = _optimization_runs(ds, ("ch", "con"), 5, master_seed=15,
                                 generations=50, population_size=100)
    mean = float(np.mean(aris))
    report("10 r15-spot-check", mean >= 0.95, f"mean best-ARI {mean:.4f}")
