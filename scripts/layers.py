#!/usr/bin/env python3
"""Time the layers that the benchmark workloads see only inside a stage:
the geometry builds, each initializer, the four O(n^2) criteria, ent, db
and all 17 criteria on one partition, decode, non-dominated sorting with
crowding, and one EMOC generation, on the spiralsquare generator at each
``--n``.

Every figure is the best time, in seconds per call, of at least REPEAT
calls that together take at least MIN_TIMED seconds, so a figure at the
millisecond scale is the best of many calls. It is kept to four
significant figures, so a figure of microseconds never rounds to zero.
One geometry build runs untimed first, so the first figure is not paying
for a cold process:
- ``distances_s``, ``neighbor_index_s``, ``neighbor_rank_s``, ``mst_s``:
  one build on a fresh dataset with the distances (and, for the ranks,
  the MST) already built, so a rank build that reads the neighbor index
  includes building it;
- ``km_population_s``, ``al_population_s``, ``sl_population_s``,
  ``snn_population_s``, ``mst_population_s``: one ``generate_population``
  call of that initializer, on the dataset with its geometry built;
- ``sil_s``, ``mod_s``, ``sep_cl_s``, ``dunn_s``, ``ent_s``, ``db_s``:
  one point-level evaluation of that criterion on a fresh copy of the
  true (k*) partition, so no shared values (centroids, cluster blocks)
  cached on an earlier copy are reused; the dataset's own caches (the
  distance total, the MST) are built;
- ``all_criteria_s``: the 17 criteria, one after another, on one fresh
  copy of the true partition, so each later criterion reads the shared
  values an earlier one built, as the admissibility stage evaluates a
  partition;
- ``decode_s``: one genotype of the mst-seeded population;
- ``sort_crowding_s``: ``_rank_population`` on the (2P x 2) value array
  of a generation's members (fronts and crowding, P = POPULATION), as
  EMOC ranks once per generation (the survivors keep their fronts and get
  their crowding again);
- ``component_build_s``: a scheme's ``ComponentGeometry`` with the
  aggregates that its first sep_cl evaluation builds;
- ``component_evaluate_s``: one sep_cl evaluation from those aggregates;
- ``component_evaluate_con_s``: one con evaluation (default L) from the
  scheme's cross-component links, built beforehand;
- ``generation_s``: ``evolve`` with G=1 minus ``evolve`` with G=0.

The results go under ``layers.<side>`` of the JSON file given by
``--bench`` (its other keys are kept), so the parent and a change can be
written into one BENCH file:

    PYTHONPATH=src python scripts/layers.py --n 500 2000 --bench BENCH.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from admissa import (ALGORITHMS, ALL_IDS, Dataset, EmocConfig, Partition, decode,
                     delta_relevant_loci, encode, evaluate, evaluate_vector,
                     evolve, gen_mixed, generate_population, objective,
                     objectives)
from admissa.components import ComponentGeometry
from admissa.emoc import _rank_population, mutate

REPEAT = 5
MIN_TIMED = 0.2
POPULATION = 100
SEED = 0
WHAT = ("Best seconds per call, to 4 significant figures, over at least 5 "
        "calls and 0.2 s of timed calls, on the spiralsquare generator (see "
        "scripts/layers.py), keyed by side and then by n.")


def best_of(setup, call):
    """Smallest wall time of ``call(setup())`` over at least REPEAT tries
    and at least MIN_TIMED seconds of timed calls; ``setup`` runs outside
    the timer."""
    best, timed, tries = float("inf"), 0.0, 0
    while tries < REPEAT or timed < MIN_TIMED:
        arg = setup()
        t0 = time.perf_counter()
        call(arg)
        elapsed = time.perf_counter() - t0
        best, timed, tries = min(best, elapsed), timed + elapsed, tries + 1
    return best


def fresh(ds, *built):
    """A copy of ``ds`` with no cached geometry but the ``built`` names."""
    copy = Dataset(ds.points, labels=ds.labels, name=ds.name)
    for name in built:
        getattr(copy, name)
    return copy


def time_layers(n):
    ds = gen_mixed("spiralsquare", seed=SEED, n=n)
    fresh(ds, "distances", "neighbor_index")  # warm-up, untimed
    out = {
        "distances_s": best_of(lambda: fresh(ds), lambda d: d.distances),
        "neighbor_index_s": best_of(lambda: fresh(ds, "distances"),
                                    lambda d: d.neighbor_index),
        "neighbor_rank_s": best_of(lambda: fresh(ds, "distances", "mst_edges"),
                                   lambda d: d.neighbor_rank),
        "mst_s": best_of(lambda: fresh(ds, "distances"),
                         lambda d: d.mst_edges),
    }

    pop = generate_population(ds, "mst", master_seed=SEED)
    for alg in ALGORITHMS:
        out[f"{alg}_population_s"] = best_of(
            lambda: ds, lambda d, a=alg: generate_population(d, a, master_seed=SEED))
    truth = ds.true_partition()
    every = objectives(*ALL_IDS)
    for spec in every:
        evaluate(ds, truth, spec)  # builds the dataset's caches
    for spec in objectives("sil", "mod", "sep_cl", "dunn", "ent", "db"):
        out[f"{spec.id}_s"] = best_of(lambda: Partition(truth.assignment),
                                      lambda pi, s=spec: evaluate(ds, pi, s))
    out["all_criteria_s"] = best_of(lambda: Partition(truth.assignment),
                                    lambda pi: [evaluate(ds, pi, s) for s in every])
    scheme = delta_relevant_loci(ds)
    rng = np.random.default_rng(SEED)
    rows = [encode(pi, scheme) for pi in pop.partitions]
    rows += [mutate(scheme, rows[i % len(rows)], 1.0 / len(scheme.relevant_loci), rng)
             for i in range(2 * POPULATION - len(rows))]
    out["decode_s"] = best_of(lambda: rows,
                              lambda rs: [decode(scheme, g) for g in rs]) / len(rows)

    parts = [decode(scheme, g) for g in rows]
    specs = objectives("var", "con")
    values = np.array([evaluate_vector(ds, pi, specs).minimized() for pi in parts])
    out["sort_crowding_s"] = best_of(lambda: values, _rank_population)

    sep_cl = objective("sep_cl")
    parts = [pi for pi in parts if pi.k >= 2]

    def geometry():
        return ComponentGeometry(ds, scheme.base_labels, scheme.n_base)
    out["component_build_s"] = best_of(geometry,
                                       lambda geo: geo.evaluate(ds, parts[0], sep_cl))
    geo = geometry()
    out["component_evaluate_s"] = best_of(
        lambda: parts, lambda ps: [geo.evaluate(ds, pi, sep_cl) for pi in ps]) / len(parts)
    con = objective("con")
    geo.evaluate(ds, parts[0], con)  # builds the links
    out["component_evaluate_con_s"] = best_of(
        lambda: parts, lambda ps: [geo.evaluate(ds, pi, con) for pi in ps]) / len(parts)

    def run(generations):
        cfg = EmocConfig(objectives=specs, population_size=POPULATION,
                         generations=generations, seed=SEED)
        return best_of(lambda: None, lambda _: evolve(ds, cfg, pop))
    out["generation_s"] = run(1) - run(0)
    return {key: float(f"{value:.4g}") for key, value in out.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, nargs="+", default=[500, 2000])
    parser.add_argument("--bench", required=True, help="JSON file to write into")
    parser.add_argument("--side", default="change",
                        help="key of these results under layers (default: change)")
    args = parser.parse_args()

    path = Path(args.bench)
    doc = json.loads(path.read_text()) if path.exists() else {}
    layers = doc.setdefault("layers", {})
    layers["what"] = WHAT
    layers[args.side] = {str(n): time_layers(n) for n in args.n}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(layers[args.side]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
