#!/usr/bin/env python3
"""Time the layers that the benchmark workloads see only inside a stage:
the geometry builds, decode, non-dominated sorting with crowding, and
one EMOC generation, on the spiralsquare generator at each ``--n``.

Every figure is the best of REPEAT calls, in seconds per call:
- ``distances_s``, ``neighbor_index_s``, ``neighbor_rank_s``, ``mst_s``:
  one build on a fresh dataset with the distances (and, for the ranks,
  the MST) already built, so a rank build that reads the neighbor index
  includes building it;
- ``decode_s``: one genotype of the mst-seeded population;
- ``sort_crowding_s``: ranking the 2P members of a generation (fronts and
  crowding, P = POPULATION), as EMOC does twice per generation;
- ``component_build_s``: a scheme's ``ComponentGeometry`` with the
  aggregates that its first sep_cl evaluation builds;
- ``component_evaluate_s``: one sep_cl evaluation from those aggregates;
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

from admissa import (Dataset, EmocConfig, decode, delta_relevant_loci,
                     encode, evaluate_vector, evolve, gen_mixed,
                     generate_population, objective, objectives)
from admissa.components import ComponentGeometry
from admissa.emoc import _rank_population, mutate

REPEAT = 5
POPULATION = 100
SEED = 0
WHAT = ("Best-of-5 seconds per call on the spiralsquare generator "
        "(see scripts/layers.py), keyed by side and then by n.")


def best_of(setup, call):
    """Smallest wall time of ``call(setup())`` over REPEAT tries;
    ``setup`` runs outside the timer."""
    best = float("inf")
    for _ in range(REPEAT):
        arg = setup()
        t0 = time.perf_counter()
        call(arg)
        best = min(best, time.perf_counter() - t0)
    return best


def fresh(ds, *built):
    """A copy of ``ds`` with no cached geometry but the ``built`` names."""
    copy = Dataset(ds.points, labels=ds.labels, name=ds.name)
    for name in built:
        getattr(copy, name)
    return copy


def time_layers(n):
    ds = gen_mixed("spiralsquare", seed=SEED, n=n)
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
    scheme = delta_relevant_loci(ds)
    rng = np.random.default_rng(SEED)
    rows = [encode(pi, scheme) for pi in pop.partitions]
    rows += [mutate(scheme, rows[i % len(rows)], 1.0 / len(scheme.relevant_loci), rng)
             for i in range(2 * POPULATION - len(rows))]
    out["decode_s"] = best_of(lambda: rows,
                              lambda rs: [decode(scheme, g) for g in rs]) / len(rows)

    parts = [decode(scheme, g) for g in rows]
    specs = objectives("var", "con")
    vectors = [evaluate_vector(ds, pi, specs) for pi in parts]
    out["sort_crowding_s"] = best_of(lambda: vectors, _rank_population)

    sep_cl = objective("sep_cl")
    parts = [pi for pi in parts if pi.k >= 2]

    def geometry():
        return ComponentGeometry(ds, scheme.base_labels, scheme.n_base)
    out["component_build_s"] = best_of(geometry,
                                       lambda geo: geo.evaluate(ds, parts[0], sep_cl))
    geo = geometry()
    out["component_evaluate_s"] = best_of(
        lambda: parts, lambda ps: [geo.evaluate(ds, pi, sep_cl) for pi in ps]) / len(parts)

    def run(generations):
        cfg = EmocConfig(objectives=specs, population_size=POPULATION,
                         generations=generations, seed=SEED)
        return best_of(lambda: None, lambda _: evolve(ds, cfg, pop))
    out["generation_s"] = run(1) - run(0)
    return {key: round(value, 6) for key, value in out.items()}


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
