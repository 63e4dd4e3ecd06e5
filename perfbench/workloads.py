"""Campaign configs of the benchmark workloads.

Every workload is an ``admissa`` campaign config built from a seed. As in
the paper, a workload's datasets are fixed (each generator has its own
seed); the benchmark seed is the campaign's master seed, which drives the
k-means restarts and the EMOC runs. The same seed gives the same inputs.
All workloads run every stage, so every end-to-end metric is measured on
each of them; the stages a workload is not about are kept small.
"""

from __future__ import annotations

ALL_OBJECTIVES = ["ent", "dev", "var", "twcv", "con", "dcd", "abgss", "sep_al",
                  "sep_cl", "sep_graph", "ch", "db", "dunn", "mod", "sil",
                  "pbm", "xb"]
ALL_INITIALIZERS = ["km", "al", "sl", "snn", "mst"]
STAGES = ("init", "admissibility", "optimize", "report")


# Generator seed of every dataset; fixed so a workload's data do not
# change with the benchmark seed.
DATA_SEED = 2022


def _blobs(name, k_star, per_cluster_n):
    return {"name": name, "group": "G1",
            "generator": {"archetype": "gaussian_blobs", "seed": DATA_SEED,
                          "params": {"k_star": k_star,
                                     "per_cluster_n": per_cluster_n,
                                     "separation": 10.0}}}


def _elongated(name, kind, n):
    return {"name": name, "group": "G3",
            "generator": {"archetype": "elongated", "seed": DATA_SEED,
                          "params": {"kind": kind, "n": n}}}


def _spiralsquare(n):
    return {"name": "spiralsquare", "group": "G4",
            "generator": {"archetype": "mixed", "seed": DATA_SEED,
                          "params": {"recipe": "spiralsquare", "n": n}}}


# Each entry: datasets, initializers, pairs, runs per cell and EMOC size.
WORKLOADS = {
    # Geometry, the five initializers and the 17 criteria do the work; the
    # optimize stage is one short EMOC run per dataset (P100 G4, under a
    # tenth of the campaign), long enough to time steadily.
    "admissibility-suite": {
        "datasets": [_spiralsquare(250), _blobs("fourty", 40, 6)],
        "initializers": ALL_INITIALIZERS,
        "pairs": [["var", "con"]],
        "runs": 1,
        "emoc": {"population_size": 100, "generations": 4},
    },
    # Cheap criteria at n=1000: decode and EMOC mechanics dominate.
    "optimize-connectivity": {
        "datasets": [_elongated("spiral", "spiral", 1000),
                     _elongated("long1", "long", 1000)],
        "initializers": ["mst"],
        "pairs": [["var", "con"], ["ch", "con"]],
        "runs": 1,
        "emoc": {"population_size": 100, "generations": 8},
    },
    # O(n^2) separation criteria and n^2 geometry at the paper's n=2000.
    "optimize-separation": {
        "datasets": [_spiralsquare(2000)],
        "initializers": ["mst"],
        "pairs": [["var", "sep_cl"]],
        "runs": 1,
        "emoc": {"population_size": 100, "generations": 2},
    },
    # Toy size for the self-test only; not a benchmark workload.
    "toy": {
        "datasets": [_blobs("blobs3", 3, 15), _elongated("spiral", "spiral", 60)],
        "initializers": ALL_INITIALIZERS,
        "pairs": [["var", "con"], ["ch", "sep_cl"]],
        "runs": 2,
        "emoc": {"population_size": 8, "generations": 2},
    },
}

BENCHMARK_WORKLOADS = ("admissibility-suite", "optimize-connectivity",
                       "optimize-separation")


def campaign_config(workload: str, seed: int) -> dict:
    """The admissa campaign config of ``workload`` under master seed ``seed``."""
    w = WORKLOADS[workload]
    return {
        "seed": int(seed),
        "runs": w["runs"],
        "datasets": w["datasets"],
        "initializers": w["initializers"],
        "objectives": ALL_OBJECTIVES,
        "pairs": w["pairs"],
        "optimize_initializer": "mst",
        "emoc": w["emoc"],
        "formats": ["csv", "json", "markdown"],
    }


def operations(config: dict) -> list[str]:
    """Ids of the operations one campaign attempts: population files,
    admissibility cells and optimize runs."""
    names = [d["name"] for d in config["datasets"]]
    ops = [f"pop/{d}/{i}" for d in names for i in config["initializers"]]
    ops += [f"cell/{i}/{d}/{o}" for i in config["initializers"] for d in names
            for o in config["objectives"]]
    ops += [f"run/{d}/{'+'.join(p)}/{r}" for d in names for p in config["pairs"]
            for r in range(config["runs"])]
    return ops
