#!/usr/bin/env python3
"""Run the full desk-scale analysis campaign: a 12-dataset suite spanning
the four benchmark families, all five initializers, the 17-objective
admissibility matrix, and the six objective-pair optimization study.

Usage:
    python scripts/run_campaign.py --out results [--runs 30] [--jobs 4]

Pass --smoke for a fast sanity pass (tiny datasets, 2 runs per cell).
"""

import argparse
import json
import sys
from pathlib import Path

from admissa.cli import DEFAULT_PAIRS, main as cli_main
from admissa.initializers import ALGORITHMS

FULL_DATASETS = [
    {"name": "blobs4", "group": "G1",
     "generator": {"archetype": "gaussian_blobs",
                   "params": {"k_star": 4, "per_cluster_n": 150, "separation": 10.0}}},
    {"name": "blobs4_close", "group": "G1",
     "generator": {"archetype": "gaussian_blobs",
                   "params": {"k_star": 4, "per_cluster_n": 150, "separation": 4.0}}},
    {"name": "twenty", "group": "G1",
     "generator": {"archetype": "gaussian_blobs",
                   "params": {"k_star": 20, "per_cluster_n": 50, "separation": 10.0}}},
    {"name": "fourty", "group": "G1",
     "generator": {"archetype": "gaussian_blobs",
                   "params": {"k_star": 40, "per_cluster_n": 25, "separation": 10.0}}},
    {"name": "nested_s1", "group": "G2",
     "generator": {"archetype": "nested", "params": {"level": 1, "n": 588}}},
    {"name": "nested_s2", "group": "G2",
     "generator": {"archetype": "nested", "params": {"level": 2, "n": 588}}},
    {"name": "nested_s3", "group": "G2",
     "generator": {"archetype": "nested", "params": {"level": 3, "n": 588}}},
    {"name": "long1", "group": "G3",
     "generator": {"archetype": "elongated", "params": {"kind": "long", "n": 1000}}},
    {"name": "spiral", "group": "G3",
     "generator": {"archetype": "elongated", "params": {"kind": "spiral", "n": 1000}}},
    {"name": "threemc", "group": "G4",
     "generator": {"archetype": "mixed", "params": {"recipe": "3mc", "n": 400}}},
    {"name": "aggregation", "group": "G4",
     "generator": {"archetype": "mixed", "params": {"recipe": "aggregation", "n": 788}}},
    {"name": "spiralsquare", "group": "G4",
     "generator": {"archetype": "mixed", "params": {"recipe": "spiralsquare", "n": 2000}}},
]


def shrink(entry):
    small = json.loads(json.dumps(entry))
    params = small["generator"]["params"]
    if "per_cluster_n" in params:
        params["per_cluster_n"] = max(10, params["per_cluster_n"] // 5)
    if "n" in params:
        params["n"] = max(80, params["n"] // 4)
    return small


def build_config(args) -> dict:
    datasets = FULL_DATASETS if not args.smoke else [shrink(e) for e in FULL_DATASETS]
    return {
        "seed": args.seed,
        "runs": 2 if args.smoke else args.runs,
        "datasets": datasets,
        "initializers": list(ALGORITHMS),
        "pairs": [list(p) for p in DEFAULT_PAIRS],
        "optimize_initializer": "mst",
        "emoc": {"population_size": 40 if args.smoke else 100,
                 "generations": 10 if args.smoke else 100},
        "formats": ["csv", "json", "markdown"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets, 2 runs per cell")
    args = parser.parse_args()

    config = build_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "campaign_config.json"
    cfg_path.write_text(json.dumps(config, indent=1))

    for cmd in ("gen", "init", "admissibility", "optimize"):
        argv = [cmd, "--config", str(cfg_path), "--out", str(out)]
        if cmd == "optimize":
            argv += ["--jobs", str(args.jobs)]
        code = cli_main(argv)
        if code != 0:
            return code
    return cli_main(["report", "--out", str(out)])


if __name__ == "__main__":
    sys.exit(main())
