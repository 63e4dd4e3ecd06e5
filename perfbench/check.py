"""Correctness of a campaign's artifacts.

``observe`` reads an ``--out`` tree into one observation per operation
(population file, admissibility cell, optimize run). ``failures`` then
checks the invariants that hold on any seed and compares with the first
pass of the same run (exactly) and with the recorded reference of the seed
(partitions and verdicts exactly, values within 1e-9 relative).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import operations

REL_TOL = 1e-9


def _digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tree_digest(out) -> dict[str, str]:
    """sha256 of every file under ``out``, by relative path."""
    out = Path(out)
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _load(path: Path):
    return json.loads(path.read_text()) if path.is_file() else None


def observe(out, config) -> dict:
    """Observation per operation id (None when the artifact is missing)."""
    out = Path(out)
    names = [d["name"] for d in config["datasets"]]
    obs = {}
    for d in names:
        for init in config["initializers"]:
            doc = _load(out / "populations" / f"{d}__{init}.json")
            obs[f"pop/{d}/{init}"] = None if doc is None else _digest(
                [p["assignment"] for p in doc["partitions"]])
    for init in config["initializers"]:
        doc = _load(out / "admissibility" / f"admissibility_{init}.json")
        for d in names:
            for o in config["objectives"]:
                cell = None
                if doc is not None and d in doc["datasets"] and o in doc["objectives"]:
                    row = doc["cells"][doc["datasets"].index(d)]
                    v = row[doc["objectives"].index(o)]
                    cell = "skip" if v is None else [v["verdict"], v["witness"], v["margin"]]
                obs[f"cell/{init}/{d}/{o}"] = cell
    for d in names:
        for pair in config["pairs"]:
            label = "+".join(pair)
            for r in range(config["runs"]):
                doc = _load(out / "optimize" / "runs" / f"{d}__{label}__r{r:03d}.json")
                obs[f"run/{d}/{label}/{r}"] = None if doc is None else {
                    "front": [_digest(m["assignment"]) for m in doc["front"]],
                    "values": [m["values"] for m in doc["front"]],
                    "ari": doc["ari"],
                    "best_ari": doc["best_ari"],
                    "truth_dominated": doc["truth_dominated"],
                }
    return obs


def close(a, b) -> bool:
    """Equal structure; equal strings, ints and bools; floats within 1e-9
    relative."""
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    return a == b


def _run_invariants_hold(op: str, run: dict) -> bool:
    """best_ari is the maximum ARI and the front is mutually non-dominated
    under admissa's tolerant dominance."""
    from admissa.admissibility import dominates
    from admissa.criteria import ObjectiveVector, objective

    if not run["ari"] or run["best_ari"] != max(run["ari"]):
        return False
    specs = tuple(objective(c) for c in op.split("/")[2].split("+"))
    vecs = [ObjectiveVector(specs, tuple(v)) for v in run["values"]]
    return not any(dominates(u, v) for u in vecs for v in vecs if u is not v)


def failures(obs: dict, config, first: dict | None, reference: dict | None) -> set[str]:
    """Operation ids whose artifact is missing, breaks an invariant, differs
    from the first pass or disagrees with the reference."""
    failed = set()
    for op in operations(config):
        got = obs.get(op)
        if got is None:
            failed.add(op)
        elif op.startswith("run/") and not _run_invariants_hold(op, got):
            failed.add(op)
        elif first is not None and got != first.get(op):
            failed.add(op)
        elif reference is not None and not close(got, reference.get(op)):
            failed.add(op)
    return failed
