"""Admissibility classification of clustering objectives.

For a given initializer, each (dataset, objective) cell is classified:

  - ``inadmissible``: some base partition other than the truth already
    scores strictly better than the true partition, so optimizing the
    objective steers the search away from it (rendered as an x),
  - ``optimal_in_init``: the true partition itself appears in the base
    population, so there is nothing left to optimize (rendered as a check),
  - ``admissible``: neither holds; optimizing can still move toward the
    truth (rendered blank).

When both conditions hold, inadmissible wins: a strictly better non-truth
partition proves the misleading search direction even if the truth is
also present.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .criteria import (MINIMIZE, ObjectiveSpec, ObjectiveVector,
                       CriterionError, evaluate)
from .data import Dataset, Partition
from .initializers import InitPopulation, generate_population

INADMISSIBLE = "inadmissible"
OPTIMAL_IN_INIT = "optimal_in_init"
ADMISSIBLE = "admissible"

SYMBOLS = {INADMISSIBLE: "×", OPTIMAL_IN_INIT: "✓", ADMISSIBLE: ""}

# Shared strictness tolerance for every "strictly better" comparison.
REL_TOL = 1e-9
ABS_FLOOR = 1e-12


def dominance(a, b) -> np.ndarray:
    """Tolerant Pareto dominance of ``a`` over ``b``, broadcast over the
    leading axes; the last axis holds objective values in minimization
    form. ``a`` dominates ``b`` when it is no worse on every objective and
    strictly better on some, each beyond the shared tolerance: REL_TOL
    relative to the larger magnitude, and at least ABS_FLOOR. With one
    objective this is the plain "strictly better" test."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    tol = np.maximum(REL_TOL * np.maximum(np.abs(a), np.abs(b)), ABS_FLOOR)
    return np.all(a <= b + tol, axis=-1) & np.any(a < b - tol, axis=-1)


def dominates(u: ObjectiveVector, v: ObjectiveVector) -> bool:
    """Does ``u`` dominate ``v`` (see ``dominance``)?"""
    if u.specs != v.specs:
        raise ValueError("objective vectors have different spec lists")
    return bool(dominance(u.minimized(), v.minimized()))


@dataclass(frozen=True)
class AdmissibilityVerdict:
    objective: str
    dataset: str
    initializer: str
    verdict: str
    witness: int | None  # population index proving the verdict
    margin: float  # best base value minus true value, signed by direction


def classify_objective(values, true_value: float, direction: str,
                       truth_found: bool) -> tuple[str, int | None, float]:
    """Classify one (dataset, objective) cell from base-partition values.

    ``values`` are the evaluable base partitions (the truth itself should
    be excluded by the caller). Returns (verdict, witness index into
    values, margin)."""
    values = list(values)
    if not values:
        raise ValueError("classify_objective needs at least one base value")
    if direction == MINIMIZE:
        best_idx = int(np.argmin(values))
        margin = true_value - values[best_idx]
    else:
        best_idx = int(np.argmax(values))
        margin = values[best_idx] - true_value
    sign = 1.0 if direction == MINIMIZE else -1.0
    if dominance([sign * values[best_idx]], [sign * true_value]):
        return INADMISSIBLE, best_idx, margin
    if truth_found:
        return OPTIMAL_IN_INIT, None, margin
    return ADMISSIBLE, None, margin


@dataclass
class AdmissibilityTable:
    """Verdict matrix over (dataset x objective) for one initializer."""

    initializer: str
    dataset_names: list[str]
    specs: list[ObjectiveSpec]
    cells: list[list[AdmissibilityVerdict | None]] = field(default_factory=list)
    skips: list[str] = field(default_factory=list)

    def summary(self) -> dict[str, tuple[int, int]]:
        """Per objective: (IN, OP) = counts of inadmissible and
        optimal-in-init datasets."""
        out: dict[str, tuple[int, int]] = {}
        for j, spec in enumerate(self.specs):
            col = [row[j] for row in self.cells]
            n_in = sum(1 for v in col if v is not None and v.verdict == INADMISSIBLE)
            n_op = sum(1 for v in col if v is not None and v.verdict == OPTIMAL_IN_INIT)
            out[spec.id] = (n_in, n_op)
        return out

    def grid(self) -> tuple[list[str], list[list[str]]]:
        """Header and rows of the verdict symbols, one row per dataset."""
        header = ["dataset"] + [s.id for s in self.specs]
        rows = [[name] + [SYMBOLS[v.verdict] if v is not None else "skip" for v in row]
                for name, row in zip(self.dataset_names, self.cells)]
        return header, rows

    def to_records(self) -> dict:
        return {
            "initializer": self.initializer,
            "datasets": self.dataset_names,
            "objectives": [s.id for s in self.specs],
            "cells": [
                [
                    None if v is None else {
                        "objective": v.objective,
                        "dataset": v.dataset,
                        "initializer": v.initializer,
                        "verdict": v.verdict,
                        "witness": v.witness,
                        "margin": v.margin,
                    }
                    for v in row
                ]
                for row in self.cells
            ],
            "summary": {k: {"IN": v[0], "OP": v[1]}
                        for k, v in self.summary().items()},
            "skips": self.skips,
        }


def _memo_evaluate(memo: dict, ds: Dataset, pi: Partition,
                   spec: ObjectiveSpec) -> float | CriterionError:
    """``evaluate`` through ``memo``, which maps a partition's label bytes
    to its values by spec, on one dataset; a criterion error is stored and
    returned like a value. Keys are the exact labels, not
    ``Partition.key``, so every value is computed on the same labels as
    without the memo, and each partition's bytes are held once."""
    values = memo.setdefault(pi.assignment.tobytes(), {})
    if spec not in values:
        try:
            values[spec] = evaluate(ds, pi, spec)
        except CriterionError as err:
            # a kept traceback would keep the failing call's arrays alive
            values[spec] = err.with_traceback(None)
    return values[spec]


def classify_cell(ds: Dataset, pop: InitPopulation, spec: ObjectiveSpec,
                  initializer: str, truth: Partition | None = None,
                  memo: dict | None = None) -> tuple[AdmissibilityVerdict | None, list[str]]:
    """Classify one dataset under one objective given its base population.

    Base partitions that raise a criterion error are skipped (recorded);
    partitions identical to the truth are excluded from the strictness test
    but set the truth-found flag. ``memo`` holds the values already
    computed on ``ds`` (see ``_memo_evaluate``); pass one dict per dataset
    to share them across initializers."""
    skips: list[str] = []
    if truth is None:
        truth = ds.true_partition()
    if memo is None:
        memo = {}
    true_value = _memo_evaluate(memo, ds, truth, spec)
    if isinstance(true_value, CriterionError):
        skips.append(f"{ds.name}/{spec.id}: true partition not evaluable ({true_value})")
        return None, skips

    values: list[float] = []
    origin: list[int] = []
    truth_idx: int | None = None  # the first base partition equal to the truth
    for idx, pi in enumerate(pop.partitions):
        if pi.same_as(truth):
            if truth_idx is None:
                truth_idx = idx
            continue
        value = _memo_evaluate(memo, ds, pi, spec)
        if isinstance(value, CriterionError):
            skips.append(f"{ds.name}/{spec.id}: partition {idx} skipped ({value})")
        else:
            values.append(value)
            origin.append(idx)
    truth_found = truth_idx is not None
    if not values:
        skips.append(f"{ds.name}/{spec.id}: no evaluable base partition")
        if truth_found:
            verdict = AdmissibilityVerdict(spec.id, ds.name, initializer,
                                           OPTIMAL_IN_INIT, None, 0.0)
            return verdict, skips
        return None, skips

    verdict_kind, witness, margin = classify_objective(
        values, true_value, spec.direction, truth_found)
    witness_idx: int | None = None
    if verdict_kind == INADMISSIBLE:
        witness_idx = origin[witness]
    elif verdict_kind == OPTIMAL_IN_INIT:
        witness_idx = truth_idx
    return AdmissibilityVerdict(spec.id, ds.name, initializer, verdict_kind,
                                witness_idx, margin), skips


def build_admissibility_table(datasets, initializer: str, specs,
                              master_seed: int = 0, populations=None,
                              memos=None) -> AdmissibilityTable:
    """Full verdict matrix for one initializer over a dataset suite.

    Populations are generated on demand unless supplied (one per dataset,
    aligned with ``datasets``). ``memos``, one dict per dataset aligned
    the same way, carries criterion values from one initializer's table
    to the next (see ``classify_cell``)."""
    datasets = list(datasets)
    specs = list(specs)
    table = AdmissibilityTable(initializer=initializer,
                               dataset_names=[ds.name for ds in datasets],
                               specs=specs)
    for i, ds in enumerate(datasets):
        truth = ds.true_partition()  # raises if labels are missing
        if populations is not None:
            pop = populations[i]
        else:
            pop = generate_population(ds, initializer, master_seed=master_seed)
        memo = memos[i] if memos is not None else {}
        row: list[AdmissibilityVerdict | None] = []
        for spec in specs:
            verdict, skips = classify_cell(ds, pop, spec, initializer, truth, memo)
            row.append(verdict)
            table.skips.extend(skips)
        table.cells.append(row)
    return table
