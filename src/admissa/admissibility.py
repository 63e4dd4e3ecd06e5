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

from dataclasses import asdict, dataclass, field

import numpy as np

from .criteria import (MINIMIZE, ObjectiveSpec, ObjectiveVector,
                       CriterionError, evaluate)
from .data import Dataset, Partition
from .initializers import InitPopulation

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
    objective this is the plain "strictly better" test.

    Each objective takes one difference ``d = x - y``: ``x`` is better when
    ``d < -tol`` and no worse when ``d <= tol``. Rounding is sign-symmetric
    and ``tol`` symmetric in (x, y), so "``a`` is no worse than ``b``" is
    exactly "``b`` is not better than ``a``": no two rows dominate each
    other. On one objective "better" is irreflexive and kept by a smaller
    ``x`` or a larger ``y`` (the difference moves by the whole step, the
    tolerance by REL_TOL of it), so on finitely many rows it is a
    semiorder: there are scores s with "better" meaning s(x) + 1 < s(y)
    (Scott & Suppes, J. Symbolic Logic 1958). A dominating row is at most
    one score worse on every objective and more than one better on some,
    so with two objectives its score sum is lower: domination has no cycle
    of any length, and peeling off the undominated rows ends. Three or
    more objectives can cycle.

    Each objective is compared in its own pass over the broadcast leading
    axes and the passes are combined with ``&`` and ``|``: reducing a short
    trailing axis with ``all``/``any`` costs several times as much."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    no_worse, better = True, False
    for j in range(a.shape[-1]):
        x, y = a[..., j], b[..., j]
        tol = np.maximum(REL_TOL * np.maximum(np.abs(x), np.abs(y)), ABS_FLOOR)
        d = x - y
        no_worse = no_worse & (d <= tol)
        better = better | (d < -tol)
    return no_worse & better


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
    sign = 1.0 if direction == MINIMIZE else -1.0
    best_idx = int(np.argmin(sign * np.asarray(values)))
    best, truth = sign * values[best_idx], sign * true_value
    margin = truth - best
    if dominance([best], [truth]):
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
                [None if v is None else asdict(v) for v in row]
                for row in self.cells
            ],
            "summary": {k: {"IN": v[0], "OP": v[1]}
                        for k, v in self.summary().items()},
            "skips": self.skips,
        }


def _memo_values(memo: dict, ds: Dataset, pi: Partition, specs) -> dict:
    """The values of ``pi`` by spec from ``memo``, which maps a partition's
    label bytes to its values on one dataset, after evaluating the
    ``specs`` it lacks; a criterion error is stored like a value. They are
    evaluated on a throwaway copy of ``pi``, so the values the criteria
    share on a partition die with it and ``pi`` keeps none. Keys are the
    exact labels, not ``Partition.key``, so every value is computed on the
    same labels as without the memo, and each partition's bytes are held
    once."""
    values = memo.setdefault(pi.assignment.tobytes(), {})
    missing = [spec for spec in specs if spec not in values]
    if missing:
        copy = Partition(pi.assignment)
        for spec in missing:
            try:
                values[spec] = evaluate(ds, copy, spec)
            except CriterionError as err:
                # a kept traceback would keep the failing call's arrays alive
                values[spec] = err.with_traceback(None)
    return values


def _fill_memo(memo: dict, ds: Dataset, pop: InitPopulation, specs,
               truth: Partition) -> None:
    """Evaluate into ``memo`` every value that ``classify_cell`` reads for
    ``specs``, one partition at a time: the truth first, then each base
    partition other than the truth under the objectives the truth can be
    evaluated on. Only one partition's shared criterion values are alive
    at a time."""
    true_values = _memo_values(memo, ds, truth, specs)
    specs = [s for s in specs if not isinstance(true_values[s], CriterionError)]
    for pi in pop.partitions:
        if not pi.same_as(truth):
            _memo_values(memo, ds, pi, specs)


def classify_cell(ds: Dataset, pop: InitPopulation, spec: ObjectiveSpec,
                  initializer: str, truth: Partition,
                  memo: dict) -> tuple[AdmissibilityVerdict | None, list[str]]:
    """Classify one dataset under one objective given its base population.

    Base partitions that raise a criterion error are skipped (recorded);
    partitions identical to ``truth``, the dataset's true partition, are
    excluded from the strictness test but set the truth-found flag.
    ``memo`` holds the values already computed on ``ds`` (see
    ``_memo_values``); pass one dict per dataset to share them across
    initializers."""
    skips: list[str] = []
    true_value = _memo_values(memo, ds, truth, [spec])[spec]
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
        value = _memo_values(memo, ds, pi, [spec])[spec]
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


def build_admissibility_table(datasets, initializer: str, specs, populations,
                              memos=None) -> AdmissibilityTable:
    """Full verdict matrix for one initializer over a dataset suite, from
    ``populations``, one per dataset aligned with ``datasets``. ``memos``,
    one dict per dataset aligned the same way, carries criterion values
    from one initializer's table to the next (see ``classify_cell``). Each
    dataset's memo is filled partition by partition before its cells are
    classified, so the cells only read it."""
    datasets = list(datasets)
    specs = list(specs)
    table = AdmissibilityTable(initializer=initializer,
                               dataset_names=[ds.name for ds in datasets],
                               specs=specs)
    for i, ds in enumerate(datasets):
        truth = ds.true_partition()
        pop = populations[i]
        memo = memos[i] if memos is not None else {}
        _fill_memo(memo, ds, pop, specs, truth)
        row: list[AdmissibilityVerdict | None] = []
        for spec in specs:
            verdict, skips = classify_cell(ds, pop, spec, initializer, truth, memo)
            row.append(verdict)
            table.skips.extend(skips)
        table.cells.append(row)
    return table
