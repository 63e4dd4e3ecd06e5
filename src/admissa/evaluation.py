"""Scoring and reporting: adjusted Rand index, run aggregation and table
rendering.

The reported value per optimization run is the best ARI over the final
front (labeled as such in every output, since a decision maker could pick
differently). Standard deviations are population (not sample) values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Partition


def _comb2(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.float64)
    return x * (x - 1.0) / 2.0


def ari(pa: Partition, pb: Partition) -> float:
    """Adjusted Rand index via the contingency table. When the chance
    correction is degenerate (both partitions trivial in the same way)
    the partitions are identical and the value is 1."""
    if pa.n != pb.n:
        raise ValueError(f"partition sizes differ: {pa.n} vs {pb.n}")
    joint = pa.assignment * pb.k + pb.assignment
    nij = np.bincount(joint, minlength=pa.k * pb.k)
    sum_ij = _comb2(nij).sum()
    sum_a = _comb2(pa.sizes).sum()
    sum_b = _comb2(pb.sizes).sum()
    total = pa.n * (pa.n - 1) / 2.0
    expected = sum_a * sum_b / total
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0
    return float((sum_ij - expected) / (maximum - expected))


def aggregate_runs(values) -> tuple[float, float]:
    """Arithmetic mean and population standard deviation."""
    values = sorted(float(v) for v in values)
    if not values:
        raise ValueError("no run values to aggregate")
    mean = float(np.mean(values))
    std = float(np.std(values))
    return mean, std


def five_number_summary(values) -> dict:
    """Box-plot data: quartiles, 1.5*IQR whiskers clamped to the data,
    and the points outside them."""
    arr = np.sort(np.asarray(list(values), dtype=np.float64))
    if arr.size == 0:
        raise ValueError("no values to summarize")
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    outliers = arr[(arr < lo_fence) | (arr > hi_fence)]
    return {
        "min": float(arr[0]),
        "q1": float(q1),
        "median": float(med),
        "q3": float(q3),
        "max": float(arr[-1]),
        "whisker_low": float(inside[0]) if inside.size else float(q1),
        "whisker_high": float(inside[-1]) if inside.size else float(q3),
        "outliers": [float(v) for v in outliers],
        "n": int(arr.size),
    }


@dataclass
class RunSummary:
    """Aggregate of the seeded runs for one (dataset, objective pair)."""

    dataset: str
    pair: str
    run_aris: list[float]
    truth_dominated_runs: list[bool]
    group: str = ""

    @property
    def mean(self) -> float:
        return aggregate_runs(self.run_aris)[0]

    @property
    def std(self) -> float:
        return aggregate_runs(self.run_aris)[1]

    @property
    def truth_dominated_frequency(self) -> float:
        return sum(self.truth_dominated_runs) / len(self.truth_dominated_runs)

    def to_record(self) -> dict:
        return {
            "dataset": self.dataset,
            "group": self.group,
            "pair": self.pair,
            "mean_ari": self.mean,
            "std_ari": self.std,
            "truth_dominated_freq": self.truth_dominated_frequency,
            "runs": self.run_aris,
            "truth_dominated_runs": self.truth_dominated_runs,
            "selection_rule": "best-ari-on-front",
            "std_kind": "population",
        }


SUMMARY_CSV_COLUMNS = ("dataset", "group", "pair", "mean_ari", "std_ari",
                       "truth_dominated_freq")


def csv_grid(header, rows) -> str:
    """A header line and one line per row, cells joined by commas."""
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def markdown_grid(header, rows) -> str:
    """A markdown table: header, separator and one line per row."""
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(map(str, row)) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def summaries_to_csv(summaries) -> str:
    return csv_grid(SUMMARY_CSV_COLUMNS, [
        [s.dataset, s.group, s.pair,
         repr(s.mean), repr(s.std), repr(s.truth_dominated_frequency)]
        for s in summaries])


def summaries_to_markdown(summaries) -> str:
    return markdown_grid(
        ["dataset", "group", "pair", "mean ARI", "std", "truth dominated"],
        [[s.dataset, s.group, s.pair, f"{s.mean:.4f}", f"{s.std:.2e}",
          f"{s.truth_dominated_frequency:.2f}"] for s in summaries])


def render_tables(tables, summaries, fmt: str) -> dict[str, str]:
    """Documents (name -> text) for admissibility tables and run summaries
    in the requested format."""
    import json

    if fmt not in ("csv", "json", "markdown"):
        raise ValueError(f"unknown format {fmt!r}")
    ext = {"csv": "csv", "json": "json", "markdown": "md"}[fmt]
    grid = {"csv": csv_grid, "markdown": markdown_grid}.get(fmt)
    docs: dict[str, str] = {}
    for table in tables:
        docs[f"admissibility_{table.initializer}.{ext}"] = (
            grid(*table.grid()) if grid else json.dumps(table.to_records(), indent=1))
    if tables:
        header = ["initializer", "objective", "IN", "OP"]
        rows = [(table.initializer, crit_id, n_in, n_op) for table in tables
                for crit_id, (n_in, n_op) in table.summary().items()]
        docs[f"admissibility_summary.{ext}"] = (
            grid(header, rows) if grid
            else json.dumps([dict(zip(header, row)) for row in rows], indent=1))
    summaries = list(summaries)
    if summaries:
        write = {"csv": summaries_to_csv, "markdown": summaries_to_markdown}.get(fmt)
        docs[f"optimization_summary.{ext}"] = (
            write(summaries) if write
            else json.dumps([s.to_record() for s in summaries], indent=1))
    return docs
