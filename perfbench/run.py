"""admissa benchmark: timed campaign passes with an artifact check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each pass runs one workload campaign
(``gen``, then ``init -> admissibility -> optimize -> report`` and a resume
rerun of those stages) in a fresh interpreter with ``--jobs 1`` and one
BLAS thread. Set-up is first timed in three set-up-only processes; then
passes repeat while a pass of average length still ends within S seconds
of the run's start. Metrics are medians over passes. With ``--trace 1``
untraced and traced passes alternate and the per-layer metrics of the
traced passes are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; details (per-pass
values, machine, layer shares) go to standard error. ``--workload all``
runs the three benchmark workloads in turn. ``--record`` stores the
artifacts of this seed as the reference that later runs are checked
against.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import check
import tracing
from workloads import (BENCHMARK_WORKLOADS, STAGES, WORKLOADS, campaign_config,
                       operations)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
SETUP_PROCESSES = 3
DEADLINE_S = 170  # a run ends within this, even when a worker hangs
THREAD_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}


class Run:
    """The passes of one workload run, in a scratch directory of the checkout."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.config = campaign_config(workload, seed)
        self.ops = operations(self.config) + ["tree"]
        self.count = 0
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, mode: str, trace: int):
        """Run one worker process; returns (directory, result, spans) or
        None when it failed or overran the run's deadline."""
        self.count += 1
        d = self.workdir / f"{mode}{self.count}"
        d.mkdir(parents=True)
        env = dict(os.environ, **THREAD_ENV)
        log = d / "log.txt"
        with open(log, "w") as fh:
            t_spawn = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), str(ROOT),
                     self.workload, str(self.seed), str(d), mode, str(trace),
                     repr(t_spawn)],
                    stdout=fh, stderr=subprocess.STDOUT, env=env,
                    timeout=max(1.0, self.deadline - t_spawn))
                ok = proc.returncode == 0
            except subprocess.TimeoutExpired:
                ok = False
        if not ok:
            print(f"worker {mode} failed:\n{log.read_text()[-2000:]}", file=sys.stderr)
            return None
        result = json.loads((d / "result.json").read_text())
        spans = None
        if trace:
            spans = json.loads((d / "spans.json").read_text())
        return d, result, spans


def _reference_text(references: dict) -> str:
    """JSON of {seed: {operation: observation}}, one operation per line."""
    def line(op, obs):
        return f"  {json.dumps(op)}: {json.dumps(obs, separators=(',', ':'), sort_keys=True)}"

    seeds = []
    for seed in sorted(references, key=int):
        ops = ",\n".join(line(op, obs) for op, obs in sorted(references[seed].items()))
        seeds.append(f"{json.dumps(seed)}: {{\n{ops}\n}}")
    return "{\n" + ",\n".join(seeds) + "\n}\n"


def _stage_ok(result) -> bool:
    return all(code == 0 for code in result["codes"].values())


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 record: bool) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return _measure(Run(workload, seed, workdir), seconds, trace, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def _measure(run: Run, seconds: float, trace: int, record: bool) -> dict:
    ref_path = REFERENCE_DIR / f"{run.workload}.json"
    references = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
    reference = references.get(str(run.seed))

    start = time.monotonic()  # the set-up processes count towards the run
    setups = []
    attempted = failed = 0
    for _ in range(SETUP_PROCESSES):  # each set-up process is one operation
        got = run.spawn("setup", 0)
        attempted += 1
        if got is None or not _stage_ok(got[1]):
            failed += 1
        else:
            setups.append(got[1]["setup_s"])

    passes = []  # (traced, result, spans, pass directory)
    first_obs = first_tree = None
    passes_start = time.monotonic()
    for attempt in itertools.count(1):
        traced = trace == 1 and attempt % 2 == 0
        got = run.spawn("pass", int(traced))
        attempted += len(run.ops)
        if got is None or not _stage_ok(got[1]):
            failed += len(run.ops)
        else:
            d, result, spans = got
            obs = check.observe(d / "out", run.config)
            tree = check.tree_digest(d / "out")
            bad = check.failures(obs, run.config, first_obs, reference)
            if result["resume_changed"] or (first_tree is not None and tree != first_tree):
                bad.add("tree")
            failed += len(bad)
            if bad:
                print(f"pass {attempt}: failed {sorted(bad)[:10]}", file=sys.stderr)
            if first_obs is None:
                first_obs, first_tree = obs, tree
            passes.append((traced, result, spans, d))
        # Start another pass only if one of average length ends in time.
        now = time.monotonic()
        next_end = now - start + (now - passes_start) / attempt
        need_traced = trace == 1 and attempt < 2
        if got is None or (next_end > seconds and not need_traced):
            break

    if record and failed == 0 and first_obs is not None:
        references[str(run.seed)] = first_obs
        ref_path.parent.mkdir(exist_ok=True)
        ref_path.write_text(_reference_text(references))

    plain = [p[1] for p in passes if not p[0]]
    setups += [r["setup_s"] for r in plain]
    details = {"workload": run.workload, "seed": run.seed, "passes": len(passes),
               "reference": reference is not None, "setup_s": setups,
               "campaign_s": [sum(r["stage_s"].values()) for r in plain]}
    traced = [p for p in passes if p[0]]
    metrics = {}
    if not plain or (trace == 1 and not traced):
        pass  # a pass did not finish: report the failures without metrics
    elif trace == 0:
        for stage in STAGES[:3]:
            metrics[f"{stage}_s"] = (median(r["stage_s"][stage] for r in plain), "s")
        metrics["campaign_s"] = (median(details["campaign_s"]), "s")
        metrics["resume_s"] = (median(sum(r["resume_s"].values()) for r in plain), "s")
        metrics["peak_rss_mb"] = (median(r["peak_rss_mb"] for r in plain), "MB")
        metrics["setup_s"] = (median(setups), "s")
    else:
        samples = []
        for _, result, spans, d in traced:
            sizes = [p.stat().st_size for p in (d / "out").rglob("*") if p.is_file()]
            samples.append(tracing.layer_metrics(spans["spans"], spans["counts"],
                                                 run.config, len(sizes), sum(sizes)))
        metrics = tracing.median_metrics(samples)
        traced_campaign = median(sum(p[1]["stage_s"].values()) for p in traced)
        metrics["trace.campaign_s"] = (traced_campaign, "s")
        metrics["trace.overhead_s"] = (
            traced_campaign - median(details["campaign_s"]), "s")
        details["layer_shares"] = tracing.layer_shares(traced[0][2]["spans"])
        calls = {f"criteria.{c}.call_us": metrics[f"criteria.{c}.calls"][0]
                 for c in tracing.CALL_PERCENTILE_CRITERIA}
        calls["emoc.decode_us"] = metrics["emoc.decode_calls"][0]
        details["tail_percentiles"] = {name: tracing.tail_percentile(int(n))
                                       for name, n in calls.items()}
    print(json.dumps({"details": details}), file=sys.stderr)
    return {"correct": failed == 0 and bool(passes), "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def use_checkout_sources() -> bool:
    """Put the checkout's admissa sources first on the import path (the
    artifact check imports admissa); False when they are missing."""
    if not (ROOT / "src" / "admissa" / "cli.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": int(THREAD_ENV["OPENBLAS_NUM_THREADS"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's artifacts as the reference")
    args = parser.parse_args(argv)
    # On SIGTERM unwind, so subprocess.run kills the running worker and
    # the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not use_checkout_sources():
        print(f"no admissa sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    print(json.dumps({"machine": machine()}), file=sys.stderr)
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                      args.trace, args.record)))
        return 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in BENCHMARK_WORKLOADS:
        res = run_workload(workload, args.seed, args.seconds, args.trace, args.record)
        print(json.dumps({"workload": workload, **res}))
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{workload}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
