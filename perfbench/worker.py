"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py ROOT WORKLOAD SEED WORKDIR MODE TRACE T_SPAWN

Imports admissa from ROOT/src, writes the workload's campaign config and
runs ``admissa gen`` (set-up). In mode ``pass`` it then runs the cold
campaign ``init -> admissibility -> optimize -> report`` with ``--jobs 1``
and the same stages again on the finished output (the resume path). It
writes the stage timings, exit codes, peak RSS and the files the resume
path changed to WORKDIR/result.json and, when TRACE is 1, the spans to
WORKDIR/spans.json. T_SPAWN is the parent's ``time.monotonic()`` just
before it started this process, so set-up includes interpreter start-up.
"""

import json
import resource
import sys
import time


def main(argv) -> int:
    root, workload, seed, workdir, mode, trace, t_spawn = argv
    sys.path.insert(0, f"{root}/src")
    tracer = None
    if trace == "1":
        from tracing import Tracer, install
        tracer = Tracer()
    import admissa  # noqa: F401  (part of set-up)
    from admissa.cli import main as admissa_main
    from workloads import STAGES, campaign_config

    if tracer is not None:
        install(tracer)
    config_path = f"{workdir}/campaign.json"
    out = f"{workdir}/out"
    with open(config_path, "w") as fh:
        json.dump(campaign_config(workload, int(seed)), fh, indent=1)
    common = ["--config", config_path, "--out", out, "--jobs", "1"]
    codes = {"gen": admissa_main(["gen"] + common)}
    result = {"setup_s": time.monotonic() - float(t_spawn), "codes": codes,
              "stage_s": {}, "resume_s": {}}

    if mode == "pass":
        from check import tree_digest
        trees = []
        for key in ("stage_s", "resume_s"):
            for stage in STAGES:
                argv_stage = ([stage, "--out", out] if stage == "report"
                              else [stage] + common)
                t0 = time.perf_counter()
                code = admissa_main(argv_stage)
                result[key][stage] = time.perf_counter() - t0
                codes[f"{key}:{stage}"] = code
            trees.append(tree_digest(out))
        result["resume_changed"] = sorted(
            p for p in trees[0].keys() | trees[1].keys()
            if trees[0].get(p) != trees[1].get(p))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        with open(f"{workdir}/spans.json", "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    with open(f"{workdir}/result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
