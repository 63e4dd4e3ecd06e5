"""Self-test of the benchmark at toy size; runs in seconds.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that a corrupted artifact is counted as a failed operation, and that the
``--out`` trees of a traced and an untraced pass are byte-identical.
Exits 1 when a check fails.
"""

import json
import shutil
import sys

import check
import run


def _expect(ok: bool, what: str, failures: list):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def _metrics_match(result, specs, failures, what):
    got = result["metrics"]
    missing = [s["name"] for s in specs if s["name"] not in got]
    wrong_unit = [s["name"] for s in specs
                  if s["name"] in got and got[s["name"]]["unit"] != s["unit"]]
    extra = sorted(set(got) - {s["name"] for s in specs})
    _expect(result["correct"] and not missing and not wrong_unit and not extra,
            f"{what}: every metric with its unit (missing {missing}, "
            f"wrong unit {wrong_unit}, unlisted {extra})", failures)


def main() -> int:
    if not run.use_checkout_sources():
        print("no admissa sources in this checkout", file=sys.stderr)
        return 2
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []

    _metrics_match(run.run_workload("toy", 0, 1, 0, False), bench["end_to_end"],
                   failures, "untraced run")
    _metrics_match(run.run_workload("toy", 0, 1, 1, False), bench["per_layer"],
                   failures, "traced run")

    toy = run.Run("toy", 0, run.ROOT / ".perfbench_work" / "selftest")
    shutil.rmtree(toy.workdir, ignore_errors=True)
    try:
        plain = toy.spawn("pass", 0)
        traced = toy.spawn("pass", 1)
        _expect(plain is not None and traced is not None, "toy passes ran", failures)
        if plain is None or traced is None:
            return 1
        plain_out, traced_out = plain[0] / "out", traced[0] / "out"
        _expect(check.tree_digest(plain_out) == check.tree_digest(traced_out),
                "traced and untraced --out trees are byte-identical", failures)

        good = check.observe(plain_out, toy.config)
        _expect(not check.failures(good, toy.config, None, good),
                "an intact tree has no failed operation", failures)
        pop = plain_out / "populations" / "blobs3__km.json"
        doc = json.loads(pop.read_text())
        assignment = doc["partitions"][0]["assignment"]
        assignment[0], assignment[-1] = assignment[-1], assignment[0] + 1
        pop.write_text(json.dumps(doc))
        run_file = next((plain_out / "optimize" / "runs").glob("*.json"))
        doc = json.loads(run_file.read_text())
        doc["best_ari"] += 1.0
        run_file.write_text(json.dumps(doc))
        bad = check.failures(check.observe(plain_out, toy.config), toy.config,
                             None, good)
        dataset, pair, r = run_file.stem.split("__")
        _expect(bad == {"pop/blobs3/km", f"run/{dataset}/{pair}/{int(r[1:])}"},
                f"corrupted population and run files are failed operations ({sorted(bad)})",
                failures)
    finally:
        shutil.rmtree(toy.workdir, ignore_errors=True)
        try:
            toy.workdir.parent.rmdir()
        except OSError:
            pass
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
