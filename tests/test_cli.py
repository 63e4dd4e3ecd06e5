import argparse
import builtins
import collections
import csv
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import admissa
from admissa import Dataset, InitPopulation, admissibility, cli
from admissa.cli import build_parser, main


def tiny_config(tmp_path, **over):
    doc = {
        "seed": 7,
        "runs": 2,
        "datasets": [
            {"name": "blobs3", "group": "G1",
             "generator": {"archetype": "gaussian_blobs",
                           "params": {"k_star": 3, "per_cluster_n": 12,
                                      "separation": 10.0}}},
        ],
        "initializers": ["mst", "km"],
        "objectives": ["var", "dunn", "con", "sep_cl"],
        "pairs": [["var", "con"], ["var", "sep_cl"]],
        "emoc": {"population_size": 8, "generations": 3},
        "formats": ["csv", "json", "markdown"],
    }
    doc.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def blobs(name, k_star):
    """A dataset entry of k_star Gaussian blobs of 10 points each."""
    return {"name": name, "generator": {"archetype": "gaussian_blobs",
                                        "params": {"k_star": k_star,
                                                   "per_cluster_n": 10}}}


def labelled_csv(path, labels, encoding="utf-8"):
    """A CSV of three clusters of 7 points each, labelled ``labels``."""
    path.write_bytes(("x0,x1,label\n" + "".join(
        f"{10 * c + i},{5 * c + i % 2},{labels[c]}\n"
        for c in range(3) for i in range(1, 8))).encode(encoding))
    return path


def run_all(cfg, out):
    for cmd in ("gen", "init", "admissibility", "optimize"):
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["report", "--out", str(out)]) == 0


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def count_reads(monkeypatch, root):
    """Count the reads through ``Path.read_bytes`` and ``Path.read_text``
    of each file under ``root``, by its path relative to root."""
    reads = collections.Counter()

    def counting(original):
        def read(path, *args, **kwargs):
            if path.is_relative_to(root):
                reads[path.relative_to(root).as_posix()] += 1
            return original(path, *args, **kwargs)
        return read

    for name in ("read_text", "read_bytes"):
        monkeypatch.setattr(Path, name, counting(getattr(Path, name)))
    return reads


def count_calls(monkeypatch, *targets):
    """Replace each ``owner.name`` of ``targets``, (owner, name) pairs, by
    a wrapper that logs each call's name in the one list returned."""
    calls = []

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    for owner, name in targets:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    return calls


def gen_needed(name, csv=None):
    """The data error of a stage whose dataset ``name`` fails the manifest
    check: by the CSV at ``csv``, or, with no ``csv``, by its entry."""
    cause = (f"the CSV {csv} is missing or its sha256 is not the manifest's" if csv
             else "this config entry differs from the dataset manifest's row")
    return f"data error: dataset {name!r}: {cause} (run `admissa gen`)\n"


def count_distance_builds(monkeypatch):
    """Replace ``Dataset.distances`` by a cached property that logs the
    name of each dataset it builds the matrix of, in the list returned."""
    built = []
    distances = Dataset.__dict__["distances"]

    def counting(ds):
        built.append(ds.name)
        return distances.func(ds)

    prop = functools.cached_property(counting)
    prop.__set_name__(Dataset, "distances")
    monkeypatch.setattr(Dataset, "distances", prop)
    return built


class TestPipeline:
    def test_full_pipeline_artifacts(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        run_all(cfg, out)
        assert (out / "datasets" / "blobs3.csv").exists()
        assert (out / "datasets" / "manifest.json").exists()
        assert (out / "populations" / "blobs3__mst.json").exists()
        assert (out / "populations" / "blobs3__km.json").exists()
        assert (out / "admissibility" / "admissibility_mst.csv").exists()
        assert (out / "admissibility" / "boxplots" / "blobs3.json").exists()
        for r in range(2):
            assert (out / "optimize" / "runs" / f"blobs3__var+con__r{r:03d}.json").exists()
        assert (out / "optimize" / "optimization_summary.csv").exists()
        assert (out / "report.md").exists()
        report = (out / "report.md").read_text()
        assert "Admissibility (mst)" in report and "blobs3" in report

    def test_determinism_across_out_dirs(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        run_all(cfg, out1)
        run_all(cfg, out2)
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_idempotent_resume(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        run_all(cfg, out)
        before = tree_bytes(out)
        mtimes = {p: p.stat().st_mtime_ns for p in out.rglob("*") if p.is_file()}
        run_all(cfg, out)
        assert tree_bytes(out) == before
        for p, t in mtimes.items():
            assert p.stat().st_mtime_ns == t

    def test_config_change_rewrites_derived_documents(self, tmp_path):
        out = tmp_path / "out"
        small = dict(initializers=["mst"], pairs=[["var", "con"]])
        run_all(tiny_config(tmp_path, objectives=["var", "con"], runs=1,
                            **small), out)
        run_all(tiny_config(tmp_path, objectives=["var", "con", "sil"],
                            runs=3, **small), out)
        header = (out / "admissibility" / "admissibility_mst.csv").read_text()
        assert header.splitlines()[0] == "dataset,var,con,sil"
        summary = json.loads(
            (out / "optimize" / "optimization_summary.json").read_text())
        assert [len(s["runs"]) for s in summary] == [3]

    def test_seed_changes_outputs(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg = tiny_config(tmp_path)
        run_all(cfg, out1)
        cfg2 = tiny_config(tmp_path, seed=8)
        run_all(cfg2, out2)
        assert tree_bytes(out1) != tree_bytes(out2)

    def test_resume_optimize_builds_no_geometry(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        run_all(cfg, out)
        built = count_distance_builds(monkeypatch)
        calls = count_calls(monkeypatch, (cli, "load_dataset"),
                            (cli, "_load_population"))
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        assert built == [] and calls == []

    def test_cold_optimize_loads_dataset_and_population_once(self, tmp_path,
                                                             monkeypatch):
        # The dataset is parsed once per process; the population, read once
        # by the stage, is parsed once per cell with a stale run.
        cfg = tiny_config(tmp_path)  # one dataset, two pairs
        out = tmp_path / "out"
        for cmd in ("gen", "init"):
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
        monkeypatch.setattr(cli, "_loaded", {})  # as in a process of its own
        calls = count_calls(monkeypatch, (cli, "load_dataset"),
                            (cli, "_load_population"))
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(calls) == ["_load_population"] * 2 + ["load_dataset"]

    def test_cold_campaign_in_one_process_loads_each_dataset_once(self, tmp_path,
                                                                  monkeypatch):
        # init, admissibility and optimize share each loaded dataset and
        # its geometry; gen builds a generated dataset without loading it.
        cfg = tiny_config(tmp_path, datasets=[blobs("a", 3), blobs("b", 4)])
        built = count_distance_builds(monkeypatch)
        calls = count_calls(monkeypatch, (cli, "load_dataset"))
        run_all(cfg, tmp_path / "out")
        assert calls == ["load_dataset"] * 2 and sorted(built) == ["a", "b"]

    @pytest.mark.parametrize("own_process", [False, True],
                             ids=["one-process", "process-per-stage"])
    def test_each_stage_reads_a_csv_entry_once(self, tmp_path, monkeypatch, own_process):
        # The manifest check, the stamps and the parse share one read, so
        # a stage's digest of a CSV is the digest of the bytes it parsed.
        csv = labelled_csv(tmp_path / "d.csv", ["1", "2", "3"])
        cfg = tiny_config(tmp_path, datasets=[{"name": "d", "csv": str(csv)}])
        stages = ("gen", "init", "admissibility", "optimize")
        reads = collections.Counter()

        def counting(original):
            def read(file, *args, **kwargs):
                if file in (csv, str(csv)):
                    reads[stage] += 1
                return original(file, *args, **kwargs)
            return read

        monkeypatch.setattr(builtins, "open", counting(builtins.open))
        monkeypatch.setattr(Path, "read_bytes", counting(Path.read_bytes))
        for stage in stages:
            if own_process:
                monkeypatch.setattr(cli, "_loaded", {})
            assert main([stage, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert reads == dict.fromkeys(stages, 1)

    def test_report_without_markdown_says_so(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_all(tiny_config(tmp_path, formats=["csv", "json"]), out)
        report = (out / "report.md").read_text()
        err = capsys.readouterr().err
        for stage in ("admissibility", "optimize"):
            warning = (f"the {stage} tables were written in csv and json only; "
                       f"add markdown to the config's formats to show them here.")
            assert f"WARNING: {warning}" in report
            assert f"report: warning, {warning}" in err
        for rel in ("admissibility/boxplots/blobs3.json", "optimize/boxplots/blobs3.json"):
            assert f"- [blobs3.json]({rel})" in report

    def test_resumed_optimize_reads_each_run_file_once(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        run_all(cfg, out)
        runs = out / "optimize" / "runs"
        reads = count_reads(monkeypatch, runs)
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        assert reads == {p.name: 1 for p in runs.iterdir()} and len(reads) == 4

    def test_resumed_optimize_reads_each_file_once(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, datasets=[blobs("a", 3), blobs("b", 4)])
        out = tmp_path / "out"
        run_all(cfg, out)
        reads = count_reads(monkeypatch, out)
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        files = [p.relative_to(out).as_posix()
                 for p in (out / "optimize").rglob("*") if p.is_file()]
        assert len(files) == 2 * 2 * 2 + 3 + 2  # runs, summaries, box plots
        assert {rel: reads[rel] for rel in files} == dict.fromkeys(files, 1)
        assert reads["datasets/manifest.json"] == 1

    def test_stale_files_are_read_once_per_stage(self, tmp_path, monkeypatch):
        # A new seed makes every population and run file stale; the stage
        # that rewrites one reads it once, for its stamp, not again to
        # compare its bytes with the new ones.
        out = tmp_path / "out"
        run_all(tiny_config(tmp_path), out)
        cfg = tiny_config(tmp_path, seed=8)
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        reads = count_reads(monkeypatch, out)
        for command, files in (("init", "populations"), ("optimize", "optimize/runs")):
            before = {p: p.read_bytes() for p in (out / files).iterdir()}
            reads.clear()
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            rels = [p.relative_to(out).as_posix() for p in before]
            assert {rel: reads[rel] for rel in rels} == dict.fromkeys(rels, 1)
            assert all(p.read_bytes() != data for p, data in before.items())
            assert len(before) == (2 if command == "init" else 4)

    def test_missing_files_are_read_once_per_stage(self, tmp_path, monkeypatch):
        # A cold stage tries each population or run file once, finds it
        # missing and writes it without trying again.
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        reads = count_reads(monkeypatch, out)
        for command, files in (("init", "populations"), ("optimize", "optimize/runs")):
            reads.clear()
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            rels = [p.relative_to(out).as_posix() for p in (out / files).iterdir()]
            assert {rel: reads[rel] for rel in rels} == dict.fromkeys(rels, 1)
            assert len(rels) == (2 if command == "init" else 4)

    @pytest.mark.parametrize("command, read", [
        ("admissibility", ["blobs3__km.json", "blobs3__mst.json"]),
        ("optimize", ["blobs3__mst.json"]),
    ])
    def test_cold_stage_reads_each_population_file_once(self, tmp_path, monkeypatch,
                                                        command, read):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        for cmd in ("gen", "init"):
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
        reads = count_reads(monkeypatch, out / "populations")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert reads == dict.fromkeys(read, 1)

    def test_campaign_under_ascii_locale_matches_in_process_run(self, tmp_path):
        # One process per stage, as a shell runs them, in a locale whose
        # encoding is ASCII: the CSV labels, the tables' marks and the
        # report all stay UTF-8.
        csv = labelled_csv(tmp_path / "drinks.csv", ["café", "thé", "eau"])
        cfg = tiny_config(tmp_path, datasets=[blobs("a", 3),
                                              {"name": "drinks", "csv": str(csv)}])
        here, there = tmp_path / "here", tmp_path / "there"
        run_all(cfg, here)
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
               "PYTHONUTF8": "0", "PYTHONPATH": str(Path(admissa.__file__).parents[1])}
        stages = [[cmd, "--config", str(cfg), "--out", str(there)]
                  for cmd in ("gen", "init", "admissibility", "optimize")]
        for argv in stages + [["report", "--out", str(there)]]:
            proc = subprocess.run([sys.executable, "-m", "admissa.cli", *argv],
                                  env=env, capture_output=True)
            assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert tree_bytes(there) == tree_bytes(here)

    def test_report_shows_only_current_tables(self, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        run_all(tiny_config(tmp_path), out)  # initializers [mst, km], runs 2
        assert "## Admissibility (km)" in (out / "report.md").read_text()
        cfg = tiny_config(tmp_path, initializers=["mst"], runs=1)
        run_all(cfg, out)
        run_all(cfg, fresh)
        report = (out / "report.md").read_text()
        assert "## Admissibility (km)" not in report
        assert (out / "admissibility" / "admissibility_km.md").exists()
        others = ("## Not part of this config\n\n"
                  "- [admissibility_km.md](admissibility/admissibility_km.md)\n\n")
        assert others in report
        assert report.replace(others, "") == (fresh / "report.md").read_text()

    def test_report_lists_dropped_dataset_apart(self, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        run_all(tiny_config(tmp_path, datasets=[blobs("a", 3), blobs("b", 4)]), out)
        cfg = tiny_config(tmp_path, datasets=[blobs("a", 3)])
        run_all(cfg, out)
        run_all(cfg, fresh)
        report = (out / "report.md").read_text()
        assert (out / "optimize" / "boxplots" / "b.json").exists()
        others = ("## Not part of this config\n\n"
                  "- [b.json](admissibility/boxplots/b.json)\n"
                  "- [b.json](optimize/boxplots/b.json)\n\n")
        assert others in report
        assert report.replace(others, "") == (fresh / "report.md").read_text()

    def test_csv_tables_quote_names_with_commas(self, tmp_path):
        out = tmp_path / "out"
        run_all(tiny_config(tmp_path, datasets=[
            blobs("blobs,3", 3) | {"group": "G1, small"}]), out)
        for rel in ("optimize/optimization_summary.csv",
                    "admissibility/admissibility_mst.csv"):
            header, *rows = csv.reader(io.StringIO((out / rel).read_text()))
            assert rows and all(len(row) == len(header) for row in rows)
            assert all(row[0] == "blobs,3" for row in rows)

    def test_markdown_tables_escape_pipes(self, tmp_path):
        out = tmp_path / "out"
        run_all(tiny_config(tmp_path, datasets=[
            blobs("blobs|3", 3) | {"group": "G1|small"}]), out)
        report = (out / "report.md").read_text()
        for text in [report, *((out / rel).read_text() for rel in (
                "optimize/optimization_summary.md", "admissibility/admissibility_mst.md"))]:
            # each table is a run of lines that start with "|"
            tables = re.findall(r"(?m)(?:^\|.*\n)+", text)
            assert tables and "blobs\\|3" in text
            for table in tables:
                pipes = {len(re.findall(r"(?<!\\)\|", row)) for row in table.splitlines()}
                assert len(pipes) == 1, table
        assert "| blobs\\|3 | G1\\|small | 30 |" in report

    def test_optimize_manifest_lists_its_files(self, tmp_path):
        out = tmp_path / "out"
        run_all(tiny_config(tmp_path), out)
        outputs = json.loads((out / "manifest_optimize.json").read_text())["outputs"]
        files = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in (out / "optimize").rglob("*") if p.is_file()}
        assert outputs == files
        assert len(files) == 2 * 2 + 3 + 1  # runs, summaries, box plot

    def test_optimize_with_jobs(self, tmp_path):
        cfg = tiny_config(tmp_path, datasets=[blobs("a", 3), blobs("b", 4)])
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for flags, out in ((["--jobs", "1"], out1), (["--jobs", "2"], out2)):
            assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
            assert main(["init", "--config", str(cfg), "--out", str(out)]) == 0
            assert main(["optimize", "--config", str(cfg), "--out", str(out)]
                        + flags) == 0
        assert tree_bytes(out1) == tree_bytes(out2)
        # A partial resume: one whole cell of "a" and one run of "b" are gone.
        runs = out2 / "optimize" / "runs"
        for name in ("a__var+con__r000", "a__var+con__r001", "b__var+sep_cl__r001"):
            (runs / f"{name}.json").unlink()
        assert main(["optimize", "--config", str(cfg), "--out", str(out2),
                     "--jobs", "2"]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)


class TestStamps:
    @pytest.mark.parametrize("over", [
        {"seed": 8},
        {"emoc": {"population_size": 8, "generations": 1}},
        {"criteria_params": {"L": 5}},
        {"datasets": [{"name": "blobs3", "group": "G1",
                       "generator": {"archetype": "gaussian_blobs",
                                     "params": {"k_star": 3, "per_cluster_n": 10,
                                                "separation": 10.0}}}]},
    ], ids=["seed", "emoc", "criteria_params", "generator"])
    def test_changed_config_matches_fresh_run(self, tmp_path, over):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        run_all(tiny_config(tmp_path), out)
        cfg = tiny_config(tmp_path, **over)
        run_all(cfg, out)
        run_all(cfg, fresh)
        assert tree_bytes(out) == tree_bytes(fresh)

    def test_resumed_admissibility_reads_and_evaluates_nothing(
            self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        run_all(cfg, out)
        calls = count_calls(monkeypatch, (admissibility, "evaluate"),
                            (cli, "load_dataset"), (InitPopulation, "from_dict"))
        assert main(["admissibility", "--config", str(cfg), "--out", str(out)]) == 0
        assert calls == []

    @pytest.mark.parametrize("over", [
        {"emoc": {"population_size": 8, "generations": 1}},
        {"pairs": [["var", "con"]]},
    ], ids=["emoc", "pairs"])
    def test_optimize_settings_keep_admissibility(self, tmp_path, monkeypatch, over):
        out = tmp_path / "out"
        run_all(tiny_config(tmp_path), out)
        calls = count_calls(monkeypatch, (admissibility, "evaluate"))
        run_all(tiny_config(tmp_path, **over), out)
        assert calls == []
        manifest = json.loads((out / "manifest_admissibility.json").read_text())
        key, value = next(iter(over.items()))
        assert manifest["config"][key] == value

    @pytest.mark.parametrize("damage", ["edit", "delete"])
    def test_damaged_table_is_restored(self, tmp_path, damage):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        run_all(cfg, out)
        before = tree_bytes(out)
        table = out / "admissibility" / "admissibility_mst.md"
        if damage == "edit":
            table.write_text("| dataset |\n")
        else:
            table.unlink()
        assert main(["admissibility", "--config", str(cfg), "--out", str(out)]) == 0
        assert tree_bytes(out) == before

    @pytest.mark.parametrize("key, value", [("best_ari", "x"),
                                            ("truth_dominated", "yes"),
                                            ("best_ari", float("nan")),
                                            ("best_ari", 1.5)])
    def test_damaged_run_file_is_recomputed(self, tmp_path, key, value):
        cfg = tiny_config(tmp_path)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        run_all(cfg, out)
        run_all(cfg, fresh)
        path = out / "optimize" / "runs" / "blobs3__var+con__r000.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, key: value}))  # the stamp still matches
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        assert tree_bytes(out) == tree_bytes(fresh)

    def test_out_of_date_population_is_a_data_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_all(tiny_config(tmp_path), out)
        cfg = tiny_config(tmp_path, seed=8)  # re-seeds the generated dataset too
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        for cmd in ("admissibility", "optimize"):
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2
            assert "out of date" in capsys.readouterr().err

    @pytest.mark.parametrize("change", ["generator", "csv-deleted"])
    def test_stages_after_gen_never_rebuild_a_dataset(self, tmp_path, capsys, change):
        # Only gen writes datasets/, so its manifest, and the report's
        # Datasets table, always describe the CSVs the other stages read.
        out = tmp_path / "out"
        run_all(tiny_config(tmp_path, datasets=[blobs("b", 3)]), out)
        entry = blobs("b", 3)
        if change == "generator":
            entry["generator"]["params"]["per_cluster_n"] = 12
        else:
            (out / "datasets" / "b.csv").unlink()
        cfg = tiny_config(tmp_path, datasets=[entry])
        before = tree_bytes(out)
        for cmd in ("init", "admissibility", "optimize"):
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err == gen_needed(
                "b", out / "datasets" / "b.csv" if change == "csv-deleted" else None)
        assert main(["report", "--out", str(out)]) == 0
        assert tree_bytes(out) == before
        assert "| b |  | 30 | 2 | 3 | generated |" in (out / "report.md").read_text()

    @pytest.mark.parametrize("change", ["rows-added", "label-column"])
    def test_csv_entry_changed_after_gen_needs_gen(self, tmp_path, capsys, change):
        # A CSV entry is held to its manifest row as a generated one is:
        # its entry and the digest of its bytes.
        csv = labelled_csv(tmp_path / "d.csv", ["1", "2", "3"])
        entry = {"name": "d", "csv": str(csv)}
        out = tmp_path / "out"
        run_all(tiny_config(tmp_path, datasets=[entry]), out)
        if change == "rows-added":
            with open(csv, "a") as f:
                f.writelines(f"{40 + i},{i % 2},1\n" for i in range(6))
        else:
            entry["label_column"] = "x1"
        cfg = tiny_config(tmp_path, datasets=[entry])
        before = tree_bytes(out)
        for cmd in ("init", "admissibility", "optimize"):
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err == gen_needed(
                "d", csv if change == "rows-added" else None)
        assert tree_bytes(out) == before
        assert "| d |  | 21 | 2 | 3 | csv |" in (out / "report.md").read_text()

    def test_changed_group_needs_gen_and_stays_out_of_run_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_all(tiny_config(tmp_path, datasets=[blobs("b", 3) | {"group": "G"}]), out)
        cfg = tiny_config(tmp_path, datasets=[blobs("b", 3) | {"group": "H"}])
        before = tree_bytes(out)
        for cmd in ("init", "admissibility", "optimize"):
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err == gen_needed("b")
        assert tree_bytes(out) == before
        run_all(cfg, out)
        runs = [json.loads(p.read_text()) for p in (out / "optimize" / "runs").iterdir()]
        assert len(runs) == 4 and not any("group" in doc for doc in runs)
        rows = (out / "optimize" / "optimization_summary.csv").read_text().splitlines()
        assert len(rows) == 3 and all(row.startswith("b,H,") for row in rows[1:])
        assert "| b | H | 30 | 2 | 3 | generated |" in (out / "report.md").read_text()

    def test_csv_rewritten_after_the_check_in_init_changes_nothing(self, tmp_path,
                                                                   monkeypatch):
        # init parses the bytes its manifest check digested, so a CSV
        # rewritten after that check, and then restored, leaves no
        # population computed from other points under the check's digest.
        csv = labelled_csv(tmp_path / "d.csv", ["1", "2", "3"])
        original = csv.read_bytes()
        cfg = tiny_config(tmp_path, datasets=[{"name": "d", "csv": str(csv)}])
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        materialize = cli.materialize_datasets

        def rewritten_after_the_check(*args):
            found = materialize(*args)
            csv.write_text("x0,x1,label\n" + "".join(f"{i % 3},{i},{i % 3 + 1}\n"
                                                     for i in range(21)))
            return found

        with monkeypatch.context() as patched:
            patched.setattr(cli, "_loaded", {})  # as in a process of its own
            patched.setattr(cli, "materialize_datasets", rewritten_after_the_check)
            assert main(["init", "--config", str(cfg), "--out", str(out)]) == 0
        csv.write_bytes(original)
        for cmd in ("admissibility", "optimize"):
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["report", "--out", str(out)]) == 0
        run_all(cfg, fresh)
        assert tree_bytes(out) == tree_bytes(fresh)

    def test_criterion_param_no_pair_reads_keeps_the_runs(self, tmp_path):
        # Only dcd and sep_graph read k_size, so the (var, con) runs keep
        # their bytes and mtimes; con reads L, so an L change redoes them.
        out = tmp_path / "out"
        pairs = [["var", "con"]]
        run_all(tiny_config(tmp_path, pairs=pairs), out)
        runs = sorted((out / "optimize" / "runs").iterdir())
        before = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in runs}
        run_all(tiny_config(tmp_path, pairs=pairs, criteria_params={"k_size": 5}), out)
        assert {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in runs} == before
        run_all(tiny_config(tmp_path, pairs=pairs, criteria_params={"L": 5}), out)
        assert len(runs) == 2 and all(p.read_bytes() != before[p][0] for p in runs)

    def test_criterion_param_no_objective_reads_keeps_the_tables(
            self, tmp_path, monkeypatch, capsys):
        # Neither var nor con reads k_size, so the admissibility tables are
        # kept; con reads L, so an L change recomputes them.
        out = tmp_path / "out"
        objectives = ["var", "con"]
        run_all(tiny_config(tmp_path, objectives=objectives), out)
        calls = count_calls(monkeypatch, (admissibility, "evaluate"))
        for params, kept in (({"k_size": 5}, True), ({"L": 5}, False)):
            cfg = tiny_config(tmp_path, objectives=objectives, criteria_params=params)
            capsys.readouterr()
            assert main(["admissibility", "--config", str(cfg), "--out", str(out)]) == 0
            assert ("inputs unchanged" in capsys.readouterr().out) == kept
            assert (calls == []) == kept

    def test_csv_edited_in_place_between_campaigns_is_loaded_again(
            self, tmp_path, monkeypatch):
        # A dataset loaded by an earlier campaign of this process is keyed
        # by its CSV's digest, so new bytes at the same path are a new load:
        # one per campaign, since gen loads it through the same cache.
        csv = labelled_csv(tmp_path / "d.csv", ["1", "2", "3"])
        cfg = tiny_config(tmp_path, datasets=[{"name": "d", "csv": str(csv)}])
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        run_all(cfg, out)
        with open(csv, "a") as f:
            f.writelines(f"{40 + i},{i % 2},1\n" for i in range(6))
        calls = count_calls(monkeypatch, (cli, "load_dataset"))
        run_all(cfg, out)
        assert calls == ["load_dataset"]
        run_all(cfg, fresh)
        assert tree_bytes(out) == tree_bytes(fresh)


class TestErrors:
    def test_missing_config(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_bad_archetype(self, tmp_path):
        cfg = tiny_config(tmp_path, datasets=[
            {"name": "x", "generator": {"archetype": "torus"}}])
        assert main(["gen", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1

    def test_invalid_pair(self, tmp_path):
        cfg = tiny_config(tmp_path, pairs=[["var", "nope"]])
        assert main(["optimize", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1

    def test_admissibility_without_populations(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "o"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["admissibility", "--config", str(cfg), "--out",
                     str(out)]) == 2

    def test_optimize_without_populations(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "o"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 2
        assert "population file missing" in capsys.readouterr().err

    def test_no_pairs_take_any_optimize_initializer(self, tmp_path):
        # without pairs nothing is optimized, so the mst population is not needed
        out = tmp_path / "o"
        run_all(tiny_config(tmp_path, initializers=["km"], pairs=[]), out)
        # and no dataset has a box plot of its runs
        assert not (out / "optimize" / "boxplots").exists()
        assert json.loads((out / "manifest_optimize.json").read_text())["outputs"] == {}

    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o"),
                  "--jobs", "0"])
        assert exc.value.code == 1
        assert "--jobs: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_every_initial_individual_disqualified_is_a_data_error(self, tmp_path,
                                                                   capsys):
        # ent is undefined for a zero vector, so no partition of data with
        # a point at the origin gets an ent value
        csv = tmp_path / "origin.csv"
        csv.write_text("x0,x1,label\n0,0,a\n" + "".join(
            f"{10 * c + i},{5 * c + i % 2},{'abc'[c]}\n"
            for c in range(3) for i in range(1, 8)))
        cfg = tiny_config(tmp_path, datasets=[{"name": "origin", "csv": str(csv)}],
                          initializers=["mst"], objectives=["var"],
                          pairs=[["ent", "var"]])
        out = tmp_path / "o"
        for cmd in ("gen", "init"):
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: dataset 'origin', pair ent+var:")
        assert "disqualified" in err

    @pytest.mark.parametrize("damage", ["partition-without-seed",
                                        "partitions-not-a-list",
                                        "assignment-short", "assignment-float"])
    def test_damaged_population_is_a_data_error(self, tmp_path, capsys, damage):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "o"
        for cmd in ("gen", "init"):
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
        path = out / "populations" / "blobs3__mst.json"
        doc = json.loads(path.read_text())
        assignment = doc["partitions"][0]["assignment"]
        if damage == "partition-without-seed":
            del doc["partitions"][0]["seed"]
        elif damage == "partitions-not-a-list":
            doc["partitions"] = 5
        elif damage == "assignment-short":
            assignment.pop()
        else:  # labels that int64 would truncate back to the right ones
            assignment[:] = [label + 0.5 for label in assignment]
        path.write_text(json.dumps(doc))
        # the stamp still matches, so init keeps the file
        assert main(["init", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        for cmd in ("admissibility", "optimize"):
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"data error: population file damaged: {path} (")
            assert "delete it and rerun `admissa init`" in err

    def test_config_not_utf8_is_a_config_error(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, datasets=[blobs("caf\xe9", 3)])
        cfg.write_bytes(json.dumps(json.loads(cfg.read_text()),
                                   ensure_ascii=False).encode("latin-1"))
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config is not valid UTF-8 JSON: 'utf-8' "
                              "codec can't decode byte 0xe9")

    def test_csv_not_utf8_is_a_data_error(self, tmp_path, capsys):
        csv = labelled_csv(tmp_path / "drinks.csv", ["caf\xe9", "th\xe9", "eau"],
                           encoding="latin-1")
        cfg = tiny_config(tmp_path, datasets=[{"name": "drinks", "csv": str(csv)}])
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {csv}: not UTF-8 text")

    def test_init_without_labels(self, tmp_path, capsys):
        # no stage can use a dataset without labels, so gen refuses it already
        csv = tmp_path / "nolabel.csv"
        csv.write_text("x0,x1\n0,0\n1,1\n2,2\n3,3\n")
        cfg = tiny_config(tmp_path, datasets=[
            {"name": "nolabel", "csv": str(csv), "label_column": None}])
        for cmd in ("gen", "init"):
            assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: dataset 'nolabel': label_column")
            assert "Traceback" not in err

    def test_csv_without_its_label_column(self, tmp_path, capsys):
        csv = tmp_path / "nolabel.csv"
        csv.write_text("x0,x1\n0,0\n1,1\n2,2\n3,3\n")
        cfg = tiny_config(tmp_path, datasets=[{"name": "nolabel", "csv": str(csv)}])
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {csv}: label column 'label' absent\n"

    @pytest.mark.parametrize("text", [
        '[{"name": "a", "group"',
        '[{"name": "a", "n": 4, "d": 2, "k_star": 2, "source": "a.csv"}]',
    ], ids=["invalid_json", "row_without_group"])
    def test_report_on_damaged_dataset_manifest(self, tmp_path, capsys, text):
        manifest = tmp_path / "o" / "datasets" / "manifest.json"
        manifest.parent.mkdir(parents=True)
        manifest.write_text(text)
        assert main(["report", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(manifest) in err
        assert "Traceback" not in err

    def test_stage_on_dataset_manifest_with_a_list_for_a_name(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, datasets=[blobs("b", 3)])
        out = tmp_path / "o"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        (out / "datasets" / "manifest.json").write_text('[{"name": ["b"]}]')
        capsys.readouterr()
        assert main(["init", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: dataset 'b': ") and "Traceback" not in err

    @pytest.mark.parametrize("rel", ["admissibility/admissibility_mst.md",
                                     "optimize/optimization_summary.md"])
    def test_report_on_table_not_utf8(self, tmp_path, capsys, rel):
        out = tmp_path / "o"
        run_all(tiny_config(tmp_path), out)
        with open(out / rel, "ab") as f:
            f.write(b"\xe9")
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {out / rel}: damaged file, not UTF-8 text")

    def test_name_outside_the_locale_encoding_is_a_config_error(self, tmp_path):
        # An ASCII locale cannot name the file café.csv; the config says so
        # before any file is written.
        cfg = tiny_config(tmp_path, datasets=[blobs("café", 3)])
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
               "PYTHONUTF8": "0", "PYTHONPATH": str(Path(admissa.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "admissa.cli", "gen", "--config",
                               str(cfg), "--out", str(tmp_path / "o")],
                              env=env, capture_output=True)
        err = proc.stderr.decode(errors="replace")
        assert proc.returncode == 1, err
        assert err.startswith("config error: dataset 'caf\\xe9': the name is not")
        assert not (tmp_path / "o").exists()

    def test_empty_report_warns(self, tmp_path, capsys):
        out = tmp_path / "empty"
        out.mkdir()
        assert main(["report", "--out", str(out)]) == 0
        assert "WARNING" in (out / "report.md").read_text()

    @pytest.mark.parametrize("key, value", [
        ("criteria_params", {"L": 0}),
        ("criteria_params", {"foo": 1}),
        ("emoc", {"population_size": 3}),
        ("emoc", {"populaton_size": 8}),
    ])
    def test_bad_criteria_params_or_emoc(self, tmp_path, capsys, key, value):
        cfg = tiny_config(tmp_path, **{key: value})
        assert main(["optimize", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [{"delta_percent": 0},
                                     {"delta_percent": 150}, {"L": "x"}])
    @pytest.mark.parametrize("command", ["gen", "init", "admissibility",
                                         "optimize"])
    def test_bad_emoc_values(self, tmp_path, capsys, command, bad):
        cfg = tiny_config(tmp_path, emoc={"population_size": 8, **bad})
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_bad_emoc_values_after_init(self, tmp_path, capsys):
        out = tmp_path / "o"
        run_all(tiny_config(tmp_path), out)
        cfg = tiny_config(tmp_path, emoc={"population_size": 8,
                                          "delta_percent": 0})
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("params", [{"n": 5}, {"n": "abc"},
                                        {"kind": "zzz"}])
    def test_bad_generator_params(self, tmp_path, capsys, params):
        cfg = tiny_config(tmp_path, datasets=[
            {"name": "arms", "generator": {"archetype": "elongated",
                                           "params": params}}])
        assert main(["gen", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: dataset 'arms'")

    @pytest.mark.parametrize("over", [
        {"run": 3},
        {"datasets": [{"name": "blobs3", "lable_column": "label",
                       "generator": {"archetype": "gaussian_blobs"}}]},
        {"datasets": [{"name": "blobs3",
                       "generator": {"archetype": "gaussian_blobs",
                                     "params": {"k_star": 3,
                                                "per_clustr_n": 12}}}]},
        {"criteria_params": {"con_penalty": "rank"}},
        {"datasets": [{"name": "blobs3",
                       "generator": {"archetype": "gaussian_blobs", "name": "x"}}]},
    ])
    def test_unknown_config_keys(self, tmp_path, capsys, over):
        cfg = tiny_config(tmp_path, **over)
        assert main(["gen", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("over", [
        {"pairs": [5]},
        {"pairs": [None]},
        {"pairs": ["ab"]},
        {"datasets": [{"name": "x", "csv": 5}]},
        {"datasets": [{"name": "x", "csv": "x.csv", "label_column": 3}]},
        {"datasets": [{"name": 7, "generator": {"archetype": "gaussian_blobs"}}]},
        {"datasets": [{"name": "x", "group": 5,
                       "generator": {"archetype": "gaussian_blobs"}}]},
        {"runs": True},
        {"seed": True},
    ])
    def test_mistyped_config_fields(self, tmp_path, capsys, over):
        cfg = tiny_config(tmp_path, **over)
        assert main(["gen", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("case, command, code", [
        ("config-is-a-directory", "gen", 1),
        ("out-is-a-file", "gen", 2),
        ("out-is-a-file", "report", 2),
        ("csv-is-a-directory", "gen", 2),
        ("population-is-a-directory", "init", 2),
    ])
    def test_path_that_cannot_be_read_or_written(self, tmp_path, capsys, case,
                                                 command, code):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "o"
        if case == "config-is-a-directory":
            cfg = tmp_path
        elif case == "out-is-a-file":
            out.write_text("")
        elif case == "csv-is-a-directory":
            (tmp_path / "d.csv").mkdir()
            cfg = tiny_config(tmp_path, datasets=[{"name": "d",
                                                   "csv": str(tmp_path / "d.csv")}])
        else:
            assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
            (out / "populations" / "blobs3__mst.json").mkdir(parents=True)
            capsys.readouterr()
        argv = [command, "--out", str(out)]
        if command != "report":
            argv += ["--config", str(cfg)]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("config error:" if code == 1 else "data error:")
        assert "Traceback" not in err

    def test_init_with_too_few_points_for_two_k_star(self, tmp_path, capsys):
        csv = tmp_path / "three.csv"
        csv.write_text("x0,label\n0,a\n1,b\n2,c\n")
        cfg = tiny_config(tmp_path, datasets=[{"name": "three", "csv": str(csv)}])
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        assert main(["init", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("data error:")

    def test_report_takes_only_out(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--out", str(tmp_path), "--seed", "3"])
        assert exc.value.code == 1

    def test_bad_format_flag(self, tmp_path):
        cfg = tiny_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o"),
                  "--format", "csv"])
        assert exc.value.code == 1

    def test_stage_commands_take_config_out_and_jobs_only(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for name in ("gen", "init", "admissibility", "optimize"):
            flags = {f for a in sub.choices[name]._actions for f in a.option_strings}
            assert flags == {"-h", "--help", "--config", "--out", "--jobs"}

    @pytest.mark.parametrize("over", [
        {"emoc": {"generations": 2.0}},
        {"emoc": {"population_size": 8.0}},
        {"emoc": {"crossover_prob": True}},
        {"emoc": {"delta_percent": True}},
        {"criteria_params": {"L": True}},
        {"criteria_params": {"L": 2.5}},
        {"pairs": [], "emoc": {"delta_percent": 0, "L": "x"}},
        {"pairs": [], "emoc": {"delta_percent": 0}},
        {"emoc": {"seed": 7}},
        {"datasets": [blobs("a", 3) | {"generator": {
            "archetype": "gaussian_blobs", "params": {"separation": True}}}]},
        {"datasets": [blobs("b", 3), blobs("b", 4)]},
        {"initializers": ["mst", "km", "mst"]},
        {"objectives": ["var", "con", "var"]},
        {"pairs": [["var", "con"], ["var", "sep_cl"], ["var", "con"]]},
        {"datasets": [blobs("b", 3) | {"csv": "d.csv"}]},
        {"datasets": [blobs("b", 3) | {"label_column": "label"}]},
        {"initializers": ["km"]},
        {"datasets": [blobs("../x", 3)]},
        {"datasets": [blobs("a/b", 3)]},
        {"datasets": [blobs("/abs", 3)]},
        {"datasets": [blobs("a\u0000b", 3)]},
        {"datasets": [blobs(".", 3)]},
        {"datasets": [blobs("line\nbreak", 3)]},
        {"datasets": [blobs("a", 3) | {"group": "G1\tsmall"}]},
        {"pairs": [["var"]]},
        {"pairs": [["var", "con", "sep_cl"]]},
        {"seed": -1},
        {"seed": 2 ** 64},
    ], ids=["generations-float", "population-float", "crossover-bool",
            "delta-bool", "L-bool", "L-float", "no-pairs-L", "no-pairs-delta",
            "emoc-seed", "param-bool", "dup-datasets", "dup-initializers",
            "dup-objectives", "dup-pairs", "generator-and-csv",
            "generator-and-label-column", "optimize-initializer-not-built",
            "name-parent", "name-subdir", "name-absolute", "name-nul",
            "name-dot", "name-line-break", "group-tab", "pair-of-one",
            "pair-of-three", "seed-negative", "seed-past-64-bits"])
    def test_config_values_checked_against_their_fields(self, tmp_path, capsys, over):
        cfg = tiny_config(tmp_path, **over)
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_seed_range_ends_accepted(self, tmp_path, seed):
        cfg = tiny_config(tmp_path, seed=seed)
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_int_accepted_for_float_fields(self, tmp_path):
        cfg = tiny_config(tmp_path, emoc={"population_size": 8, "generations": 1,
                                          "crossover_prob": 1, "delta_percent": 50})
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
