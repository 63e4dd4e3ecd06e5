import argparse
import functools
import hashlib
import json

import pytest

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


def run_all(cfg, out):
    for cmd in ("gen", "init", "admissibility", "optimize"):
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["report", "--out", str(out)]) == 0


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


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
        built = []

        def counting(ds):
            built.append(ds.name)
            return distances.func(ds)

        distances = Dataset.__dict__["distances"]
        prop = functools.cached_property(counting)
        prop.__set_name__(Dataset, "distances")
        monkeypatch.setattr(Dataset, "distances", prop)
        calls = count_calls(monkeypatch, (cli, "load_dataset"),
                            (cli, "_load_population"))
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        assert built == [] and calls == []

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

    def test_optimize_manifest_lists_its_files(self, tmp_path):
        out = tmp_path / "out"
        run_all(tiny_config(tmp_path), out)
        outputs = json.loads((out / "manifest_optimize.json").read_text())["outputs"]
        files = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in (out / "optimize").rglob("*") if p.is_file()}
        assert outputs == files
        assert len(files) == 2 * 2 + 3 + 1  # runs, summaries, box plot

    def test_optimize_with_jobs(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for flags, out in ((["--jobs", "1"], out1), (["--jobs", "2"], out2)):
            assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
            assert main(["init", "--config", str(cfg), "--out", str(out)]) == 0
            assert main(["optimize", "--config", str(cfg), "--out", str(out)]
                        + flags) == 0
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

    def test_out_of_date_population_is_a_data_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_all(tiny_config(tmp_path), out)
        cfg = tiny_config(tmp_path, seed=8)
        for cmd in ("admissibility", "optimize"):
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2
            assert "out of date" in capsys.readouterr().err


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
        run_all(tiny_config(tmp_path, initializers=["km"], pairs=[]), tmp_path / "o")

    def test_init_without_labels(self, tmp_path):
        csv = tmp_path / "nolabel.csv"
        csv.write_text("x0,x1\n0,0\n1,1\n2,2\n3,3\n")
        cfg = tiny_config(tmp_path, datasets=[
            {"name": "nolabel", "csv": str(csv), "label_column": None}])
        assert main(["init", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 2

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

    def test_init_with_too_few_points_for_two_k_star(self, tmp_path, capsys):
        csv = tmp_path / "three.csv"
        csv.write_text("x0,label\n0,a\n1,b\n2,c\n")
        cfg = tiny_config(tmp_path, datasets=[{"name": "three", "csv": str(csv)}])
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
    ], ids=["generations-float", "population-float", "crossover-bool",
            "delta-bool", "L-bool", "L-float", "no-pairs-L", "no-pairs-delta",
            "emoc-seed", "param-bool", "dup-datasets", "dup-initializers",
            "dup-objectives", "dup-pairs", "generator-and-csv",
            "generator-and-label-column", "optimize-initializer-not-built"])
    def test_config_values_checked_against_their_fields(self, tmp_path, capsys, over):
        cfg = tiny_config(tmp_path, **over)
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_int_accepted_for_float_fields(self, tmp_path):
        cfg = tiny_config(tmp_path, emoc={"population_size": 8, "generations": 1,
                                          "crossover_prob": 1, "delta_percent": 50})
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
