import functools
import json

import pytest

from admissa import Dataset
from admissa.cli import main


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


def run_all(cfg, out):
    for cmd in ("gen", "init", "admissibility", "optimize"):
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["report", "--out", str(out)]) == 0


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


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
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        assert built == []

    def test_optimize_with_jobs(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for flags, out in ((["--jobs", "1"], out1), (["--jobs", "2"], out2)):
            assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
            assert main(["init", "--config", str(cfg), "--out", str(out)]) == 0
            assert main(["optimize", "--config", str(cfg), "--out", str(out)]
                        + flags) == 0
        assert tree_bytes(out1) == tree_bytes(out2)


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

    def test_init_without_labels(self, tmp_path):
        csv = tmp_path / "nolabel.csv"
        csv.write_text("x0,x1\n0,0\n1,1\n2,2\n3,3\n")
        cfg = tiny_config(tmp_path, datasets=[
            {"name": "nolabel", "csv": str(csv), "label_column": None}])
        assert main(["init", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 2

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
        assert main(["gen", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--format", "xml"]) == 1
