"""Campaign command line: generate data, build initial populations, run
the admissibility analysis and the objective-pair optimization, and render
reports.

All commands are idempotent: population and run files that already exist
are left untouched, so interrupted campaigns can be resumed, and the
derived documents (dataset manifest, tables, summaries, box-plot data) are
rebuilt from the current config and rewritten only when their bytes
change, so reruns with the same config and seed are byte-identical.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import evaluation
from .admissibility import build_admissibility_table
from .criteria import ALL_IDS, CriterionError, evaluate_vector, objective
from .data import DataError, Dataset, load_dataset, write_dataset_csv
from .datagen import GeneratorSpec
from .emoc import EmocConfig, EmocError, evolve, truth_dominated
from .evaluation import RunSummary, ari, five_number_summary
from .initializers import ALGORITHMS, InitPopulation, generate_population
from .seeding import derive_seed

DEFAULT_PAIRS = [["var", "sep_cl"], ["ch", "sep_cl"], ["var", "ch"],
                 ["ch", "con"], ["var", "con"], ["con", "sep_cl"]]
FORMATS = ("csv", "json", "markdown")


class ConfigError(ValueError):
    pass


def _reject_unknown_keys(cls, doc: dict, where: str) -> None:
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{where}: unknown keys {', '.join(unknown)}")


@dataclass
class DatasetEntry:
    name: str
    group: str = ""
    generator: GeneratorSpec | None = None
    csv: str | None = None
    label_column: str | None = "label"

    @classmethod
    def from_dict(cls, doc: dict, master_seed: int) -> "DatasetEntry":
        if not isinstance(doc, dict) or not doc.get("name"):
            raise ConfigError("every dataset entry needs a name")
        _reject_unknown_keys(cls, doc, f"dataset {doc['name']!r}")
        entry = cls(**doc)
        for key, types in (("name", str), ("group", str), ("csv", (str, type(None))),
                           ("label_column", (str, type(None)))):
            if not isinstance(getattr(entry, key), types):
                raise ConfigError(f"dataset {entry.name!r}: {key} must be a string")
        if entry.generator is not None:
            try:
                gdoc = dict(entry.generator)
                gdoc.setdefault("seed", derive_seed(master_seed, "datagen", entry.name))
                gdoc.setdefault("name", entry.name)
                entry.generator = GeneratorSpec.from_dict(gdoc)
            except (TypeError, ValueError) as err:
                raise ConfigError(f"dataset {entry.name!r}: bad generator spec "
                                  f"({err})") from None
        elif entry.csv is None:
            raise ConfigError(f"dataset {entry.name!r} needs a generator or a csv path")
        return entry


@dataclass
class CampaignConfig:
    datasets: list[DatasetEntry]
    initializers: list[str] = field(default_factory=lambda: list(ALGORITHMS))
    objectives: list[str] = field(default_factory=lambda: list(ALL_IDS))
    pairs: list[list[str]] = field(default_factory=lambda: [list(p) for p in DEFAULT_PAIRS])
    runs: int = 30
    seed: int = 0
    optimize_initializer: str = "mst"
    emoc: dict = field(default_factory=dict)
    criteria_params: dict = field(default_factory=dict)
    formats: list[str] = field(default_factory=lambda: list(FORMATS))

    def validate(self):
        if not self.datasets:
            raise ConfigError("at least one dataset is required")
        if not self.objectives:
            raise ConfigError("at least one objective is required")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        for init in self.initializers + [self.optimize_initializer]:
            if init not in ALGORITHMS:
                raise ConfigError(f"unknown initializer {init!r}")
        for crit in self.objectives:
            if crit not in ALL_IDS:
                raise ConfigError(f"unknown objective {crit!r}")
        for pair in self.pairs:
            if (not isinstance(pair, list) or len(pair) != 2
                    or any(c not in ALL_IDS for c in pair)):
                raise ConfigError(f"invalid objective pair {pair!r}")
        for fmt in self.formats:
            if fmt not in FORMATS:
                raise ConfigError(f"unknown format {fmt!r}")
        try:
            for crit in self.objectives:
                self.spec_for(crit)
            for pair in self.pairs:
                self.emoc_config(pair, self.seed)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad criteria_params or emoc ({err})") from None

    def spec_for(self, crit_id: str):
        return objective(crit_id, **self.criteria_params)

    def emoc_config(self, pair, seed: int) -> EmocConfig:
        specs = tuple(self.spec_for(c) for c in pair)
        kwargs = dict(self.emoc)
        kwargs.pop("seed", None)
        return EmocConfig(objectives=specs, seed=seed, **kwargs)

    def to_dict(self) -> dict:
        return asdict(self)


def load_config(path: str, seed_override: int | None = None) -> CampaignConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}")

    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown_keys(CampaignConfig, doc, "config")
    if seed_override is not None:
        doc["seed"] = seed_override
    cfg = CampaignConfig(**{"datasets": [], **doc})
    for key, default in vars(CampaignConfig(datasets=[])).items():
        # exact types: JSON true and false are bools, which are ints
        if type(getattr(cfg, key)) is not type(default):
            raise ConfigError(f"{key} must be of type {type(default).__name__}")
    cfg.datasets = [DatasetEntry.from_dict(d, cfg.seed) for d in cfg.datasets]
    cfg.validate()
    return cfg


# --------------------------------------------------------------------------
# File plumbing


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_if_changed(path: Path, text: str):
    """Leave the file untouched when the bytes would be identical."""
    if path.exists() and path.read_text() == text:
        return
    _atomic_write(path, text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _write_manifest(out: Path, command: str, cfg: CampaignConfig):
    doc = {"command": command, "config": cfg.to_dict()}
    _write_if_changed(out / f"manifest_{command}.json", _json_text(doc))


def dataset_csv_path(out: Path, entry: DatasetEntry) -> Path:
    return out / "datasets" / f"{entry.name}.csv"


def resolve_dataset(out: Path, entry: DatasetEntry) -> Dataset:
    """Load a dataset entry, materializing generated ones under out/datasets
    so downstream commands and workers read identical bytes."""
    if entry.csv is not None:
        return load_dataset(entry.csv, label_column=entry.label_column,
                            name=entry.name)
    path = dataset_csv_path(out, entry)
    if not path.exists():
        ds = entry.generator.build()
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        write_dataset_csv(ds, tmp)
        os.replace(tmp, path)
    return load_dataset(path, label_column="label", name=entry.name)


def population_path(out: Path, dataset: str, initializer: str) -> Path:
    return out / "populations" / f"{dataset}__{initializer}.json"


def pair_label(pair) -> str:
    return "+".join(pair)


def run_path(out: Path, dataset: str, pair, run_idx: int) -> Path:
    return out / "optimize" / "runs" / f"{dataset}__{pair_label(pair)}__r{run_idx:03d}.json"


# --------------------------------------------------------------------------
# Commands


def cmd_gen(cfg: CampaignConfig, out: Path) -> int:
    manifest = []
    for entry in cfg.datasets:
        ds = resolve_dataset(out, entry)
        manifest.append({
            "name": entry.name,
            "group": entry.group,
            "n": ds.n,
            "d": ds.dim,
            "k_star": ds.k_star,
            "source": "csv" if entry.csv else "generated",
            "generator": entry.generator.to_dict() if entry.generator else None,
        })
    _write_if_changed(out / "datasets" / "manifest.json", _json_text(manifest))
    _write_manifest(out, "gen", cfg)
    print(f"gen: {len(manifest)} datasets ready under {out / 'datasets'}")
    return 0


def cmd_init(cfg: CampaignConfig, out: Path) -> int:
    written = 0
    for entry in cfg.datasets:
        ds = resolve_dataset(out, entry)
        if ds.k_star is None:
            raise DataError(f"dataset {entry.name!r} has no labels; k* unknown")
        for init in cfg.initializers:
            path = population_path(out, entry.name, init)
            if path.exists():
                continue
            pop = generate_population(ds, init, master_seed=cfg.seed)
            _atomic_write(path, pop.to_json() + "\n")
            written += 1
    _write_manifest(out, "init", cfg)
    print(f"init: {written} population files written, "
          f"{len(cfg.datasets) * len(cfg.initializers) - written} already present")
    return 0


def _load_population(out: Path, dataset: str, initializer: str) -> InitPopulation:
    path = population_path(out, dataset, initializer)
    if not path.exists():
        raise DataError(f"population file missing: {path} (run `admissa init` first)")
    return InitPopulation.from_json(path.read_text())


def cmd_admissibility(cfg: CampaignConfig, out: Path) -> int:
    specs = [cfg.spec_for(c) for c in cfg.objectives]
    datasets = [resolve_dataset(out, e) for e in cfg.datasets]
    pops = {init: [_load_population(out, e.name, init) for e in cfg.datasets]
            for init in cfg.initializers}
    tables = [build_admissibility_table(datasets, init, specs,
                                        master_seed=cfg.seed,
                                        populations=pops[init])
              for init in cfg.initializers]
    for fmt in cfg.formats:
        for name, text in evaluation.render_tables(tables, [], fmt).items():
            _write_if_changed(out / "admissibility" / name, text)
    # box-plot data: ARI of base partitions vs truth, per initializer
    for i, (entry, ds) in enumerate(zip(cfg.datasets, datasets)):
        truth = ds.true_partition()
        doc = {}
        for init in cfg.initializers:
            values = [ari(pi, truth) for pi in pops[init][i].partitions]
            doc[init] = five_number_summary(values)
        _write_if_changed(out / "admissibility" / "boxplots" / f"{entry.name}.json",
                          _json_text(doc))
    _write_manifest(out, "admissibility", cfg)
    print(f"admissibility: {len(tables)} initializer tables under "
          f"{out / 'admissibility'}")
    return 0


def _optimize_cell(out: Path, cfg: CampaignConfig, entry: DatasetEntry,
                   pair) -> None:
    """Worker: the missing seeded runs of one (dataset, pair) cell. Reads
    the materialized CSV and population file only when a run is missing;
    writes one JSON per run."""
    todo = [r for r in range(cfg.runs)
            if not run_path(out, entry.name, pair, r).exists()]
    if not todo:
        return
    ds = resolve_dataset(out, entry)
    truth = ds.true_partition()
    pop = _load_population(out, entry.name, cfg.optimize_initializer)
    specs = tuple(cfg.spec_for(c) for c in pair)
    try:
        truth_vec = evaluate_vector(ds, truth, specs)
    except CriterionError:
        truth_vec = None
    for run_idx in todo:
        seed = derive_seed(cfg.seed, "optimize", entry.name,
                           pair_label(pair), run_idx)
        front = evolve(ds, cfg.emoc_config(pair, seed), pop)
        aris = [ari(m.partition, truth) for m in front.members]
        dominated = (truth_vec is not None
                     and truth_dominated(front, truth_vec))
        doc = {
            "dataset": entry.name,
            "group": entry.group,
            "pair": pair_label(pair),
            "run": run_idx,
            "seed": seed,
            "front": [
                {"assignment": m.partition.assignment.tolist(),
                 "k": m.partition.k,
                 "values": list(m.vector.values)}
                for m in front.members
            ],
            "ari": aris,
            "best_ari": max(aris),
            "truth_dominated": bool(dominated),
            "selection_rule": "best-ari-on-front",
        }
        _atomic_write(run_path(out, entry.name, pair, run_idx), _json_text(doc))


def cmd_optimize(cfg: CampaignConfig, out: Path, jobs: int = 1) -> int:
    for entry in cfg.datasets:
        resolve_dataset(out, entry)  # materialize; also validates CSVs
        _load_population(out, entry.name, cfg.optimize_initializer)

    cells = [(out, cfg, entry, pair)
             for entry in cfg.datasets for pair in cfg.pairs]

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_optimize_cell, *cell) for cell in cells]
            for fut in futures:
                fut.result()
    else:
        for cell in cells:
            _optimize_cell(*cell)

    summaries = []
    boxplots = []  # per dataset: best ARI of every run, per pair
    for entry in cfg.datasets:
        box = {}
        for pair in cfg.pairs:
            runs = []
            flags = []
            for run_idx in range(cfg.runs):
                doc = json.loads(run_path(out, entry.name, pair, run_idx).read_text())
                runs.append(doc["best_ari"])
                flags.append(doc["truth_dominated"])
            summaries.append(RunSummary(dataset=entry.name, group=entry.group,
                                        pair=pair_label(pair), run_aris=runs,
                                        truth_dominated_runs=flags))
            box[pair_label(pair)] = five_number_summary(runs)
        boxplots.append((entry.name, box))
    for fmt in cfg.formats:
        for name, text in evaluation.render_tables([], summaries, fmt).items():
            _write_if_changed(out / "optimize" / name, text)
    for name, box in boxplots:
        _write_if_changed(out / "optimize" / "boxplots" / f"{name}.json",
                          _json_text(box))
    _write_manifest(out, "optimize", cfg)
    print(f"optimize: {len(cells)} cells x {cfg.runs} runs under {out / 'optimize'}")
    return 0


def cmd_report(out: Path) -> int:
    sections = ["# Campaign report", ""]
    empty = True

    manifest_path = out / "datasets" / "manifest.json"
    if manifest_path.exists():
        empty = False
        rows = json.loads(manifest_path.read_text())
        sections += ["## Datasets", "", evaluation.markdown_grid(
            ["name", "group", "n", "d", "k*", "source"],
            [[r["name"], r["group"], r["n"], r["d"], r["k_star"], r["source"]]
             for r in rows])]

    adm_dir = out / "admissibility"
    if adm_dir.exists():
        for path in sorted(adm_dir.glob("admissibility_*.md")):
            empty = False
            title = path.stem.replace("admissibility_", "")
            sections += [f"## Admissibility ({title})", "", path.read_text(), ""]
        boxdir = adm_dir / "boxplots"
        if boxdir.exists():
            files = sorted(p.name for p in boxdir.glob("*.json"))
            if files:
                sections += ["### Initialization ARI box-plot data", ""]
                sections += [f"- [{f}](admissibility/boxplots/{f})" for f in files]
                sections.append("")

    opt = out / "optimize" / "optimization_summary.md"
    if opt.exists():
        empty = False
        sections += ["## Optimization (best ARI on front, mean of seeded runs)",
                     "", opt.read_text(), ""]
        boxdir = out / "optimize" / "boxplots"
        if boxdir.exists():
            files = sorted(p.name for p in boxdir.glob("*.json"))
            if files:
                sections += ["### Run ARI box-plot data", ""]
                sections += [f"- [{f}](optimize/boxplots/{f})" for f in files]
                sections.append("")

    if empty:
        sections += ["WARNING: no campaign artifacts found in this directory.", ""]
        print("report: warning, no artifacts found", file=sys.stderr)
    _write_if_changed(out / "report.md", "\n".join(sections))
    print(f"report: {out / 'report.md'}")
    return 0


# --------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="admissa",
        description="Admissibility analysis of clustering objectives and "
                    "delta-locus evolutionary multi-objective clustering.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen", "init", "admissibility", "optimize"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="campaign config JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config master seed")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for campaign cells")
        p.add_argument("--format", default=None,
                       help="comma-separated subset of csv,json,markdown")
    sub.add_parser("report").add_argument("--out", required=True,
                                          help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        if args.command == "report":
            return cmd_report(out)
        cfg = load_config(args.config, seed_override=args.seed)
        if args.format:
            cfg.formats = args.format.split(",")
            cfg.validate()
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "gen":
            return cmd_gen(cfg, out)
        if args.command == "init":
            return cmd_init(cfg, out)
        if args.command == "admissibility":
            return cmd_admissibility(cfg, out)
        if args.command == "optimize":
            return cmd_optimize(cfg, out, jobs=max(1, args.jobs))
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except (AssertionError, EmocError) as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
