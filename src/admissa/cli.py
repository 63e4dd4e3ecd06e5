"""Campaign command line: generate data, build initial populations, run
the admissibility analysis and the objective-pair optimization, and render
reports.

All commands are idempotent. Population files, run files and the
admissibility manifest carry an input stamp (``_stamp``): a digest of the
config slice they read, of the input files they read and of the admissa
version. A file whose stamp is missing or differs from the current one is
recomputed and the rest are kept, so interrupted campaigns resume where
they stopped, a changed config recomputes what it touches, and an
unchanged rerun of ``admissibility`` evaluates nothing. The derived
documents (dataset manifest, tables, summaries, box-plot data) are rebuilt
from the current config, and every file is rewritten only when its bytes
change, so reruns with the same config and seed are byte-identical.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import fnmatch
import functools
import hashlib
import json
import os
import sys
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

from . import __version__, evaluation
from .admissibility import build_admissibility_table
from .criteria import (ALL_IDS, CriterionError, ObjectiveSpec, evaluate_vector,
                       objective)
from .data import DataError, Dataset, load_dataset, write_dataset_csv
from .datagen import GENERATORS, GeneratorSpec
from .emoc import EmocConfig, EmocError, evolve, truth_dominated
from .evaluation import RunSummary, ari, five_number_summary
from .initializers import ALGORITHMS, InitPopulation, generate_population
from .seeding import derive_seed

DEFAULT_PAIRS = [["var", "sep_cl"], ["ch", "sep_cl"], ["var", "ch"],
                 ["ch", "con"], ["var", "con"], ["con", "sep_cl"]]
FORMATS = ("csv", "json", "markdown")


class ConfigError(ValueError):
    pass


def _fits(value, tp) -> bool:
    """Whether a JSON value has type ``tp``. JSON true and false are not
    numbers, an integer is a float, and a dataclass takes a JSON object,
    which is checked when that dataclass is built."""
    if isinstance(tp, types.UnionType):
        return any(_fits(value, t) for t in typing.get_args(tp))
    if typing.get_origin(tp) is list:
        item, = typing.get_args(tp)
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    if is_dataclass(tp):
        tp = dict
    elif tp is float:
        tp = (int, float)
    return isinstance(value, tp) and not isinstance(value, bool)


_type_hints = functools.cache(typing.get_type_hints)  # resolving them evals strings


def _checked(owner, doc, where: str, skip=()) -> dict:
    """``doc``, when it is a JSON object whose every key names a field or
    parameter of ``owner`` (a dataclass or function) outside ``skip`` and
    whose every value has the type ``owner`` annotates it with."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    hints = _type_hints(owner)
    for key, value in doc.items():
        if key not in hints or key in skip:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if not _fits(value, hints[key]):
            raise ConfigError(f"{where}: {key} must be of type "
                              f"{owner.__annotations__[key]}")
    return doc


@dataclass
class DatasetEntry:
    name: str
    group: str = ""
    generator: GeneratorSpec | None = None
    csv: str | None = None
    label_column: str | None = "label"

    @classmethod
    def from_dict(cls, doc: dict, master_seed: int) -> "DatasetEntry":
        where = f"dataset {doc.get('name')!r}"
        if not _checked(cls, doc, where).get("name"):
            raise ConfigError("every dataset entry needs a name")
        entry = cls(**doc)
        if entry.generator is not None:
            for key in ("csv", "label_column"):
                if key in doc:
                    raise ConfigError(f"{where}: a generated dataset takes no {key}")
            gdoc = {"seed": derive_seed(master_seed, "datagen", entry.name),
                    "name": entry.name,
                    **_checked(GeneratorSpec, entry.generator, f"{where} generator")}
            try:
                entry.generator = GeneratorSpec(**gdoc)
            except (TypeError, ValueError) as err:
                raise ConfigError(f"{where}: bad generator spec ({err})") from None
            _checked(GENERATORS[entry.generator.archetype], entry.generator.params,
                     f"{where} generator params", skip=("seed", "name", "return"))
        elif entry.csv is None:
            raise ConfigError(f"{where} needs a generator or a csv path")
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
        for pair in self.pairs:
            if len(pair) != 2:
                raise ConfigError(f"invalid objective pair {pair!r}")
        for what, items, known in (
                ("initializer", self.initializers + [self.optimize_initializer], ALGORITHMS),
                ("objective", self.objectives + sum(self.pairs, []), ALL_IDS),
                ("format", self.formats, FORMATS)):
            unknown = [x for x in items if x not in known]
            if unknown:
                raise ConfigError(f"unknown {what} {unknown[0]!r}")
        if self.pairs and self.optimize_initializer not in self.initializers:
            raise ConfigError(f"optimize_initializer {self.optimize_initializer!r} "
                              f"is not among the initializers")
        for what, items in (("dataset names", [e.name for e in self.datasets]),
                            ("initializers", self.initializers),
                            ("objectives", self.objectives),
                            ("pairs", [pair_label(p) for p in self.pairs])):
            repeated = sorted({x for x in items if items.count(x) > 1})
            if repeated:
                raise ConfigError(f"duplicate {what}: {', '.join(repeated)}")
        _checked(ObjectiveSpec, self.criteria_params, "criteria_params", skip=("id",))
        _checked(EmocConfig, self.emoc, "emoc", skip=("objectives", "seed"))
        try:  # the range checks; each pair's config differs only in specs and seed
            spec = self.spec_for(self.objectives[0])
            EmocConfig(objectives=(spec, spec), **self.emoc)
        except ValueError as err:
            raise ConfigError(f"bad criteria_params or emoc ({err})") from None

    def spec_for(self, crit_id: str):
        return objective(crit_id, **self.criteria_params)

    def emoc_config(self, pair, seed: int) -> EmocConfig:
        specs = tuple(self.spec_for(c) for c in pair)
        return EmocConfig(objectives=specs, seed=seed, **self.emoc)


def load_config(path: str) -> CampaignConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}")

    cfg = CampaignConfig(**{"datasets": [], **_checked(CampaignConfig, doc, "config")})
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


def _read_json(path: Path, kind: type):
    """A JSON file's contents when they are a ``kind`` (dict or list);
    an empty one when the file is missing, is not valid JSON or holds
    something else."""
    try:
        doc = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return kind()
    return doc if isinstance(doc, kind) else kind()


def _write_manifest(out: Path, command: str, cfg: CampaignConfig, **stamps):
    doc = {"command": command, "config": asdict(cfg), **stamps}
    _write_if_changed(out / f"manifest_{command}.json", _json_text(doc))


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _file_digest(path: Path) -> str | None:
    """sha256 of a file's bytes; None when the file does not exist."""
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def _write_output(out: Path, outputs: dict, rel: str, text: str):
    """Write ``text`` to out/rel when its bytes change, and record the
    file's sha256 as ``outputs[rel]``."""
    _write_if_changed(out / rel, text)
    outputs[rel] = _file_digest(out / rel)


def _stamp(config_slice, file_digests: list[str | None]) -> str:
    """The input stamp of an artifact: sha256 of the canonical JSON of the
    config slice it reads, the digests of the files it reads (in a fixed
    order) and the admissa version. It holds no path and no time, so equal
    inputs give equal stamps in any output directory."""
    doc = {"config": config_slice, "files": file_digests, "version": __version__}
    return hashlib.sha256(_canonical(doc).encode()).hexdigest()


def dataset_csv_path(out: Path, entry: DatasetEntry) -> Path:
    """The CSV a dataset entry is read from: its own file, or the generated
    one under out/datasets."""
    if entry.csv is not None:
        return Path(entry.csv)
    return out / "datasets" / f"{entry.name}.csv"


def materialize_dataset(out: Path, entry: DatasetEntry) -> Path:
    """The path of the entry's CSV. A generated dataset is written under
    out/datasets, so downstream commands and workers read identical bytes,
    whenever its CSV is missing or the dataset manifest does not record
    the entry's generator spec for it; equal bytes keep the old file."""
    path = dataset_csv_path(out, entry)
    if entry.csv is not None:
        return path
    recorded = {d.get("name"): _canonical(d.get("generator"))
                for d in _read_json(out / "datasets" / "manifest.json", list)
                if isinstance(d, dict)}
    if path.exists() and recorded.get(entry.name) == _canonical(asdict(entry.generator)):
        return path
    try:
        ds = entry.generator.build()
    except (TypeError, ValueError) as err:
        raise ConfigError(f"dataset {entry.name!r}: bad generator params "
                          f"({err})") from None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    write_dataset_csv(ds, tmp)
    if path.exists() and path.read_bytes() == tmp.read_bytes():
        tmp.unlink()
    else:
        os.replace(tmp, path)
    return path


def resolve_dataset(out: Path, entry: DatasetEntry) -> Dataset:
    """Load a dataset entry from its materialized CSV."""
    return load_dataset(materialize_dataset(out, entry),
                        label_column=entry.label_column, name=entry.name)


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
            "generator": asdict(entry.generator) if entry.generator else None,
        })
    _write_if_changed(out / "datasets" / "manifest.json", _json_text(manifest))
    _write_manifest(out, "gen", cfg)
    print(f"gen: {len(manifest)} datasets ready under {out / 'datasets'}")
    return 0


def _population_stamp(cfg: CampaignConfig, entry: DatasetEntry,
                      initializer: str, csv_digest: str | None) -> str:
    return _stamp({"initializer": initializer, "seed": cfg.seed,
                   "label_column": entry.label_column}, [csv_digest])


def cmd_init(cfg: CampaignConfig, out: Path) -> int:
    written = 0
    for entry in cfg.datasets:
        csv_digest = _file_digest(materialize_dataset(out, entry))
        ds = None  # loaded for the first stale population only
        for init in cfg.initializers:
            path = population_path(out, entry.name, init)
            stamp = _population_stamp(cfg, entry, init, csv_digest)
            if _read_json(path, dict).get("inputs") == stamp:
                continue
            if ds is None:
                ds = resolve_dataset(out, entry)
                if ds.k_star is None:
                    raise DataError(f"dataset {entry.name!r} has no labels; k* unknown")
            pop = generate_population(ds, init, master_seed=cfg.seed)
            doc = {**pop.to_dict(), "inputs": stamp}
            _write_if_changed(path, json.dumps(doc, indent=1) + "\n")
            written += 1
    _write_manifest(out, "init", cfg)
    print(f"init: {written} population files written, "
          f"{len(cfg.datasets) * len(cfg.initializers) - written} up to date")
    return 0


def _load_population(out: Path, cfg: CampaignConfig, entry: DatasetEntry,
                     initializer: str) -> InitPopulation:
    """The population of (entry, initializer), checked against the current
    config and dataset CSV."""
    path = population_path(out, entry.name, initializer)
    if not path.exists():
        raise DataError(f"population file missing: {path} (run `admissa init` first)")
    doc = _read_json(path, dict)
    csv_digest = _file_digest(dataset_csv_path(out, entry))
    if doc.get("inputs") != _population_stamp(cfg, entry, initializer, csv_digest):
        raise DataError(f"population file out of date: {path} (its config or "
                        f"dataset changed; run `admissa init`)")
    return InitPopulation.from_dict(doc)


def _admissibility_stamp(cfg: CampaignConfig, out: Path) -> str:
    doc = asdict(cfg)
    config_slice = {key: doc[key] for key in ("datasets", "initializers",
                                              "objectives", "criteria_params",
                                              "formats", "seed")}
    files = [_file_digest(materialize_dataset(out, e)) for e in cfg.datasets]
    files += [_file_digest(population_path(out, e.name, init))
              for init in cfg.initializers for e in cfg.datasets]
    return _stamp(config_slice, files)


def cmd_admissibility(cfg: CampaignConfig, out: Path) -> int:
    """The verdict tables and box-plot data of every initializer. The
    manifest, written last, records the input stamp and the digest of
    every file written; when both still hold, nothing is recomputed."""
    inputs = _admissibility_stamp(cfg, out)
    manifest = _read_json(out / "manifest_admissibility.json", dict)
    outputs = manifest.get("outputs")
    if (manifest.get("inputs") == inputs and isinstance(outputs, dict)
            and all(_file_digest(out / rel) == digest
                    for rel, digest in outputs.items())):
        _write_manifest(out, "admissibility", cfg, inputs=inputs, outputs=outputs)
        print(f"admissibility: inputs unchanged, tables under "
              f"{out / 'admissibility'} kept")
        return 0

    specs = [cfg.spec_for(c) for c in cfg.objectives]
    datasets = [resolve_dataset(out, e) for e in cfg.datasets]
    pops = {init: [_load_population(out, cfg, e, init) for e in cfg.datasets]
            for init in cfg.initializers}
    memos = [{} for _ in datasets]  # criterion values shared by the tables
    tables = [build_admissibility_table(datasets, init, specs,
                                        master_seed=cfg.seed,
                                        populations=pops[init], memos=memos)
              for init in cfg.initializers]
    outputs = {}
    for fmt in cfg.formats:
        for name, text in evaluation.render_tables(tables, [], fmt).items():
            _write_output(out, outputs, f"admissibility/{name}", text)
    # box-plot data: ARI of base partitions vs truth, per initializer
    for i, (entry, ds) in enumerate(zip(cfg.datasets, datasets)):
        truth = ds.true_partition()
        doc = {}
        for init in cfg.initializers:
            values = [ari(pi, truth) for pi in pops[init][i].partitions]
            doc[init] = five_number_summary(values)
        _write_output(out, outputs, f"admissibility/boxplots/{entry.name}.json",
                      _json_text(doc))
    _write_manifest(out, "admissibility", cfg, inputs=inputs, outputs=outputs)
    print(f"admissibility: {len(tables)} initializer tables under "
          f"{out / 'admissibility'}")
    return 0


def _optimize_cell(out: Path, cfg: CampaignConfig, entry: DatasetEntry,
                   pair) -> None:
    """Worker: the missing or stale seeded runs of one (dataset, pair)
    cell. A run's stamp covers the dataset CSV, the population file and
    the run's EmocConfig (the pair's specs, the emoc settings and the
    run's derived seed). Loads the dataset and population only when a
    run is to be computed; writes one JSON per run."""
    files = [_file_digest(materialize_dataset(out, entry)),
             _file_digest(population_path(out, entry.name, cfg.optimize_initializer))]
    todo = {}  # run index -> (derived seed, stamp)
    for run_idx in range(cfg.runs):
        seed = derive_seed(cfg.seed, "optimize", entry.name,
                           pair_label(pair), run_idx)
        stamp = _stamp(asdict(cfg.emoc_config(pair, seed)), files)
        path = run_path(out, entry.name, pair, run_idx)
        if _read_json(path, dict).get("inputs") != stamp:
            todo[run_idx] = seed, stamp
    if not todo:
        return
    ds = resolve_dataset(out, entry)
    truth = ds.true_partition()
    pop = _load_population(out, cfg, entry, cfg.optimize_initializer)
    specs = tuple(cfg.spec_for(c) for c in pair)
    try:
        truth_vec = evaluate_vector(ds, truth, specs)
    except CriterionError:
        truth_vec = None
    for run_idx, (seed, stamp) in todo.items():
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
            "inputs": stamp,
        }
        _write_if_changed(run_path(out, entry.name, pair, run_idx), _json_text(doc))


def cmd_optimize(cfg: CampaignConfig, out: Path, jobs: int = 1) -> int:
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
    outputs = {}  # path under out -> sha256 of each run, summary and box plot
    for entry in cfg.datasets:
        box = {}
        for pair in cfg.pairs:
            runs = []
            flags = []
            for run_idx in range(cfg.runs):
                path = run_path(out, entry.name, pair, run_idx)
                outputs[path.relative_to(out).as_posix()] = _file_digest(path)
                doc = json.loads(path.read_text())
                runs.append(doc["best_ari"])
                flags.append(doc["truth_dominated"])
            summaries.append(RunSummary(dataset=entry.name, group=entry.group,
                                        pair=pair_label(pair), run_aris=runs,
                                        truth_dominated_runs=flags))
            box[pair_label(pair)] = five_number_summary(runs)
        boxplots.append((entry.name, box))
    for fmt in cfg.formats:
        for name, text in evaluation.render_tables([], summaries, fmt).items():
            _write_output(out, outputs, f"optimize/{name}", text)
    for name, box in boxplots:
        _write_output(out, outputs, f"optimize/boxplots/{name}.json", _json_text(box))
    _write_manifest(out, "optimize", cfg, outputs=outputs)
    print(f"optimize: {len(cells)} cells x {cfg.runs} runs under {out / 'optimize'}")
    return 0


def _link_list(sections: list[str], heading: str, rels: list[str]):
    """Append ``heading`` and a link to each file of ``rels`` (paths under
    out), unless there is none."""
    if rels:
        sections += [heading, "", *(f"- [{Path(rel).name}]({rel})" for rel in rels), ""]


def cmd_report(out: Path) -> int:
    sections = ["# Campaign report", ""]
    empty = True

    manifest_path = out / "datasets" / "manifest.json"
    if manifest_path.exists():
        empty = False
        try:
            rows = [[r[key] for key in ("name", "group", "n", "d", "k_star", "source")]
                    for r in json.loads(manifest_path.read_text())]
        except (ValueError, KeyError, TypeError) as err:
            raise DataError(f"{manifest_path}: damaged dataset manifest "
                            f"({type(err).__name__}: {err})") from None
        sections += ["## Datasets", "", evaluation.markdown_grid(
            ["name", "group", "n", "d", "k*", "source"], rows)]

    # The files of the current config are the ones the admissibility and
    # optimize manifests list; any other table or box-plot file is left
    # from an earlier config and is listed apart.
    current = []
    for command in ("admissibility", "optimize"):
        outputs = _read_json(out / f"manifest_{command}.json", dict).get("outputs")
        current += [rel for rel in (outputs if isinstance(outputs, dict) else {})
                    if (out / rel).is_file()]
    current.sort()
    for rel in fnmatch.filter(current, "admissibility/admissibility_*.md"):
        empty = False
        title = Path(rel).stem.replace("admissibility_", "")
        sections += [f"## Admissibility ({title})", "", (out / rel).read_text(), ""]
    _link_list(sections, "### Initialization ARI box-plot data",
               fnmatch.filter(current, "admissibility/boxplots/*.json"))

    found = [*out.glob("admissibility/admissibility_*.md"),
             *out.glob("admissibility/boxplots/*.json"),
             *out.glob("optimize/boxplots/*.json")]
    _link_list(sections, "## Not part of this config",
               sorted({p.relative_to(out).as_posix() for p in found} - set(current)))

    if "optimize/optimization_summary.md" in current:
        empty = False
        sections += ["## Optimization (best ARI on front, mean of seeded runs)", "",
                     (out / "optimize/optimization_summary.md").read_text(), ""]
        _link_list(sections, "### Run ARI box-plot data",
                   fnmatch.filter(current, "optimize/boxplots/*.json"))

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
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for campaign cells")
    sub.add_parser("report").add_argument("--out", required=True,
                                          help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        if args.command == "report":
            return cmd_report(out)
        cfg = load_config(args.config)
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
