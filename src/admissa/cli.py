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

Each stage reads each dataset CSV once; its checks, stamps and parse use
those bytes. Stages run in one process share each ``Dataset`` parsed from
the same bytes, with its distances, neighbor index and MST.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import fnmatch
import functools
import hashlib
import itertools
import json
import os
import sys
import types
import typing
import unicodedata
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

from . import __version__, evaluation
from .admissibility import build_admissibility_table
from .criteria import (ALL_IDS, PARAMS, CriterionError, ObjectiveSpec,
                       evaluate_vector, objective)
from .data import DataError, Dataset, dataset_csv, load_dataset
from .datagen import GENERATORS, GeneratorSpec
from .emoc import EmocConfig, evolve, truth_dominated
from .evaluation import RunSummary, ari, five_number_summary
from .initializers import ALGORITHMS, InitPopulation, generate_population
from .seeding import derive_seed

DEFAULT_PAIRS = [["var", "sep_cl"], ["ch", "sep_cl"], ["var", "ch"],
                 ["ch", "con"], ["var", "con"], ["con", "sep_cl"]]


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
    label_column: str = "label"

    @classmethod
    def from_dict(cls, doc: dict, master_seed: int) -> "DatasetEntry":
        where = f"dataset {doc.get('name')!r}"
        name = _checked(cls, doc, where).get("name")
        for key in ("name", "group"):
            if any(unicodedata.category(c) == "Cc" for c in doc.get(key, "")):
                raise ConfigError(f"{where}: the {key} holds a control character")
        if not name or Path(name).name != name:
            raise ConfigError(f"{where}: a dataset needs a name that is one file name")
        try:
            name.encode()
            os.fsencode(name)
        except UnicodeEncodeError:
            raise ConfigError(f"{where}: the name is not UTF-8 text or not a file name "
                              f"in this locale's {sys.getfilesystemencoding()} "
                              f"encoding") from None
        entry = cls(**doc)
        if entry.generator is not None:
            for key in ("csv", "label_column"):
                if key in doc:
                    raise ConfigError(f"{where}: a generated dataset takes no {key}")
            gdoc = {"seed": derive_seed(master_seed, "datagen", entry.name),
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
    formats: list[str] = field(default_factory=lambda: list(evaluation.FORMATS))

    def validate(self):
        if not self.datasets:
            raise ConfigError("at least one dataset is required")
        if not self.objectives:
            raise ConfigError("at least one objective is required")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if not 0 <= self.seed < 2 ** 64:  # derive_seed reads the low 64 bits only
            raise ConfigError("seed must lie in [0, 2**64)")
        for pair in self.pairs:
            if len(pair) != 2:
                raise ConfigError(f"invalid objective pair {pair!r}")
        for what, items, known in (
                ("initializer", self.initializers + [self.optimize_initializer], ALGORITHMS),
                ("objective", self.objectives + sum(self.pairs, []), ALL_IDS),
                ("format", self.formats, evaluation.FORMATS)):
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
            spec = objective(self.objectives[0], **self.criteria_params)
            EmocConfig(objectives=(spec, spec), **self.emoc)
        except ValueError as err:
            raise ConfigError(f"bad criteria_params or emoc ({err})") from None

    def spec_for(self, crit_id: str):
        """The spec of ``crit_id`` with the criteria_params it reads only, so a
        parameter it never reads leaves the stamps of its runs alone."""
        reads = PARAMS.get(crit_id, ())
        return objective(crit_id, **{key: value for key, value
                                     in self.criteria_params.items() if key in reads})

    def emoc_config(self, pair, seed: int) -> EmocConfig:
        specs = tuple(self.spec_for(c) for c in pair)
        return EmocConfig(objectives=specs, seed=seed, **self.emoc)


def load_config(path: str) -> CampaignConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise ConfigError(f"config file cannot be read: {err}")
    except ValueError as err:  # not UTF-8, or not JSON
        raise ConfigError(f"config is not valid UTF-8 JSON: {err}")

    cfg = CampaignConfig(**{"datasets": [], **_checked(CampaignConfig, doc, "config")})
    cfg.datasets = [DatasetEntry.from_dict(d, cfg.seed) for d in cfg.datasets]
    cfg.validate()
    return cfg


# --------------------------------------------------------------------------
# File plumbing


def _read(path: Path) -> bytes | None:
    """A file's bytes; None when the file does not exist."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def _text(path: Path) -> str:
    """A file's UTF-8 text; a file that is not UTF-8 is damaged."""
    try:
        return _read(path).decode()
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: damaged file, not UTF-8 text ({err})") from None


def _digest(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


_UNREAD = object()  # the caller of _write has not read the file


def _write(path: Path, text: str, old: bytes | None = _UNREAD) -> str:
    """Write ``text`` to ``path`` as UTF-8, and return the sha256 of its
    bytes. A file that holds those bytes already is left untouched;
    otherwise it is replaced atomically. ``old``, when given, is what the
    caller's ``_read`` of ``path`` returned already (None for a missing
    file), which spares a second read."""
    data = text.encode()
    if old is _UNREAD:
        old = _read(path)
    if old != data:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)
    return _digest(data)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _json_doc(data: bytes | None, kind: type):
    """The JSON in ``data`` when it is a ``kind`` (dict or list), else an
    empty one: for no data, invalid JSON or any other JSON value."""
    try:
        doc = json.loads(data or b"")
    except ValueError:
        return kind()
    return doc if isinstance(doc, kind) else kind()


def _write_manifest(out: Path, command: str, cfg: CampaignConfig, **stamps):
    doc = {"command": command, "config": asdict(cfg), **stamps}
    _write(out / f"manifest_{command}.json", _json_text(doc))


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _stamp(config_slice, file_digests: list[str | None]) -> str:
    """The input stamp of an artifact: sha256 of the canonical JSON of the
    config slice it reads, the digests of the files it reads (in a fixed
    order) and the admissa version. It holds no path and no time, so equal
    inputs give equal stamps in any output directory."""
    doc = {"config": config_slice, "files": file_digests, "version": __version__}
    return hashlib.sha256(_canonical(doc).encode()).hexdigest()


# The datasets loaded by the stages of this process, with their cached
# geometry, by (sha256 of the CSV bytes, label column, name). Each stage
# is its own `main` call, so they share it through the module. A Dataset
# is a pure function of the key, so a rewritten CSV is a new key.
_loaded: dict[tuple, Dataset] = {}


def materialize_datasets(out: Path,
                         cfg: CampaignConfig) -> list[tuple[Path, bytes, str]]:
    """The CSV each dataset of ``cfg`` is read from, its bytes (read once)
    and their sha256: the entry's own file, or the one ``admissa gen``
    wrote under out/datasets. An entry is a data error unless the file
    exists and its row in gen's dataset manifest records this entry and
    this digest. Lets go of each loaded dataset that is not one of these."""
    rows = [r for r in _json_doc(_read(out / "datasets" / "manifest.json"), list)
            if isinstance(r, dict)]
    found = []
    for entry in cfg.datasets:
        path = (out / "datasets" / f"{entry.name}.csv" if entry.csv is None
                else Path(entry.csv))
        data = _read(path)
        digest = _digest(data)
        described = asdict(entry)
        row = next((r for r in rows if r.get("name") == entry.name), {})
        if _canonical({key: row.get(key) for key in described}) != _canonical(described):
            raise DataError(f"dataset {entry.name!r}: this config entry differs from "
                            f"the dataset manifest's row (run `admissa gen`)")
        if data is None or row.get("sha256") != digest:
            raise DataError(f"dataset {entry.name!r}: the CSV {path} is missing or its "
                            f"sha256 is not the manifest's (run `admissa gen`)")
        found.append((path, data, digest))
    keep = {(d, e.label_column, e.name) for e, (_, _, d) in zip(cfg.datasets, found)}
    for key in _loaded.keys() - keep:
        del _loaded[key]
    return found


def _dataset(entry: DatasetEntry, path: Path, data: bytes, digest: str) -> Dataset:
    """The dataset of ``entry`` parsed from ``data``, the bytes of ``path``
    with sha256 ``digest``: the one this process parsed already, if any."""
    key = digest, entry.label_column, entry.name
    if key not in _loaded:
        try:
            _loaded[key] = load_dataset(data, label_column=entry.label_column,
                                        name=entry.name)
        except DataError as err:
            raise DataError(f"{path}: {err}") from None
    return _loaded[key]


def population_path(out: Path, dataset: str, initializer: str) -> Path:
    return out / "populations" / f"{dataset}__{initializer}.json"


def pair_label(pair) -> str:
    return "+".join(pair)


def run_path(out: Path, dataset: str, pair, run_idx: int) -> Path:
    return out / "optimize" / "runs" / f"{dataset}__{pair_label(pair)}__r{run_idx:03d}.json"


# --------------------------------------------------------------------------
# Commands


def cmd_gen(cfg: CampaignConfig, out: Path) -> int:
    """Write each generated dataset's CSV under out/datasets, and the
    dataset manifest, the one description of the data the other stages
    check: per dataset of ``cfg``, ``asdict(entry)`` with n, d, k_star,
    source and the sha256 of the CSV the stages read."""
    manifest = []
    for entry in cfg.datasets:
        if entry.csv is not None:
            data = Path(entry.csv).read_bytes()
            sha256 = _digest(data)
            ds = _dataset(entry, Path(entry.csv), data, sha256)
        else:
            try:
                ds = entry.generator.build()
            except (TypeError, ValueError) as err:
                raise ConfigError(f"dataset {entry.name!r}: bad generator params "
                                  f"({err})") from None
            sha256 = _write(out / "datasets" / f"{entry.name}.csv", dataset_csv(ds))
        manifest.append({
            **asdict(entry),
            "n": ds.n,
            "d": ds.dim,
            "k_star": ds.k_star,
            "source": "csv" if entry.csv else "generated",
            "sha256": sha256,
        })
    _write(out / "datasets" / "manifest.json", _json_text(manifest))
    _write_manifest(out, "gen", cfg)
    print(f"gen: {len(manifest)} datasets ready under {out / 'datasets'}")
    return 0


def _population_stamp(cfg: CampaignConfig, entry: DatasetEntry,
                      initializer: str, csv_digest: str) -> str:
    return _stamp({"initializer": initializer, "seed": cfg.seed,
                   "label_column": entry.label_column}, [csv_digest])


def cmd_init(cfg: CampaignConfig, out: Path) -> int:
    written = 0
    for entry, (csv, data, digest) in zip(cfg.datasets, materialize_datasets(out, cfg)):
        ds = None  # loaded for the first stale population only
        for init in cfg.initializers:
            path = population_path(out, entry.name, init)
            stamp = _population_stamp(cfg, entry, init, digest)
            old = _read(path)
            if _json_doc(old, dict).get("inputs") == stamp:
                continue
            if ds is None:
                ds = _dataset(entry, csv, data, digest)
            pop = generate_population(ds, init, master_seed=cfg.seed)
            doc = {**pop.to_dict(), "inputs": stamp}
            _write(path, json.dumps(doc, indent=1) + "\n", old)
            written += 1
    _write_manifest(out, "init", cfg)
    print(f"init: {written} population files written, "
          f"{len(cfg.datasets) * len(cfg.initializers) - written} up to date")
    return 0


def _load_population(out: Path, cfg: CampaignConfig, entry: DatasetEntry,
                     initializer: str, csv_digest: str,
                     data: bytes | None, n: int) -> InitPopulation:
    """The population of (entry, initializer) in ``data``, its file's
    bytes, checked against the current config and the CSV digest, with
    every partition of the dataset's ``n`` points."""
    path = population_path(out, entry.name, initializer)
    if data is None:
        raise DataError(f"population file missing: {path} (run `admissa init` first)")
    doc = _json_doc(data, dict)
    if doc.get("inputs") != _population_stamp(cfg, entry, initializer, csv_digest):
        raise DataError(f"population file out of date: {path} (its config or "
                        f"dataset changed; run `admissa init`)")
    try:
        pop = InitPopulation.from_dict(doc)
        if any(pi.n != n for pi in pop.partitions):
            raise ValueError(f"a partition does not have the dataset's {n} points")
        return pop
    except (KeyError, TypeError, ValueError) as err:
        raise DataError(f"population file damaged: {path} ({type(err).__name__}: "
                        f"{err}; delete it and rerun `admissa init`)") from None


def cmd_admissibility(cfg: CampaignConfig, out: Path) -> int:
    """The verdict tables and box-plot data of every initializer. The
    manifest, written last, records the input stamp and the digest of
    every file written; when both still hold, nothing is recomputed."""
    csvs, csv_data, csv_digests = zip(*materialize_datasets(out, cfg))
    config = asdict(cfg)
    specs = [cfg.spec_for(c) for c in cfg.objectives]
    config_slice = {key: config[key] for key in ("datasets", "initializers",
                                                 "formats", "seed")}
    # each objective with the criteria_params it reads, so a parameter that
    # no objective reads leaves the stamp alone
    config_slice["objectives"] = [asdict(spec) for spec in specs]
    pop_files = {init: [_read(population_path(out, e.name, init)) for e in cfg.datasets]
                 for init in cfg.initializers}
    pop_digests = [_digest(data) for files in pop_files.values() for data in files]
    inputs = _stamp(config_slice, [*csv_digests, *pop_digests])
    manifest = _json_doc(_read(out / "manifest_admissibility.json"), dict)
    outputs = manifest.get("outputs")
    if (manifest.get("inputs") == inputs and isinstance(outputs, dict)
            and all(_digest(_read(out / rel)) == digest
                    for rel, digest in outputs.items())):
        _write_manifest(out, "admissibility", cfg, inputs=inputs, outputs=outputs)
        print(f"admissibility: inputs unchanged, tables under "
              f"{out / 'admissibility'} kept")
        return 0

    datasets = list(map(_dataset, cfg.datasets, csvs, csv_data, csv_digests))
    pops = {init: [_load_population(out, cfg, e, init, digest, data, ds.n)
                   for e, digest, data, ds in zip(cfg.datasets, csv_digests, files,
                                                  datasets)]
            for init, files in pop_files.items()}
    memos = [{} for _ in datasets]  # criterion values shared by the tables
    tables = [build_admissibility_table(datasets, init, specs, pops[init],
                                        memos=memos)
              for init in cfg.initializers]
    outputs = {}
    for fmt in cfg.formats:
        for name, text in evaluation.render_tables(tables, [], fmt).items():
            outputs[f"admissibility/{name}"] = _write(out / "admissibility" / name, text)
    # box-plot data: ARI of base partitions vs truth, per initializer
    for i, (entry, ds) in enumerate(zip(cfg.datasets, datasets)):
        truth = ds.true_partition()
        doc = {}
        for init in cfg.initializers:
            values = [ari(pi, truth) for pi in pops[init][i].partitions]
            doc[init] = five_number_summary(values)
        rel = f"admissibility/boxplots/{entry.name}.json"
        outputs[rel] = _write(out / rel, _json_text(doc))
    _write_manifest(out, "admissibility", cfg, inputs=inputs, outputs=outputs)
    print(f"admissibility: {len(tables)} initializer tables under "
          f"{out / 'admissibility'}")
    return 0


def _optimize_cell(out: Path, cfg: CampaignConfig, entry: DatasetEntry, pair,
                   csv: Path, csv_bytes: bytes, csv_digest: str,
                   pop_bytes: bytes | None):
    """Worker: the missing or stale seeded runs of one (dataset, pair)
    cell. ``csv_bytes`` (sha256 ``csv_digest``) and ``pop_bytes`` are the
    bytes the stage read of the dataset CSV and of its population file. A
    run's stamp covers both files and the run's EmocConfig (the pair's
    specs, the emoc settings and the run's derived seed); a run is stale
    unless its stamp matches, its best ARI is a finite float in [-1, 1] and
    its truth-dominated flag a bool. Reads each run file once, and parses
    the dataset (once per process) and the population only when a run is
    stale. Returns the sha256 of each run file by its path under out, and
    the cell's RunSummary, built from the run documents."""
    label = pair_label(pair)
    files = [csv_digest, _digest(pop_bytes)]
    digests, docs = {}, []
    ds = None
    for run_idx in range(cfg.runs):
        seed = derive_seed(cfg.seed, "optimize", entry.name, label, run_idx)
        stamp = _stamp(asdict(cfg.emoc_config(pair, seed)), files)
        rel = run_path(out, entry.name, pair, run_idx).relative_to(out).as_posix()
        old = _read(out / rel)
        doc = _json_doc(old, dict)
        digests[rel] = _digest(old)
        best = doc.get("best_ari")
        if (doc.get("inputs") != stamp or not isinstance(best, float)
                or not -1.0 <= best <= 1.0
                or not isinstance(doc.get("truth_dominated"), bool)):
            if ds is None:
                ds = _dataset(entry, csv, csv_bytes, csv_digest)
                truth = ds.true_partition()
                pop = _load_population(out, cfg, entry, cfg.optimize_initializer,
                                       csv_digest, pop_bytes, ds.n)
                try:
                    truth_vec = evaluate_vector(ds, truth,
                                                tuple(cfg.spec_for(c) for c in pair))
                except CriterionError:
                    truth_vec = None
            try:
                front = evolve(ds, cfg.emoc_config(pair, seed), pop)
            except DataError as err:
                raise DataError(f"dataset {entry.name!r}, pair {label}: {err}") from None
            aris = [ari(m.partition, truth) for m in front.members]
            doc = {
                "dataset": entry.name, "pair": label, "run": run_idx, "seed": seed,
                "front": [{"assignment": m.partition.assignment.tolist(),
                           "k": m.partition.k, "values": list(m.vector.values)}
                          for m in front.members],
                "ari": aris,
                "best_ari": max(aris),
                "truth_dominated": (truth_vec is not None
                                    and truth_dominated(front, truth_vec)),
                "selection_rule": evaluation.SELECTION_RULE,
                "inputs": stamp,
            }
            digests[rel] = _write(out / rel, _json_text(doc), old)
        docs.append(doc)
    return digests, RunSummary(
        dataset=entry.name, group=entry.group, pair=label,
        run_aris=[doc["best_ari"] for doc in docs],
        truth_dominated_runs=[doc["truth_dominated"] for doc in docs])


def cmd_optimize(cfg: CampaignConfig, out: Path, jobs: int = 1) -> int:
    """The runs of every (dataset, pair) cell, then the summaries and box
    plots of the runs. The stage reads each dataset's CSV and population
    file once and hands their bytes to ``_optimize_cell``, once per cell:
    in this process when ``jobs`` is 1, else in up to ``jobs`` worker
    processes, so the pairs of a large dataset run side by side."""
    cells = []  # the arguments of _optimize_cell after out and cfg
    if cfg.pairs:
        for entry, csv in zip(cfg.datasets, materialize_datasets(out, cfg)):
            pop_bytes = _read(population_path(out, entry.name, cfg.optimize_initializer))
            cells += [(entry, pair, *csv, pop_bytes) for pair in cfg.pairs]
    work = functools.partial(_optimize_cell, out, cfg)
    if jobs > 1 and cells:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            results = list(pool.map(work, *zip(*cells)))
    else:
        results = list(itertools.starmap(work, cells))

    # path under out -> sha256 of each run, summary and box plot
    outputs = {rel: sha for digests, _ in results for rel, sha in digests.items()}
    summaries = [summary for _, summary in results]  # in config order
    for name, pairs in itertools.groupby(summaries, key=lambda s: s.dataset):
        box = {s.pair: five_number_summary(s.run_aris) for s in pairs}
        rel = f"optimize/boxplots/{name}.json"
        outputs[rel] = _write(out / rel, _json_text(box))
    for fmt in cfg.formats:
        for name, text in evaluation.render_tables([], summaries, fmt).items():
            outputs[f"optimize/{name}"] = _write(out / "optimize" / name, text)
    _write_manifest(out, "optimize", cfg, outputs=outputs)
    print(f"optimize: {len(cells)} cells x {cfg.runs} runs under {out / 'optimize'}")
    return 0


def _link_list(sections: list[str], heading: str, rels: list[str]):
    """Append ``heading`` and a link to each file of ``rels`` (paths under
    out), unless there is none."""
    if rels:
        sections += [heading, "", *(f"- [{Path(rel).name}]({rel})" for rel in rels), ""]


def _no_markdown(stage: str, tables: list[str]) -> str:
    """The report's warning for a stage whose ``tables`` (paths under out)
    hold no markdown, the one format it embeds; printed to stderr too."""
    formats = " and ".join(sorted({Path(rel).suffix[1:] for rel in tables}))
    warning = (f"the {stage} tables were written in {formats} only; add markdown "
               f"to the config's formats to show them here.")
    print(f"report: warning, {warning}", file=sys.stderr)
    return f"WARNING: {warning}"


def cmd_report(out: Path) -> int:
    sections = ["# Campaign report", ""]

    manifest_path = out / "datasets" / "manifest.json"
    if manifest_path.exists():
        try:
            rows = [[r[key] for key in ("name", "group", "n", "d", "k_star", "source")]
                    for r in json.loads(manifest_path.read_bytes())]
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
        manifest = _json_doc(_read(out / f"manifest_{command}.json"), dict)
        outputs = manifest.get("outputs")
        current += [rel for rel in (outputs if isinstance(outputs, dict) else {})
                    if (out / rel).is_file()]
    current.sort()
    tables = fnmatch.filter(current, "admissibility/admissibility_*")
    for rel in fnmatch.filter(tables, "*.md"):
        title = Path(rel).stem.replace("admissibility_", "")
        sections += [f"## Admissibility ({title})", "", _text(out / rel), ""]
    if tables and not fnmatch.filter(tables, "*.md"):
        sections += ["## Admissibility", "", _no_markdown("admissibility", tables), ""]
    _link_list(sections, "### Initialization ARI box-plot data",
               fnmatch.filter(current, "admissibility/boxplots/*.json"))

    found = [*out.glob("admissibility/admissibility_*.md"),
             *out.glob("admissibility/boxplots/*.json"),
             *out.glob("optimize/boxplots/*.json")]
    _link_list(sections, "## Not part of this config",
               sorted({p.relative_to(out).as_posix() for p in found} - set(current)))

    summary = fnmatch.filter(current, "optimize/optimization_summary.*")
    boxplots = fnmatch.filter(current, "optimize/boxplots/*.json")
    if summary or boxplots:
        sections += ["## Optimization (best ARI on front, mean of seeded runs)", ""]
        if "optimize/optimization_summary.md" in summary:
            sections += [_text(out / "optimize/optimization_summary.md"), ""]
        elif summary:
            sections += [_no_markdown("optimize", summary), ""]
        _link_list(sections, "### Run ARI box-plot data", boxplots)

    if not manifest_path.exists() and not current:
        sections += ["WARNING: no campaign artifacts found in this directory.", ""]
        print("report: warning, no artifacts found", file=sys.stderr)
    _write(out / "report.md", "\n".join(sections))
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
                       help="worker processes for the cells of optimize")
    sub.add_parser("report").add_argument("--out", required=True,
                                          help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")
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
            return cmd_optimize(cfg, out, jobs=args.jobs)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (DataError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except AssertionError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
