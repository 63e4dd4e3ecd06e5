"""Spans and counters around the public functions of every admissa layer.

``install`` replaces each traced function with a wrapper, in every admissa
module that bound the name, so calls made through ``from .x import f``
are seen too. Spans live in memory as ``[name, start, end, parent, info]``
rows and are written out once the campaign is over; self time is
derived from the nesting afterwards (``layer_metrics``).
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from time import perf_counter

from workloads import ALL_OBJECTIVES, STAGES

CALL_PERCENTILE_CRITERIA = ("sep_cl", "dunn", "mod", "sil", "dcd")
POPULATION_INITIALIZERS = ("km", "al", "sl", "snn", "mst")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span(self, name, fn, info=None, errors=()):
        """Wrap ``fn`` in a span. ``name`` may be a function of the call
        arguments; ``info(result)`` annotates a span that returned, and
        an exception in ``errors`` marks the span ``"error"``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name(*args, **kwargs) if callable(name) else name,
                   0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except errors:
                rec[4] = "error"
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                rec[4] = info(result)
            return result
        return wrapper

    def count(self, name, fn, errors=()):
        """Wrap ``fn`` in a call counter (``name``) and an error counter
        (``name + ".errors"``); no span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except errors:
                counts[name + ".errors"] += 1
                raise
        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every layer. Call once, before the
    campaign runs; the wrappers stay for the life of the process."""
    import admissa
    from admissa import (admissibility, cli, criteria, data, datagen, emoc,
                         evaluation, initializers)

    modules = (admissa, data, criteria, initializers, admissibility, emoc,
               evaluation, datagen, cli)

    def patch(module, attr, wrap, everywhere=True):
        original = getattr(module, attr)
        wrapped = wrap(original)
        for m in modules if everywhere else (module,):
            if getattr(m, attr, None) is original:
                setattr(m, attr, wrapped)

    def patch_cached(cls, attr, name, info=None):
        prop = cls.__dict__[attr]
        new = functools.cached_property(tracer.span(name, prop.func, info))
        new.__set_name__(cls, attr)
        setattr(cls, attr, new)

    def nbytes(arr):
        return int(arr.nbytes)

    datagen.GeneratorSpec.build = tracer.span("datagen.build",
                                              datagen.GeneratorSpec.build)

    patch_cached(data.Dataset, "distances", "data.distances", nbytes)
    patch_cached(data.Dataset, "neighbor_index", "data.neighbor_index", nbytes)
    patch_cached(data.Dataset, "neighbor_rank", "data.neighbor_rank", nbytes)
    patch_cached(data.Dataset, "mst_edges", "data.mst")
    patch(data, "minimum_spanning_tree", lambda f: tracer.span("data.mst", f))
    patch(data, "load_dataset", lambda f: tracer.span("data.load_csv", f))

    patch(initializers, "generate_population", lambda f: tracer.span(
        lambda ds, algorithm, *a, **k: f"initializers.{algorithm}", f,
        info=lambda pop: len(pop.partitions)))
    patch(initializers, "snn_cluster",
          lambda f: tracer.count("initializers.snn_cluster", f))

    for crit_id in criteria.ALL_IDS:
        patch(criteria, f"eval_{crit_id}", lambda f, c=crit_id: tracer.span(
            f"criteria.{c}", f, errors=criteria.CriterionError))
    patch(criteria, "ksize_graph",
          lambda f: tracer.span("criteria.ksize_graph", f))

    patch(admissibility, "build_admissibility_table",
          lambda f: tracer.span("admissibility.table", f))
    patch(admissibility, "classify_cell",
          lambda f: tracer.span("admissibility.cell", f))
    patch(admissibility, "evaluate", lambda f: tracer.count(
        "admissibility.evaluate", f, errors=criteria.CriterionError),
        everywhere=False)

    patch(emoc, "evolve", lambda f: tracer.span(
        "emoc.evolve", f, info=lambda front: len(front.members)))
    patch(emoc, "delta_relevant_loci", lambda f: tracer.span("emoc.scheme", f))
    patch(emoc, "decode", lambda f: tracer.span(
        "emoc.decode", f, info=lambda pi: hash(pi.assignment.tobytes())))
    patch(emoc, "evaluate_vector", lambda f: tracer.span(
        "emoc.evaluate", f, errors=criteria.CriterionError), everywhere=False)
    for attr in ("variation", "mutate"):
        patch(emoc, attr, lambda f: tracer.span("emoc.variation", f))
    for attr in ("_rank_population", "_truncate"):
        patch(emoc, attr, lambda f: tracer.span("emoc.sort", f))

    patch(evaluation, "ari", lambda f: tracer.span("evaluation.ari", f))
    for attr in ("render_tables", "five_number_summary"):
        patch(evaluation, attr, lambda f: tracer.span("evaluation.render", f))

    for stage in ("gen",) + STAGES:
        patch(cli, f"cmd_{stage}", lambda f, s=stage: tracer.span(f"cli.{s}", f))


# --------------------------------------------------------------------------
# Aggregation


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it, capped at
    99 and floored at the median."""
    return min(99.0, max(50.0, 100.0 * (1.0 - 10.0 / n))) if n else 50.0


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def aggregate(spans):
    """Per span name: calls, self seconds, inclusive seconds, errors, the
    inclusive duration of each call and the info values."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    stats = defaultdict(lambda: {"calls": 0, "self": 0.0, "incl": 0.0,
                                 "errors": 0, "durs": [], "infos": []})
    for (name, t0, t1, parent, info), kids in zip(spans, child):
        st = stats[name]
        st["calls"] += 1
        st["self"] += (t1 - t0) - kids
        st["incl"] += t1 - t0
        st["durs"].append(t1 - t0)
        if info == "error":
            st["errors"] += 1
        elif info is not None:
            st["infos"].append(info)
    return stats


def layer_metrics(spans, counts, config, out_files, out_bytes):
    """Per-layer metrics (name -> (value, unit)) of one traced pass."""
    st = aggregate(spans)
    get = st.__getitem__
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("datagen.build_s", get("datagen.build")["self"], "s")

    for attr in ("distances", "neighbor_index", "neighbor_rank", "mst"):
        put(f"data.{attr}_s", get(f"data.{attr}")["self"], "s")
    put("data.load_csv_s", get("data.load_csv")["self"], "s")
    put("data.geometry_builds", get("data.distances")["calls"], "count")
    geometry_bytes = sum(sum(get(f"data.{a}")["infos"]) for a in
                         ("distances", "neighbor_index", "neighbor_rank"))
    put("data.geometry_mb", geometry_bytes / 2 ** 20, "MB")

    # Seconds per initializer would read 0.0 on workloads that do not run
    # it, so the split is given as shares of the population time.
    population_s = sum(get(f"initializers.{a}")["self"] for a in POPULATION_INITIALIZERS)
    put("initializers.population_s", population_s, "s")
    for alg in POPULATION_INITIALIZERS:
        put(f"initializers.{alg}_share",
            get(f"initializers.{alg}")["self"] / population_s if population_s else 0.0,
            "ratio")
    put("initializers.snn_cluster_calls",
        counts.get("initializers.snn_cluster", 0), "count")
    put("initializers.partitions",
        sum(sum(get(f"initializers.{a}")["infos"]) for a in POPULATION_INITIALIZERS),
        "count")

    for crit_id in ALL_OBJECTIVES:
        c = get(f"criteria.{crit_id}")
        put(f"criteria.{crit_id}.calls", c["calls"], "count")
        put(f"criteria.{crit_id}.s", c["self"], "s")
        put(f"criteria.{crit_id}.errors", c["errors"], "count")
    for crit_id in CALL_PERCENTILE_CRITERIA:
        durs = get(f"criteria.{crit_id}")["durs"]
        _call_percentiles(put, f"criteria.{crit_id}.call_us", durs)
    put("criteria.ksize_graph_s", get("criteria.ksize_graph")["self"], "s")

    attempted = counts.get("admissibility.evaluate", 0)
    skipped = counts.get("admissibility.evaluate.errors", 0)
    put("admissibility.cells", get("admissibility.cell")["calls"], "count")
    put("admissibility.self_s",
        get("admissibility.table")["self"] + get("admissibility.cell")["self"], "s")
    put("admissibility.useful_eval_ratio",
        (attempted - skipped) / attempted if attempted else 0.0, "ratio")

    evo = get("emoc.evolve")
    runs = evo["calls"]
    generations = config["emoc"]["generations"] + 1  # the initial population counts
    put("emoc.runs", runs, "count")
    put("emoc.evolve_s.p50", percentile(evo["durs"], 50) if runs else 0.0, "s")
    put("emoc.generation_s",
        (evo["incl"] - get("emoc.scheme")["incl"]) / (runs * generations)
        if runs else 0.0, "s")
    put("emoc.scheme_s", get("emoc.scheme")["self"], "s")
    dec = get("emoc.decode")
    put("emoc.decode_calls", dec["calls"], "count")
    put("emoc.decode_s", dec["self"], "s")
    _call_percentiles(put, "emoc.decode_us", dec["durs"])
    ev = get("emoc.evaluate")
    put("emoc.evaluate_s", ev["incl"], "s")
    put("emoc.variation_s", get("emoc.variation")["self"], "s")
    put("emoc.sort_s", get("emoc.sort")["self"], "s")
    put("emoc.self_s", evo["self"], "s")
    put("emoc.disqualified_ratio",
        ev["errors"] / ev["calls"] if ev["calls"] else 0.0, "ratio")
    put("emoc.distinct_partition_ratio",
        len(set(dec["infos"])) / dec["calls"] if dec["calls"] else 0.0, "ratio")
    put("emoc.front_size.p50",
        percentile(evo["infos"], 50) if evo["infos"] else 0.0, "count")

    ari_st = get("evaluation.ari")
    put("evaluation.ari_calls", ari_st["calls"], "count")
    put("evaluation.ari_s", ari_st["self"], "s")
    put("evaluation.render_s", get("evaluation.render")["self"], "s")

    for stage in STAGES:
        put(f"cli.{stage}.self_s", get(f"cli.{stage}")["self"], "s")
    put("cli.out_files", out_files, "count")
    put("cli.out_bytes", out_bytes, "bytes")
    return m


def _call_percentiles(put, prefix, durs):
    if durs:
        us = [d * 1e6 for d in durs]
        put(f"{prefix}.p50", percentile(us, 50), "us")
        put(f"{prefix}.tail", percentile(us, tail_percentile(len(us))), "us")
    else:
        put(f"{prefix}.p50", 0.0, "us")
        put(f"{prefix}.tail", 0.0, "us")


def layer_shares(spans) -> dict[str, float]:
    """Share of all traced self time spent in each layer (the span name's
    first component)."""
    totals = defaultdict(float)
    for name, st in aggregate(spans).items():
        totals[name.split(".", 1)[0]] += st["self"]
    whole = sum(totals.values()) or 1.0
    return {layer: round(t / whole, 4) for layer, t in sorted(totals.items())}


def median_metrics(samples):
    """Metric-wise median over passes: [{name: (value, unit)}] -> same."""
    names = samples[0].keys()
    return {n: (statistics.median(s[n][0] for s in samples), samples[0][n][1])
            for n in names}
