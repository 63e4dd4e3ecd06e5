"""Delta-locus evolutionary multi-objective clustering.

The genotype fixes most of the MST and exposes only the most interesting
links as evolvable loci: gene i may cut its link (g_i = i), keep the MST
parent, or redirect to one of i's L nearest neighbors. Selection is
elitist non-dominated sorting with crowding-distance tie-breaks. Every
comparison is the shared tolerant ``admissibility.dominance``, under
which two objectives form no dominance cycle, so the fronts are a plain
peel of the undominated rows and no front member dominates another.
Every decoded partition is a union of the components of the fixed links,
so sep_cl and con are evaluated on those components
(``components.ComponentGeometry``); every objective is evaluated once per
distinct partition in a run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admissibility import dominance, dominates
from .components import ComponentGeometry
from .criteria import (CriterionError, ObjectiveSpec, ObjectiveVector,
                       evaluate_vector, minimize_signs)
from .data import DataError, Dataset, Partition, canonical_labels, components
from .initializers import InitPopulation, interesting_mst_edges
from .seeding import rng_for


@dataclass
class EmocConfig:
    objectives: tuple[ObjectiveSpec, ...]
    population_size: int = 100
    generations: int = 100
    crossover_prob: float = 0.5
    mutation_prob: float | None = None  # default 1/|relevant loci|
    seed: int = 0
    L: int = 10
    delta_percent: float | None = None  # default locus count: ceil(5*sqrt(n))

    def __post_init__(self):
        self.objectives = tuple(self.objectives)
        if len(self.objectives) != 2:
            raise ValueError("need exactly 2 objectives")
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError("population_size must be even and >= 4")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        for p in (self.crossover_prob, self.mutation_prob):
            if p is not None and not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        if self.delta_percent is not None and not 0.0 < self.delta_percent <= 100.0:
            raise ValueError("delta_percent must lie in (0, 100]")
        if type(self.L) is not int or self.L < 1:
            raise ValueError("L must be an int >= 1")

    def mutation_rate(self, n_loci: int) -> float:
        """Per-locus mutation probability: ``mutation_prob``, or
        1/|relevant loci| when unset."""
        if self.mutation_prob is None:
            return 1.0 / max(1, n_loci)
        return self.mutation_prob


@dataclass(eq=False)
class DeltaScheme:
    """Shared genotype structure for one dataset: which MST links evolve,
    each locus's gene domain, and the components induced by the fixed
    links.

    Locus j's domain is ``domain_pad[j, :domain_len[j]]``: {i, parent,
    NN_L(i)} in that order without repeats, padded with -1 to one width
    so that a mutation draws every new gene in one call."""

    relevant_loci: np.ndarray  # child endpoints of the top-DI MST edges
    parent: np.ndarray  # MST parent per node (root -> itself)
    domain_pad: np.ndarray  # (loci, widest domain) gene values
    domain_len: np.ndarray  # domain size per locus
    base_labels: np.ndarray  # components of the fixed-edge subgraph
    n_base: int


def delta_relevant_loci(ds: Dataset, delta_percent: float | None = None,
                        L: int = 10) -> DeltaScheme:
    """Pick the evolvable loci: child endpoints of the most interesting
    MST edges. With ``delta_percent`` given, ceil(delta/100 * n) edges are
    relevant; otherwise ceil(5*sqrt(n)). Both are capped at n-1."""
    n = ds.n
    if delta_percent is None:
        count = int(np.ceil(5.0 * np.sqrt(n)))
    else:
        count = int(np.ceil(delta_percent / 100.0 * n))
    count = min(count, n - 1)
    ranked = interesting_mst_edges(ds)
    parent = ds.mst_parent
    child = np.where(parent[ranked[:, 0]] == ranked[:, 1],
                     ranked[:, 0], ranked[:, 1])
    relevant = np.sort(child[:count])
    fixed = child[count:]

    nn = ds.neighbors(L)
    pad = np.full((count, nn.shape[1] + 2), -1, dtype=np.int64)
    lens = np.empty(count, dtype=np.int64)
    for j, i in enumerate(relevant.tolist()):
        dom = [i, int(parent[i])]
        dom.extend(int(v) for v in nn[i])
        dom = list(dict.fromkeys(dom))
        pad[j, :len(dom)] = dom
        lens[j] = len(dom)

    base = canonical_labels(components(n, fixed, parent[fixed]))
    return DeltaScheme(relevant_loci=relevant, parent=parent,
                       domain_pad=pad, domain_len=lens,
                       base_labels=base, n_base=int(base.max()) + 1)


def decode(scheme: DeltaScheme, genes: np.ndarray) -> Partition:
    """Connected components of fixed links plus the non-self gene links.

    Every base component but the MST root's holds exactly one locus, the
    top of its subtree, so the gene links map each component to one
    component (a cut or a link inside the component maps it to itself).
    The clusters are the weakly connected parts of this functional graph,
    and each part holds one cycle. Pointer jumping finds it: after r
    rounds of ``hop = hop[hop]``, ``hop`` is 2^r steps ahead and ``low``
    the smallest component within those steps. With 2^r >= n_base every
    hop lands on its part's cycle, and ``low`` there spans the whole
    cycle, so ``low[hop]`` names each part by its cycle's minimum."""
    n_base = scheme.n_base
    ids = np.arange(n_base)
    hop = ids.copy()
    hop[scheme.base_labels[scheme.relevant_loci]] = scheme.base_labels[genes]
    low = np.minimum(ids, hop)
    for _ in range((n_base - 1).bit_length()):
        low = np.minimum(low, low[hop])
        hop = hop[hop]
    cycle_min = low[hop]
    # Components are numbered by their smallest point, so numbering the
    # parts by their smallest component gives the canonical labels.
    first = np.full(n_base, n_base)
    np.minimum.at(first, cycle_min, ids)
    first = first[cycle_min]
    label = np.cumsum(first == ids) - 1
    return Partition.from_canonical(label[first][scheme.base_labels])


def encode(pi: Partition, scheme: DeltaScheme) -> np.ndarray:
    """Genes whose loci follow the MST parent when co-clustered with it and
    cut otherwise. Decoding reproduces ``pi`` exactly when all of its cut
    MST edges are relevant loci."""
    loci = scheme.relevant_loci
    par = scheme.parent[loci]
    labels = pi.assignment
    return np.where(labels[loci] == labels[par], par, loci)


def variation(scheme: DeltaScheme, genes1: np.ndarray, genes2: np.ndarray,
              config: EmocConfig,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-locus uniform crossover followed by uniform domain-reset
    mutation."""
    n_loci = len(scheme.relevant_loci)
    swap = rng.random(n_loci) < config.crossover_prob
    child1 = np.where(swap, genes2, genes1)
    child2 = np.where(swap, genes1, genes2)
    prob = config.mutation_rate(n_loci)
    return mutate(scheme, child1, prob, rng), mutate(scheme, child2, prob, rng)


def mutate(scheme: DeltaScheme, genes: np.ndarray, prob: float,
           rng: np.random.Generator) -> np.ndarray:
    """Uniform domain-reset mutation: each locus, with probability
    ``prob``, takes a random value from its gene domain."""
    genes = genes.copy()
    hits = np.flatnonzero(rng.random(len(genes)) < prob)
    # One call draws every hit's value in locus order, the same stream as a
    # scalar ``rng.integers(domain_len[pos])`` per hit. At the default rate
    # most calls hit one locus or none, and an array draw costs several
    # scalar ones, so a call with no hit skips it.
    if hits.size:
        genes[hits] = scheme.domain_pad[hits, rng.integers(scheme.domain_len[hits])]
    return genes


@dataclass
class FrontMember:
    partition: Partition
    vector: ObjectiveVector


@dataclass
class ParetoFront:
    members: list[FrontMember]


def _rank_population(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Front rank and crowding distance per row of a (members x 2) array
    in minimization form. Each front is the remaining rows that no
    remaining row dominates; two objectives form no dominance cycle
    (``dominance``), so every front has a member and the peel ends.
    Disqualified members (NaN rows) rank after every front, with zero
    crowding."""
    size = len(values)
    rank = np.full(size, size)
    feasible = np.flatnonzero(~np.isnan(values[:, 0]))
    dom = dominance(values[feasible, None, :], values[None, feasible, :])
    dominators = dom.sum(axis=0)
    remaining = np.ones(len(feasible), dtype=bool)
    r = 0
    while remaining.any():
        front = remaining & (dominators == 0)
        rank[feasible[front]] = r
        remaining &= ~front
        dominators -= dom[front].sum(axis=0)
        r += 1
    return rank, _crowding(values, rank)


def _crowding(values: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Crowding distance of each member within its front, the members of
    one rank taken in member order; disqualified members get zero. The
    stable sorts break value ties by row order, so a reordered population
    needs its crowding again even where its fronts stay."""
    crowding = np.zeros(len(values))
    feasible = np.flatnonzero(~np.isnan(values[:, 0]))
    fronts = rank[feasible]
    for r in np.unique(fronts):
        front = feasible[fronts == r]
        if len(front) <= 2:
            crowding[front] = np.inf
            continue
        for m in range(values.shape[1]):
            order = front[np.argsort(values[front, m], kind="stable")]
            col = values[order, m]
            crowding[order[[0, -1]]] = np.inf
            if col[-1] - col[0] > 0:
                crowding[order[1:-1]] += (col[2:] - col[:-2]) / (col[-1] - col[0])
    return crowding


def _truncate(rank: np.ndarray, crowding: np.ndarray, size: int) -> np.ndarray:
    """Indices of the ``size`` best members by (rank, -crowding, index);
    lexsort is stable, so the index breaks the remaining ties."""
    return np.lexsort((-crowding, rank))[:size]


def _tournament(rank: np.ndarray, crowding: np.ndarray,
                rng: np.random.Generator) -> int:
    i, j = rng.integers(len(rank), size=2)
    if (rank[i], -crowding[i]) <= (rank[j], -crowding[j]):
        return int(i)
    return int(j)


def evolve(ds: Dataset, config: EmocConfig, init: InitPopulation) -> ParetoFront:
    """Run the evolutionary clusterer seeded from an initial population.

    The population is a (members x loci) gene array with each member's
    partition, a (members x 2) array of its objective values in
    minimization form, and each member's front rank and crowding. Members
    whose objective vector cannot be evaluated (criterion errors such as
    k=1 under a separation index) are kept as NaN rows with worst-rank
    fitness instead of aborting the run. An empty or mis-sized initial
    population, or one whose every member is disqualified, is a
    ``DataError``."""
    if not init.partitions:
        raise DataError("initial population is empty")
    if any(pi.n != ds.n for pi in init.partitions):
        raise DataError(f"an initial partition does not have the {ds.n} points "
                        f"of dataset {ds.name!r}")
    scheme = delta_relevant_loci(ds, config.delta_percent, L=config.L)
    geometry = ComponentGeometry(ds, scheme.base_labels, scheme.n_base)
    signs = minimize_signs(config.objectives)
    # The values are a pure function of the partition, so a partition met
    # before in the run takes its row from the memo, keyed on the cluster
    # of each base component.
    memo: dict[bytes, np.ndarray] = {}
    rng = rng_for(config.seed, "emoc")
    size = config.population_size

    rows = [encode(pi, scheme) for pi in init.partitions]
    mut_prob = config.mutation_rate(len(scheme.relevant_loci))
    rows += [mutate(scheme, rows[i % len(init.partitions)], mut_prob, rng)
             for i in range(size - len(rows))]
    genes = np.empty((0, len(scheme.relevant_loci)), dtype=np.int64)
    parts: list[Partition] = []
    values = np.empty((0, 2))
    for gen in range(config.generations + 1):
        if gen:
            rows = []
            for _ in range(size // 2):
                p1 = _tournament(rank, crowding, rng)
                p2 = _tournament(rank, crowding, rng)
                rows.extend(variation(scheme, genes[p1], genes[p2], config, rng))
        genes = np.concatenate([genes, rows])
        new = []
        for g in rows:
            pi = decode(scheme, g)
            key = pi.assignment[geometry.first].tobytes()
            if key not in memo:
                try:
                    memo[key] = signs * evaluate_vector(
                        ds, pi, config.objectives, geometry.evaluate).values
                except CriterionError:
                    memo[key] = np.full(2, np.nan)
            parts.append(pi)
            new.append(memo[key])
        values = np.concatenate([values, new])
        if gen == 0 and np.isnan(values[:, 0]).all():
            raise DataError("every initial individual was disqualified")
        rank, crowding = _rank_population(values)
        keep = _truncate(rank, crowding, size)
        genes = genes[keep]
        parts = [parts[i] for i in keep]
        values = values[keep]
        # The peel ranks each member one past its latest dominator's front,
        # and truncation keeps every earlier front whole, so ranking the
        # survivors again would peel the same fronts: each keeps its rank.
        # A disqualified survivor's rank drops to the new population size.
        rank = np.minimum(rank[keep], size)
        crowding = _crowding(values, rank)

    members: dict[bytes, FrontMember] = {}
    for i in np.flatnonzero(rank == 0):
        # Negating is exact, so the signs give back the evaluated values.
        vector = ObjectiveVector(config.objectives, tuple((signs * values[i]).tolist()))
        members.setdefault(parts[i].key, FrontMember(parts[i], vector))
    return ParetoFront(members=list(members.values()))


def truth_dominated(front: ParetoFront, truth_vector: ObjectiveVector) -> bool:
    """Does any front member dominate the true partition's vector?"""
    return any(dominates(m.vector, truth_vector) for m in front.members)
