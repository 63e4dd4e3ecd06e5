"""Delta-locus evolutionary multi-objective clustering.

The genotype fixes most of the MST and exposes only the most interesting
links as evolvable loci: gene i may cut its link (g_i = i), keep the MST
parent, or redirect to one of i's L nearest neighbors. Selection is
elitist non-dominated sorting with crowding-distance tie-breaks; all
comparisons reuse the shared strictness tolerance so fronts agree with
the admissibility dominance operator. Every decoded partition is a union
of the components of the fixed links, so individuals are evaluated on
those components (``components.ComponentGeometry``), once per distinct
partition in a run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admissibility import dominance, dominates
from .components import ComponentGeometry
from .criteria import (CriterionError, ObjectiveSpec, ObjectiveVector,
                       evaluate_vector, minimize_signs)
from .data import Dataset, Partition, canonical_labels, components
from .initializers import InitPopulation, interesting_mst_edges
from .seeding import rng_for


class EmocError(RuntimeError):
    pass


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
        if len(self.objectives) < 2:
            raise ValueError("need at least 2 objectives")
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
    links."""

    relevant_loci: np.ndarray  # child endpoints of the top-DI MST edges
    fixed_edges: np.ndarray  # (m, 2): (child, parent) of every other MST edge
    parent: np.ndarray  # MST parent per node (root -> itself)
    domains: list[np.ndarray]  # per relevant locus: {i, parent, NN_L(i)}
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
    fixed = np.column_stack([child[count:], parent[child[count:]]])

    L_eff = max(1, min(int(L), n - 1))
    domains = []
    for i in relevant.tolist():
        dom = [i, int(parent[i])]
        dom.extend(int(v) for v in ds.neighbor_index[i, :L_eff])
        domains.append(np.array(list(dict.fromkeys(dom)), dtype=np.int64))

    base = canonical_labels(components(n, fixed[:, 0], fixed[:, 1]))
    return DeltaScheme(relevant_loci=relevant, fixed_edges=fixed,
                       parent=parent, domains=domains, base_labels=base,
                       n_base=int(base.max()) + 1)


def decode(scheme: DeltaScheme, genes: np.ndarray) -> Partition:
    """Connected components of fixed links plus the non-self gene links."""
    linked = genes != scheme.relevant_loci
    roots = components(scheme.n_base,
                       scheme.base_labels[scheme.relevant_loci[linked]],
                       scheme.base_labels[genes[linked]])
    # Components are numbered by their smallest point and a root is the
    # smallest component of its set, so the dense rank of the roots numbers
    # the clusters by their smallest point: the canonical labels.
    rank = np.cumsum(roots == np.arange(scheme.n_base)) - 1
    return Partition(rank[roots][scheme.base_labels])


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
    for pos in hits:
        dom = scheme.domains[pos]
        genes[pos] = dom[rng.integers(len(dom))]
    return genes


# --------------------------------------------------------------------------
# Non-dominated sorting machinery


def fast_nondominated_sort(values: np.ndarray) -> list[np.ndarray]:
    """Fronts (arrays of row indices) from best to worst; rows are
    objective vectors in minimization form.

    Tolerant dominance is not transitive, so with three or more objectives
    the remaining rows can all dominate each other in a cycle. The next
    front then holds the remaining rows with the fewest remaining
    dominators. Two objectives cannot form a cycle: counted in tolerance
    steps, a dominated row is more than one step worse on one objective
    and at most one step better on the other, so the sum of both strictly
    grows along every domination."""
    dom = dominance(values[:, None, :], values[None, :, :])
    dominated_by = dom.sum(axis=0)
    fronts = []
    remaining = np.ones(len(values), dtype=bool)
    while remaining.any():
        fewest = dominated_by[remaining].min()
        front = np.flatnonzero(remaining & (dominated_by == fewest))
        fronts.append(front)
        remaining[front] = False
        dominated_by = dominated_by - dom[front].sum(axis=0)
    return fronts


def crowding_distance(values: np.ndarray) -> np.ndarray:
    n, z = values.shape
    dist = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for m in range(z):
        order = np.argsort(values[:, m], kind="stable")
        lo, hi = values[order[0], m], values[order[-1], m]
        dist[order[0]] = dist[order[-1]] = np.inf
        if hi - lo <= 0:
            continue
        gaps = (values[order[2:], m] - values[order[:-2], m]) / (hi - lo)
        dist[order[1:-1]] += gaps
    return dist


@dataclass
class FrontMember:
    partition: Partition
    vector: ObjectiveVector


@dataclass
class ParetoFront:
    members: list[FrontMember]

    def __len__(self) -> int:
        return len(self.members)


def _minimized(vectors: list[ObjectiveVector]) -> np.ndarray:
    """(members x objectives) values with maximized objectives negated.
    Every vector of a run has the run's specs, so one sign row serves."""
    return np.array([v.values for v in vectors]) * minimize_signs(vectors[0].specs)


def _rank_population(vectors: list[ObjectiveVector | None]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Front rank and crowding distance per member. Disqualified members
    (``None``) rank after every front, with zero crowding."""
    size = len(vectors)
    rank = np.full(size, size)
    crowding = np.zeros(size)
    feasible = np.flatnonzero([v is not None for v in vectors])
    if feasible.size:
        values = _minimized([vectors[i] for i in feasible])
        for r, front in enumerate(fast_nondominated_sort(values)):
            rank[feasible[front]] = r
            crowding[feasible[front]] = crowding_distance(values[front])
    return rank, crowding


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
    partition, objective vector, front rank and crowding. Members whose
    objective vector cannot be evaluated (criterion errors such as k=1
    under a separation index) are kept with worst-rank fitness instead of
    aborting the run."""
    if not init.partitions:
        raise EmocError("initial population is empty")
    scheme = delta_relevant_loci(ds, config.delta_percent, L=config.L)
    geometry = ComponentGeometry(ds, scheme.base_labels, scheme.n_base)
    # The vector is a pure function of the partition, so a partition met
    # before in the run takes its vector from the memo, keyed on the
    # cluster of each base component.
    memo: dict[bytes, ObjectiveVector | None] = {}
    rng = rng_for(config.seed, "emoc")
    size = config.population_size

    rows = [encode(pi, scheme) for pi in init.partitions]
    mut_prob = config.mutation_rate(len(scheme.relevant_loci))
    rows += [mutate(scheme, rows[i % len(init.partitions)], mut_prob, rng)
             for i in range(size - len(rows))]
    genes = np.empty((0, len(scheme.relevant_loci)), dtype=np.int64)
    parts: list[Partition] = []
    vectors: list[ObjectiveVector | None] = []
    for gen in range(config.generations + 1):
        if gen:
            rows = []
            for _ in range(size // 2):
                p1 = _tournament(rank, crowding, rng)
                p2 = _tournament(rank, crowding, rng)
                rows.extend(variation(scheme, genes[p1], genes[p2], config, rng))
        genes = np.concatenate([genes, rows])
        for g in rows:
            pi = decode(scheme, g)
            key = pi.assignment[geometry.first].tobytes()
            if key not in memo:
                try:
                    memo[key] = evaluate_vector(ds, pi, config.objectives,
                                                geometry.evaluate)
                except CriterionError:
                    memo[key] = None
            parts.append(pi)
            vectors.append(memo[key])
        if gen == 0 and all(v is None for v in vectors):
            raise EmocError("every initial individual was disqualified")
        rank, crowding = _rank_population(vectors)
        keep = _truncate(rank, crowding, size)
        genes = genes[keep]
        parts = [parts[i] for i in keep]
        vectors = [vectors[i] for i in keep]
        rank, crowding = _rank_population(vectors)

    members: dict[bytes, FrontMember] = {}
    for i in np.flatnonzero(rank == 0):
        members.setdefault(parts[i].key, FrontMember(parts[i], vectors[i]))
    return ParetoFront(members=list(members.values()))


def truth_dominated(front: ParetoFront, truth_vector: ObjectiveVector) -> bool:
    """Does any front member dominate the true partition's vector?"""
    return any(dominates(m.vector, truth_vector) for m in front.members)
