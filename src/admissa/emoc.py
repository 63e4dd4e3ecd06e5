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
                       evaluate_vector)
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
    track_history: bool = False

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

    n: int
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
    if delta_percent is not None and not 0.0 < delta_percent <= 100.0:
        raise ValueError("delta_percent must lie in (0, 100]")
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
    return DeltaScheme(n=n, relevant_loci=relevant,
                       fixed_edges=fixed, parent=parent, domains=domains,
                       base_labels=base, n_base=int(base.max()) + 1)


@dataclass(eq=False)
class Genotype:
    scheme: DeltaScheme
    genes: np.ndarray  # one target point index per relevant locus

    def copy(self) -> "Genotype":
        return Genotype(self.scheme, self.genes.copy())


def decode(g: Genotype, ds: Dataset) -> Partition:
    """Connected components of fixed links plus the non-self gene links."""
    if ds.n != g.scheme.n:
        raise ValueError("genotype and dataset sizes differ")
    sch = g.scheme
    linked = g.genes != sch.relevant_loci
    roots = components(sch.n_base, sch.base_labels[sch.relevant_loci[linked]],
                       sch.base_labels[g.genes[linked]])
    # Components are numbered by their smallest point and a root is the
    # smallest component of its set, so the dense rank of the roots numbers
    # the clusters by their smallest point: the canonical labels.
    rank = np.cumsum(roots == np.arange(sch.n_base)) - 1
    return Partition(rank[roots][sch.base_labels])


def encode(pi: Partition, scheme: DeltaScheme) -> Genotype:
    """Genotype whose loci follow the MST parent when co-clustered with it
    and cut otherwise. Decoding reproduces ``pi`` exactly when all of its
    cut MST edges are relevant loci."""
    loci = scheme.relevant_loci
    par = scheme.parent[loci]
    labels = pi.assignment
    return Genotype(scheme, np.where(labels[loci] == labels[par], par, loci))


def variation(parent1: Genotype, parent2: Genotype, config: EmocConfig,
              rng: np.random.Generator) -> tuple[Genotype, Genotype]:
    """Per-locus uniform crossover followed by uniform domain-reset
    mutation."""
    if parent1.scheme is not parent2.scheme:
        raise ValueError("parents use different locus schemes")
    sch = parent1.scheme
    n_loci = len(sch.relevant_loci)
    swap = rng.random(n_loci) < config.crossover_prob
    child1 = np.where(swap, parent2.genes, parent1.genes)
    child2 = np.where(swap, parent1.genes, parent2.genes)
    prob = config.mutation_rate(n_loci)
    return (mutate(Genotype(sch, child1), prob, rng),
            mutate(Genotype(sch, child2), prob, rng))


def mutate(g: Genotype, prob: float, rng: np.random.Generator) -> Genotype:
    """Uniform domain-reset mutation: each locus, with probability
    ``prob``, takes a random value from its gene domain."""
    genes = g.genes.copy()
    hits = np.flatnonzero(rng.random(len(genes)) < prob)
    for pos in hits:
        dom = g.scheme.domains[pos]
        genes[pos] = dom[rng.integers(len(dom))]
    return Genotype(g.scheme, genes)


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


@dataclass(eq=False)
class Individual:
    genotype: Genotype
    partition: Partition
    vector: ObjectiveVector | None  # None when a criterion error disqualified it
    rank: int = 0
    crowding: float = 0.0


@dataclass
class FrontMember:
    genotype: Genotype
    partition: Partition
    vector: ObjectiveVector


@dataclass
class ParetoFront:
    members: list[FrontMember]
    history: list[dict] | None = None

    def __len__(self) -> int:
        return len(self.members)

    def vectors(self) -> list[ObjectiveVector]:
        return [m.vector for m in self.members]


def _evaluate_individual(ds: Dataset, g: Genotype, specs,
                         geometry: ComponentGeometry,
                         memo: dict[bytes, ObjectiveVector | None]) -> Individual:
    """Decode ``g`` and evaluate its partition on the base components. The
    vector is a pure function of the partition, so a partition met before
    in the run takes its vector from ``memo``, keyed on the cluster of each
    component."""
    pi = decode(g, ds)
    key = pi.assignment[geometry.first].tobytes()
    if key not in memo:
        try:
            memo[key] = evaluate_vector(ds, pi, specs, geometry.evaluate)
        except CriterionError:
            memo[key] = None
    return Individual(g, pi, memo[key])


def _rank_population(pop: list[Individual]) -> list[list[Individual]]:
    """Assign ranks and crowding; disqualified members get the worst rank.
    Returns the feasible fronts."""
    feasible = [ind for ind in pop if ind.vector is not None]
    infeasible = [ind for ind in pop if ind.vector is None]
    fronts_out: list[list[Individual]] = []
    if feasible:
        values = np.array([ind.vector.minimized() for ind in feasible])
        fronts = fast_nondominated_sort(values)
        for r, front in enumerate(fronts):
            dist = crowding_distance(values[front])
            for pos, idx in enumerate(front):
                feasible[idx].rank = r
                feasible[idx].crowding = float(dist[pos])
            fronts_out.append([feasible[i] for i in front])
    for ind in infeasible:
        ind.rank = len(fronts_out) + len(pop)
        ind.crowding = 0.0
    return fronts_out


def _truncate(pop: list[Individual], size: int) -> list[Individual]:
    order = sorted(range(len(pop)),
                   key=lambda i: (pop[i].rank, -pop[i].crowding, i))
    return [pop[i] for i in order[:size]]


def _tournament(pop: list[Individual], rng: np.random.Generator) -> Individual:
    i, j = rng.integers(len(pop), size=2)
    a, b = pop[int(i)], pop[int(j)]
    if (a.rank, -a.crowding) <= (b.rank, -b.crowding):
        return a
    return b


def _front_members(pop: list[Individual]) -> list[FrontMember]:
    best = [ind for ind in pop if ind.vector is not None and ind.rank == 0]
    seen: set[bytes] = set()
    members = []
    for ind in best:
        key = ind.partition.key()
        if key in seen:
            continue
        seen.add(key)
        members.append(FrontMember(ind.genotype, ind.partition, ind.vector))
    return members


def evolve(ds: Dataset, config: EmocConfig, init: InitPopulation) -> ParetoFront:
    """Run the evolutionary clusterer seeded from an initial population.

    Individuals whose objective vector cannot be evaluated (criterion
    errors such as k=1 under a separation index) are kept with worst-rank
    fitness instead of aborting the run."""
    if not init.partitions:
        raise EmocError("initial population is empty")
    scheme = delta_relevant_loci(ds, config.delta_percent, L=config.L)
    geometry = ComponentGeometry(ds, scheme.base_labels, scheme.n_base)
    memo: dict[bytes, ObjectiveVector | None] = {}
    rng = rng_for(config.seed, "emoc")
    specs = config.objectives

    genotypes = [encode(pi, scheme) for pi in init.partitions]
    mut_prob = config.mutation_rate(len(scheme.relevant_loci))
    i = 0
    while len(genotypes) < config.population_size:
        genotypes.append(mutate(genotypes[i % len(init.partitions)], mut_prob, rng))
        i += 1

    pop = [_evaluate_individual(ds, g, specs, geometry, memo)
           for g in genotypes]
    if all(ind.vector is None for ind in pop):
        raise EmocError("every initial individual was disqualified")
    _rank_population(pop)
    pop = _truncate(pop, config.population_size)
    _rank_population(pop)

    history: list[dict] = []

    def record():
        if not config.track_history:
            return
        feas = [ind for ind in pop if ind.vector is not None]
        values = np.array([ind.vector.minimized() for ind in feas])
        front_values = [list(ind.vector.values) for ind in feas if ind.rank == 0]
        entry = {"best": values.min(axis=0).tolist(),
                 "front_size": len(front_values),
                 "front_values": front_values}
        history.append(entry)

    record()
    for _gen in range(config.generations):
        offspring: list[Individual] = []
        while len(offspring) < config.population_size:
            p1 = _tournament(pop, rng)
            p2 = _tournament(pop, rng)
            c1, c2 = variation(p1.genotype, p2.genotype, config, rng)
            offspring.append(_evaluate_individual(ds, c1, specs, geometry, memo))
            offspring.append(_evaluate_individual(ds, c2, specs, geometry, memo))
        combined = pop + offspring
        _rank_population(combined)
        pop = _truncate(combined, config.population_size)
        _rank_population(pop)
        record()

    members = _front_members(pop)
    return ParetoFront(members=members,
                       history=history if config.track_history else None)


def truth_dominated(front: ParetoFront, truth_vector: ObjectiveVector) -> bool:
    """Does any front member dominate the true partition's vector?"""
    return any(dominates(m.vector, truth_vector) for m in front.members)
