"""admissa: admissibility analysis of clustering objectives and a
delta-locus evolutionary multi-objective clusterer."""

from .data import (Dataset, Partition, DataError, load_dataset,
                   dataset_csv, centroids, minimum_spanning_tree,
                   canonical_labels)
from .criteria import (ObjectiveSpec, ObjectiveVector, CriterionError,
                       KTooSmallError, DegenerateError, ZeroVectorError,
                       MINIMIZE, MAXIMIZE, ALL_IDS, objective, objectives,
                       evaluate, evaluate_vector)
from .initializers import (InitPopulation, kmeans, linkage, snn_cluster,
                           mst_cluster, generate_population, ALGORITHMS)
from .admissibility import (AdmissibilityVerdict, AdmissibilityTable,
                            dominates, classify_objective,
                            build_admissibility_table, INADMISSIBLE,
                            OPTIMAL_IN_INIT, ADMISSIBLE)
from .emoc import (EmocConfig, DeltaScheme, ParetoFront, delta_relevant_loci,
                   decode, encode, variation, evolve, truth_dominated)
from .evaluation import (ari, aggregate_runs, RunSummary,
                         five_number_summary, render_tables)
from .datagen import (GeneratorSpec, gen_blobs, gen_elongated, gen_nested,
                      gen_mixed)

__version__ = "0.1.0"
