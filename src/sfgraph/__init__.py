"""Redundant-feature removal for high-dimensional data.

The package builds a *sparse feature graph* — every feature greedily
expressed as a sparse combination of the others — mines locally compressible
subgraphs (groups of features that stand in for each other) at a weight
threshold, and keeps one representative per group.  An evaluation harness
scores the reduction with spectral clustering against ground-truth labels.
"""

from .errors import (
    DataError,
    DimensionError,
    NumericalError,
    ParameterError,
    ParseError,
    SfgraphError,
)
from .evaluate import (
    KMeansResult,
    McfsResult,
    SimilarityGraph,
    SpectralEmbedding,
    acc,
    gaussian_similarity,
    kmeans,
    mcfs_select,
    njw_cluster,
    nmi,
    spectral_embedding,
)
from .lcs import LcsPartition, find_lcs, save_partition
from .matrix import (
    FeatureMatrix,
    load_csv,
    load_labels,
    normalize_features,
    pairwise_euclidean,
    read_csv,
    save_csv,
    write_columns,
)
from .omp import SparseRepresentation, omp
from .pipeline import PipelineConfig, render_report, run_pipeline
from .sfg import (
    SparseFeatureGraph,
    angle_histogram,
    build_sfg,
    filter_failed,
    load_sfg,
    representation_angle,
    save_sfg,
)
from .synth import SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SfgraphError",
    "ParameterError",
    "ParseError",
    "DimensionError",
    "DataError",
    "NumericalError",
    # matrix
    "FeatureMatrix",
    "read_csv",
    "load_csv",
    "load_labels",
    "save_csv",
    "write_columns",
    "normalize_features",
    "pairwise_euclidean",
    # solver
    "SparseRepresentation",
    "omp",
    # graph
    "SparseFeatureGraph",
    "build_sfg",
    "representation_angle",
    "filter_failed",
    "angle_histogram",
    "save_sfg",
    "load_sfg",
    # subgraphs
    "LcsPartition",
    "find_lcs",
    "save_partition",
    # evaluation
    "SimilarityGraph",
    "SpectralEmbedding",
    "KMeansResult",
    "McfsResult",
    "gaussian_similarity",
    "spectral_embedding",
    "kmeans",
    "njw_cluster",
    "nmi",
    "acc",
    "mcfs_select",
    # synthetic data
    "SynthSpec",
    "generate",
    # pipeline
    "PipelineConfig",
    "run_pipeline",
    "render_report",
]
