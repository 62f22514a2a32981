"""Tensor-train neighborhood preserving embedding.

Embeds multi-dimensional data into a low-dimensional tensor-train subspace
while preserving K-nearest-neighbor structure, with an exact tensor-network
solver (TN), a relaxed approximate solver (ATN), KNN classification in the
embedded space, and compression accounting.
"""

from ttnpe.errors import ConfigError, DataError, NumericError
from ttnpe.tt_subspace import TTChain, tt_svd, left_orthogonalize, contract_chain, project_many
from ttnpe.neighborhood_graph import AffinityConfig, build_weight_matrix, build_gram
from ttnpe.solver import fit, SolverReport
from ttnpe.classifier import knn_classify, evaluate

__all__ = [
    "ConfigError",
    "DataError",
    "NumericError",
    "TTChain",
    "tt_svd",
    "left_orthogonalize",
    "contract_chain",
    "project_many",
    "AffinityConfig",
    "build_weight_matrix",
    "build_gram",
    "fit",
    "SolverReport",
    "knn_classify",
    "evaluate",
]
