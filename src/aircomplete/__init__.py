"""Matrix completion by deep factorization with a learnable graph regularizer.

The model writes the estimate as a product of factor matrices and adds a
Dirichlet-energy penalty whose row and column graphs are themselves trained.
Submodules:

- mat_core: input validation, sign-fixed SVD, seeded randomness
- data_lab: synthetic generators, observation masks, PGM input and output
- dmf: factor chains and their gradients, initialization schemes
- air_reg: adjacency parameterizations, Laplacians, energy gradients
- trainer: one optimization loop for every penalty, stopping rules, metric
  traces
- baselines: knn and iterated-SVD imputation, TV and frozen-graph penalties
- theory_lab: numerical checks of the gradient-flow predictions
- cli: command-line front end (entry point `aircomplete`)
"""
from .air_reg import (LaplacianPair, RegParam, build_laplacian,
                      decay_constant, dirichlet_energy, grad_wrt_X,
                      identical_row_pairs, limit_laplacian,
                      reg_value_and_grad)
from .baselines import (FixedLaplacians, TvConfig, knn_impute, svd_impute,
                        tv_value_and_grad)
from .data_lab import (GroundTruth, SamplingMask, apply_mask,
                       gen_block_ratings, gen_lowrank, generate_mask, lift,
                       read_mask_pgm, read_pgm, write_mask_pgm, write_pgm)
from .dmf import FactorChain, balance_residuals, forward, initialize
from .errors import (DivergenceError, ImputeError, InvalidInput,
                     NumericOverflow, ParseError)
from .mat_core import (SvdResult, finite_difference_grad, gaussian_matrix,
                       make_rng, svd)
from .theory_lab import (FlowReport, verify_balance, verify_theorem1,
                         verify_theorem2)
from .trainer import (MetricTrace, ModelState, TrainConfig, auto_lambda,
                      metrics, train)

__version__ = "0.1.0"

__all__ = [
    "LaplacianPair", "RegParam", "build_laplacian", "decay_constant",
    "dirichlet_energy", "grad_wrt_X", "identical_row_pairs",
    "limit_laplacian", "reg_value_and_grad",
    "FixedLaplacians", "TvConfig", "knn_impute", "svd_impute",
    "tv_value_and_grad",
    "GroundTruth", "SamplingMask", "apply_mask", "gen_block_ratings",
    "gen_lowrank", "generate_mask", "lift", "read_mask_pgm", "read_pgm",
    "write_mask_pgm", "write_pgm",
    "FactorChain", "balance_residuals", "forward", "initialize",
    "DivergenceError", "ImputeError", "InvalidInput", "NumericOverflow",
    "ParseError",
    "SvdResult", "finite_difference_grad", "gaussian_matrix", "make_rng",
    "svd",
    "FlowReport", "verify_balance", "verify_theorem1", "verify_theorem2",
    "MetricTrace", "ModelState", "TrainConfig", "auto_lambda", "metrics",
    "train",
]
