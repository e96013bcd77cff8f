"""Overlapping Schwarz iteration toolkit for 1D semilinear problems.

Modules:

* problem      -- declarative model problems and assumption checks
* geometry     -- overlapping interval partitions and snapped grids
* discretize   -- finite-difference subdomain operators and solves
* transmission -- Dirichlet / Robin interface operators
* schwarz      -- the Jacobi sweep engine, norms, rate estimation
* oracle       -- closed-form contraction factors for two-subdomain models
* cli          -- experiment runner (run / tau / sweep / validate)

The package namespace holds what the README's library example uses;
everything else is imported from its module.
"""

from .geometry import Partition
from .oracle import AnalyticCase, classical_laplace_rate, divergence_threshold_L1, tau_factors
from .problem import catalog_lookup, validate
from .schwarz import SchwarzConfig, plan, run_elliptic, run_parabolic
from .transmission import TransmissionSpec

__all__ = [
    "AnalyticCase",
    "Partition",
    "SchwarzConfig",
    "TransmissionSpec",
    "catalog_lookup",
    "classical_laplace_rate",
    "divergence_threshold_L1",
    "plan",
    "run_elliptic",
    "run_parabolic",
    "tau_factors",
    "validate",
]

__version__ = "0.1.0"
