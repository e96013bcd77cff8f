"""Overlapping Schwarz iteration toolkit for 1D semilinear problems.

Modules:

* problem      -- declarative model problems and assumption checks
* geometry     -- overlapping interval partitions and snapped grids
* discretize   -- finite-difference subdomain solves (elliptic/parabolic)
* transmission -- Dirichlet / Robin / scaled-Robin interface operators
* schwarz      -- the Jacobi sweep engine, norms, rate estimation
* oracle       -- closed-form contraction factors for two-subdomain models
* cli          -- experiment runner (run / tau / sweep / validate)
"""

from .geometry import (
    Grid,
    GridError,
    Partition,
    PartitionError,
    SubGrid,
    build_grid,
    build_uniform_partition,
    validate_partition,
)
from .discretize import (
    BandedSystem,
    DirichletBC,
    PicardError,
    RobinBC,
    SingularSystemError,
    assemble_elliptic,
    reference_solve,
    solve_banded,
    solve_semilinear_elliptic,
    solve_semilinear_parabolic,
)
from .oracle import (
    AnalyticCase,
    DegenerateParameterError,
    InterfaceState,
    TauFactors,
    asymptotic_tau_large_q,
    classical_laplace_rate,
    dirichlet_tau_factors,
    divergence_threshold_L1,
    step_interface,
    tau_factors,
)
from .problem import (
    CoefficientFn,
    DataFn,
    Nonlinearity,
    ProblemSpec,
    UnknownProblemError,
    catalog_ids,
    catalog_lookup,
    validate,
)
from .schwarz import (
    IterationHistory,
    SchwarzConfig,
    SchwarzRunError,
    double_sweep_ratio,
    fit_contraction_rate,
    laplace_seminorm,
    run_elliptic,
    run_parabolic,
    seminorm_sq_profile,
    weighted_sup_norm,
)
from .transmission import TransmissionError, TransmissionSpec, extract

__version__ = "0.1.0"
