"""fracbb: spectral calculus on the torus and Bergman boundary checks.

Band-limited fields with Clifford-algebra values, fractional Laplacian and
Riesz multipliers, Dirac-type operators with closed-form inverses, explicit
inverting kernels with boundedness scans, sum-space norms computed by a
certified primal-dual solver, disk power-series norms, and randomized
inequality verification harnesses.
"""

from .clifford import CliffordElement, multiply
from .decomposition import DecompositionResult, solve_decomposition
from .disk import (
    CorpusReport,
    PowerSeries,
    RatioReport,
    bbb_ratio,
    bergman_norm,
    boundary_trace,
    dilate,
    hminus_half_boundary_norm,
    mixed_boundary_norm,
    random_series,
    verify_bergman,
)
from .errors import (
    AliasingError,
    ConvergenceError,
    InputError,
    InvariantViolation,
    ToolkitError,
)
from .experiments import (
    DiracSeriesTrace,
    ExperimentConfig,
    InequalityReport,
    bilinear_A,
    bilinear_A_diracs,
    dirac_pair_limit,
    random_field,
    verify_bb,
)
from .kernels import (
    KernelSpec,
    ScanReport,
    dyadic_block_sum,
    kernel_K_1d,
    kernel_K_nd,
    kernel_component_nd,
    sawtooth_eval,
    sawtooth_field,
    sup_norm_scan,
)
from .norms import SumSpaceSplit, l1_norm, l2_norm, sobolev_norm, sum_space_norm
from .operators import (
    dirac_D,
    dirac_Dbar,
    fractional_laplacian,
    invert_D,
    invert_D2,
    riesz,
)
from .spectral import (
    GridField,
    SpectralField,
    band_indices,
    convolve,
    forward_transform,
    freq_norm,
    inverse_transform,
    project_zero_mean,
)

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "CliffordElement",
    "ConvergenceError",
    "CorpusReport",
    "DecompositionResult",
    "DiracSeriesTrace",
    "ExperimentConfig",
    "GridField",
    "InequalityReport",
    "InputError",
    "InvariantViolation",
    "KernelSpec",
    "PowerSeries",
    "RatioReport",
    "ScanReport",
    "SpectralField",
    "SumSpaceSplit",
    "ToolkitError",
    "band_indices",
    "bbb_ratio",
    "bergman_norm",
    "bilinear_A",
    "bilinear_A_diracs",
    "boundary_trace",
    "convolve",
    "dilate",
    "dirac_D",
    "dirac_Dbar",
    "dirac_pair_limit",
    "dyadic_block_sum",
    "forward_transform",
    "fractional_laplacian",
    "freq_norm",
    "hminus_half_boundary_norm",
    "inverse_transform",
    "invert_D",
    "invert_D2",
    "kernel_K_1d",
    "kernel_K_nd",
    "kernel_component_nd",
    "l1_norm",
    "l2_norm",
    "mixed_boundary_norm",
    "multiply",
    "project_zero_mean",
    "random_field",
    "random_series",
    "riesz",
    "sawtooth_eval",
    "sawtooth_field",
    "sobolev_norm",
    "solve_decomposition",
    "sum_space_norm",
    "sup_norm_scan",
    "verify_bb",
    "verify_bergman",
]
