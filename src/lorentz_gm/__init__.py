"""Numerical certification toolkit for rearrangement-invariant norms,
general-monotone sequences and functions, K-functionals, and trigonometric
series bounds."""

from .model import (
    ComplexSeq,
    HeadedStepFunction,
    MissingHeadError,
    NotGMError,
    PQ,
    PowerHead,
    RepresentationError,
    Sector,
    StepFunction,
    VerificationReport,
    sector_contains,
)
from .rearrange import DecreasingStep, distribution, left_limit, rearrange_seq, rearrange_step
from .norms import (
    dyadic_norm_full,
    equivalence_report,
    lorentz_norm_seq,
    lorentz_norm_step,
    power_norm,
    power_pieces,
    power_term,
    weighted_norm_seq,
    weighted_norm_step,
)
from .gm import (
    GMReport,
    SpliceResult,
    gm_constant_step,
    gms1_constant,
    gms2_constant,
    gms_constant,
    splice,
)
from .quadrature import NonconvergenceError, adaptive_integral
from .interpolate import (
    Decomposition,
    gilbert_bracket,
    gilbert_functional,
    gms_decomposition,
    interpolation_norm,
    k_functional,
    k_functional_oracle,
)
from .fourier import (
    dirichlet_bound_report,
    duality_ratio,
    l1_log_weight_report,
    l1_norm_trig,
    partial_sum_dft,
    partial_sum_grid,
    weak_l1_report,
)
from .hardy import hardy_lhs, hardy_report, hardy_rhs

__version__ = "0.1.0"
