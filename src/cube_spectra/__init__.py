"""Fourier analysis on the Hamming cube and spectral bounds for binary codes."""

from .ball_spectra import (
    BallEigenWitness,
    SubsetGraph,
    eigen_recurrence,
    hamming_ball,
    lambda_ball_exact,
    lambda_for_radius_recurrence,
    lambda_subset_bruteforce,
    min_radius_for_lambda,
)
from .bounds import (
    BoundReport,
    ball_size,
    binary_entropy,
    essential_covering_radius_bound,
    finite_code_bound,
    first_lp_rate,
    rate_table,
    tietavainen_bound,
)
from .codes import (
    Code,
    CodeFileError,
    LinearCode,
    SingletonDistanceWarning,
    autocorrelation,
    dual_code,
    dual_distance,
    enumerate_linear_codes,
    max_code_size_exact,
    min_distance,
    parse_code_text,
    random_code,
    read_code_file,
    write_code_file,
)
from .cube_fourier import (
    CubeFunction,
    IntCubeFunction,
    adjacency_apply,
    adjacency_kernel,
    convolve,
    essential_support_size,
    hamming_weights,
    int_wht,
    inverse_wht,
    moments,
    wht,
)
from .lp_witness import (
    PropositionReport,
    VerificationError,
    build_covering_witness,
    check_covering,
    check_prop_ineq,
    covered_fraction,
    exhaustive_verify,
    phi_from_code,
)

__version__ = "0.1.0"
