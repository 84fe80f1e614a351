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
    finite_code_bound,
    first_lp_rate,
    rate_table,
)
from .codes import (
    Code,
    CodeFileError,
    LinearCode,
    SingletonDistanceWarning,
    autocorrelation,
    dual_distance,
    enumerate_linear_codes,
    min_distance,
    parse_code_text,
    random_code,
    read_code_file,
    write_code_file,
)
from .cube_fourier import (
    CubeFunction,
    IntCubeFunction,
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
    check_covering,
    check_prop_ineq,
    covered_fraction,
    exhaustive_verify,
)

__version__ = "0.1.0"
