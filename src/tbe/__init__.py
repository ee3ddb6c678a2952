"""Compile discrete cost function networks into degree-truncated
spin-basis polynomials with certified truncation error.

The pipeline: parse a CFN, lay out binary registers, encode each cost
table's Walsh transform into exact Ising couplings (absorbing
interaction marginals on the way), inspect the per-degree spectral
profile, truncate at a chosen degree with an l1/l2 error
certificate, optionally quadratize, solve, decode and refine.  The
``verify`` module provides brute-force and Monte-Carlo ground truth
for every guarantee the truncation makes.
"""

from .cfn import (
    Cfn,
    PairwiseTable,
    VariableSpec,
    evaluate_cfn,
    parse_cfn,
    serialize_cfn,
)
from .encoding import (
    EncodingLayout,
    Fallback,
    Penalty,
    WalshBlocks,
    build_layout,
    decode,
    default_penalty_weight,
    encode,
    indicator_expansion,
    spin_image,
    walsh_blocks,
)
from .errors import CapacityError, CfnFormatError
from .polynomial import (
    BinaryPolynomial,
    IsingPolynomial,
    hubo_from_json,
    hubo_to_json,
    mask_to_string,
)
from .quadratization import QuboModel, quadratize, qubo_json, resolve_ancillas
from .solve import AnnealParams, SolveResult, decode_and_refine, solve
from .spectrum import SpectralProfile, spectrum_csv, table_spectrum
from .truncation import (
    TruncationCertificate,
    certificate_json,
    certify,
    noise_floor_ok,
    residual,
    truncate,
)
from .verify import (
    EnsembleSpec,
    LandscapeReport,
    Verdict,
    basin_agreement,
    bitflip_descent,
    bitflip_variance_check,
    check_preservation,
    degree_uniform_profile,
    dense_values,
    ensemble_residual_check,
    enumerate_landscape,
    profile_with_margin,
    sign_preservation_rate,
)
from .walsh import (
    SmoothnessReport,
    discrete_derivative,
    fwht,
    leakage_transform,
    smoothness_report,
    synthesize_values,
    to_01_basis,
)

__version__ = "0.1.0"
