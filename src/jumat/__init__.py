"""Exact toolkit for polynomial matrices unitary in the indefinite metric.

The group under study consists of square polynomial matrices U (in a
variable treated as real under conjugation) with U.D.U* = D for
D = diag(-1, 1, ..., 1).  The package provides exact Gaussian-rational
arithmetic, the elementary generators and their group laws, and the
constructive factorization of any member into its unique reduced word
times a constant.

All arithmetic runs in one pure-Python, fraction-free kernel
(``jumat._core``).
"""

from jumat.factor import (
    ConstantJUnitary,
    FactorizationResult,
    NotInGroupError,
    ReductionStep,
    dyad_extract,
    factor,
    is_j_unitary,
    real_subgroup_report,
    reduce_once,
    reduction_indices,
    split_constant,
    three_dyad_split,
)
from jumat.group import (
    ConstantUnitary,
    GeneratorParams,
    IsotropicDirection,
    Mode,
    PhasePoly,
    TangentPoly,
    Word,
    build_generator,
    commutator,
    compose,
    conjugate,
    conjugate_word,
    identity_params,
    invert,
    invert_word,
    phase_params,
    star_params,
    tangent_space_basis,
    word_degree,
    word_reduce,
    word_to_matrix,
)
from jumat.poly import NEG_INF, MatrixPolynomial, ScalarPoly, VectorPoly
from jumat.sampling import SampleConfig, Sampler
from jumat.scalars import GaussianRational, Rational, format_rational, parse_rational

__version__ = "0.1.0"

# The kernel is pure Python; the name is kept because benchmark records
# stamp it.
BACKEND = "python"

__all__ = [
    "BACKEND",
    "ConstantJUnitary",
    "ConstantUnitary",
    "FactorizationResult",
    "GaussianRational",
    "GeneratorParams",
    "IsotropicDirection",
    "MatrixPolynomial",
    "Mode",
    "NEG_INF",
    "NotInGroupError",
    "PhasePoly",
    "Rational",
    "ReductionStep",
    "SampleConfig",
    "Sampler",
    "ScalarPoly",
    "TangentPoly",
    "VectorPoly",
    "Word",
    "build_generator",
    "commutator",
    "compose",
    "conjugate",
    "conjugate_word",
    "dyad_extract",
    "factor",
    "format_rational",
    "identity_params",
    "invert",
    "invert_word",
    "is_j_unitary",
    "parse_rational",
    "phase_params",
    "real_subgroup_report",
    "reduce_once",
    "reduction_indices",
    "split_constant",
    "star_params",
    "tangent_space_basis",
    "three_dyad_split",
    "word_degree",
    "word_reduce",
    "word_to_matrix",
]
