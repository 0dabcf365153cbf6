"""Certified verification of the explicit formula for zeta functions of
ordinary abelian varieties over finite fields.

The pipeline: parse a Weil polynomial, deciding the Riemann hypothesis
exactly, build the Frobenius companion model and its roots in exact
conjugate pairs with proven angle brackets, and check that the alternating
sum of a test function's transform over the zeros of the exterior-power
factors P_j, on the critical lines Re s = j/2, matches both its Poisson
closed form and the geometric sum over closed points, within a certified
truncation budget. The zero sum reads only the g Frobenius angles; the
exact P_j (build_pj_family) and the 4^g root products lambda_S are built
only where `zeta` prints them.
"""

from .bumps import (
    BumpFunction,
    BumpSum,
    PhiResult,
    TailMajorant,
    combine_bumps,
    phi,
    phi_ladder,
    tail_majorant,
)
from .counting import (
    CountTable,
    build_count_table,
    fixed_point_groups,
)
from .errors import (
    BadLength,
    BadNormalization,
    ComputationError,
    CrossCheckFailure,
    DimensionTooLarge,
    FieldTooLarge,
    InputError,
    InsufficientCountRange,
    NonIntegralInversion,
    NonOrdinaryInput,
    NotPrimePower,
    OutputTooLarge,
    RiemannHypothesisViolation,
    SidesTooLarge,
    TruncationBudgetExceeded,
    WeilflowError,
)
from .exterior import PjFamily, build_pj_family, zeros_in_window
from .formula import (
    GeometricCell,
    GeometricResult,
    SpectralResult,
    TraceResult,
    VerificationReport,
    geometric_side,
    spectral_side_closed_form,
    spectral_side_zero_sum,
    trace_j,
    verify,
)
from .weil import (
    FrobeniusModel,
    OrdinarityVerdict,
    WeilDatum,
    check_ordinary,
    companion_matrix,
    frobenius_model,
    parse_weil_datum,
    prime_power_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "BumpFunction", "BumpSum", "PhiResult", "TailMajorant",
    "combine_bumps", "phi", "phi_ladder", "tail_majorant",
    "CountTable", "build_count_table", "fixed_point_groups",
    "WeilflowError", "InputError", "ComputationError",
    "NotPrimePower", "FieldTooLarge", "BadLength", "BadNormalization",
    "RiemannHypothesisViolation", "NonOrdinaryInput", "DimensionTooLarge",
    "OutputTooLarge", "SidesTooLarge",
    "CrossCheckFailure",
    "NonIntegralInversion", "TruncationBudgetExceeded", "InsufficientCountRange",
    "PjFamily", "build_pj_family", "zeros_in_window",
    "GeometricCell", "GeometricResult", "SpectralResult", "TraceResult",
    "VerificationReport", "geometric_side", "spectral_side_closed_form",
    "spectral_side_zero_sum", "trace_j", "verify",
    "WeilDatum", "OrdinarityVerdict", "FrobeniusModel",
    "check_ordinary", "companion_matrix",
    "frobenius_model", "parse_weil_datum", "prime_power_decompose",
    "__version__",
]
