"""Exception hierarchy.

Two families matter to callers: `InputError` covers everything wrong with the
user-supplied data (the CLI maps these to exit code 1), `ComputationError`
covers internal contract violations and resource refusals. Every message names
the violated condition and the offending value.
"""

from __future__ import annotations


class WeilflowError(Exception):
    """Base class for all package errors."""


class InputError(WeilflowError):
    """Invalid or rejected input document / parameters."""


class NotPrimePower(InputError):
    """q is not p^f for a prime p and f >= 1."""


class BadLength(InputError):
    """Coefficient list length is not 2g + 1."""


class BadNormalization(InputError):
    """Leading/trailing coefficients are not 1 and q^g."""


class RiemannHypothesisViolation(InputError):
    """Some inverse root has |mu|^2 off q beyond tolerance."""


class NonOrdinaryInput(InputError):
    """p divides the middle coefficient and the override flag is absent."""


class DimensionTooLarge(InputError):
    """g exceeds the cap (exterior powers grow as C(2g, g))."""


class ComputationError(WeilflowError):
    """A downstream computation violated its contract."""


class RootRefinementFailure(ComputationError):
    """Newton polishing did not reach the demanded residual."""


class CrossCheckFailure(ComputationError):
    """Exact-integer and float routes disagree beyond tolerance."""


class FunctionalEquationViolation(ComputationError):
    """Zero multisets of P_j and P_{2g-j} fail s -> g - s symmetry."""


class NonIntegralInversion(ComputationError):
    """A Mobius / divisor-sum inversion produced a non-integer."""


class QuadratureNonConvergence(ComputationError):
    """Panel doubling hit its cap before the tolerance was met."""


class TruncationBudgetExceeded(ComputationError):
    """Certified tail demands more lattice points than the hard cap."""


class InsufficientCountRange(ComputationError):
    """The test function's support needs counts beyond the computed range."""
