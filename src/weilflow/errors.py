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


class FieldTooLarge(InputError):
    """q is at or above weil.Q_CAP, where primality is no longer decided exactly."""


class BadLength(InputError):
    """Coefficient list length is not 2g + 1."""


class BadNormalization(InputError):
    """Leading/trailing coefficients are not 1 and q^g."""


class RiemannHypothesisViolation(InputError):
    """Proven: c_{2g-k} != q^{g-k} c_k for some k, or a root of the real
    Weil polynomial h (T^g h(T + q/T) = char T) is not real in
    [-2 sqrt q, 2 sqrt q], so some inverse root has |mu| != sqrt q."""


class NonOrdinaryInput(InputError):
    """p divides the middle coefficient and the override flag is absent."""


class DimensionTooLarge(InputError):
    """g exceeds the cap of `zeta` (its exterior powers grow as C(2g, g)) or
    of `verify` (its certificate grows past any use); the message names the
    command."""


class OutputTooLarge(InputError):
    """An integer the command would print may have more decimal digits than
    Python converts to str (sys.get_int_max_str_digits)."""


class SidesTooLarge(InputError):
    """A float that verify's sides form, e^{sigma t} alpha L_j, float(N_k) or
    float(d a_d), would leave the double range (README states the condition)."""


class ComputationError(WeilflowError):
    """A downstream computation violated its contract."""


class CrossCheckFailure(ComputationError):
    """Exact-integer and float routes disagree beyond tolerance."""


class NonIntegralInversion(ComputationError):
    """The divisor-sum recursion for a_d gave a non-integer or a negative a_d."""


class TruncationBudgetExceeded(ComputationError):
    """A Phi ladder pass would take over bumps.LADDER_CAP points or _MAX_NODES nodes."""


class InsufficientCountRange(ComputationError):
    """The test function's support needs counts beyond the computed range."""
