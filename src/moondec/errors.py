"""Exception hierarchy.

Every exception carries a stable machine-readable ``category`` string; the
CLI prints ``error: <category>: <message>`` and exits with status 2, so
scripts can dispatch on the category without parsing prose.
"""


class MoondecError(Exception):
    """Base class for all errors raised by this package."""

    category = "error"


class InvalidInputError(MoondecError):
    category = "invalid-input"


# -- polynomial arithmetic ------------------------------------------------

class ZeroDivisionPolyError(MoondecError):
    category = "division-by-zero-polynomial"


class ZeroPolyError(MoondecError):
    category = "zero-input"


class BothZeroError(MoondecError):
    category = "both-inputs-zero"


# -- rational functions ----------------------------------------------------

class ZeroDenominatorError(MoondecError):
    category = "zero-denominator"


class ConstantInnerError(MoondecError):
    category = "constant-inner-function"


class NotNormalFormError(MoondecError):
    category = "not-normal-form"


class DegreeMismatchError(MoondecError):
    category = "degree-mismatch"


class RatFunSyntaxError(MoondecError):
    """Grammar violation; ``position`` is a 0-based offset into the input."""

    category = "syntax-error"

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- series ----------------------------------------------------------------

class SeriesZeroDivisionError(MoondecError):
    category = "division-by-zero-series"


class EmptyPrecisionError(MoondecError):
    category = "empty-precision-result"


class PrecisionExhaustedError(MoondecError):
    category = "precision-exhausted"


class LeadingMismatchError(MoondecError):
    category = "leading-mismatch"


class NoRationalSolutionError(MoondecError):
    category = "no-rational-solution"


class ZeroSeriesError(MoondecError):
    category = "zero-series"


class NonMonicPrincipalPartError(MoondecError):
    category = "non-monic-principal-part"


# -- linear algebra / relation search ---------------------------------------

class UnderdeterminedSystemError(MoondecError):
    category = "underdetermined-system"


class InsufficientPrecisionError(MoondecError):
    category = "insufficient-precision"


class NonPositiveAreaError(MoondecError):
    category = "nonpositive-area"


# -- catalogs & graphs -------------------------------------------------------

class CatalogParseError(MoondecError):
    """Malformed catalog/graph document; carries the 1-based line number."""

    category = "parse-error"

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateNameError(MoondecError):
    category = "duplicate-name"


class UnknownNodeError(MoondecError):
    category = "unknown-node"


class IdenticalPowersError(MoondecError):
    category = "identical-k"


class VerificationFailureError(MoondecError):
    category = "verification-failure"
