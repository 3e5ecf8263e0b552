"""Exception types and sentinels shared across the package."""


class ShapeMismatch(ValueError):
    """Operands have incompatible dimensions."""


class RankDeficient(ValueError):
    """A matrix that must have full column rank does not."""


class ZeroLeverage(ValueError):
    """A leverage score needed as a divisor is numerically zero."""


class DomainError(ValueError):
    """A scalar argument lies outside the operation's domain."""


class DegenerateModel(ValueError):
    """A model's Gram matrix is numerically singular."""


class ConstraintViolation(ValueError):
    """A query violates its energy or box constraint."""


class IndistinguishableError(ValueError):
    """The two hypotheses coincide at the chosen query; no test separates them."""


class BudgetExceeded(RuntimeError):
    """The sample-size search exceeded its configured cap."""


class InputFormatError(ValueError):
    """A model-spec file is malformed; the message carries a location diagnostic."""


class _Indistinguishable:
    """Marker returned by lower-bound quantities when the parameter gap is zero.

    Deliberately not a float: arithmetic on it fails loudly instead of
    silently propagating an infinity.
    """

    __slots__ = ()

    def __repr__(self):
        return "INDISTINGUISHABLE"


INDISTINGUISHABLE = _Indistinguishable()
