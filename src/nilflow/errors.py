"""Exception types shared across the toolkit."""


class NilflowError(Exception):
    """Base class for all toolkit-specific failures."""


class DimensionMismatch(NilflowError, ValueError):
    pass


class FormatError(NilflowError, ValueError):
    """Malformed definition or serialization file; the message starts with
    the line number when it is known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class NonzeroAverage(NilflowError):
    """Raised when a solve requires zero average but the input carries a constant
    obstruction; the message gives the obstruction."""


class Resonance(NilflowError):
    """An exactly vanishing divisor on the support of the input; the message
    names the mode."""


class NonInvertible(NilflowError):
    """Coordinate change too large for the contraction check."""


class NoConvergence(NilflowError):
    """Newton iteration stalled or diverged; the last state is attached."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class EmptyCorpus(NilflowError, ValueError):
    pass


class ThresholdExceeded(NilflowError):
    pass


class UnrepresentableProduct(NilflowError):
    """Pointwise product outside the real coefficient frame: representation
    components would need synthesis, which the model deliberately does not
    provide, and the grid layer multiplies real toral factors only."""


class UnsupportedPerturbation(NilflowError):
    """Rigidity step given a perturbation whose slots carry representation
    rows or complex toral coefficients: the products in its bracket stay in
    the coefficient frame only for real toral coefficients."""


class ConfigError(NilflowError):
    pass


class MissingKey(ConfigError):
    pass


class UnknownKey(ConfigError):
    pass


class ConfigTypeError(ConfigError, TypeError):
    """Value of a config key has the wrong type; message carries the line number."""
