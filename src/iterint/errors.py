"""Exception types shared across the package, in two families that alone
decide the command-line exit status: :class:`ConfigError` (an invalid
request, exit 2) and :class:`NumericalError` (exit 1)."""

from numbers import Integral


class IterintError(Exception):
    """Base class for all library errors."""


class ConfigError(IterintError):
    """Invalid surface, basis, path or job configuration."""


class NumericalError(IterintError):
    """A computation ran but could not meet its tolerance or guard."""


class MissingLabelError(ConfigError):
    """A word was asked of a regularized transport that did not transport it."""


class EndpointMismatchError(ConfigError):
    """Path segments do not chain, or a regularized endpoint is off its puncture."""


class NotGoodPunctureError(ConfigError):
    """The puncture does not carry exactly one simple-pole basis form of residue 1."""


class DecompositionUnavailableError(ConfigError):
    """No structure-constant decomposition exists for the requested form pair."""


class VariationUnsupportedError(ConfigError):
    """Variational formula requested outside its supported index range."""


class PoleProximityError(NumericalError):
    """An evaluation point came within the pole guard of a puncture."""


class ToleranceError(NumericalError):
    """Adaptive refinement exhausted its subdivision budget above tolerance."""


class FitError(NumericalError):
    """Asymptotic coefficient fit failed to meet its residual tolerance."""


class ConventionError(NumericalError):
    """A quantity that must be independent of a probe choice failed to be."""


def _int_field(value, name: str) -> int:
    """A Python or numpy integer as an int; anything else is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)
