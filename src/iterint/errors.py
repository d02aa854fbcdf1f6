"""Exception types shared across the package."""


class IterintError(Exception):
    """Base class for all library errors."""


class ConfigError(IterintError):
    """Invalid surface, basis, path or job configuration."""


class MissingLabelError(IterintError):
    """A word was asked of a regularized transport that did not transport it."""


class PoleProximityError(IterintError):
    """An evaluation point came within the pole guard of a puncture."""


class EndpointMismatchError(IterintError):
    """Path segments do not chain, or a regularized endpoint is off its puncture."""


class ToleranceError(IterintError):
    """Adaptive refinement exhausted its subdivision budget above tolerance."""


class NotGoodPunctureError(IterintError):
    """The puncture does not carry exactly one simple-pole basis form of residue 1."""


class DecompositionUnavailableError(IterintError):
    """No structure-constant decomposition exists for the requested form pair."""


class FitError(IterintError):
    """Asymptotic coefficient fit failed to meet its residual tolerance."""


class VariationUnsupportedError(IterintError):
    """Variational formula requested outside its supported index range."""


class ConventionError(IterintError):
    """A quantity that must be independent of a probe choice failed to be."""
