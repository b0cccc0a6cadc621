"""Exception types shared across the package."""


class VoazhuError(Exception):
    """Base class for all package-specific failures."""


class UnknownGeneratorError(VoazhuError):
    """A vector references a generator the module has no action rule for."""


class WindowOverflowError(VoazhuError):
    """A computed vector has components outside the configured weight window."""


class DepthExceededError(VoazhuError):
    """An intertwiner mode needs series terms past the configured depth."""
