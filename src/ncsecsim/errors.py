"""Exception types shared across the package."""


class NcSecError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(NcSecError):
    """Invalid run configuration; message names the offending field."""


class InvalidParameter(NcSecError):
    """Analytic parameter outside its valid range."""


class DimensionMismatch(NcSecError):
    """Vector/matrix operands with incompatible shapes or field specs."""


class InversionOfZero(NcSecError):
    """Multiplicative inverse of zero requested."""


class GenerationMismatch(NcSecError):
    """Packets from different generations combined."""


class EmptyInput(NcSecError):
    """An operation that needs at least one packet got none."""


class PollutionDetectedAtDecode(NcSecError):
    """Inconsistent linear system at the decoder (polluted inputs)."""


class UnknownController(NcSecError):
    """Ledger access from a controller that was never registered."""


class ClockError(NcSecError):
    """Simulation time moved backwards."""


class TagSetUnavailable(NcSecError):
    """No ledgered tag set covers the packet; verification impossible."""


class NoOpHandover(NcSecError):
    """Handover requested with target equal to the serving cell."""


class HoPreparationTimeout(NcSecError):
    """Key sharing did not finish within the preparation timeout."""


class IoError(NcSecError):
    """Output artifacts could not be written."""
