"""Exception types shared across the package.

Every error raised on a documented contract boundary derives from
MetavitError so callers (and the CLI) can map failures to exit codes
without string matching.
"""


class MetavitError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(MetavitError, ValueError):
    """Operand shapes are incompatible for the requested kernel."""


class ConfigError(MetavitError, ValueError):
    """A block, attention, or variant configuration is invalid."""


class InputError(MetavitError, ValueError):
    """A model input violates a precondition (e.g. indivisible extent)."""


class ContractError(MetavitError, RuntimeError):
    """An API contract was violated.

    For example a non-scalar loss, a second backward from one loss, or
    attention maps asked of a model with no stride-8 dual block.
    """


class FormatError(MetavitError, ValueError):
    """A serialized file is malformed. Carries the byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class UsageError(MetavitError, ValueError):
    """Bad command-line or harness usage (unknown flag, iters too small)."""


class TrainingDiverged(MetavitError, RuntimeError):
    """Loss became non-finite during training."""
