"""Typed errors. Each class carries the process exit code used by the CLI."""

EXIT_OK = 0
EXIT_IO = 1
EXIT_UNSTABLE = 2
EXIT_MARGINAL = 3
EXIT_ASSUMPTIONS = 4
EXIT_RESOURCE = 5
EXIT_SOLVER = 6


class SwitchstabError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = EXIT_IO


class SchemaError(SwitchstabError, ValueError):
    """Problem document violates the input schema.

    ``pointer`` is a JSON pointer to the offending field, e.g. ``/markov/P/0``.
    It is also a ``ValueError``: the model constructors raise it when their
    arguments break a schema rule.
    """

    exit_code = EXIT_IO

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.message = message
        self.pointer = pointer


class DimensionCapError(SwitchstabError):
    """A lifted matrix would exceed the configured entry cap."""

    exit_code = EXIT_RESOURCE

    def __init__(self, requested: int, cap: int, context: str = ""):
        where = f" in {context}" if context else ""
        super().__init__(
            f"requested matrix with {requested} entries{where} exceeds the "
            f"cap of {cap} (override with SWITCHSTAB_MAX_LIFT_ENTRIES)"
        )
        self.requested = requested
        self.cap = cap


class AssumptionError(SwitchstabError):
    """The hypotheses licensing a computation do not hold for this input."""

    exit_code = EXIT_ASSUMPTIONS


class SolverFailureError(SwitchstabError):
    """A dense solver failed or missed the accuracy its result promises."""

    exit_code = EXIT_SOLVER


class InstabilityError(SwitchstabError):
    """Certificate synthesis was requested for a system that is not stable."""

    exit_code = EXIT_UNSTABLE
