"""Exception types shared across the package, the bounded repr their
messages name a refused value by, and the one rule each for integer and
typed arguments."""


class RepbasisError(Exception):
    """Base class for all package errors."""

    code = "ERROR"


class EmptySetError(RepbasisError):
    code = "EMPTY_SET"


class InputTooSmallError(RepbasisError):
    code = "INPUT_TOO_SMALL"


class InputTooLargeError(RepbasisError):
    code = "INPUT_TOO_LARGE"


class DensityUnreachableError(RepbasisError):
    code = "DENSITY_UNREACHABLE"


class PhiTooSlowError(RepbasisError):
    """The admissible-x scan exhausted the search cap without a success."""

    code = "PHI_TOO_SLOW"

    def __init__(self, message: str, *, cap: int | None = None):
        super().__init__(message)
        self.cap = cap


class PreconditionViolatedError(RepbasisError):
    """Caller handed in data that breaks a documented precondition."""

    code = "PRECONDITION_VIOLATED"

    def __init__(self, message: str, *, witness: int | None = None):
        super().__init__(message)
        self.witness = witness


class MalformedTraceError(RepbasisError):
    code = "MALFORMED_TRACE"


def echo(value) -> str:
    """repr(value), cut to 80 characters and marked with "..." when longer,
    so that a message naming a refused value of any size stays short."""
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "..."


def require_int(value, what: str, least: int | None = None, error: type[Exception] = ValueError) -> int:
    """value, when it is an int (a bool is not) and, with least given, at
    least least; otherwise error with the one message shape
    "<what> must be an integer[ >= <least>], got <echo(value)>"."""
    if isinstance(value, bool) or not isinstance(value, int) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise error(f"{what} must be an integer{bound}, got {echo(value)}")
    return value


def require_type(value, cls: type, what: str, error: type[Exception] = TypeError):
    """value, when it is an instance of cls; otherwise error with the one
    message shape "<what> must be a <cls name>, got <type name>"."""
    if not isinstance(value, cls):
        raise error(f"{what} must be a {cls.__name__}, got {type(value).__name__}")
    return value
