"""Exception types shared across the package, the bounded repr their
messages name a refused value by, and the one rule each for integer and
typed arguments."""

import math
import sys


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


def _digits_past_limit(n: int) -> int:
    """0 when str(n) is within the interpreter's limit on int-to-str
    conversion (0: none; absent before Python 3.11); otherwise the most
    digits n can have, as a b-bit integer has at most b*log10(2) + 1."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = int(n.bit_length() * math.log10(2)) + 1
    return digits if limit and digits > limit and abs(n) >= 10**limit else 0


def _int_text(n: int) -> str:
    """str(n), or "<integer of up to N digits>" (signed when n < 0) when
    the interpreter's limit refuses str(n)."""
    digits = _digits_past_limit(n)
    return f"{'-' if n < 0 else ''}<integer of up to {digits} digits>" if digits else str(n)


def _refuse_past_limit(n: int, what: str, error: type[Exception] = ValueError) -> None:
    """Refuse n, which a message or a file must write in full, when the
    interpreter's limit on int-to-str digits refuses str(n), with the one
    message shape "<what> has up to N digits, past the limit of L"."""
    if digits := _digits_past_limit(n):
        raise error(f"{what} has up to {digits} digits, past the limit of {sys.get_int_max_str_digits()}")


def echo(value) -> str:
    """repr(value), cut to 80 characters and marked with "..." when longer,
    so that a message naming a refused value of any size stays short.  When
    the interpreter's limit on int-to-str digits refuses the repr, an int is
    named by _int_text and any other value as holding such an int."""
    try:
        text = repr(value)
    except ValueError:
        text = _int_text(value) if type(value) is int else f"<{type(value).__name__} holding an integer too long to print>"
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
