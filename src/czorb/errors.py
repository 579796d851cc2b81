"""Exception hierarchy shared by all czorb modules, the input rules that
every entry point checks with (is_int, check_int, as_tuple, check_ints,
to_float) and the oracles' work budget (DEFAULT_EVAL_BUDGET, check_budget).

Each class maps to one CLI exit code and one error-record type (exit_code,
error_type), so library errors translate to both without string matching.
"""


DEFAULT_EVAL_BUDGET = 10**6


class CzorbError(Exception):
    """Base class for all czorb errors."""

    exit_code = 2
    error_type = "domain"


class DomainError(CzorbError, ValueError):
    """Input violates a precondition (non-positive weight, empty list, ...)."""


class NonCoprimeError(DomainError):
    """Weight vector entries share a common factor; carries the gcd and the weights."""

    error_type = "non-coprime"

    def __init__(self, gcd: int, weights):
        self.gcd = gcd
        self.weights = tuple(weights)
        super().__init__(f"weights in {self.weights} share a common factor: gcd={gcd}")


class UncoveredCaseError(CzorbError):
    """The requested computation falls outside the covered formula branches.

    Raised instead of extrapolating; pass allow_extrapolation=True where an
    operation supports a labeled extrapolation.
    """

    exit_code = 3
    error_type = "uncovered-case"


class ConvergenceError(CzorbError):
    """A numeric routine failed to reach the requested resolution."""

    exit_code = 4
    error_type = "convergence"

    def __init__(self, message: str, achieved_error: float):
        self.achieved_error = achieved_error
        super().__init__(message)


def is_int(x) -> bool:
    """An integer input is an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_int(what: str, x) -> int:
    """x, or DomainError unless it is an integer (see is_int)."""
    if not is_int(x):
        raise DomainError(f"{what} must be an integer, got {x!r}")
    return x


def as_tuple(what: str, values) -> tuple:
    """The entries of `values` as a tuple, or DomainError when `values` is
    not iterable."""
    try:
        iter(values)
    except TypeError:
        raise DomainError(f"{what} must be a list of integers, not {type(values).__name__}") from None
    return tuple(values)


def check_ints(what: str, values, minimum: int | None = None) -> tuple[int, ...]:
    """The entries of `values` as a tuple (see as_tuple), each an integer
    (see is_int) and, when `minimum` is given, at least `minimum`; a refusal
    names the first bad entry."""
    values = as_tuple(what, values)
    # A long tuple of exact ints at or above the minimum passes in two C-level
    # passes, about 40% faster at 2000 entries; on short input they cost more
    # than the walk. Anything else, an int subclass or a bad entry, is walked.
    if len(values) > 16 and set(map(type, values)) == {int} and (minimum is None or min(values) >= minimum):
        return values
    for x in values:
        # is_int, written out: a function call per entry would cost more than the test.
        if not isinstance(x, int) or isinstance(x, bool):
            raise DomainError(f"{what} must be integers, got {x!r}")
        if minimum is not None and x < minimum:
            bound = "positive" if minimum == 1 else f">= {minimum}"
            raise DomainError(f"{what} must be {bound}, got {x}")
    return values


def to_float(what: str, x) -> float:
    """float(x) for an integer (see is_int) or a float; DomainError for any
    other value and for an integer outside the float range."""
    if not (isinstance(x, float) or is_int(x)):
        raise DomainError(f"{what} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"{what} of {x.bit_length()} bits is outside the float range") from None


def check_budget(needed: int, budget, work: str) -> None:
    """DomainError unless `budget` is an integer (see check_int) of at least
    `needed`; the refusal reads `work` and "than the evaluation budget"."""
    if needed > check_int("evaluation budget", budget):
        raise DomainError(f"{work} than the evaluation budget {budget}")
