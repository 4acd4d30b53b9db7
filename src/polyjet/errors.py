"""Exception types shared across the package, and how their messages echo a name."""


def _named(name: str) -> str:
    """A manifest key or variable name as an error echoes it: in full up to
    80 characters, else by its first 20 and its length."""
    return name if len(name) <= 80 else f"{name[:20]}... ({len(name)} characters)"


class PolyjetError(Exception):
    """Base class for every error raised by polyjet."""


class ExprSyntaxError(PolyjetError):
    """Malformed expression source text.

    Carries the character offset at which parsing failed.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownIdentifier(PolyjetError):
    """An identifier that is neither an allowed variable nor a known function."""

    def __init__(self, name, position=None):
        where = "" if position is None else f" (at offset {position})"
        super().__init__(f"unknown identifier {_named(name)!r}{where}")
        self.name = name
        self.position = position


class UnboundVariable(PolyjetError):
    """Evaluation hit a variable missing from the assignment."""

    def __init__(self, name):
        super().__init__(f"no value bound for variable {name!r}")
        self.name = name


class DomainError(PolyjetError):
    """Evaluation or folding left the real domain (ln of non-positive,
    sqrt of negative, division by zero)."""


class SingularJacobian(PolyjetError):
    """A chart-change Jacobian fell below the invertibility threshold."""


class SingularMetric(PolyjetError):
    """A metric (or candidate metric) is numerically singular at a point."""


class NotRegular(PolyjetError):
    """A Hamilton space was built on a hamiltonian that failed the
    regularity check; the failed result is ``result``, its reason the
    message."""

    def __init__(self, result):
        super().__init__(result.reason)
        self.result = result


class ConfigError(PolyjetError):
    """Invalid or incomplete manifest / configuration input."""
