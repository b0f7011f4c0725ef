"""Exception hierarchy and output number format shared by all effport modules."""


class EffportError(Exception):
    """Base class for every error raised by this package."""


class InputShapeError(EffportError):
    """Inputs have inconsistent, ragged, or otherwise unusable dimensions."""


class DomainError(EffportError):
    """A parameter or result lies outside its mathematically valid domain."""


class NearSingularError(EffportError):
    """A matrix is singular or so ill-conditioned that its inverse is meaningless."""


class BankruptcyError(EffportError):
    """An investment fraction makes total loss possible (log of a nonpositive wealth)."""


class EnumerationLimitError(EffportError):
    """An exact model computation was requested above its supported asset count."""


class ExtrapolationError(EffportError):
    """A target value falls outside the range covered by the interpolation table."""

    def __init__(self, message: str, nearest_bound: float | None = None):
        super().__init__(message)
        self.nearest_bound = nearest_bound


class ParseError(EffportError):
    """An input file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DataError(EffportError):
    """An input file parsed but its contents violate the data contract."""


def fmt_float(x: float) -> str:
    """Render a float with 10 significant digits (NaN as 'nan')."""
    return f"{float(x):.10g}"
