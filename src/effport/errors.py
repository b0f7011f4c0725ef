"""Exception hierarchy, the text reader and the table writer shared by all effport modules."""

from contextlib import contextmanager


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


def check_int(value, what: str) -> None:
    """Refuse a ``value`` that is not an int (a bool included), naming it as ``what``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{what} must be an int, got {value!r}")


@contextmanager
def open_text(source):
    """A path opened as UTF-8 text for the block, or an open text file as it is. Text
    that is not UTF-8 raises ParseError naming the bytes at fault, and for a path the
    first line at fault."""
    if hasattr(source, "read"):
        try:
            yield source
        except UnicodeDecodeError as exc:
            raise ParseError(f"bytes {_bad_bytes(exc)} are not UTF-8") from None
        return
    with open(source, "r", encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise _not_utf8(source) from None


def _bad_bytes(exc: UnicodeDecodeError) -> str:
    return " ".join(f"0x{b:02x}" for b in exc.object[exc.start:exc.end])


def _not_utf8(path) -> ParseError:
    with open(path, "rb") as fh:
        for line, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(f"bytes {_bad_bytes(exc)} are not UTF-8", line=line)
    return ParseError("file is not UTF-8")


#: The conversion of each column kind of a written table: floats get 10
#: significant digits (NaN as 'nan', infinities as 'inf' and '-inf').
_CONVERSIONS = {str: "%s", int: "%d", float: "%.10g"}


def fmt_float(x: float) -> str:
    """Render one float as :func:`write_table` renders a float column."""
    return _CONVERSIONS[float] % float(x)


def write_table(dest, header, kinds, rows, delimiter: str = "\t") -> None:
    """Write ``header`` and then each tuple of ``rows``, converted by the column
    ``kinds`` (``str``, ``int`` or ``float``) through one template per table, to
    a path or an open text file ``dest``, one line each.

    A header field that holds the delimiter, a quote or a line break would not
    read back as one field, so it raises DataError before ``dest`` is opened.
    """
    for name in header:
        bad = [c for c in (delimiter, '"', "\r", "\n") if c in name]
        if bad:
            raise DataError(f"header field {name!r} holds {bad[0]!r}, so it would not read back")
    template = delimiter.join([_CONVERSIONS[kind] for kind in kinds]) + "\n"
    fh = dest if hasattr(dest, "write") else open(dest, "w", newline="\n")
    try:
        fh.write(delimiter.join(header) + "\n")
        fh.writelines(template % row for row in rows)
    finally:
        if fh is not dest:
            fh.close()
