"""Exception types shared across the package, and the text-file reader.

The CLI maps DataError to exit code 2 (bad input) and NumericError to
exit code 3 (numerical failure).
"""


class DataError(ValueError):
    """Invalid input data: bad shapes, broken invariants, malformed files."""


class NumericError(ArithmeticError):
    """A numerical procedure failed: degenerate statistics, bracketing
    failure, violated monotonicity assumptions."""


def read_text(path) -> str:
    """Text of an input file; an unreadable or undecodable one is a
    DataError naming it."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
