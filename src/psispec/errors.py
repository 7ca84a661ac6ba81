"""Exception types shared across the package, and the checks of the text
of input files: UTF-8, and numbers in ASCII."""


class PsispecError(Exception):
    """Base class for all errors raised by psispec."""


class DomainError(PsispecError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateInputError(PsispecError, ValueError):
    """Input is formally admissible but carries no usable information
    (e.g. a constant series offered for autoregressive fitting)."""


class DataFormatError(PsispecError, ValueError):
    """A data file or stream violates its expected format."""


class ResourceError(PsispecError, RuntimeError):
    """A request exceeds what this machine (or float64) can honour."""


def utf8_text(path, data: bytes, first_line: int) -> str:
    """``data``, whole lines of the file at ``path`` from its line
    ``first_line`` on, decoded as UTF-8.

    If they are not, a DataFormatError names the line that holds the first
    byte that is not.  Lines end at "\\n", "\\r\\n" or a lone "\\r", as
    ``bytes.splitlines`` splits them.
    """
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        # the data up to that byte ends on its line
        line = first_line + len(data[: exc.start + 1].splitlines()) - 1
        raise DataFormatError(f"{path}: line {line}: not UTF-8 text") from exc


def ascii_floats(text: str) -> list[float]:
    """``float`` of each comma-separated field of ``text``, a line of an
    input file, which must be ASCII and hold no "_": ``float`` alone also
    reads digit separators, as in ``1_000``, and the digits of other
    scripts, as in ``١٢``.  Raises ValueError for those, and wherever
    ``float`` would.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not ASCII decimals: {text!r}")
    return list(map(float, text.split(",")))
