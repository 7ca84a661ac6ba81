"""Exception types shared across the package, and the UTF-8 check of
input files."""


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


def utf8_text(path, data: bytes) -> str:
    """``data``, whole lines of the file at ``path``, decoded as UTF-8.

    If they are not UTF-8, the file is scanned from its start and a
    DataFormatError names its first line that is not.
    """
    try:
        return data.decode()
    except UnicodeDecodeError:
        pass
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.decode()
            except UnicodeDecodeError as exc:
                raise DataFormatError(
                    f"{path}: line {lineno}: not UTF-8 text"
                ) from exc
    raise DataFormatError(f"{path}: not UTF-8 text")
