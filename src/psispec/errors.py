"""Exception types shared across the package, the one opener of input
files, ``open_input``, the one walker of their lines, ``content_lines``,
and ``ascii_floats`` for their numbers."""


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


def open_input(path, kind: str):
    """The input file at ``path``, opened for reading in universal-newline
    text mode, so that lines end at "\\n", "\\r\\n" or a lone "\\r" and
    are read with "\\n" ends, after any leading UTF-8 byte-order mark
    ("utf-8-sig").  A byte that is not UTF-8 is decoded to a lone
    surrogate, which encodes back to itself ("surrogateescape"), for
    ``content_lines`` to name its line.  A missing file raises a
    DataFormatError, "``kind`` not found: ``path``".
    """
    try:
        return open(path, encoding="utf-8-sig", errors="surrogateescape", newline=None)
    except FileNotFoundError as exc:
        raise DataFormatError(f"{kind} not found: {path}") from exc


def content_lines(path, data: bytes, first_line: int):
    """``(line number, content)`` of each line of ``data``, whole lines of
    the file at ``path`` from its line ``first_line`` on: the text before a
    ``#`` comment, stripped, where that is not empty.  If ``data`` is not
    UTF-8, a DataFormatError names the line of its first byte that is not.
    Lines end at "\\n" only, as a file read in universal-newline text mode
    ends them: ``str.splitlines`` also ends them at "\\f", "\\x85",
    "\\u2028" and others, which would misnumber them.
    """
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        # the data up to that byte ends on its line
        line = first_line + len(data[: exc.start + 1].splitlines()) - 1
        raise DataFormatError(f"{path}: line {line}: not UTF-8 text") from exc
    for lineno, line in enumerate(text.split("\n"), first_line):
        content = line.partition("#")[0].strip()
        if content:
            yield lineno, content


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
