"""Exception types shared across the package, the one opener of input
files, ``open_input``, the one walker of their lines, ``content_lines``,
and the one reader of their numbers, ``numeric_lines``."""

import math


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


def numeric_lines(path, lines, n_cols: int):
    """``(line number, values)`` of each ``(line number, content)`` pair of
    ``lines`` of the file at ``path``, as ``content_lines`` yields them: the
    ``float`` of each field.  A DataFormatError names the first line that is
    not ``n_cols`` comma-separated finite numbers in ASCII without "_"
    (``float`` alone reads ``1_000`` and the digits of other scripts)."""
    for lineno, content in lines:
        fields = content.count(",") + 1
        try:
            values = list(map(float, content.split(",")))
        except ValueError:
            values = None
        if fields != n_cols:
            problem = f"expected {n_cols} fields, got {fields}"
        elif values is None or not content.isascii() or "_" in content:
            problem = f"non-numeric field in {content!r}"
        elif not all(map(math.isfinite, values)):
            problem = f"non-finite number in {content!r}"
        else:
            yield lineno, values
            continue
        raise DataFormatError(f"{path}: line {lineno}: {problem}")
