"""Command-line pipeline: sample, spectrum, fit, reconstruct, analytic.

All commands write CSV (with ``#`` metadata comments) or JSON to ``--out``
(default standard output) at 17 significant digits, so identical
configurations produce byte-identical files.  CSV rows are formatted in
bulk by numpy (``_kernels.format_rows``), ``_CHUNK_ROWS`` at a time, with
the bytes of ``format(v, ".17g")`` for every value.

Re-ingested tables (``--input``, ``--spectrum-csv``) are read in chunks of
about ``_CHUNK_BYTES`` of whole lines, which end at "\\n", "\\r\\n" or a
lone "\\r".  A chunk of canonical rows, fields ``-?[0-9]+(.[0-9]+)?`` with
nothing else on the line, as every command writes them, is checked and
converted by ``_kernels.parse_rows`` with exact integer arithmetic, bit
for bit what ``float`` gives; only the columns the command uses are
converted.  Any other chunk (comments, blank lines, CRLF, exponents,
``nan``) falls back to ``np.loadtxt``.  Every number must be finite.  The
reader opens the file once and numbers its lines as it reads them, so a
bad row, or a line that is not UTF-8, is named by its line in the file
from its own chunk.

Exit codes: 0 success; 2 usage or domain error; 3 data-format error;
4 I/O error.
"""

import contextlib
import functools
import io
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from ._kernels import format_rows, parse_rows
from .errors import (
    DataFormatError,
    DegenerateInputError,
    DomainError,
    ResourceError,
    utf8_text,
)
from .powerlaw import DEFAULT_BAND, fit_power_law
from .prime_series import fluctuation_at, grid_segments, smooth_part
from .spectral import BlockSeries, PowerSpectrum, ar_psd, burg_fit, welch_psd
from .zeta import analytic_spectrum, bundled_zeros_path, load_zeros, psi_fluc_from_zeros


@dataclass
class RunConfig:
    """Parsed invocation of one subcommand."""

    n_samples: int = 0
    x_start: int = 2
    method: str = "mem"
    mem_order: int = 1
    welch_segment: int | None = None
    band: tuple[float, float] = DEFAULT_BAND
    n_freq: int = 512
    f_lo: float = 1e-4
    zeros_path: Path | None = None
    n_zeros: int | None = None
    output_path: str = "-"
    seed: int = 0
    synthetic: str | None = None
    ar_coeff: float = 0.9
    input_csv: Path | None = None
    spectrum_csv: Path | None = None


#: Bytes per chunk of lines that ``_read_rows`` parses at a time.
_CHUNK_BYTES = 1 << 20

#: Rows per block of ``_sample_blocks`` and per write of ``_write_table``.
#: ``sample --n 1e6`` took the same time at 2048 to 8192 rows and 1.6 times
#: as long at 16 384, where each of the formatter's temporaries passes
#: 0.5 MB and comes back from malloc as fresh, page-faulting memory.
_CHUNK_ROWS = 4096


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


@contextlib.contextmanager
def _open_output(output_path: str):
    """Text handle for ``--out``: standard output for ``-``, else a file
    that appears at ``output_path`` only once everything is written.

    A file is written next to its destination under a temporary name and
    renamed into place, so a failed run leaves any earlier file untouched
    and no partial one.  Existing targets that are not regular files, such
    as ``/dev/null`` or a pipe, are written in place.
    """
    if output_path == "-":
        yield sys.stdout
        return
    target = os.path.realpath(output_path)
    if os.path.exists(target) and not os.path.isfile(target):
        tmp = None
    else:
        directory, name = os.path.split(target)
        tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp or target, "w") as fh:
            yield fh
        if tmp is not None:
            os.replace(tmp, target)
    except OSError as exc:
        raise OSError(f"cannot write {output_path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


def _emit(output_path: str, text: str) -> None:
    with _open_output(output_path) as fh:
        fh.write(text)


def _write_table(output_path: str, head_lines: list[str], blocks) -> None:
    """Write ``head_lines``, then for each item of ``blocks``, a list of
    equal-length columns, one CSV row per index, every value at 17
    significant digits (``format(v, ".17g")``), ``_CHUNK_ROWS`` rows per
    write."""
    with _open_output(output_path) as fh:
        fh.write("\n".join(head_lines) + "\n")
        for columns in blocks:
            for lo in range(0, len(columns[0]), _CHUNK_ROWS):
                fh.write(format_rows([c[lo : lo + _CHUNK_ROWS] for c in columns]))


def _parse_band(_ctx, _param, value: str) -> tuple[float, float]:
    parts = value.split(":")
    if len(parts) != 2:
        raise click.UsageError(f"--band expects 'f_min:f_max', got {value!r}")
    try:
        f_min, f_max = float(parts[0]), float(parts[1])
    except ValueError:
        raise click.UsageError(f"--band expects two decimals, got {value!r}")
    if not (math.isfinite(f_min) and math.isfinite(f_max)):
        raise click.UsageError(f"--band expects finite decimals, got {value!r}")
    return f_min, f_max


def _translate_errors(fn):
    """Map library exceptions onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (DomainError, DegenerateInputError, ResourceError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(2)
        except DataFormatError as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(3)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(4)

    return wrapper


# ---------------------------------------------------------------------------
# Input hooks (round-trip re-ingestion of emitted CSV)
# ---------------------------------------------------------------------------


def _read_rows(path, expected_header: str, usecols):
    """Columns ``usecols`` of the data rows of a CSV table, as lists of
    float64 arrays, one list per chunk of about ``_CHUNK_BYTES`` of lines.

    ``#`` starts a comment that runs to the end of its line, so comments
    may appear anywhere, including after the numbers of a row; blank lines
    are skipped.  The first line with content must equal
    ``expected_header``, and every later one must hold as many
    comma-separated finite numbers.  A chunk of canonical rows, such as
    every command writes, is checked and converted by
    ``_kernels.parse_rows``; any other chunk is parsed by ``np.loadtxt``
    (``_parse_chunk``).  Lines end at "\\n", "\\r\\n" or a lone "\\r", as
    ``bytes.splitlines`` splits them, and are numbered as they are read,
    so that a malformed or non-finite row, or a line that is not UTF-8,
    is named by its line in the file from the text of its own chunk.
    """
    n_cols = len(expected_header.split(","))
    try:
        fh = open(path, "rb")
    except FileNotFoundError as exc:
        raise DataFormatError(f"input file not found: {path}") from exc
    rows = 0
    with fh:
        line, rest, carry = _skip_header(path, fh, expected_header)
        for chunk in itertools.chain([rest], _chunks(fh, carry)):
            columns = parse_rows(chunk, n_cols, usecols)
            if columns is None:
                table = _parse_chunk(path, chunk, n_cols, line)
                columns = [table[:, c].copy() for c in usecols]
                line += len(chunk.splitlines())
            else:
                line += columns[0].size  # one canonical row per line
            if columns[0].size:
                rows += columns[0].size
                yield columns
    if not rows:
        raise DataFormatError(f"{path}: no data rows")


def _skip_header(path, fh, expected_header: str) -> tuple[int, bytes, bytes]:
    """Read binary ``fh`` by ``_read_lines`` up to and including the
    header line, the first with more than blanks and a comment, and check
    it; return the number of the next line, the whole lines read past the
    header and the bytes read past those.  A file with "\\n" line ends is
    read one line at a time, and both are empty."""
    lineno = 0
    carry = b""
    while True:
        chunk, carry = _read_lines(fh, 0, carry)
        if not chunk:
            raise DataFormatError(f"{path}: no data rows")
        end = 0
        for line in chunk.splitlines(keepends=True):
            lineno += 1
            end += len(line)
            header = utf8_text(path, line, lineno).split("#", 1)[0].strip()
            if not header:
                continue
            if header != expected_header:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected header "
                    f"{expected_header!r}, got {header!r}"
                )
            return lineno + 1, chunk[end:], carry


def _read_lines(fh, size: int, carry: bytes) -> tuple[bytes, bytes]:
    """``(lines, carry)``: ``carry`` and ``size`` more bytes of binary
    ``fh``, cut or extended to end at a line end, and the bytes read past
    that end.  The lines are empty only at the end of the file.

    If a "\\r" follows the last "\\n" read, as in a file with lone "\\r"
    line ends, the lines end at the last such "\\r", but not at the last
    byte read, whose "\\n" may be unread.  Otherwise they run on to the
    next "\\n", which ``fh.readline`` reads, ``_CHUNK_BYTES`` at a time.
    """
    lines = carry + fh.read(size)
    while True:
        end = lines.rfind(b"\r", lines.rfind(b"\n") + 1, -1) + 1
        if end:
            return lines[:end], lines[end:]
        tail = fh.readline(_CHUNK_BYTES)
        lines += tail
        if tail.endswith(b"\n") or len(tail) < _CHUNK_BYTES:
            return lines, b""


def _chunks(fh, carry: bytes):
    """``carry``, then the rest of binary ``fh``, as chunks of whole lines
    of about ``_CHUNK_BYTES`` each, every one ending in a newline."""
    while True:
        chunk, carry = _read_lines(fh, _CHUNK_BYTES, carry)
        if not chunk:
            return
        yield chunk if chunk.endswith(b"\n") else chunk + b"\n"


def _parse_chunk(path, chunk: bytes, n_cols: int, first_line: int) -> np.ndarray:
    """Rows of ``chunk``, whose first line is line ``first_line`` of the
    file at ``path``, as a (rows, ``n_cols``) array, by ``np.loadtxt``.
    Only if that fails are the chunk's lines numbered, to retry or to name
    the first bad one."""
    text = io.StringIO(utf8_text(path, chunk, first_line), newline=None)
    table, reason = _parse_rows(text, n_cols)
    if table is not None:
        return table
    text.seek(0)
    lines = [
        (lineno, line)
        for lineno, line in enumerate(text, first_line)
        if line.split("#", 1)[0].strip()
    ]
    # loadtxt skips a line only if nothing precedes its comment, so retry
    # without lines of blanks and indented comments
    table, reason = _parse_rows((line for _, line in lines), n_cols)
    if table is None:
        _raise_bad_row(path, lines, n_cols, reason)
    return table


def _parse_rows(lines, n_cols: int):
    """``(table, None)`` if ``lines`` hold rows of ``n_cols`` finite
    numbers, or none, else ``(None, reason)``."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning
            )
            table = np.loadtxt(lines, delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        return None, str(exc)
    if not table.shape[0]:
        return np.empty((0, n_cols)), None
    if table.shape[1] != n_cols:
        return None, f"expected rows of {n_cols} numbers"
    if not np.isfinite(table).all():
        return None, "non-finite number"
    return table, None


def _raise_bad_row(path, lines, n_cols: int, reason: str):
    """Raise the DataFormatError that names the first bad line among
    ``lines``, the ``(line number, line)`` pairs with content of a chunk
    that ``_parse_rows`` refused.

    Each line is checked for its field count, then by ``float``, then for
    finite numbers.  ``reason``, loadtxt's message, is the last resort,
    for a number that ``float`` reads and loadtxt does not, such as
    ``1_000``.
    """
    for lineno, line in lines:
        content = line.split("#", 1)[0].strip()
        parts = content.split(",")
        if len(parts) != n_cols:
            raise DataFormatError(
                f"{path}: line {lineno}: expected {n_cols} fields, got {len(parts)}"
            )
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise DataFormatError(
                f"{path}: line {lineno}: non-numeric field in {content!r}"
            ) from exc
        if not all(map(math.isfinite, values)):
            raise DataFormatError(
                f"{path}: line {lineno}: non-finite number in {content!r}"
            )
    raise DataFormatError(f"{path}: {reason}")


def read_sample_csv(path) -> BlockSeries:
    """Re-ingest a ``sample`` CSV's fluctuation column as a BlockSeries of
    one block, which the estimators may overwrite (round-trip hook for
    ``spectrum --input``).  The ``x`` column must hold consecutive
    integers; of ``psi`` and ``smooth`` only the syntax is checked."""
    flucs = []
    first = last = None
    consecutive = True
    for x, fluc in _read_rows(path, "x,psi,smooth,fluc", (0, 3)):
        if first is None:
            first = x[0]
            consecutive = first == round(first)
        else:
            consecutive &= x[0] - last == 1.0
        consecutive &= bool(np.all(np.diff(x) == 1.0))
        last = x[-1]
        flucs.append(fluc)
    if not consecutive:
        raise DataFormatError(
            f"{path}: x column must be consecutive integers with step 1"
        )
    values = np.concatenate(flucs)
    return BlockSeries(blocks=[values], n=values.size)


def read_spectrum_csv(path) -> PowerSpectrum:
    """Re-ingest a ``spectrum`` CSV (test hook for ``fit``)."""
    chunks = list(_read_rows(path, "f,P", (0, 1)))
    freqs, power = (np.concatenate(column) for column in zip(*chunks))
    if np.any(np.diff(freqs) <= 0):
        raise DataFormatError(f"{path}: frequencies must be strictly ascending")
    return PowerSpectrum(
        freqs=freqs,
        power=power,
        nyquist=float(freqs[-1]),
        estimator={"method": "file", "path": str(path)},
    )


# ---------------------------------------------------------------------------
# Pipeline pieces shared by spectrum/fit
# ---------------------------------------------------------------------------


def _synthetic_series(kind: str, n: int, seed: int | None, ar_coeff: float):
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n)
    if kind == "white":
        return eps
    if kind == "ar1":
        steps = itertools.accumulate(
            eps.tolist(), lambda prev, e: ar_coeff * prev + e, initial=0.0
        )
        signal = np.fromiter(steps, np.float64, count=n + 1)[1:]
        if not np.all(np.isfinite(signal)):
            raise DomainError(
                f"ar1 signal with coefficient {ar_coeff} is not finite "
                f"over {n} samples"
            )
        return signal
    raise DomainError(f"unknown synthetic signal {kind!r} (use white or ar1)")


def _pipeline_series(config: RunConfig) -> BlockSeries:
    """The series the estimators run on, before its mean is removed: the
    fluctuation as blocks straight from the sieve, or one block read from
    ``--input`` or generated by ``--synthetic``.  The estimators shift
    every block in place, so each source hands them blocks of its own and
    none is copied."""
    if config.input_csv is not None:
        return read_sample_csv(config.input_csv)
    if config.n_samples < 2:
        raise DomainError(
            f"spectral estimation needs at least 2 samples, got {config.n_samples}"
        )
    if config.synthetic is not None:
        signal = _synthetic_series(
            config.synthetic, config.n_samples, config.seed, config.ar_coeff
        )
        return BlockSeries(blocks=[signal], n=signal.size)
    segments = grid_segments(config.n_samples, x_start=config.x_start)
    return BlockSeries(
        blocks=(fluc for _, _, fluc in segments), n=config.n_samples
    )


def _estimate_spectrum(config: RunConfig, series) -> PowerSpectrum:
    if config.method == "mem":
        model = burg_fit(series, order=config.mem_order)
        return ar_psd(model, n_freq=config.n_freq, f_min=config.f_lo)
    if config.method == "welch":
        return welch_psd(series, segment_len=config.welch_segment)
    raise DomainError(f"unknown method {config.method!r} (use mem or welch)")


def _spectrum_head(config: RunConfig, spectrum: PowerSpectrum) -> list[str]:
    lines = ["# psispec spectrum"]
    for key, value in spectrum.estimator.items():
        lines.append(f"# {key}={value}")
    if config.synthetic is not None:
        lines.append(f"# synthetic={config.synthetic} seed={config.seed}")
    elif config.input_csv is None:
        lines.append(f"# x_start={config.x_start}")
    lines.append("f,P")
    return lines


# ---------------------------------------------------------------------------
# Command bodies (click-independent, testable directly)
# ---------------------------------------------------------------------------


def cmd_sample(config: RunConfig) -> None:
    if config.n_samples < 1:
        raise DomainError(f"need at least one sample, got {config.n_samples}")
    if config.x_start < 2:
        raise DomainError("smooth part is undefined at x = 1; start at x >= 2")
    segments = grid_segments(config.n_samples, config.x_start, fluctuation=False)
    head = [
        "# psispec sample",
        f"# n={config.n_samples} x_start={config.x_start} dx=1",
        "x,psi,smooth,fluc",
    ]
    _write_table(config.output_path, head, _sample_blocks(segments))


def _sample_blocks(segments):
    """``[x, psi, smooth, fluc]`` for every ``_CHUNK_ROWS`` points of the
    psi segments, so that only psi is held whole."""
    for x0, _, psi in segments:
        for lo in range(0, psi.size, _CHUNK_ROWS):
            x = np.arange(x0 + lo, x0 + min(lo + _CHUNK_ROWS, psi.size),
                          dtype=np.float64)
            part = psi[lo : lo + _CHUNK_ROWS]
            smooth = smooth_part(x)
            yield [x, part, smooth, part - smooth]


def cmd_spectrum(config: RunConfig) -> None:
    series = _pipeline_series(config)
    spectrum = _estimate_spectrum(config, series)
    _write_table(
        config.output_path,
        _spectrum_head(config, spectrum),
        [[spectrum.freqs, spectrum.power]],
    )


def _check_band(band: tuple[float, float], nyquist: float) -> None:
    if not 0.0 < band[0] < band[1] <= nyquist:
        raise DomainError(
            f"fit band must lie within (0, {_fmt(nyquist)}], "
            f"got [{band[0]}, {band[1]}]"
        )


def cmd_fit(config: RunConfig) -> None:
    """Fit the band of a spectrum.  A ``--spectrum-csv`` table's band is
    checked against its own Nyquist frequency, its last ``f``; the pipeline
    routes sample at dx = 1, so theirs is 0.5 and is checked before any
    work is done."""
    if config.spectrum_csv is not None:
        spectrum = read_spectrum_csv(config.spectrum_csv)
        _check_band(config.band, spectrum.nyquist)
    else:
        _check_band(config.band, 0.5)
        spectrum = _estimate_spectrum(config, _pipeline_series(config))
    f_min, f_max = config.band
    fit = fit_power_law(spectrum, f_min=f_min, f_max=f_max)
    _emit(config.output_path, json.dumps(fit.as_dict(), indent=2) + "\n")


def cmd_reconstruct(config: RunConfig) -> None:
    if config.n_samples < 2:
        raise DomainError(
            f"need a range of at least 2 integers, got n={config.n_samples}"
        )
    zeros_path = config.zeros_path or bundled_zeros_path()
    zeros = load_zeros(zeros_path)
    n_zeros = zeros.count if config.n_zeros is None else config.n_zeros
    # half-integer points strictly inside [x_start, x_start + n - 1]
    points = config.x_start + 0.5 + np.arange(config.n_samples - 1)
    direct = fluctuation_at(points)
    recon = psi_fluc_from_zeros(points, zeros, n_zeros)
    head = [
        "# psispec reconstruct",
        f"# zeros={zeros.source} K={n_zeros}",
        f"# x_start={config.x_start} n={config.n_samples}",
        "x,fluc_direct,fluc_zeros,abs_err",
    ]
    columns = [points, direct, recon, np.abs(direct - recon)]
    _write_table(config.output_path, head, [columns])


def cmd_analytic(config: RunConfig) -> None:
    f_min, f_max = config.band
    spectrum = analytic_spectrum(f_min, f_max, n_freq=config.n_freq)
    head = [
        "# psispec analytic",
        f"# band=[{_fmt(f_min)},{_fmt(f_max)}] n_freq={config.n_freq}",
        "f,P_analytic",
    ]
    _write_table(config.output_path, head, [[spectrum.freqs, spectrum.power]])


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------


@click.group()
@click.version_option(version=__version__)
def main():
    """Power spectrum of the fluctuation of Chebyshev's psi function."""


_OUT = click.option(
    "--out", "output_path", default="-", show_default=True,
    help="Output file path, or '-' for standard output.",
)
_BAND = click.option(
    "--band", default="1e-3:1e-1", show_default=True, callback=_parse_band,
    help="Frequency band as f_min:f_max (cycles per sample unit).",
)
#: Options of the estimator pipeline that ``spectrum`` and ``fit`` share.
_ESTIMATOR_OPTIONS = (
    click.option("--n", "n_samples", type=int, default=0, help="Grid points."),
    click.option("--x-start", type=int, default=2, show_default=True),
    click.option("--method", type=click.Choice(["mem", "welch"]),
                 default="mem", show_default=True),
    click.option("--order", "mem_order", type=int, default=1,
                 show_default=True,
                 help="Autoregressive order for the mem method."),
    click.option("--segment", "welch_segment", type=int, default=None,
                 help="Welch segment length (power of two; default: largest "
                      "power of two <= n/8)."),
    click.option("--n-freq", type=int, default=512, show_default=True,
                 help="Frequency points for the mem log grid."),
    click.option("--f-lo", type=float, default=1e-4, show_default=True,
                 help="Lowest frequency of the mem log grid."),
    click.option("--synthetic", type=click.Choice(["white", "ar1"]),
                 default=None,
                 help="Replace the fluctuation series with a seeded test "
                      "signal."),
    click.option("--ar-coeff", type=float, default=0.9, show_default=True,
                 help="Coefficient of the ar1 synthetic signal."),
    click.option("--seed", type=click.IntRange(min=0), default=0,
                 show_default=True,
                 help="Seed for synthetic signals."),
)


def _given(ctx, name: str) -> bool:
    return ctx.get_parameter_source(name) is not ParameterSource.DEFAULT


def _flags(ctx) -> dict:
    return {param.name: param.opts[0] for param in ctx.command.params}


def _refuse_with(option: str, others) -> None:
    """Exit 2 if ``option`` and any of ``others``, which it overrides or
    which do not apply to it, were both given (names of click parameters
    of the current command)."""
    ctx = click.get_current_context()
    if not _given(ctx, option):
        return
    for other in others:
        if _given(ctx, other):
            flags = _flags(ctx)
            raise click.UsageError(
                f"{flags[option]} cannot be combined with {flags[other]}", ctx
            )


#: Estimator options that apply only with a value of another option:
#: (option, the option it needs, that option's value, or None for any).
_NEEDS = (
    ("seed", "synthetic", None),
    ("ar_coeff", "synthetic", "ar1"),
    ("welch_segment", "method", "welch"),
    ("mem_order", "method", "mem"),
    ("n_freq", "method", "mem"),
    ("f_lo", "method", "mem"),
)


def _refuse_unapplied(params: dict) -> None:
    """Exit 2 if an option of ``_NEEDS`` was given, though the option it
    needs does not have the value with which it applies."""
    ctx = click.get_current_context()
    for option, needed, value in _NEEDS:
        have = params[needed]
        applies = have is not None if value is None else have == value
        if _given(ctx, option) and not applies:
            flags = _flags(ctx)
            need = flags[needed] if value is None else f"{flags[needed]} {value}"
            raise click.UsageError(f"{flags[option]} needs {need}", ctx)


def _estimator_options(command):
    """Declare ``_ESTIMATOR_OPTIONS`` on ``command``, in the listed order."""
    for option in reversed(_ESTIMATOR_OPTIONS):
        command = option(command)
    return command


@main.command()
@click.option("--n", "n_samples", type=int, required=True, help="Grid points.")
@click.option("--x-start", type=int, default=2, show_default=True)
@_OUT
@_translate_errors
def sample(**params):
    """Emit x,psi,smooth,fluc on the integer grid."""
    cmd_sample(RunConfig(**params))


@main.command()
@_estimator_options
@click.option("--input", "input_csv", type=click.Path(path_type=Path),
              default=None, help="Re-ingest a sample CSV instead of sieving.")
@_OUT
@_translate_errors
def spectrum(**params):
    """Emit the one-sided power spectral density of the fluctuation."""
    _refuse_with("input_csv", ("synthetic", "n_samples", "x_start", "seed",
                               "ar_coeff"))
    _refuse_with("synthetic", ("x_start",))
    _refuse_unapplied(params)
    cmd_spectrum(RunConfig(**params))


@main.command()
@_estimator_options
@_BAND
@click.option("--spectrum-csv", type=click.Path(path_type=Path), default=None,
              help="Fit a previously emitted (or external) f,P table instead "
                   "of running the pipeline.")
@_OUT
@_translate_errors
def fit(**params):
    """Fit P(f) = a*f^b over a band; emit the JSON report."""
    # a table is fitted as it is: no estimator option applies to it
    _refuse_with("spectrum_csv", ("n_samples", "x_start", "synthetic",
                                  "method", "mem_order", "welch_segment",
                                  "n_freq", "f_lo", "ar_coeff", "seed"))
    _refuse_with("synthetic", ("x_start",))
    _refuse_unapplied(params)
    cmd_fit(RunConfig(**params))


@main.command()
@click.option("--n", "n_samples", type=int, required=True,
              help="Range length; evaluation happens at the n-1 half-integer "
                   "points inside [x-start, x-start + n - 1].")
@click.option("--x-start", type=int, default=2, show_default=True)
@click.option("--zeros", "zeros_path", type=click.Path(path_type=Path),
              default=None,
              help="Zero-ordinate table (default: bundled 2000-zero table).")
@click.option("--K", "n_zeros", type=int, default=None,
              help="Zeros to keep in the truncated sum (default: all).")
@_OUT
@_translate_errors
def reconstruct(**params):
    """Cross-validate the sieve route against the zero-sum route."""
    cmd_reconstruct(RunConfig(**params))


@main.command()
@_BAND
@click.option("--n-freq", type=int, default=512, show_default=True)
@_OUT
@_translate_errors
def analytic(**params):
    """Emit the asymptotic spectrum 2*ln^2(f/(2 pi))/f^2 over a band."""
    cmd_analytic(RunConfig(**params))


if __name__ == "__main__":
    main()
