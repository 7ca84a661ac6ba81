"""Command-line pipeline: sample, spectrum, fit, reconstruct, analytic.

All commands write CSV (with ``#`` metadata comments) or JSON to ``--out``
(default standard output) at 17 significant digits, so identical
configurations produce byte-identical files.  CSV rows are formatted in
bulk by numpy (``_kernels.format_rows``), ``_CHUNK_ROWS`` at a time, with
the bytes of ``format(v, ".17g")`` for every value.

Re-ingested tables (``--input``, ``--spectrum-csv``) are opened once in
universal-newline text mode, so that lines end at "\\n", "\\r\\n" or a lone
"\\r" and reach the parsers with "\\n" ends, and read in chunks of about
``_CHUNK_BYTES`` (256 Ki) characters of whole lines, so that a chunk and the
kernel's temporaries for it fit in a 2 MiB L2 cache.  A chunk of canonical
rows, fields ``-?[0-9]+(.[0-9]+)?`` with nothing else on the line, as
every command writes them, is checked and converted by
``_kernels.parse_rows`` with exact integer arithmetic, bit for bit what
``float`` gives; only the columns the command uses are converted.  Any
other chunk is walked by ``errors.content_lines``, the one walker of input
lines, which checks UTF-8 and drops comments and blanks, and goes to the
kernel again; if it is still refused (spaces, exponents, ``nan``), every
field is read by ``float``, in ASCII without "_".  Every number must be
finite.  The reader numbers the lines as it reads them (a canonical chunk
holds one line per row), so a bad row, or a line that is not UTF-8, is
named by its line in the file from its own chunk.  An ``--input`` table
goes to the estimators as it is read, one ``fluc`` block per chunk, and a
``--synthetic`` signal, seeded white noise or its random walk, as it is
drawn, ``_CHUNK_ROWS`` samples at a time; either is held whole only where
the estimator gathers it (Welch without ``--segment``).  The estimators
cut every series into the same rows, so neither a source constant
(``_CHUNK_BYTES``, ``_CHUNK_ROWS``, ``prime_series._SEGMENT``) nor a
table's line ends change a byte of output.

``--n`` and ``--x-start`` take any decimal spelling of an integer, such as
``1e7``.

Exit codes: 0 success; 2 usage or domain error, or memory exhausted
(``MemoryError``); 3 data-format error; 4 I/O error; 141, with nothing on
stderr, when standard output is a pipe whose reader has closed it.
"""

import contextlib
import functools
import json
import math
import os
import sys
import zlib
from dataclasses import dataclass
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
    ascii_floats,
    content_lines,
    open_input,
)
from .powerlaw import DEFAULT_BAND, fit_power_law
from .prime_series import fluctuation_at, fluctuation_rows
from .spectral import (BlockSeries, PowerSpectrum, ar_psd, burg_fit,
                       check_psd_grid, welch_psd)
from .zeta import (analytic_spectrum, bundled_zeros_path, check_zero_count,
                   load_zeros, psi_fluc_from_zeros)


@dataclass
class RunConfig:
    """Parsed invocation of one subcommand."""

    n_samples: int = 0
    x_start: int = 2
    method: str = "mem"
    welch_segment: int | None = None
    band: tuple[float, float] = DEFAULT_BAND
    n_freq: int = 512
    f_lo: float = 1e-4
    zeros_path: Path | None = None
    n_zeros: int | None = None
    output_path: str = "-"
    seed: int = 0
    synthetic: str | None = None
    input_csv: Path | None = None
    spectrum_csv: Path | None = None


#: Characters (bytes, for ASCII) per chunk of lines that ``_read_rows``
#: parses at a time.  A chunk and the temporaries of ``parse_rows`` take
#: about 5 bytes per byte of the chunk.  In-process
#: ``spectrum --input`` on 10**6 rows on a shared 2-core Xeon with a 2 MiB
#: L2 per core, 30 interleaved runs per size: median 0.71 / 0.59 / 0.61 /
#: 0.66 s and traced peak 5.1 / 2.6 / 1.3 / 0.7 MiB at 1 MiB / 512 / 256 /
#: 128 KiB.  256 KiB is the largest whose working set fits in that L2.
_CHUNK_BYTES = 1 << 18

#: Rows per block of ``_synthetic_series`` and per write of ``_write_table``.
#: ``sample --n 1e6`` took the same time at 2048 to 8192 rows and 1.6 times
#: as long at 16 384, where each of the formatter's temporaries passes
#: 0.5 MB and comes back from malloc as fresh, page-faulting memory.
#: ``format_rows`` drops each temporary once the layout is past it, so a
#: block of four columns peaks at 0.83 MiB traced (1.66 MiB at 4096 rows,
#: where ``sample --n 1e6`` peaked 0.7 MB higher in RSS).
_CHUNK_ROWS = 2048


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
    """Write ``head_lines``, then for each item of ``blocks``, a sequence of
    equal-length columns, one CSV row per index, every value at 17
    significant digits (``format(v, ".17g")``), ``_CHUNK_ROWS`` rows per
    write."""
    with _open_output(output_path) as fh:
        fh.write("\n".join(head_lines) + "\n")
        for columns in blocks:
            for lo in range(0, len(columns[0]), _CHUNK_ROWS):
                fh.write(format_rows([c[lo : lo + _CHUNK_ROWS] for c in columns]))


class _Integer(click.ParamType):
    """An integer in any decimal spelling whose exact value is one, such
    as ``1000``, ``1e3`` or ``1.0e3``; read by ``decimal``, never rounded
    through a float.  Like ``int``, it refuses more than 4300 digits."""

    name = "integer"

    def convert(self, value, param, ctx):
        if isinstance(value, int):
            return value
        with contextlib.suppress(ValueError):
            return int(value)
        # imported only for other spellings: it adds 0.5 MB to every run
        import decimal

        try:
            number = decimal.Decimal(value)
        except decimal.InvalidOperation:
            number = None
        if (
            number is None
            or not number.is_finite()
            or number.adjusted() >= 4300
            or number != number.to_integral_value()
        ):
            self.fail(f"{value!r} is not a valid integer.", param, ctx)
        return int(number)


_INTEGER = _Integer()


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
            fn(*args, **kwargs)
            sys.stdout.flush()  # so that a closed pipe is met here
        except BrokenPipeError:
            # stdout's reader has gone, as under `| head`: end as a tool
            # stopped by SIGPIPE, and let the interpreter's last flush of
            # stdout go to devnull (a file's errors are plain OSErrors)
            with contextlib.suppress(OSError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise SystemExit(141)
        except (DomainError, DegenerateInputError, ResourceError, MemoryError) as exc:
            # numpy names the array it could not allocate
            click.echo(f"error: {str(exc) or 'out of memory'}", err=True)
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

    Lines are read by the rule of ``errors.content_lines``: comments may
    appear anywhere, including after the numbers of a row, and blank lines
    are skipped.  The first line with content must equal
    ``expected_header``, and every later one must hold as many
    comma-separated finite numbers.  A chunk of canonical rows, such as
    every command writes, is checked and converted by
    ``_kernels.parse_rows``; any other chunk by ``_parse_lines``.  The file
    is opened by ``errors.open_input``, so lines reach the parsers with
    "\\n" ends.  Lines are numbered as they are read, so that a malformed
    or non-finite row, or a line that is not UTF-8, is named by its line in
    the file from the text of its own chunk.
    """
    n_cols = len(expected_header.split(","))
    rows = 0
    with open_input(path, "input file") as fh:
        line = _skip_header(path, fh, expected_header)
        for chunk in _chunks(fh):
            columns = parse_rows(chunk, n_cols, usecols)
            if columns is None:
                columns = _parse_lines(path, chunk, n_cols, usecols, line)
                line += chunk.count(b"\n")
            else:
                line += columns[0].size  # one line per row
            if columns[0].size:
                rows += columns[0].size
                yield columns
    if not rows:
        raise DataFormatError(f"{path}: no data rows")


def _skip_header(path, fh, expected_header: str) -> int:
    """Read text ``fh`` up to and including the header line, the first
    that ``content_lines`` yields, check it and return the number of the
    next line."""
    # iterated, not read by readline: the text layer then keeps no copy of
    # its last raw read for tell(), which would be held beside every chunk
    for lineno, line in enumerate(fh, 1):
        data = line.encode("utf-8", "surrogateescape")
        for _, header in content_lines(path, data, lineno):
            if header != expected_header:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected header "
                    f"{expected_header!r}, got {header!r}"
                )
            return lineno + 1
    raise DataFormatError(f"{path}: no data rows")


def _chunks(fh):
    """The rest of text ``fh`` as chunks of whole lines, ``_CHUNK_BYTES``
    characters and on to the next line end after them, each encoded back
    to bytes and ending in "\\n"."""
    while chunk := fh.read(_CHUNK_BYTES):
        # also after a read that ends at a line end, which would otherwise
        # leave the text decoded for it held by the text layer while the
        # chunk is parsed (1.54 against 1.31 MiB traced on 4e5 rows)
        chunk += fh.readline()
        if not chunk.endswith("\n"):  # the last line of the file
            chunk += "\n"
        data = chunk.encode("utf-8", "surrogateescape")
        del chunk  # not held while the chunk is parsed
        yield data


def _parse_lines(path, chunk: bytes, n_cols: int, usecols, first_line: int):
    """Columns ``usecols`` of ``chunk``, line ``first_line`` of ``path`` on,
    which ``parse_rows`` refused: by the kernel again without comments and
    blank lines, else by ``ascii_floats`` of every line, naming the first
    line with the wrong field count, a non-number or a non-finite one."""
    lines = list(content_lines(path, chunk, first_line))
    text = "".join(content + "\n" for _, content in lines)
    columns = parse_rows(text.encode(), n_cols, usecols)
    if columns is not None:
        return columns
    values = []
    for lineno, content in lines:
        fields = content.count(",") + 1
        if fields != n_cols:
            raise DataFormatError(
                f"{path}: line {lineno}: expected {n_cols} fields, got {fields}"
            )
        try:
            row = ascii_floats(content)
        except ValueError as exc:
            raise DataFormatError(
                f"{path}: line {lineno}: non-numeric field in {content!r}"
            ) from exc
        if not all(map(math.isfinite, row)):
            raise DataFormatError(
                f"{path}: line {lineno}: non-finite number in {content!r}"
            )
        values += row  # numpy converts one flat list faster than a list per row
    table = np.array(values).reshape(-1, n_cols)
    return [table[:, c].copy() for c in usecols]


def read_sample_csv(path) -> BlockSeries:
    """Re-ingest a ``sample`` CSV's fluctuation column as a BlockSeries of
    unknown length, whose blocks are read from the file, one chunk each,
    as the estimators take them (round-trip hook for ``spectrum
    --input``).  Nothing is read before the first block is taken, and the
    file's errors are raised from the blocks."""
    return BlockSeries(blocks=_sample_flucs(path))


def _sample_flucs(path):
    """The ``fluc`` column of a ``sample`` CSV, one array per chunk.  The
    ``x`` column must hold consecutive integers, which is checked at the
    end, so that a bad row later in the file is named first; of ``psi``
    and ``smooth`` only the syntax is checked."""
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
        yield fluc
    if not consecutive:
        raise DataFormatError(
            f"{path}: x column must be consecutive integers with step 1"
        )


def read_spectrum_csv(path) -> PowerSpectrum:
    """Re-ingest a ``spectrum`` CSV, as ``fit --spectrum-csv`` does."""
    chunks = list(_read_rows(path, "f,P", (0, 1)))
    freqs, power = (np.concatenate(column) for column in zip(*chunks))
    if np.any(np.diff(freqs) <= 0):
        raise DataFormatError(f"{path}: frequencies must be strictly ascending")
    return PowerSpectrum(
        freqs=freqs,
        power=power,
        estimator={"method": "file", "path": str(path)},
    )


# ---------------------------------------------------------------------------
# Pipeline pieces shared by spectrum/fit
# ---------------------------------------------------------------------------


def _synthetic_series(kind: str, n: int, seed: int | None) -> BlockSeries:
    """``n`` samples of seeded white noise, or of the random walk of its
    partial sums from 0, in blocks of ``_CHUNK_ROWS`` drawn from one
    generator, so that they hold the numbers of one draw of ``n``.  Each
    block of the walk is summed in place from the last value of the one
    before, which gives the bits of ``np.cumsum`` of the whole draw."""
    if kind not in ("white", "walk"):
        raise DomainError(f"unknown synthetic signal {kind!r} (use white or walk)")
    rng = np.random.default_rng(seed)

    def blocks():
        last = 0.0
        for lo in range(0, n, _CHUNK_ROWS):
            block = rng.standard_normal(min(_CHUNK_ROWS, n - lo))
            if kind == "walk":
                block[0] += last
                np.cumsum(block, out=block)
                last = float(block[-1])
            yield block

    return BlockSeries(blocks=blocks(), n=n)


def _pipeline_series(config: RunConfig) -> BlockSeries:
    """The series the estimators run on, before its mean is removed: the
    fluctuation as blocks straight from the sieve or from the chunks of
    the ``--input`` table, whose length the estimators count, or from the
    ``--synthetic`` generator."""
    if config.input_csv is not None:
        # built here, not by read_sample_csv: psibench's trace of that
        # function adds up the n of its result, which a stream leaves None
        return BlockSeries(blocks=_sample_flucs(config.input_csv))
    if config.n_samples < 2:
        raise DomainError(
            f"spectral estimation needs at least 2 samples, got {config.n_samples}"
        )
    if config.synthetic is not None:
        return _synthetic_series(config.synthetic, config.n_samples, config.seed)
    rows = fluctuation_rows(config.n_samples, config.x_start)
    return BlockSeries(blocks=(fluc for *_, fluc in rows), n=config.n_samples)


def _estimate_spectrum(config: RunConfig, series) -> PowerSpectrum:
    if config.method == "mem":
        check_psd_grid(config.n_freq, config.f_lo)  # before any sieving
        model = burg_fit(series)
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
    rows = fluctuation_rows(config.n_samples, config.x_start)  # checks the grid
    head = [
        "# psispec sample",
        f"# n={config.n_samples} x_start={config.x_start} dx=1",
        "x,psi,smooth,fluc",
    ]
    _write_table(config.output_path, head, rows)


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
    routes sample at unit spacing, so theirs is 0.5 and is checked before
    any work is done."""
    if config.spectrum_csv is not None:
        spectrum = read_spectrum_csv(config.spectrum_csv)
        _check_band(config.band, float(spectrum.freqs[-1]))
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
    if config.zeros_path is None:
        # named by its content, not by where this checkout put it; by zlib,
        # not hashlib, which would load OpenSSL (3.6 MB of peak RSS)
        zeros_path = bundled_zeros_path()
        crc = zlib.crc32(zeros_path.read_bytes())
        source = f"bundled:{zeros_path.name} crc32={crc:08x}"
    else:
        zeros_path = source = config.zeros_path
    zeros = load_zeros(zeros_path)
    n_zeros = zeros.count if config.n_zeros is None else config.n_zeros
    check_zero_count(zeros, n_zeros)  # before the sieve of fluctuation_at
    # half-integer points strictly inside [x_start, x_start + n - 1]
    points = config.x_start + 0.5 + np.arange(config.n_samples - 1)
    direct = fluctuation_at(points)
    recon = psi_fluc_from_zeros(points, zeros, n_zeros)
    head = [
        "# psispec reconstruct",
        f"# zeros={source} K={n_zeros}",
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
    # glibc maps each block above its mmap threshold afresh, and raises the
    # threshold to the largest mapped block freed and the heap's trim
    # threshold to twice that.  Freeing 1 MiB first, more than any one
    # temporary of a CSV chunk and half of all of them (0.83 MiB traced for
    # a chunk written, 1.3 MiB for a chunk read), lets each chunk reuse the
    # heap pages of the one before: sample --n 1e6 takes 5.2k minor faults,
    # not 77.6k, and spectrum --input on 1e6 rows 5.5k, not 34.0k
    np.empty(1 << 20, dtype=np.uint8)


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
    click.option("--n", "n_samples", type=_INTEGER, default=0,
                 help="Grid points."),
    click.option("--x-start", type=_INTEGER, default=2, show_default=True),
    click.option("--method", type=click.Choice(["mem", "welch"]),
                 default="mem", show_default=True),
    click.option("--segment", "welch_segment", type=int, default=None,
                 help="Welch segment length (power of two; default: largest "
                      "power of two <= n/8)."),
    click.option("--n-freq", type=int, default=512, show_default=True,
                 help="Frequency points for the mem log grid."),
    click.option("--f-lo", type=float, default=1e-4, show_default=True,
                 help="Lowest frequency of the mem log grid."),
    click.option("--synthetic", type=click.Choice(["white", "walk"]),
                 default=None,
                 help="Replace the fluctuation series with seeded white "
                      "noise or its random walk."),
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
    ("welch_segment", "method", "welch"),
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
@click.option("--n", "n_samples", type=_INTEGER, required=True,
              help="Grid points.")
@click.option("--x-start", type=_INTEGER, default=2, show_default=True)
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
    _refuse_with("input_csv", ("synthetic", "n_samples", "x_start", "seed"))
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
    # a table is fitted as it is: no estimator option applies to it, and
    # _estimator_options declares them first
    declared = click.get_current_context().command.params[: len(_ESTIMATOR_OPTIONS)]
    _refuse_with("spectrum_csv", [option.name for option in declared])
    _refuse_with("synthetic", ("x_start",))
    _refuse_unapplied(params)
    cmd_fit(RunConfig(**params))


@main.command()
@click.option("--n", "n_samples", type=_INTEGER, required=True,
              help="Range length; evaluation happens at the n-1 half-integer "
                   "points inside [x-start, x-start + n - 1].")
@click.option("--x-start", type=_INTEGER, default=2, show_default=True)
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
    """Tabulate the asymptotic 2*ln^2(f/(2 pi))/f^2 over a band.

    It holds for f >= 2 pi, in the angular variable of ln x; it does not
    predict `spectrum` on the default band, 1e-3..1e-1 cycles per unit x."""
    cmd_analytic(RunConfig(**params))


if __name__ == "__main__":
    main()
