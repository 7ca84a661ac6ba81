import builtins
import errno
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import psispec as ps
from psispec import _kernels, cli, errors
from psispec.cli import main

from conftest import SMALL_CHUNK, SMALL_SEGMENT, ar1_sample, awkward_floats, csv_rows


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def data_rows(text):
    """Non-comment lines after (and excluding) the header."""
    lines = [
        line
        for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    ]
    return lines[0], lines[1:]


def message_of(result):
    out = result.output or ""
    err = getattr(result, "stderr", "") or ""
    return out + err


def body_of(text):
    """Header line and the rows after it."""
    lines = text.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return "".join(lines[start:])


# ---------------------------------------------------------------------------
# version
# ---------------------------------------------------------------------------


def test_version_option_needs_no_package_metadata():
    result = CliRunner().invoke(main, ["--version"], prog_name="psispec")
    assert result.exit_code == 0
    assert result.output == "psispec, version 0.1.0\n"


def test_every_exported_name_resolves():
    missing = [name for name in ps.__all__ if not hasattr(ps, name)]
    assert missing == []


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.M)
    assert ps.__version__ == declared.group(1)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
@pytest.mark.parametrize(
    "chosen, blas_threads",
    [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3"), ({"OMP_NUM_THREADS": "3"}, None)],
    ids=["unset", "openblas", "omp"],
)
def test_importing_psispec_first_loads_one_blas_thread_unless_chosen(chosen, blas_threads):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(chosen, PYTHONPATH=os.pathsep.join(sys.path))
    probe = ("import os, psispec; print(len(os.listdir('/proc/self/task')), "
             "os.environ.get('OPENBLAS_NUM_THREADS'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out[1] == str(blas_threads)
    if not chosen:
        # numpy, click and the interpreter start no thread of their own
        assert out[0] == "1"


# ---------------------------------------------------------------------------
# CSV text layer: exact bytes, atomic files, re-ingestion
# ---------------------------------------------------------------------------


# 4096, twice the default chunk, as well as the default itself
@pytest.mark.parametrize("chunk_rows", [2, cli._CHUNK_ROWS, 4096])
def test_sample_bytes_are_17_digit_rows(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    out = tmp_path / "sample.csv"
    assert run("sample", "--n", 5, "--out", out).exit_code == 0
    psi = ps.psi_series(5)
    x = 2 + np.arange(5)
    smooth = ps.smooth_part(x)
    expected = (
        "# psispec sample\n# n=5 x_start=2 dx=1\nx,psi,smooth,fluc\n"
        + csv_rows(x, psi, smooth, psi - smooth)
    )
    text = out.read_text()
    assert text == expected
    assert body_of(text).splitlines()[1].startswith("2,")  # not "2.0,"
    assert os.listdir(tmp_path) == ["sample.csv"]


def test_spectrum_reconstruct_analytic_bytes(zeros):
    spectrum = run("spectrum", "--n", 64, "--n-freq", 8)
    spec = ps.ar_psd(
        ps.burg_fit(ps.remove_mean(ps.fluctuation_series(64))), n_freq=8
    )
    assert body_of(spectrum.output) == "f,P\n" + csv_rows(spec.freqs, spec.power)

    recon = run("reconstruct", "--n", 6, "--K", 10)
    x = 2.5 + np.arange(5)
    direct = ps.fluctuation_at(x)
    from_zeros = ps.psi_fluc_from_zeros(x, zeros, 10)
    assert body_of(recon.output) == "x,fluc_direct,fluc_zeros,abs_err\n" + csv_rows(
        x, direct, from_zeros, np.abs(direct - from_zeros)
    )

    analytic = run("analytic", "--band", "1:10", "--n-freq", 4)
    ana = ps.analytic_spectrum(1.0, 10.0, n_freq=4)
    assert analytic.output == (
        "# psispec analytic\n# band=[1,10] n_freq=4\nf,P_analytic\n"
        + csv_rows(ana.freqs, ana.power)
    )


@pytest.mark.parametrize("chunk_rows", [1, 7, cli._CHUNK_ROWS, 4096])
@pytest.mark.parametrize("to_file", [True, False])
def test_write_table_bytes_of_awkward_values(
    tmp_path, capsys, monkeypatch, chunk_rows, to_file
):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    values = awkward_floats()
    columns = [values, values[::-1].copy(), np.roll(values, 3)]
    blocks = [columns, [c[:9] for c in columns]]
    target = tmp_path / "table.csv" if to_file else "-"
    cli._write_table(str(target), ["# awkward", "a,b,c"], blocks)
    text = target.read_text() if to_file else capsys.readouterr().out
    assert text == "# awkward\na,b,c\n" + "".join(csv_rows(*b) for b in blocks)


def full_disk_open(writes_allowed):
    """``open`` whose files fail with ENOSPC after ``writes_allowed`` writes."""

    def fake_open(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        real_write = fh.write
        count = 0

        def write(text):
            nonlocal count
            count += 1
            if count > writes_allowed:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(text)

        fh.write = write
        return fh

    return fake_open


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    earlier = tmp_path / "earlier.csv"
    earlier.write_text("kept\n")
    fresh = tmp_path / "fresh.csv"
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(cli, "open", full_disk_open(2), raising=False)
    for target in (earlier, fresh):
        result = run("sample", "--n", 50, "--out", target)
        assert result.exit_code == 4
        assert "No space left on device" in message_of(result)
    assert earlier.read_text() == "kept\n"
    assert os.listdir(tmp_path) == ["earlier.csv"]


def _fail_on_call(k):
    """A stand-in that raises ``MemoryError`` with numpy's message on its
    ``k``-th call and otherwise calls ``format_rows``."""
    calls = []

    def fail(*args, **kwargs):
        calls.append(None)
        if len(calls) == k:
            raise MemoryError("Unable to allocate 14.9 GiB for an array with "
                              "shape (2000000000,) and data type float64")
        return _kernels.format_rows(*args, **kwargs)

    return fail


@pytest.mark.parametrize(
    "args, name, k",
    [
        (["analytic", "--n-freq", 2_000_000_000], "analytic_spectrum", 1),
        (["sample", "--n", 50], "format_rows", 2),  # after one written block
    ],
    ids=["analytic", "sample"],
)
def test_out_of_memory_exits_2_and_leaves_no_file(tmp_path, monkeypatch, args, name, k):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(cli, name, _fail_on_call(k))
    result = run(*args, "--out", tmp_path / "out.csv")
    assert result.exit_code == 2
    assert "error: Unable to allocate 14.9 GiB" in message_of(result)
    assert "Traceback" not in message_of(result)
    assert os.listdir(tmp_path) == []


def test_closed_pipe_ends_quietly_with_sigpipe_status():
    # as under `psispec sample --n 300000 | head -1`: the reader goes while
    # rows are still being written
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.Popen(
        [sys.executable, "-m", "psispec.cli", "sample", "--n", "300000"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert child.stdout.readline() == b"# psispec sample\n"
    child.stdout.close()
    stderr = child.stderr.read()
    assert child.wait() == 141
    assert stderr == b""


def read_fluc(path):
    """The fluc column that ``read_sample_csv`` streams, in one array."""
    return np.concatenate(list(cli.read_sample_csv(path).blocks))


def sample_lines(n=6, x_start=2):
    """Lines of a ``sample`` CSV, with their line ends."""
    result = run("sample", "--n", n, "--x-start", x_start)
    return result.output.splitlines(keepends=True)


def test_input_without_a_final_newline_gives_the_same_bytes(tmp_path):
    text = "".join(sample_lines(200))
    ended, unended = tmp_path / "ended.csv", tmp_path / "unended.csv"
    ended.write_text(text)
    unended.write_text(text.rstrip("\n"))
    want = run("spectrum", "--input", ended)
    assert want.exit_code == 0
    assert run("spectrum", "--input", unended).output == want.output


def test_table_of_only_comments_and_blank_lines_has_no_data_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# psispec sample\n\n   \n  # indented\n")
    result = run("spectrum", "--input", path)
    assert result.exit_code == 3
    assert f"{path}: no data rows" in message_of(result)


def test_read_single_data_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("".join(sample_lines(1)))
    got = read_fluc(path)
    assert got.size == 1
    assert np.array_equal(got, ps.fluctuation_series(1))


def test_read_skips_comments_and_blank_lines_and_crlf(tmp_path):
    lines = sample_lines()
    clean = tmp_path / "clean.csv"
    clean.write_text("".join(lines))
    want = read_fluc(clean)
    assert np.array_equal(want, ps.fluctuation_series(6))
    noisy = lines[:2] + [lines[2].rstrip("\n") + " # columns\n", lines[3]]
    noisy += ["\n", "# between rows\n", "   \n", "  # indented\n"]
    noisy += [lines[4].rstrip("\n") + "  # trailing comment\n"] + lines[5:]
    variants = {
        "noisy.csv": "".join(noisy).encode(),
        "crlf.csv": "".join(lines).replace("\n", "\r\n").encode(),
    }
    for name, data in variants.items():
        (tmp_path / name).write_bytes(data)
        assert np.array_equal(read_fluc(tmp_path / name), want)


@pytest.mark.parametrize(
    "mutate, message",
    [
        # short row on the last line (line 9: two comments, header, 6 rows)
        (lambda ls: ls[:-1] + [ls[-1].rsplit(",", 1)[0] + "\n"],
         "line 9: expected 4 fields, got 3"),
        (lambda ls: ls[:5] + [ls[5].replace(",", ",abc", 1)] + ls[6:],
         "line 6: non-numeric field in"),
        (lambda ls: ls[:6] + ["# note\n", "\n", "7,1,2,x\n"] + ls[6:],
         "line 9: non-numeric field in '7,1,2,x'"),
        (lambda ls: ls[:3], "no data rows"),
        (lambda ls: ls[:3] + ["# only a comment\n"], "no data rows"),
        (lambda ls: ls[:2] + ["x,psi,smooth\n"] + ls[3:], "line 3: expected header"),
        # non-finite x on the first row, non-finite fluc on later ones
        (lambda ls: ls[:3] + ["nan," + ls[3].split(",", 1)[1]] + ls[4:],
         "line 4: non-finite number in"),
        (lambda ls: ls[:3] + ["inf," + ls[3].split(",", 1)[1]] + ls[4:],
         "line 4: non-finite number in"),
        (lambda ls: ls[:6] + [ls[6].rsplit(",", 1)[0] + ",nan\n"] + ls[7:],
         "line 7: non-finite number in"),
        (lambda ls: ls[:-1] + ["# note\n", ls[-1].rsplit(",", 1)[0] + ",-inf\n"],
         "line 10: non-finite number in"),
        # float reads these, loadtxt does not; "\f" and "\u2028" end no line
        *[pytest.param(lambda ls, text=text: replace_field(ls, 5, 3, text),
                       "line 6: non-numeric field in", id=f"field {text!r}")
          for text in ["1_000", "\u0661\u0662", "\uff11", "1\f2", "1\u20282"]],
    ],
)
def test_read_malformed_names_the_line(tmp_path, mutate, message):
    path = tmp_path / "bad.csv"
    path.write_text("".join(mutate(sample_lines())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing may leak from the parser
        with pytest.raises(ps.DataFormatError, match=message):
            read_fluc(path)
    result = run("spectrum", "--input", path)
    assert result.exit_code == 3
    assert message.split(" in")[0] in message_of(result)


# ---------------------------------------------------------------------------
# reader chunks: canonical rows by the kernel, anything else line by line
# ---------------------------------------------------------------------------


def write_sample(tmp_path, lines):
    path = tmp_path / "sample.csv"
    path.write_bytes("".join(lines).encode())
    return path


def replace_field(lines, index, column, text):
    """``lines`` with field ``column`` of ``lines[index]`` set to ``text``."""
    fields = lines[index].rstrip("\n").split(",")
    fields[column] = text
    return lines[:index] + [",".join(fields) + "\n"] + lines[index + 1 :]


@pytest.fixture
def chunk_kinds(monkeypatch):
    """Per call of the kernel with data: True where it refused the data, a
    chunk, or a chunk's lines without comments and blank lines."""
    kinds = []
    parse = cli.parse_rows

    def spy(data, n_cols, usecols):
        columns = parse(data, n_cols, usecols)
        if data:
            kinds.append(columns is None)
        return columns

    monkeypatch.setattr(cli, "parse_rows", spy)
    return kinds


def test_read_rows_straddling_chunks(tmp_path, small_chunks, chunk_kinds):
    for x_start in (2, 999999):
        chunk_kinds.clear()
        path = write_sample(tmp_path, sample_lines(300, x_start))
        got = read_fluc(path)
        assert got.size == 300
        assert got.tobytes() == ps.fluctuation_series(300, x_start).tobytes()
        # about SMALL_CHUNK bytes each, and every one canonical
        assert len(chunk_kinds) > path.stat().st_size // (SMALL_CHUNK + 100)
        assert not any(chunk_kinds)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda ls: ls[:150] + ["# a comment\n"] + ls[150:],
        lambda ls: ls[:150] + [ls[150].replace("\n", " # a note\n")] + ls[151:],
        # x = 151 on line 153
        lambda ls: replace_field(ls, 152, 0, "1.51e2"),
        lambda ls: ls[:150] + ["\n", "   \n"] + ls[150:],
        # more than a chunk of comments: a chunk without rows
        lambda ls: ls[:150] + ["# " + "-" * 40 + "\n"] * 20 + ls[150:],
    ],
)
def test_read_fallback_chunk_between_canonical_ones(
    tmp_path, small_chunks, chunk_kinds, mutate
):
    want = read_fluc(write_sample(tmp_path, sample_lines(300)))
    chunk_kinds.clear()
    got = read_fluc(write_sample(tmp_path, mutate(sample_lines(300))))
    assert got.tobytes() == want.tobytes()
    assert chunk_kinds[0] is False and chunk_kinds[-1] is False
    assert any(chunk_kinds)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda ls: ls[:150] + ["# a comment\n", "\n", "  # indented\n", " \t\n"] + ls[150:],
        lambda ls: [line.replace("\n", "  # a note\n") for line in ls],
        lambda ls: ["  " + line.replace("\n", " \t\n") for line in ls],
    ],
)
def test_read_chunk_canonical_but_for_comments_takes_the_kernel_again(
    tmp_path, chunk_kinds, mutate
):
    want = read_fluc(write_sample(tmp_path, sample_lines(300)))
    chunk_kinds.clear()
    got = read_fluc(write_sample(tmp_path, mutate(sample_lines(300))))
    assert got.tobytes() == want.tobytes()
    # one chunk: refused as it is, then taken without its comments
    assert chunk_kinds == [True, False]


def spell(value, style):
    """A spelling of ``value`` that ``float`` and ``np.loadtxt`` read back,
    none of them canonical but the plain one."""
    text = repr(value)
    if style == "exponent":
        return format(value, ".17e")
    if style == "upper":
        return format(value, ".16E")
    if style == "plus":
        return text if text.startswith("-") else "+" + text
    if style == "point":  # .5, -.5
        return re.sub(r"^(-?)0\.", r"\1.", text) if "e" not in text else text
    if style == "trailing":  # 1., -0.
        return text[:-1] if text.endswith(".0") else text
    return text


_SPELLED = st.tuples(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["plain", "exponent", "upper", "plus", "point", "trailing"]),
).map(lambda pair: spell(*pair)) | st.sampled_from(
    ["-0", "+0", "-0.", "1.", ".5", "-.5", "+.5e1", "1E5", "-1e-400", "0e0"]
)


@given(
    rows=st.lists(st.tuples(_SPELLED, _SPELLED, _SPELLED), min_size=1, max_size=40),
    blanks=st.lists(st.sampled_from([" ", "  ", "\t", " \t"]), min_size=4, max_size=4),
    comment=st.sampled_from(["", " # note", "# note", "\t#"]),
)
@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_read_non_canonical_rows_give_the_bits_of_loadtxt(
    tmp_path, small_chunks, chunk_kinds, rows, blanks, comment
):
    # a blank inside the first separator keeps every line from the kernel
    lead, left, right, tail = blanks
    body = "".join(
        f"{lead}{a}{left},{right}{b}, {c}{tail}{comment}\n" for a, b, c in rows
    )
    path = tmp_path / "table.csv"
    path.write_text("a,b,c\n" + body)
    chunk_kinds.clear()
    got = [np.concatenate(c) for c in zip(*cli._read_rows(path, "a,b,c", (0, 1, 2)))]
    want = np.loadtxt(io.StringIO(body), delimiter=",", comments="#", ndmin=2)
    assert all(chunk_kinds)
    for column, values in enumerate(got):
        assert values.view(np.uint64).tolist() == want[:, column].view(np.uint64).tolist()


def test_read_lone_cr_line_ends(tmp_path):
    lines = sample_lines()
    want = read_fluc(write_sample(tmp_path, lines))
    path = write_sample(tmp_path, [line.replace("\n", "\r") for line in lines])
    assert read_fluc(path).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda ls: replace_field(ls, 200, 3, "x"), "line 201: non-numeric field in"),
        (lambda ls: ls[:250] + [ls[250].rsplit(",", 1)[0] + "\n"] + ls[251:],
         "line 251: expected 4 fields, got 3"),
        (lambda ls: replace_field(ls, 220, 3, "nan"), "line 221: non-finite number in"),
        (lambda ls: replace_field(ls, 230, 2, "inf"), "line 231: non-finite number in"),
        # psi and smooth are not converted, but their syntax is checked
        (lambda ls: replace_field(ls, 180, 1, "1.2.3"), "line 181: non-numeric field in"),
        (lambda ls: replace_field(ls, 190, 2, "--5"), "line 191: non-numeric field in"),
        (lambda ls: ls[:200] + ls[201:], "x column must be consecutive"),
        (lambda ls: replace_field(ls, 240, 3, "1_000"), "line 241: non-numeric field in"),
    ],
)
def test_read_names_bad_lines_after_the_first_chunk(
    tmp_path, small_chunks, mutate, message
):
    path = write_sample(tmp_path, mutate(sample_lines(300)))
    with pytest.raises(ps.DataFormatError, match=message):
        read_fluc(path)
    result = run("spectrum", "--input", path)
    assert result.exit_code == 3
    assert message.split(" in")[0] in message_of(result)


@pytest.mark.parametrize(
    "mutate, message",
    [
        # a data row in a later chunk
        (lambda ls: replace_field(ls, 200, 3, "1\xff"), "line 201: not UTF-8 text"),
        # a comment line among the data rows, and one before the header
        (lambda ls: ls[:150] + ["# caf\xe9\n"] + ls[150:], "line 151: not UTF-8 text"),
        (lambda ls: ["# caf\xe9\n"] + ls, "line 1: not UTF-8 text"),
        # an earlier bad row is named first, though the text read to find
        # it runs into the undecodable chunk after it
        (lambda ls: replace_field(replace_field(ls, 220, 3, "nan"), 230, 3, "1\xff"),
         "line 221: non-finite number in"),
    ],
)
def test_read_names_a_line_that_is_not_utf8(tmp_path, small_chunks, mutate, message):
    path = tmp_path / "sample.csv"
    # latin-1 writes each of these characters as the one byte of its code
    path.write_bytes("".join(mutate(sample_lines(300))).encode("latin-1"))
    with pytest.raises(ps.DataFormatError, match=message):
        read_fluc(path)
    result = run("spectrum", "--input", path)
    assert result.exit_code == 3
    assert message.split(" in")[0] in message_of(result)


def test_read_multibyte_comments_across_chunk_edges(tmp_path, small_chunks):
    # a comment of 2- and 4-byte characters before every row, so that some
    # of the text layer's reads end inside a character
    lines = sample_lines(300)
    want = read_fluc(write_sample(tmp_path, lines))
    note = "# caf\xe9 " + "\U0001d11e" * 7 + "\n"  # e-acute and a G clef
    noted = lines[:3] + [text for row in lines[3:] for text in (note, row)]
    assert read_fluc(write_sample(tmp_path, noted)).tobytes() == want.tobytes()
    # a byte that is not UTF-8 in a later row is still named by its line
    bad = noted.index(lines[250])
    path = tmp_path / "sample.csv"
    text = "".join(replace_field(noted, bad, 3, "1\udcff"))
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ps.DataFormatError, match=f"line {bad + 1}: not UTF-8 text"):
        read_fluc(path)


def test_read_names_a_bad_row_after_an_x_gap(tmp_path, small_chunks):
    # the gap, at line 101, is in an earlier chunk than the bad row
    lines = sample_lines(300)
    lines = replace_field(lines[:100] + lines[101:], 250, 3, "nan")
    path = write_sample(tmp_path, lines)
    with pytest.raises(ps.DataFormatError, match="line 251: non-finite number in"):
        read_fluc(path)
    result = run("spectrum", "--input", path)
    assert result.exit_code == 3
    assert "line 251: non-finite number" in message_of(result)
    assert "consecutive" not in message_of(result)


@pytest.mark.parametrize(
    "text, message",
    [("nan", "non-finite number in"), ("x", "non-numeric field in"),
     ("1\xff", "not UTF-8 text")],
)
def test_read_opens_its_input_once(tmp_path, small_chunks, monkeypatch, text, message):
    # the last of 300 rows, on line 303, is in the last chunk
    path = tmp_path / "sample.csv"
    lines = replace_field(sample_lines(300), 302, 3, text)
    path.write_bytes("".join(lines).encode("latin-1"))
    opened = []

    def spy(file, *args, **kwargs):
        opened.append(file)
        return builtins.open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", spy, raising=False)
    monkeypatch.setattr(errors, "open", spy, raising=False)
    with pytest.raises(ps.DataFormatError, match=f"line 303: {message}"):
        read_fluc(path)
    assert opened == [path]


def test_read_names_a_line_that_is_not_utf8_among_lone_cr_line_ends(tmp_path):
    lines = replace_field(sample_lines(), 6, 3, "1\xff")
    path = tmp_path / "sample.csv"
    path.write_bytes("".join(lines).replace("\n", "\r").encode("latin-1"))
    with pytest.raises(ps.DataFormatError, match="line 7: not UTF-8 text"):
        read_fluc(path)
    result = run("spectrum", "--input", path)
    assert result.exit_code == 3
    assert "line 7: not UTF-8 text" in message_of(result)


@pytest.mark.parametrize(
    "lone_cr",
    # from the header on, so in the bytes read with it; in a later chunk;
    # and around the bad row
    [slice(0, 100), slice(100, 160), slice(240, 260)],
)
@pytest.mark.parametrize(
    "text, message", [("nan", "non-finite number in"), ("x", "non-numeric field in")]
)
def test_read_names_bad_lines_after_lone_cr_line_ends(
    tmp_path, small_chunks, lone_cr, text, message
):
    lines = replace_field(sample_lines(300), 250, 3, text)
    lines[lone_cr] = [line.replace("\n", "\r") for line in lines[lone_cr]]
    path = write_sample(tmp_path, lines)
    with pytest.raises(ps.DataFormatError, match=f"line 251: {message}"):
        read_fluc(path)


def test_read_names_a_bad_row_after_kernel_chunks_by_its_line(
    tmp_path, small_chunks, chunk_kinds
):
    # the kernel's chunks are counted by their rows, a CRLF one as well
    lines = replace_field(sample_lines(300), 250, 3, "x")
    lines[100:130] = [line.replace("\n", "\r\n") for line in lines[100:130]]
    path = write_sample(tmp_path, lines)
    with pytest.raises(ps.DataFormatError, match="line 251: non-numeric field in"):
        read_fluc(path)
    # many canonical chunks, then the bad row's chunk and its lines
    assert chunk_kinds.count(False) > 20 and chunk_kinds[-1] is True


def test_read_lone_cr_sample_holds_about_one_chunk(tmp_path):
    n = 200_000
    path = tmp_path / "sample.csv"
    assert run("sample", "--n", n, "--out", path).exit_code == 0
    want = read_fluc(path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    tracemalloc.start()
    try:
        got = read_fluc(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    # 3.1 MiB, as with "\n" ends, of which the gathered result
    # takes 1.5 MiB; the 12 MiB file read whole takes 85 MiB
    assert peak < 16 * 2**20


@pytest.mark.parametrize("chunk_bytes", [SMALL_CHUNK, 1 << 16])
def test_read_crlf_and_lone_cr_tables_take_the_kernel(tmp_path, monkeypatch, chunk_bytes):
    path = tmp_path / "sample.csv"
    assert run("sample", "--n", 5000, "--out", path).exit_code == 0
    want = read_fluc(path)
    data = path.read_bytes()
    lines = data.splitlines(keepends=True)
    copies = [
        data.replace(b"\n", b"\r\n"),
        data.replace(b"\n", b"\r"),
        b"".join(lines[:2500] + [lines[2500].replace(b"\n", b"\r\n")] + lines[2501:]),
    ]

    def refuse(path, chunk, n_cols, usecols, first_line):
        raise AssertionError("a chunk fell back to the line walker")

    monkeypatch.setattr(cli, "_parse_lines", refuse)
    monkeypatch.setattr(cli, "_CHUNK_BYTES", chunk_bytes)
    for copy in copies:
        path.write_bytes(copy)
        got = read_fluc(path)
        assert got.tobytes() == want.tobytes()


def test_read_counts_a_crlf_across_a_chunk_edge_once(tmp_path, small_chunks):
    # 43-byte rows: a read of SMALL_CHUNK = 7 * 43 - 1 bytes from the start
    # of a row ends between the "\r" and the "\n" of its seventh
    assert (SMALL_CHUNK + 1) % 43 == 0
    rows = [f"{i:020d},{i:020d}\r\n" for i in range(1, 201)]
    path = tmp_path / "spectrum.csv"
    path.write_text("f,P\r\n" + "".join(rows), newline="")
    assert np.array_equal(cli.read_spectrum_csv(path).freqs, np.arange(1.0, 201.0))
    rows[180] = f"{'x':>20},{181:020d}\r\n"
    path.write_text("f,P\r\n" + "".join(rows), newline="")
    with pytest.raises(ps.DataFormatError, match="line 182: non-numeric field in"):
        cli.read_spectrum_csv(path)


@pytest.mark.parametrize("chunk_bytes", [1, 2, 3, 5, 8, 13, 64])
@pytest.mark.parametrize("ends", [(b"\r",), (b"\n", b"\r", b"\r\n")])
def test_chunks_end_at_line_ends_of_either_kind(monkeypatch, chunk_bytes, ends):
    rng = np.random.default_rng(chunk_bytes)
    data = b"".join(
        b"7" * int(rng.integers(0, 6)) + ends[rng.integers(len(ends))]
        for _ in range(2000)
    )
    monkeypatch.setattr(cli, "_CHUNK_BYTES", chunk_bytes)
    chunks = list(cli._chunks(io.TextIOWrapper(io.BytesIO(data), "utf-8", newline=None)))
    assert all(chunk.endswith(b"\n") for chunk in chunks)
    # no line split in two, and no "\r\n" counted as two line ends
    assert b"".join(chunks).splitlines() == data.splitlines()
    if ends == (b"\r",):
        # about chunk_bytes each: a line of at most 6 bytes more, and "\n"
        assert max(map(len, chunks)) <= chunk_bytes + 7


def traced_peak(command, config):
    """The tracemalloc peak of ``command(config)``, in bytes."""
    tracemalloc.start()
    try:
        command(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectrum_input_holds_the_series_twice(tmp_path, monkeypatch):
    n = 200_000
    path = tmp_path / "sample.csv"
    assert run("sample", "--n", n, "--out", path).exit_code == 0
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 1 << 16)
    config = cli.RunConfig(input_csv=path, output_path=str(tmp_path / "out"))
    peak = traced_peak(cli.cmd_spectrum, config)
    # at most fluc twice and the temporaries of one chunk; all four
    # columns as float64 alone would take 32 bytes per row
    assert peak < 2 * 8 * n + 2**20


def test_spectrum_input_peak_does_not_grow_with_rows(tmp_path):
    peaks = []
    for n in (100_000, 400_000):
        path = tmp_path / f"sample{n}.csv"
        assert run("sample", "--n", n, "--out", path).exit_code == 0
        config = cli.RunConfig(input_csv=path, output_path=os.devnull)
        peaks.append(traced_peak(cli.cmd_spectrum, config))
    # 1.30 MiB at both, one chunk at a time; 8.17 and 10.48 MiB when the
    # reader gathered fluc into one array and read chunks of 1 MiB
    assert peaks[1] - peaks[0] < 0.5 * 2**20


def test_spectrum_input_holds_one_cache_sized_chunk(tmp_path):
    path = tmp_path / "sample.csv"
    assert run("sample", "--n", 100_000, "--out", path).exit_code == 0
    assert path.stat().st_size > 8 * cli._CHUNK_BYTES
    config = cli.RunConfig(input_csv=path, output_path=os.devnull)
    # 1.3 MiB: a chunk of 256 KiB and the kernel's temporaries; 7.7 MiB
    # with chunks of 1 MiB and every temporary of the kernel alive to its
    # end
    assert traced_peak(cli.cmd_spectrum, config) < 3 * 2**20


def comment_lines(result):
    return [line for line in result.output.splitlines() if line.startswith("#")]


def welch_floor(power):
    """Absolute tolerance of a Welch density cut into other blocks: near
    Nyquist the density of psi's steps falls some 14 orders below its
    peak, and there the rounding of the transforms, which depends on the
    cut, exceeds 1e-10 of the bin (up to 4e-10; one array is itself 1.7e-10
    from a long-double Welch at 10**6 samples)."""
    return 1e-15 * float(np.max(power))


def test_spectrum_input_over_many_chunks_matches_library(tmp_path):
    n = 70_000  # about 4 MB of rows, so some 17 chunks of 256 KiB
    path = tmp_path / "sample.csv"
    assert run("sample", "--n", n, "--out", path).exit_code == 0
    assert path.stat().st_size > 3 * cli._CHUNK_BYTES
    y = ps.fluctuation_series(n)
    model = ps.burg_fit(y)
    welch = ps.welch_psd(y, 8192)
    cases = [
        ((), ps.ar_psd(model), 0.0),
        (("--method", "welch", "--segment", 8192), welch, welch_floor(welch.power)),
    ]
    for options, want, atol in cases:
        result = run("spectrum", "--input", path, *options)
        assert result.exit_code == 0
        assert f"# n_samples={n}" in comment_lines(result)
        table = spectrum_table(result)
        assert np.array_equal(table[:, 0], want.freqs)
        assert np.allclose(table[:, 1], want.power, rtol=1e-10, atol=atol)


def test_spectrum_input_default_welch_segment(tmp_path):
    n = 30_000
    path = tmp_path / "sample.csv"
    assert run("sample", "--n", n, "--out", path).exit_code == 0
    reread = run("spectrum", "--input", path, "--method", "welch")
    direct = run("spectrum", "--n", n, "--method", "welch")
    assert reread.exit_code == direct.exit_code == 0
    head = comment_lines(reread)
    assert head == [line for line in comment_lines(direct) if not line.startswith("# x_start=")]
    table, want = spectrum_table(reread), spectrum_table(direct)
    assert "# segment_len=2048" in head and "# n_segments=28" in head
    assert np.array_equal(table[:, 0], want[:, 0])
    assert np.allclose(table[:, 1], want[:, 1], rtol=1e-10, atol=welch_floor(want[:, 1]))


@pytest.mark.parametrize(
    "n, options, message",
    [
        (1, (), "need more than 1 samples to fit order 1, got 1"),
        (1, ("--method", "welch", "--segment", 2),
         "segment length 2 exceeds series length 1"),
        (3, ("--method", "welch", "--segment", 8),
         "segment length 8 exceeds series length 3"),
        (3, ("--method", "welch"), "segment length 8 exceeds series length 3"),
    ],
)
def test_spectrum_input_too_short_is_counted(tmp_path, n, options, message):
    path = tmp_path / "sample.csv"
    path.write_text("".join(sample_lines(n)))
    result = run("spectrum", "--input", path, *options)
    assert result.exit_code == 2
    assert message in message_of(result)


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_basic():
    result = run("sample", "--n", 9)
    assert result.exit_code == 0
    header, rows = data_rows(result.output)
    assert header == "x,psi,smooth,fluc"
    assert len(rows) == 9
    first = rows[0].split(",")
    assert float(first[0]) == 2.0
    assert float(first[3]) == pytest.approx(0.0406096, abs=1e-6)
    # psi - smooth = fluc, column-wise
    for row in rows:
        x, psi, smooth, fluc = map(float, row.split(","))
        assert psi - smooth == pytest.approx(fluc, abs=1e-14)


def test_sample_single_row():
    result = run("sample", "--n", 1)
    assert result.exit_code == 0
    _, rows = data_rows(result.output)
    assert len(rows) == 1


def test_sample_rejects_x_start_1():
    result = run("sample", "--n", 5, "--x-start", 1)
    assert result.exit_code == 2


def test_sample_full_precision_round_trip():
    result = run("sample", "--n", 50)
    _, rows = data_rows(result.output)
    fl = ps.fluctuation_series(50)
    emitted = np.array([float(r.split(",")[3]) for r in rows])
    assert np.array_equal(emitted, fl)  # 17 digits: exact round trip


def test_sample_peak_holds_one_segment():
    config = cli.RunConfig(n_samples=2**19 + 123, output_path=os.devnull)
    # 1.4 MiB: a segment's strike flags and support, its rows of 4096 and
    # a formatted chunk of 2048 rows; 4.0 MiB with a segment of Lambda laid
    # out whole and chunks of 4096 rows; 6.4 MiB while psi took a second
    # array of a segment, and 10.1 MiB while the previous segment's Lambda
    # and psi stayed alive during the sieve of the next
    assert traced_peak(cli.cmd_sample, config) < 8 * 2**20


def test_integer_options_take_any_exact_spelling():
    want = run("sample", "--n", 1000, "--x-start", 30)
    assert want.exit_code == 0
    for n, x_start in (("1e3", "3e1"), ("1.0e3", "30.0"), ("10000e-1", "30")):
        got = run("sample", "--n", n, "--x-start", x_start)
        assert got.exit_code == 0
        assert got.output.encode() == want.output.encode()
    assert run("fit", "--n", "1e4", "--x-start", "1e2").exit_code == 0
    assert run("reconstruct", "--n", "1e1", "--x-start", "1e3").exit_code == 0


@pytest.mark.parametrize("text", ["1.5", "1e-3", "nan", "inf", "-inf", "1e5000", "0x10", ""])
def test_integer_options_refuse_non_integers(text):
    for command in ("sample", "spectrum", "fit", "reconstruct"):
        for option in ("--n", "--x-start"):
            result = run(command, "--n", 100, option, text)
            assert result.exit_code == 2
            assert f"{text!r} is not a valid integer" in message_of(result)


def test_integer_options_keep_their_limits():
    result = run("sample", "--n", "1e20")
    assert result.exit_code == 2
    assert "past the float64-exact range" in message_of(result)
    assert run("sample", "--n", "0e5").exit_code == 2


def test_sample_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run("sample", "--n", 200, "--out", a).exit_code == 0
    assert run("sample", "--n", 200, "--out", b).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_io_error(tmp_path):
    target = tmp_path / "no-such-dir" / "out.csv"
    result = run("sample", "--n", 5, "--out", target)
    assert result.exit_code == 4
    assert "no-such-dir" in message_of(result)


def test_missing_required_flag_is_usage_error():
    result = run("sample")
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_mem_matches_library():
    result = run("spectrum", "--n", 4096)
    assert result.exit_code == 0
    header, rows = data_rows(result.output)
    assert header == "f,P"
    table = np.array([[float(v) for v in r.split(",")] for r in rows])
    y = ps.fluctuation_series(4096)
    spec = ps.ar_psd(ps.burg_fit(y))
    assert np.array_equal(table[:, 0], spec.freqs)
    assert np.array_equal(table[:, 1], spec.power)
    assert "# method=mem" in result.output
    assert "# order=1" in result.output


def test_spectrum_welch_matches_library():
    result = run("spectrum", "--n", 4096, "--method", "welch", "--segment", 512)
    assert result.exit_code == 0
    _, rows = data_rows(result.output)
    table = np.array([[float(v) for v in r.split(",")] for r in rows])
    y = ps.fluctuation_series(4096)
    spec = ps.welch_psd(y, segment_len=512)
    assert np.array_equal(table[:, 0], spec.freqs)
    assert np.array_equal(table[:, 1], spec.power)


def test_spectrum_bad_segment_is_domain_error():
    result = run("spectrum", "--n", 4096, "--method", "welch", "--segment", 1000)
    assert result.exit_code == 2
    result = run("spectrum", "--n", 256, "--method", "welch", "--segment", 512)
    assert result.exit_code == 2


def test_spectrum_too_short_series():
    assert run("spectrum", "--n", 1).exit_code == 2


def test_spectrum_round_trip_through_sample_csv(tmp_path):
    sample_csv = tmp_path / "sample.csv"
    assert (
        run("sample", "--n", 2000, "--out", sample_csv).exit_code == 0
    )
    direct = run("spectrum", "--n", 2000)
    reread = run("spectrum", "--input", sample_csv)
    assert reread.exit_code == 0
    assert data_rows(direct.output) == data_rows(reread.output)


def test_spectrum_rejects_malformed_input_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,psi,smooth,fluc\n2,1,2\n")
    result = run("spectrum", "--input", bad)
    assert result.exit_code == 3
    assert "line 2" in message_of(result)
    missing = run("spectrum", "--input", tmp_path / "nope.csv")
    assert missing.exit_code == 3


@pytest.mark.parametrize("option", ["spectrum --input", "fit --spectrum-csv"])
def test_missing_input_file_exits_3_and_leaves_no_file(tmp_path, option):
    missing = tmp_path / "nope.csv"
    result = run(*option.split(), missing, "--out", tmp_path / "out.csv")
    assert result.exit_code == 3
    assert f"error: input file not found: {missing}\n" in message_of(result)
    assert "Traceback" not in message_of(result)
    assert os.listdir(tmp_path) == []


def test_ar1_sample_bits_unchanged():
    # digest of the draw when the tests carried their own AR(1) recursion
    y = ar1_sample(1234, 10**4)
    digest = hashlib.sha256(y.tobytes()).hexdigest()
    assert digest == (
        "3f7f875fda40f1c9bf13db669adcb6119cef802835190829cf0b52e99223f573"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (["--n", 100, "--seed", -1], "--seed"),
        (["--n", -5], "at least 2 samples, got -5"),
        (["--n", 1], "at least 2 samples, got 1"),
    ],
)
def test_synthetic_bad_size_or_seed_is_usage_error(args, message):
    result = run("spectrum", "--synthetic", "white", *args)
    assert result.exit_code == 2
    assert message in message_of(result)
    assert not isinstance(result.exception, ValueError)


def test_synthetic_blocks_hold_one_draw():
    # 10 000 samples are four whole blocks and a part of one
    draw = np.random.default_rng(5).standard_normal(10_000)
    for kind, want in (("white", draw), ("walk", np.cumsum(draw))):
        blocks = list(cli._synthetic_series(kind, 10_000, 5).blocks)
        assert [b.size for b in blocks] == [cli._CHUNK_ROWS] * 4 + [1808]
        assert np.concatenate(blocks).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["white", "walk"])
def test_synthetic_signal_is_generated_in_blocks(kind):
    config = cli.RunConfig(synthetic=kind, n_samples=200_000, output_path=os.devnull)
    # 1.0 and 0.13 MiB in blocks of 2048 samples; white noise generated
    # whole took 2.5 MiB
    assert traced_peak(cli.cmd_spectrum, config) < 2 * 2**20


@pytest.mark.parametrize(
    "args, words",
    [
        (["--synthetic", "ar1"], ("--synthetic", "'ar1' is not one of")),
        (["--synthetic", "walk", "--ar-coeff", 1], ("No such option", "--ar-coeff")),
    ],
)
def test_removed_autoregressive_signal_is_usage_error(args, words):
    for command in ("spectrum", "fit"):
        result = run(command, *args, "--n", 4096)
        assert result.exit_code == 2
        assert all(word in message_of(result) for word in words)


def test_synthetic_random_walk_is_accepted():
    result = run("fit", "--synthetic", "walk", "--n", 4096)
    assert result.exit_code == 0
    assert json.loads(result.output)["b"] < -1.5


def test_spectrum_synthetic_deterministic_and_seed_sensitive():
    a = run("spectrum", "--synthetic", "white", "--n", 4096, "--seed", 7)
    b = run("spectrum", "--synthetic", "white", "--n", 4096, "--seed", 7)
    c = run("spectrum", "--synthetic", "white", "--n", 4096, "--seed", 8)
    assert a.exit_code == 0
    assert a.output == b.output
    assert a.output != c.output


def test_run_config_seeds_synthetic_signals_like_the_cli(tmp_path):
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        cli.cmd_spectrum(
            cli.RunConfig(synthetic="white", n_samples=1000, output_path=str(out))
        )
    text = outs[0].read_text()
    assert "# synthetic=white seed=0\n" in text
    assert outs[1].read_text() == text
    assert text == run("spectrum", "--synthetic", "white", "--n", 1000).output


@pytest.mark.parametrize(
    "args, message",
    [
        (["spectrum", "--input", "{csv}", "--synthetic", "white", "--n", 100,
          "--x-start", 77], "--input cannot be combined with --synthetic"),
        (["spectrum", "--input", "{csv}", "--n", 100], "--input cannot be combined with --n"),
        (["spectrum", "--input", "{csv}", "--x-start", 2],
         "--input cannot be combined with --x-start"),
        (["spectrum", "--synthetic", "white", "--n", 100, "--x-start", 77],
         "--synthetic cannot be combined with --x-start"),
        (["fit", "--synthetic", "walk", "--n", 100, "--x-start", 77],
         "--synthetic cannot be combined with --x-start"),
        (["fit", "--spectrum-csv", "{csv}", "--n", 100, "--synthetic", "walk",
          "--method", "welch"], "--spectrum-csv cannot be combined with --n"),
        (["fit", "--spectrum-csv", "{csv}", "--x-start", 3],
         "--spectrum-csv cannot be combined with --x-start"),
        (["fit", "--spectrum-csv", "{csv}", "--synthetic", "walk"],
         "--spectrum-csv cannot be combined with --synthetic"),
        (["spectrum", "--input", "{csv}", "--seed", 3],
         "--input cannot be combined with --seed"),
        (["spectrum", "--input", "{csv}", "--synthetic", "walk"],
         "--input cannot be combined with --synthetic"),
        (["fit", "--spectrum-csv", "{csv}", "--method", "welch", "--segment", 8192],
         "--spectrum-csv cannot be combined with --method"),
        (["fit", "--spectrum-csv", "{csv}", "--segment", 8192],
         "--spectrum-csv cannot be combined with --segment"),
        (["fit", "--spectrum-csv", "{csv}", "--n-freq", 7, "--seed", 3],
         "--spectrum-csv cannot be combined with --n-freq"),
        (["fit", "--spectrum-csv", "{csv}", "--n-freq", 64],
         "--spectrum-csv cannot be combined with --n-freq"),
        (["fit", "--spectrum-csv", "{csv}", "--f-lo", 1e-3],
         "--spectrum-csv cannot be combined with --f-lo"),
        (["fit", "--spectrum-csv", "{csv}", "--method", "mem"],
         "--spectrum-csv cannot be combined with --method"),
        (["fit", "--spectrum-csv", "{csv}", "--seed", 3],
         "--spectrum-csv cannot be combined with --seed"),
    ],
)
def test_options_of_another_source_are_refused(tmp_path, args, message):
    csv = tmp_path / "table.csv"
    csv.write_text("".join(sample_lines()))
    result = run(*[str(a).format(csv=csv) for a in args])
    assert result.exit_code == 2
    assert message in message_of(result)


@pytest.mark.parametrize("command", ["spectrum", "fit"])
@pytest.mark.parametrize(
    "args, message",
    [
        (["--n", 1000, "--seed", 3], "--seed needs --synthetic"),
        (["--n", 1000, "--seed", 0], "--seed needs --synthetic"),
        (["--n", 1000, "--method", "mem", "--segment", 64],
         "--segment needs --method welch"),
        (["--n", 1000, "--segment", 64], "--segment needs --method welch"),
        (["--n", 1000, "--method", "welch", "--segment", 64, "--n-freq", 9,
          "--f-lo", 0.01], "--n-freq needs --method mem"),
        (["--n", 1000, "--method", "welch", "--n-freq", 9],
         "--n-freq needs --method mem"),
        (["--n", 1000, "--method", "welch", "--f-lo", 0.01],
         "--f-lo needs --method mem"),
    ],
)
def test_options_that_apply_to_nothing_are_refused(command, args, message):
    result = run(command, *args)
    assert result.exit_code == 2
    assert message in message_of(result)


def test_autoregressive_order_is_one():
    # orders above 1 are gone: the option is unknown, and so is the argument
    for args in (["fit", "--n", 1000, "--order", 3],
                 ["spectrum", "--n", 1000, "--order", 2]):
        result = run(*args)
        assert result.exit_code == 2
        assert re.search(r"No such option:? '?--order", message_of(result))
    with pytest.raises(TypeError):
        ps.burg_fit(np.arange(10.0), order=1)


# ---------------------------------------------------------------------------
# streaming: many segments, memory of one segment
# ---------------------------------------------------------------------------


def spectrum_table(result):
    assert result.exit_code == 0
    _, rows = data_rows(result.output)
    return np.array([[float(v) for v in r.split(",")] for r in rows])


def test_sample_bytes_across_segments(tmp_path, small_segments):
    n, x_start = 3 * SMALL_SEGMENT + 123, 3000
    out = tmp_path / "sample.csv"
    assert run("sample", "--n", n, "--x-start", x_start, "--out", out).exit_code == 0
    psi = ps.psi_series(n, x_start=x_start)
    x = x_start + np.arange(n)
    smooth = ps.smooth_part(x)
    assert out.read_text() == (
        f"# psispec sample\n# n={n} x_start={x_start} dx=1\nx,psi,smooth,fluc\n"
        + csv_rows(x, psi, smooth, psi - smooth)
    )


def test_streamed_spectra_match_materialised(small_segments):
    n = 20_000
    y = ps.remove_mean(ps.fluctuation_series(n))
    table = spectrum_table(run("spectrum", "--n", n))
    spec = ps.ar_psd(ps.burg_fit(y))
    assert np.array_equal(table[:, 0], spec.freqs)
    assert np.allclose(table[:, 1], spec.power, rtol=1e-10, atol=0)
    result = run("spectrum", "--n", n, "--method", "welch", "--segment", 512)
    table = spectrum_table(result)
    spec = ps.welch_psd(y, segment_len=512)
    assert np.array_equal(table[:, 0], spec.freqs)
    assert np.allclose(table[:, 1], spec.power, rtol=1e-10, atol=0)
    assert f"# n_segments={spec.estimator['n_segments']}" in result.output


@pytest.mark.parametrize(
    "options",
    [[], ["--method", "welch", "--segment", 8192]],
    ids=["mem", "welch8192"],
)
@pytest.mark.parametrize("x_start", [2, 3000])
def test_input_gives_the_bytes_of_n(tmp_path, small_segments, small_chunks,
                                    x_start, options):
    # the reader's chunks end at other rows than the sieve's segments, and
    # from 3000 the first segment is short; the estimators read both in the
    # same rows, so only the "#" lines may differ
    n = 2 * SMALL_SEGMENT + 123
    table = tmp_path / "sample.csv"
    assert run("sample", "--n", n, "--x-start", x_start, "--out", table).exit_code == 0
    by_n = run("spectrum", "--n", n, "--x-start", x_start, *options)
    by_input = run("spectrum", "--input", table, *options)
    assert by_n.exit_code == by_input.exit_code == 0
    assert body_of(by_input.output) == body_of(by_n.output)


@pytest.mark.parametrize(
    "args, message",
    [
        (["spectrum", "--n", 100_000, "--n-freq", 1],
         "need at least two frequency points, got 1"),
        (["spectrum", "--n", 100_000, "--f-lo", 0.7],
         "f_min must lie in (0, 0.5) cycles per sample unit, got 0.7"),
        (["fit", "--n", 100_000, "--n-freq", 1],
         "need at least two frequency points, got 1"),
        (["reconstruct", "--n", 10, "--x-start", 10**6, "--K", 5000],
         "requested 5000 zeros but the table holds 2000"),
        (["reconstruct", "--n", 10, "--x-start", 10**6, "--K", -1],
         "zero count must be nonnegative, got -1"),
    ],
)
def test_bad_options_are_refused_before_sieving(monkeypatch, args, message):
    sieved = []
    segment = _kernels.mangoldt_segment

    def counting(lo, hi, *rest):
        sieved.append(hi - lo)
        return segment(lo, hi, *rest)

    monkeypatch.setattr(_kernels, "mangoldt_segment", counting)
    result = run(*args)
    assert result.exit_code == 2
    assert message in message_of(result)
    assert not sieved


STREAMED_COMMANDS = pytest.mark.parametrize(
    "name, command, options",
    [
        ("fit", cli.cmd_fit, {"method": "mem"}),
        ("spectrum", cli.cmd_spectrum, {"method": "welch", "welch_segment": 8192}),
    ],
)


@STREAMED_COMMANDS
def test_streamed_commands_hold_about_one_segment(tmp_path, name, command, options):
    config = cli.RunConfig(
        n_samples=3 * 2**20 + 12_345,
        output_path=str(tmp_path / "out"),
        **options,
    )
    peak = traced_peak(command, config)
    # 0.6 MiB (fit) and 1.1 MiB (spectrum) with segments of 2**18 integers
    assert peak < 16 * 2**20


@STREAMED_COMMANDS
def test_streamed_commands_take_one_array_per_segment(tmp_path, name, command, options):
    config = cli.RunConfig(
        n_samples=3 * 2**20 + 12_345,
        output_path=str(tmp_path / "out"),
        **options,
    )
    peak = traced_peak(command, config)
    # a segment's support, laid out in rows of 4096 that each take their
    # prefix and smooth part: 0.6 MiB (fit) and 1.1 MiB (spectrum); 2.9
    # and 3.3 MiB with a segment of Lambda laid out whole; 5.0 and 5.5 MiB
    # while psi was written over Lambda and the block a consumer held kept
    # the segment before alive; 8.3 and 8.7 MiB while the prefix, its half
    # of Lambda and the smooth part took 2 MiB each
    assert peak < 6.5 * 2**20


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_json_shape_and_values():
    result = run("fit", "--n", 10**4)
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert list(report) == [
        "a",
        "b",
        "f_min",
        "f_max",
        "n_points",
        "r_squared",
        "residual_rms",
    ]
    assert report["f_min"] == 1e-3 and report["f_max"] == 1e-1
    assert report["a"] > 0
    assert -2.2 < report["b"] < -1.5


def test_fit_spectrum_csv_hook(tmp_path):
    freqs = np.logspace(-3, -1, 40)
    table = tmp_path / "spec.csv"
    lines = ["f,P"] + [
        f"{format(f, '.17g')},{format(3.0 * f**-2.0, '.17g')}" for f in freqs
    ]
    table.write_text("\n".join(lines) + "\n")
    result = run("fit", "--spectrum-csv", table)
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["a"] == pytest.approx(3.0, rel=1e-10)
    assert report["b"] == pytest.approx(-2.0, abs=1e-10)
    assert report["r_squared"] == pytest.approx(1.0, abs=1e-12)


def test_fit_synthetic_white_noise_is_flat():
    result = run("fit", "--synthetic", "white", "--n", 8192, "--seed", 3)
    assert result.exit_code == 0
    assert abs(json.loads(result.output)["b"]) < 0.3


def test_fit_band_of_a_non_number_is_a_usage_error():
    result = run("fit", "--n", 1024, "--band", "1e-3:abc")
    assert result.exit_code == 2
    assert "--band expects two decimals, got '1e-3:abc'" in message_of(result)


def test_fit_band_validation():
    assert run("fit", "--n", 1024, "--band", "0.2:0.1").exit_code == 2
    assert run("fit", "--n", 1024, "--band", "abc").exit_code == 2
    assert run("fit", "--n", 1024, "--band", "1e-3:0.7").exit_code == 2


def spectrum_table_file(path, freqs):
    lines = ["f,P"] + [
        f"{format(f, '.17g')},{format(3.0 * f**-2.0, '.17g')}" for f in freqs
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_fit_spectrum_csv_band_up_to_table_nyquist(tmp_path):
    table = spectrum_table_file(tmp_path / "spec.csv", np.linspace(0.05, 2.0, 40))
    result = run("fit", "--spectrum-csv", table, "--band", "0.1:1.0")
    assert result.exit_code == 0, message_of(result)
    assert json.loads(result.output)["b"] == pytest.approx(-2.0, abs=1e-10)


@pytest.mark.parametrize("nyquist, band", [(2.0, "0.1:3.0"), (0.25, "0.01:0.4")])
def test_fit_spectrum_csv_band_above_table_nyquist(tmp_path, nyquist, band):
    freqs = np.linspace(0.005, nyquist, 40)
    table = spectrum_table_file(tmp_path / "spec.csv", freqs)
    result = run("fit", "--spectrum-csv", table, "--band", band)
    assert result.exit_code == 2
    assert f"within (0, {format(nyquist, '.17g')}]" in message_of(result)


def readme_fit_report():
    """``key: shown value`` of the fit report block in README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(
        r"The report of `psispec fit --n 100000 --band 1e-3:1e-1`.*?"
        r"```json\n\{\n(.*?)\}\n```",
        readme, re.S,
    )
    pairs = re.findall(r'"(\w+)": ([^,\n]+)', block.group(1))
    return dict(pairs)


def test_readme_fit_report_matches_a_run():
    shown = readme_fit_report()
    result = run("fit", "--n", 100_000, "--band", "1e-3:1e-1")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert list(shown) == list(report)
    assert int(shown["n_points"]) == report["n_points"]
    for key in ("a", "b", "r_squared", "residual_rms"):
        digits = shown[key].removesuffix("...")
        assert len(digits) >= 6 and shown[key].endswith("...")
        assert repr(report[key]).startswith(digits), key


def test_readme_random_walk_fits_match_runs():
    """README's b and a of ``fit`` on psi_fluc and on a random walk, and the
    ratio of the two a, agree with runs of the commands it quotes, to the
    digits it prints."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quoted = re.findall(
        r"`psispec (fit [^`]*)`[^`]*?gives b = −([\d.]+) \(a = ([\d.]+)\)", readme
    )
    assert [args for args, _, _ in quoted] == [
        "fit --n 1000000",
        "fit --synthetic walk --seed 0 --n 1000000",
    ]
    amplitudes = []
    for args, b, a in quoted:
        result = run(*args.split())
        assert result.exit_code == 0, message_of(result)
        report = json.loads(result.output)
        for shown, value in ((b, -report["b"]), (a, report["a"])):
            decimals = len(shown.partition(".")[2])
            assert f"{value:.{decimals}f}" == shown, args
        amplitudes.append(report["a"])
    (ratio,) = re.findall(r"the amplitudes, ([\d.]+),", readme)
    assert f"{amplitudes[0] / amplitudes[1]:.2f}" == ratio


@pytest.mark.parametrize(
    "row, value, line",
    [(1, "nan,1.0", 3), (39, "inf,1.0", 41), (5, "0.06,nan", 7), (0, "0.01,inf", 2)],
)
def test_fit_spectrum_csv_refuses_non_finite(tmp_path, row, value, line):
    table = spectrum_table_file(tmp_path / "spec.csv", np.linspace(0.01, 0.5, 40))
    lines = table.read_text().splitlines(keepends=True)
    lines[row + 1] = value + "\n"
    table.write_text("".join(lines))
    result = run("fit", "--spectrum-csv", table)
    assert result.exit_code == 3
    assert f"line {line}: non-finite number in '{value}'" in message_of(result)


def test_fit_unreadable_spectrum_is_format_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("f,P\n0.01,1.0\n0.005,2.0\n")  # descending frequencies
    assert run("fit", "--spectrum-csv", bad).exit_code == 3


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def test_reconstruct_against_library(zeros):
    result = run("reconstruct", "--n", 20, "--K", 50)
    assert result.exit_code == 0
    header, rows = data_rows(result.output)
    assert header == "x,fluc_direct,fluc_zeros,abs_err"
    assert len(rows) == 19  # half-integer points inside [2, 21]
    table = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert np.array_equal(table[:, 0], 2.5 + np.arange(19))
    direct = ps.fluctuation_at(table[:, 0])
    recon = ps.psi_fluc_from_zeros(table[:, 0], zeros, 50)
    assert np.array_equal(table[:, 1], direct)
    assert np.array_equal(table[:, 2], recon)
    assert np.allclose(table[:, 3], np.abs(direct - recon), rtol=0, atol=0)


def test_reconstruct_needs_two_integers():
    result = run("reconstruct", "--n", 1)
    assert result.exit_code == 2
    assert "need a range of at least 2 integers, got n=1" in message_of(result)


def test_reconstruct_names_the_bundled_table_by_its_content(tmp_path, monkeypatch):
    data = ps.bundled_zeros_path().read_bytes()
    outputs = []
    for where in ("one", "two"):
        copy = tmp_path / where / "zeta_zeros_2000.txt"
        copy.parent.mkdir()
        copy.write_bytes(data)
        monkeypatch.setattr(cli, "bundled_zeros_path", lambda copy=copy: copy)
        result = run("reconstruct", "--n", 6, "--K", 10)
        assert result.exit_code == 0
        outputs.append(result.output)
    assert outputs[0] == outputs[1]
    head = f"# zeros=bundled:zeta_zeros_2000.txt crc32={zlib.crc32(data):08x} K=10\n"
    assert head in outputs[0]
    # a table given by --zeros is named by its path
    given = run("reconstruct", "--n", 6, "--K", 10, "--zeros", copy)
    assert f"# zeros={copy} K=10\n" in given.output
    assert body_of(given.output) == body_of(outputs[0])


def test_reconstruct_k_zero_gives_zero_column():
    result = run("reconstruct", "--n", 6, "--K", 0)
    assert result.exit_code == 0
    _, rows = data_rows(result.output)
    assert all(float(r.split(",")[2]) == 0.0 for r in rows)


def test_reconstruct_k_beyond_table():
    assert run("reconstruct", "--n", 6, "--K", 5000).exit_code == 2


def test_reconstruct_zeros_file_errors(tmp_path):
    missing = run("reconstruct", "--n", 6, "--zeros", tmp_path / "nope.txt")
    assert missing.exit_code == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("21.0\n14.1\n")
    broken = run("reconstruct", "--n", 6, "--zeros", bad)
    assert broken.exit_code == 3
    assert "line 2" in message_of(broken)


def test_reconstruct_zeros_file_not_utf8(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"# zeros\n14.134725141734693\n21.0\xff\n25.0\n")
    result = run("reconstruct", "--n", 6, "--zeros", bad)
    assert result.exit_code == 3
    assert f"{bad}: line 3: not UTF-8 text" in message_of(result)


def test_reconstruct_custom_zeros_table(tmp_path, zeros):
    table = tmp_path / "small.txt"
    lines = [format(t, ".17g") for t in zeros.ordinates[:25]]
    table.write_text("\n".join(lines) + "\n")
    result = run("reconstruct", "--n", 8, "--zeros", table)
    assert result.exit_code == 0  # K defaults to the table size
    _, rows = data_rows(result.output)
    recon = ps.psi_fluc_from_zeros(2.5 + np.arange(7), zeros, 25)
    emitted = np.array([float(r.split(",")[2]) for r in rows])
    assert np.allclose(emitted, recon, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------


def test_analytic_default_band():
    result = run("analytic")
    assert result.exit_code == 0
    header, rows = data_rows(result.output)
    assert header == "f,P_analytic"
    assert len(rows) == 512
    table = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert np.all(table[:, 1] >= 0)
    assert table[0, 0] == 1e-3 and table[-1, 0] == 1e-1


def test_analytic_band_starting_at_two_pi():
    result = run("analytic", "--band", f"{2 * math.pi}:100", "--n-freq", 32)
    assert result.exit_code == 0
    _, rows = data_rows(result.output)
    first = rows[0].split(",")
    assert float(first[1]) == 0.0


def test_analytic_rejects_nonpositive_band():
    assert run("analytic", "--band", "0:1").exit_code == 2
    assert run("analytic", "--band", "-1:1").exit_code == 2


@pytest.mark.parametrize("command", ["analytic", "fit"])
@pytest.mark.parametrize("band", ["1:inf", "1e-3:nan", "-inf:1"])
def test_non_finite_band_is_a_usage_error(command, band):
    result = run(command, "--band", band)
    assert result.exit_code == 2
    assert f"--band expects finite decimals, got '{band}'" in message_of(result)
    assert "Warning" not in message_of(result)


def test_analytic_determinism():
    a = run("analytic", "--band", "1e-3:1e-1")
    b = run("analytic", "--band", "1e-3:1e-1")
    assert a.output == b.output
