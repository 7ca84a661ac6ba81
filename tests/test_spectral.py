import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psispec as ps
from psispec import _kernels, spectral
from psispec.errors import DegenerateInputError, DomainError

import oracles
from conftest import ar1_sample


# ---------------------------------------------------------------------------
# Burg fitting
# ---------------------------------------------------------------------------


def test_burg_ar1_against_yule_walker():
    y = ps.remove_mean(ar1_sample(1234, 10**4))
    model = ps.burg_fit(y)
    a_yw = oracles.yule_walker(y, order=1)[0]
    assert -0.93 <= model.coeff <= -0.87
    assert abs(model.coeff - a_yw) < 0.01
    assert model.noise_var >= 0.0
    assert model.n_samples == 10**4


def test_burg_white_noise_has_no_memory():
    rng = np.random.default_rng(77)
    w = ps.remove_mean(rng.standard_normal(10**4))
    model = ps.burg_fit(w)
    assert abs(model.coeff) < 0.05
    assert model.noise_var == pytest.approx(w.var(), rel=0.05)


def test_burg_reflection_coefficients_bounded():
    # an AR(1) sample, a random walk (k near -1) and an alternating series
    # (k near +1)
    rng = np.random.default_rng(5)
    walk = np.cumsum(rng.standard_normal(4096))
    alternating = np.where(np.arange(4096) % 2, 1.0, -1.0) + 0.01 * walk
    for y in (ar1_sample(5, 4096, coeff=0.7), walk, alternating):
        assert abs(ps.burg_fit(y).coeff) <= 1.0


def test_burg_accepts_fluc_series(fluc_1e4):
    model = ps.burg_fit(fluc_1e4)
    assert abs(model.coeff) <= 1.0


def test_burg_validation():
    with pytest.raises(DegenerateInputError):
        ps.burg_fit(np.full(100, 3.25))
    with pytest.raises(DomainError):
        ps.burg_fit(np.arange(1.0))
    with pytest.raises(DomainError):
        ps.burg_fit(np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# AR spectrum
# ---------------------------------------------------------------------------


def test_ar_psd_flat_for_memoryless_model():
    model = ps.ArModel(coeff=0.0, noise_var=2.5)
    spec = ps.ar_psd(model)
    assert np.allclose(spec.power, 2.0 * 2.5 * 1.0, rtol=1e-14)
    assert spec.freqs[0] == 1e-4 and spec.freqs[-1] == 0.5
    assert spec.freqs.size == 512
    assert np.all(np.diff(spec.freqs) > 0)
    assert spec.estimator["method"] == "mem"


def test_ar_psd_low_to_nyquist_ratio():
    model = ps.ArModel(coeff=-0.9, noise_var=1.0)
    spec = ps.ar_psd(model, n_freq=2, f_min=1e-9)
    assert spec.power[0] / spec.power[-1] == pytest.approx(361.0, rel=1e-6)
    dense = ps.ar_psd(model)
    assert np.all(np.diff(dense.power) < 0)


@pytest.mark.parametrize("coeff", [-0.9, -0.5, 0.0, 0.5, 0.9])
def test_ar_psd_is_the_one_pole_density(coeff):
    model = ps.ArModel(coeff=coeff, noise_var=1.7)
    spec = ps.ar_psd(model, n_freq=257, f_min=1e-5)
    want = 2.0 * 1.7 / (
        1.0 + 2.0 * coeff * np.cos(2.0 * np.pi * spec.freqs) + coeff * coeff
    )
    assert np.allclose(spec.power, want, rtol=1e-12, atol=0.0)
    assert spec.estimator["order"] == 1


def test_ar_psd_validation():
    model = ps.ArModel(coeff=0.0, noise_var=1.0)
    with pytest.raises(DomainError):
        ps.ar_psd(model, n_freq=1)
    with pytest.raises(DomainError):
        ps.ar_psd(model, f_min=0.0)
    with pytest.raises(DomainError):
        ps.ar_psd(model, f_min=0.7)


# ---------------------------------------------------------------------------
# Welch spectrum
# ---------------------------------------------------------------------------


def test_welch_tone_localization():
    x = np.arange(1, 2**14 + 1, dtype=np.float64)
    spec = ps.welch_psd(np.sin(2.0 * np.pi * 0.1 * x), segment_len=2**12)
    peak = spec.freqs[int(np.argmax(spec.power))]
    assert abs(peak - 0.1) <= 0.5 / 2**12  # nearest bin


def test_welch_parseval_on_white_noise():
    rng = np.random.default_rng(2718)
    w = rng.standard_normal(2**17)
    spec = ps.welch_psd(w)
    df = spec.freqs[1] - spec.freqs[0]
    assert float(np.sum(spec.power) * df) == pytest.approx(w.var(), rel=0.05)


def test_welch_matches_scipy_reference():
    scipy_signal = pytest.importorskip("scipy.signal")
    y = ar1_sample(99, 2**13, coeff=0.6)
    spec = ps.welch_psd(y, segment_len=1024)
    f_ref, p_ref = scipy_signal.welch(
        ps.remove_mean(y),
        fs=1.0,
        window="hann",
        nperseg=1024,
        noverlap=512,
        detrend=False,
        scaling="density",
    )
    assert np.allclose(spec.freqs, f_ref, rtol=0, atol=1e-15)
    assert np.allclose(spec.power, p_ref, rtol=1e-10, atol=1e-13)


def test_welch_default_segment_matches_scipy_on_fluctuation():
    """Each step of psi_fluc, (Lambda(n) + Lambda(n-1))/2 - 1, averages
    two terms of Lambda, with power gain cos^2(pi f), which is 0 at
    f = 1/2: the top bins hold almost no power, and only there can the
    relative error be large."""
    scipy_signal = pytest.importorskip("scipy.signal")
    y = ps.fluctuation_series(2**20)
    spec = ps.welch_psd(y)
    assert spec.estimator["segment_len"] == 2**17
    _, p_ref = scipy_signal.welch(
        ps.remove_mean(y),
        fs=1.0,
        window="hann",
        nperseg=2**17,
        noverlap=2**16,
        detrend=False,
        scaling="density",
    )
    low = spec.freqs <= 0.4
    assert np.allclose(spec.power[low], p_ref[low], rtol=1e-10, atol=0)
    at = {f: spec.power[np.searchsorted(spec.freqs, f)] for f in (0.45, 0.5)}
    assert at[0.5] / at[0.45] < 1e-6


def test_welch_one_sided_folding_identity():
    rng = np.random.default_rng(11)
    y = rng.standard_normal(256)
    spec = ps.welch_psd(y, segment_len=256)  # one Hann segment
    assert spec.estimator["n_segments"] == 1
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(256) / 256)
    tapered = np.fft.fft(ps.remove_mean(y) * w)
    spectrum_full = np.abs(tapered) ** 2 / np.sum(w * w)  # two-sided density, fs=1
    folded = spectrum_full[:129].copy()
    folded[1:-1] += spectrum_full[-1:-128:-1]
    assert np.allclose(spec.power, folded, rtol=1e-10, atol=1e-13)
    # real input: |H(f)| = |H(-f)|
    mags = np.abs(tapered)
    assert np.allclose(mags[1:128], mags[-1:-128:-1], rtol=1e-12, atol=0)


def test_welch_default_segment_rule():
    assert ps.default_segment_len(10**5) == 2**13
    assert ps.default_segment_len(2**17) == 2**14
    assert ps.default_segment_len(100) == 8
    spec = ps.welch_psd(np.random.default_rng(0).standard_normal(10**5))
    assert spec.estimator["segment_len"] == 2**13


def test_welch_grid_and_metadata():
    y = ar1_sample(1, 4096)
    spec = ps.welch_psd(y, segment_len=512)
    assert np.array_equal(spec.freqs, np.arange(257) / 512.0)
    assert spec.power.size == 257
    assert np.all(spec.power >= 0)
    est = spec.estimator
    assert est["method"] == "welch" and est["window"] == "hann"
    assert est["segment_len"] == 512 and est["n_samples"] == 4096
    assert est["n_segments"] == (4096 - 512) // 256 + 1


def test_welch_validation():
    y = np.arange(64.0)
    with pytest.raises(DomainError):
        ps.welch_psd(y, segment_len=128)
    with pytest.raises(DomainError):
        ps.welch_psd(y, segment_len=48)  # not a power of two


# ---------------------------------------------------------------------------
# Cross-estimator consistency
# ---------------------------------------------------------------------------


def test_estimators_agree_on_ar1_sample():
    y = ps.remove_mean(ar1_sample(2024, 2**17))
    mem = ps.ar_psd(ps.burg_fit(y))
    wel = ps.welch_psd(y, segment_len=2048)
    band = (wel.freqs >= 1e-2) & (wel.freqs <= 0.25)
    mem_interp = np.interp(
        np.log10(wel.freqs[band]), np.log10(mem.freqs), np.log10(mem.power)
    )
    dev = np.abs(mem_interp - np.log10(wel.power[band]))
    assert float(dev.max()) < np.log10(2.0)  # within a factor of 2


def test_estimators_agree_on_fluctuation():
    y = ps.remove_mean(ps.fluctuation_series(2**14))
    mem = ps.ar_psd(ps.burg_fit(y))
    wel = ps.welch_psd(y)
    band = (wel.freqs >= 1e-3) & (wel.freqs <= 1e-1) & (wel.power > 0)
    mem_interp = np.interp(
        np.log10(wel.freqs[band]), np.log10(mem.freqs), np.log10(mem.power)
    )
    med = float(np.median(np.abs(mem_interp - np.log10(wel.power[band]))))
    assert med < 0.5


# ---------------------------------------------------------------------------
# Mean removal
# ---------------------------------------------------------------------------


def test_remove_mean_basic():
    out = ps.remove_mean([1.0, 2.0, 3.0])
    assert np.array_equal(out, [-1.0, 0.0, 1.0])
    assert np.array_equal(ps.remove_mean(out), out)  # already centered


def test_remove_mean_on_fluctuation(fluc_1e4):
    out = ps.remove_mean(fluc_1e4)
    shift = abs(fluc_1e4.mean())
    assert shift < np.abs(fluc_1e4).max()
    assert abs(out.mean()) < 1e-12


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=50, deadline=None)
def test_remove_mean_properties(xs):
    arr = np.asarray(xs, dtype=np.float64)
    out = ps.remove_mean(arr)
    scale = max(1.0, float(np.abs(arr).max()))
    assert abs(float(out.mean())) < 1e-9 * scale
    assert np.allclose(out + arr.mean(), arr, rtol=0, atol=1e-9 * scale)


# ---------------------------------------------------------------------------
# One-pass estimation of a series given in blocks
# ---------------------------------------------------------------------------


def _fluctuation_blocks(n, x_start=2):
    rows = ps.fluctuation_rows(n, x_start)
    return ps.BlockSeries(blocks=(fluc for *_, fluc in rows), n=n)


def _split(values, sizes):
    """``values`` as copied blocks of the given sizes, then the rest."""
    edges = np.cumsum(sizes)
    return ps.BlockSeries(
        blocks=[b.copy() for b in np.split(values, edges)], n=values.size
    )


@pytest.mark.parametrize("n, x_start", [(40_000, 2), (30_000, 100_000)])
def test_streamed_estimators_match_materialised(small_segments, n, x_start):
    y = ps.fluctuation_series(n, x_start)
    got = ps.burg_fit(_fluctuation_blocks(n, x_start))
    want = ps.burg_fit(y)
    assert got.coeff == want.coeff
    assert got.noise_var == want.noise_var
    assert got.n_samples == want.n_samples == n
    got = ps.welch_psd(_fluctuation_blocks(n, x_start), 512)
    want = ps.welch_psd(y, 512)
    assert np.array_equal(got.freqs, want.freqs)
    assert np.array_equal(got.power, want.power)
    assert got.estimator == want.estimator


def test_irregular_blocks_match_one_array():
    # blocks shorter than a segment, an empty block, and a large offset
    x = ar1_sample(3, 5000, coeff=0.6) + 40.0
    sizes = [1, 700, 0, 300, 17, 2500]
    got = ps.burg_fit(_split(x, sizes))
    want = ps.burg_fit(x)
    assert got.coeff == want.coeff
    assert got.noise_var == want.noise_var
    for segment_len in (256, 512):
        got = ps.welch_psd(_split(x, sizes), segment_len)
        want = ps.welch_psd(x, segment_len)
        assert np.array_equal(got.power, want.power)
        assert got.estimator == want.estimator


#: A series of a little over two rows and one 8192-sample Welch segment.
PARTITIONED = ar1_sample(21, 2 * _kernels.ROW_LEN + 1500, coeff=0.97) - 25.0
WELCH_SEGMENTS = (2, 256, 4096, 8192)


@functools.cache
def _one_array_estimates():
    model = ps.burg_fit(PARTITIONED)
    welch = [ps.welch_psd(PARTITIONED, s).power for s in WELCH_SEGMENTS]
    return model, welch


@given(sizes=st.lists(
    st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 6000)), max_size=12
))
@settings(max_examples=20, deadline=None)
def test_any_partition_gives_the_bits_of_one_array(sizes):
    # rows are counted from the first sample whatever the blocks, so every
    # partition, empty and one-sample blocks included, is estimated alike
    x = PARTITIONED
    want, welch = _one_array_estimates()
    got = ps.burg_fit(_split(x, sizes))
    assert got.coeff == want.coeff
    assert got.noise_var == want.noise_var
    for segment_len, power in zip(WELCH_SEGMENTS, welch):
        assert np.array_equal(ps.welch_psd(_split(x, sizes), segment_len).power, power)


@pytest.mark.parametrize("seed", [2, 7, 9])
def test_burg_sums_do_not_lose_precision_over_many_rows(seed):
    # a random walk has k close to -1, where 1 + k, and with it the noise
    # variance, comes from a difference of the four sums; over 1024 rows,
    # plain running sums put k off the longdouble closed form by 12.5 to
    # 13.5 eps on these seeds, the Kahan pairs by at most 2 eps (seeds 0-9)
    n, row = 1 << 22, _kernels.ROW_LEN
    x = np.cumsum(np.random.default_rng(seed).standard_normal(n)) + 1e4
    k, noise_var = oracles.burg1_longdouble(x)
    blocks = (x[lo : lo + row].copy() for lo in range(0, n, row))
    got = ps.burg_fit(ps.BlockSeries(blocks=blocks, n=n))
    eps = np.spacing(1.0)
    assert abs(got.coeff - k) <= 3 * eps
    assert abs(got.noise_var - noise_var) <= 3 * eps / (1.0 + k) * noise_var


def test_demean_of_one_array_keeps_the_bits():
    x = ar1_sample(8, 3000) + 7.0
    before = x.copy()
    got = ps.burg_fit(x)
    coeff, noise_var = oracles.burg1_array(ps.remove_mean(x))
    assert got.coeff == coeff
    assert got.noise_var == noise_var
    assert np.array_equal(x, before)  # the caller's array is left as it was


def test_block_series_validation():
    with pytest.raises(DegenerateInputError):
        ps.burg_fit(_split(np.full(100, 3.25), [10, 50]))
    with pytest.raises(DomainError):
        ps.burg_fit(ps.BlockSeries(blocks=[np.ones(5), np.zeros(5)], n=12))
    with pytest.raises(DomainError):
        ps.welch_psd(ps.BlockSeries(blocks=[np.arange(64.0)], n=64), 128)
    with pytest.raises(DomainError):
        ps.welch_psd(ps.BlockSeries(blocks=[np.zeros((8, 8))], n=64), 32)


def _stream(values, sizes):
    """``values`` in copied blocks of the given sizes, then the rest, as a
    BlockSeries of unknown length that can be read once."""
    edges = np.cumsum(sizes)
    return ps.BlockSeries(blocks=(b.copy() for b in np.split(values, edges)))


def test_unknown_length_is_counted():
    x = ar1_sample(5, 5000, coeff=0.6) + 40.0
    sizes = [1, 700, 0, 300, 17, 2500]
    got = ps.burg_fit(_stream(x, sizes))
    want = ps.burg_fit(_split(x, sizes))
    assert got.coeff == want.coeff
    assert got.noise_var == want.noise_var
    assert got.n_samples == want.n_samples == x.size
    for segment_len in (256, None):
        got = ps.welch_psd(_stream(x, sizes), segment_len)
        want = ps.welch_psd(_split(x, sizes), segment_len)
        assert np.array_equal(got.power, want.power)
        assert got.estimator == want.estimator
    assert got.estimator["segment_len"] == 512 and got.estimator["n_samples"] == 5000


@pytest.mark.parametrize(
    "sizes", [[5000], [1, 700, 0, 300, 17, 3982], [255, 2, 256, 1, 4486], [100] * 50]
)
def test_segments_are_views_or_one_buffer(sizes):
    x = np.arange(5000.0)
    segment_len, step = 256, 128
    blocks = [b.copy() for b in np.split(x, np.cumsum(sizes)[:-1])]
    buffers = set()
    got = []

    def leftover():
        rest = yield from spectral._segments(iter(blocks), segment_len, step)
        got.append(rest.copy())

    for segment in leftover():
        if not any(np.shares_memory(segment, b) for b in blocks):
            buffers.add(id(segment))
            assert segment.size == segment_len
        got.append(segment.copy())
    starts = range(0, x.size - segment_len + 1, step)
    want = [x[i : i + segment_len] for i in starts]
    assert np.array_equal(got[:-1], want)
    # segments that straddle blocks all come in one buffer
    assert len(buffers) == (len(blocks) > 1)
    # the samples from the start of the first segment that did not come whole
    assert np.array_equal(got[-1], x[starts[-1] + step :])


def test_welch_short_blocks_hold_a_few_segments():
    # 2^19 samples arrive in blocks of 1000 for segments of 2^16, so every
    # segment straddles blocks and is built in the one buffer
    segment_len, n, size = 1 << 16, 1 << 19, 1000

    def blocks():
        rng = np.random.default_rng(3)
        for lo in range(0, n, size):
            yield rng.standard_normal(min(size, n - lo))

    tracemalloc.start()
    try:
        spec = ps.welch_psd(ps.BlockSeries(blocks=blocks(), n=n), segment_len)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.estimator["n_segments"] == 15
    # taper, the two sums, the buffer and the temporaries of one transform
    assert peak < 12 * 8 * segment_len


@pytest.mark.parametrize(
    "n, estimate, message",
    [
        (0, lambda s: ps.burg_fit(s), "need more than 1 samples to fit order 1, got 0"),
        (1, lambda s: ps.burg_fit(s), "need more than 1 samples to fit order 1, got 1"),
        (64, lambda s: ps.welch_psd(s, 128), "segment length 128 exceeds series length 64"),
        # refused before a taper of 2**40 points is made
        (64, lambda s: ps.welch_psd(s, 2**40), "segment length 1099511627776 exceeds"),
        (3, lambda s: ps.welch_psd(s), "segment length 8 exceeds series length 3"),
    ],
)
def test_length_checks_run_up_front_or_on_the_count(n, estimate, message):
    read = []

    def blocks():
        read.append(True)
        yield from ([np.arange(1.0, n + 1.0)] if n else [])

    with pytest.raises(DomainError, match=message):
        estimate(ps.BlockSeries(blocks=blocks(), n=n))
    assert not read  # a known length is checked before any block is read
    with pytest.raises(DomainError, match=message):
        estimate(ps.BlockSeries(blocks=blocks()))
    assert read


#: Every estimator, each of which reads the series through the one reader.
ESTIMATORS = {
    "burg order 1": lambda s: ps.burg_fit(s),
    "welch": lambda s: ps.welch_psd(s, 4),
}


@pytest.mark.parametrize("estimate", ESTIMATORS.values(), ids=ESTIMATORS)
@pytest.mark.parametrize(
    "series, message",
    [
        (lambda: ps.BlockSeries(blocks=[np.ones(5), np.arange(5.0)], n=12),
         "series blocks hold 10 samples, expected 12"),
        (lambda: ps.BlockSeries(blocks=[np.ones(5), np.arange(9.0)], n=12),
         "series blocks hold 14 samples, expected 12"),
        (lambda: np.arange(64.0).reshape(8, 8), "expected a one-dimensional real series"),
        (lambda: ps.BlockSeries(blocks=[np.arange(64.0).reshape(8, 8)], n=64),
         "expected a one-dimensional real series"),
        (lambda: ps.BlockSeries(blocks=[np.arange(64.0).reshape(8, 8)]),
         "expected a one-dimensional real series"),
    ],
    ids=["short blocks", "long blocks", "2-D array", "2-D block",
         "2-D block of unknown length"],
)
def test_reader_refuses_wrong_counts_and_shapes(estimate, series, message):
    with pytest.raises(DomainError, match=message):
        estimate(series())


def test_no_estimator_writes_into_its_input():
    # three rows and a part, with an offset the reader shifts away; the
    # second block holds the second and third rows whole
    x = ar1_sample(4, 3 * _kernels.ROW_LEN + 900, coeff=0.8) + 60.0
    before = x.copy()
    sizes = [1000, 12000]

    def views():
        return ps.BlockSeries(blocks=np.split(x, np.cumsum(sizes)), n=x.size)

    for estimate in (lambda s: ps.burg_fit(s), lambda s: ps.welch_psd(s, 256)):
        for series in (lambda: x, views):
            estimate(series())
            assert np.array_equal(x, before)
