import math
import mmap
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stegostream import container, quality
from stegostream.cipher import SealedPayload
from stegostream.container import open_carrier, parse_carrier, samples_16
from stegostream.errors import EmptyInput, LengthMismatch, TooShort
from stegostream.quality import (
    SNR_CAP_DB,
    QualityReport,
    bitplane_diff,
    default_frame_len,
    frame_snrs,
    segmental_snr,
    waveform_compare,
)
from stegostream.stego import StegoMode, embed

from conftest import build_wav, pcm16_bytes


def test_single_frame_fixture():
    expected = 10 * math.log10(25 / 1)
    assert abs(segmental_snr([4, 3], [4, 2], 2) - expected) < 1e-9


def test_second_fixture():
    expected = 10 * math.log10(8 / 2)
    assert abs(segmental_snr([2, 2], [1, 1], 2) - expected) < 1e-9


def test_identical_signals_hit_cap():
    assert segmental_snr([5, -3, 2, 9], [5, -3, 2, 9], 2) == SNR_CAP_DB


def test_zero_energy_frames_skipped():
    # first frame has no signal energy and is ignored despite its distortion
    value = segmental_snr([0, 0, 4, 3], [1, 1, 4, 2], 2)
    assert abs(value - 10 * math.log10(25)) < 1e-9


def test_huge_ratio_clipped_to_cap():
    values = frame_snrs([10 ** 6, 10 ** 6], [10 ** 6 - 1, 10 ** 6], 2)
    assert values == [SNR_CAP_DB]


def test_mean_over_frames():
    a = [4, 3, 2, 2]
    b = [4, 2, 1, 1]
    expected = (10 * math.log10(25) + 10 * math.log10(4)) / 2
    assert abs(segmental_snr(a, b, 2) - expected) < 1e-9


def test_length_and_frame_guards():
    with pytest.raises(LengthMismatch):
        segmental_snr([1, 2], [1], 1)
    with pytest.raises(TooShort):
        segmental_snr([1, 2], [1, 2], 3)
    with pytest.raises(TooShort):
        segmental_snr([1, 2], [1, 2], 0)
    with pytest.raises(TooShort):
        segmental_snr([0, 0], [1, 1], 2)  # nothing but silence


def test_default_frame_len():
    assert default_frame_len(44100) == 441
    assert default_frame_len(48000) == 480
    assert default_frame_len(50) == 1


# -- cross-correlation ---------------------------------------------------------

def test_self_correlation():
    assert waveform_compare([3, 1, -4, 2], [3, 1, -4, 2], 3) == (1.0, 0)


def test_shifted_impulse():
    peak, lag = waveform_compare([0, 0, 1, 0], [1, 0, 0, 0], 3)
    assert peak == 1.0
    assert lag == -2


def test_sign_inversion():
    a = [1.0, -1.0, 1.0, -1.0]
    peak, lag = waveform_compare(a, [-x for x in a], 0)
    assert peak == -1.0 and lag == 0


def test_tie_breaking_prefers_small_then_negative_lag():
    # constant signals tie everywhere; lag 0 beats |1|
    peak, lag = waveform_compare([1, 1, 1, 1], [1, 1, 1, 1], 2)
    assert lag == 0
    # symmetric two-point tie at lags -1 and +1
    peak, lag = waveform_compare([1, 0, 1], [0, 1, 0], 1)
    assert lag == -1


def test_zero_energy_returns_zero_peak():
    assert waveform_compare([0, 0, 0], [1, 2, 3], 2) == (0.0, 0)


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        waveform_compare([], [1], 1)


@settings(max_examples=40)
@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=4, max_size=40),
       st.integers(min_value=0, max_value=6))
def test_lag_negation_symmetry(values, max_lag):
    rng = np.random.default_rng(abs(hash(tuple(values))) % (2 ** 32))
    a = np.asarray(values, dtype=float) + rng.normal(0, 0.25, len(values))
    b = rng.normal(0, 1.0, len(values) + 3)
    peak_ab, lag_ab = waveform_compare(a, b, max_lag)
    peak_ba, lag_ba = waveform_compare(b, a, max_lag)
    assert abs(peak_ab - peak_ba) < 1e-12
    assert lag_ba == -lag_ab
    assert abs(peak_ab) <= 1 + 1e-9


def _reference_waveform_compare(a, b, max_lag):
    """Every lag from -max_lag to max_lag with an explicit tie rule: the oracle."""
    xs = np.asarray(a, dtype=np.float64)
    ys = np.asarray(b, dtype=np.float64)
    denom = math.sqrt(float((xs * xs).sum()) * float((ys * ys).sum()))
    if denom == 0.0:
        return 0.0, 0
    best_r = -math.inf
    best_lag = 0
    for lag in range(-max_lag, max_lag + 1):
        if lag >= 0:
            n = min(xs.size, ys.size - lag)
            r = float(np.dot(xs[:n], ys[lag : lag + n])) / denom if n > 0 else 0.0
        else:
            n = min(xs.size + lag, ys.size)
            r = float(np.dot(xs[-lag : -lag + n], ys[:n])) / denom if n > 0 else 0.0
        if r > best_r or (
            r == best_r and (abs(lag) < abs(best_lag) or (abs(lag) == abs(best_lag) and lag < best_lag))
        ):
            best_r = r
            best_lag = lag
    return best_r, best_lag


_samples = st.lists(st.integers(min_value=-3, max_value=3) | st.integers(min_value=-32768, max_value=32767),
                    min_size=1, max_size=24)


@settings(max_examples=300)
@given(_samples, _samples, st.integers(min_value=0, max_value=60))
@example([-1], [0, 1], 3)  # -0.0 at lag 0 ties 0.0 past the overlap
@example([1, 1, 1, 1], [1, 1, 1, 1], 10)
def test_waveform_compare_matches_reference_loop(a, b, max_lag):
    # repr tells -0.0 from 0.0, so the peak must be the very same float
    assert repr(waveform_compare(a, b, max_lag)) == repr(_reference_waveform_compare(a, b, max_lag))


_int16_arrays = st.lists(st.integers(min_value=-2, max_value=2)
                        | st.integers(min_value=-32768, max_value=32767),
                        min_size=1, max_size=40).map(lambda v: np.asarray(v, dtype=np.int16))


@settings(max_examples=300)
@given(_int16_arrays, _int16_arrays, st.integers(min_value=0, max_value=60),
       st.sampled_from([1, 3, 7]))
@example(np.array([-1, -1], np.int16), np.array([0, 0, 5], np.int16), 2, 1)  # a -0.0 per block
@example(np.array([-1], np.int16), np.array([0, 1], np.int16), 3, 1)
def test_blocked_waveform_compare_matches_reference_loop(a, b, max_lag, block):
    # int16 block dots are exact, so blocking may not change a single bit
    with mock.patch.object(quality, "BLOCK_SAMPLES", block):
        got = waveform_compare(a, b, max_lag)
    assert repr(got) == repr(_reference_waveform_compare(a, b, max_lag))


def _lag_dots_oracle(xs, ys, lags):
    """One `np.dot` per lag over the whole overlap, None without one."""
    dots = []
    for lag in lags:
        t0, t1 = max(0, -lag), min(xs.size, ys.size - lag)
        dots.append(float(np.dot(xs[t0:t1].astype(np.float64), ys[t0 + lag : t1 + lag].astype(np.float64)))
                    if t1 > t0 else None)
    return dots


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=300, max_value=5000), st.integers(min_value=300, max_value=5000),
       st.integers(min_value=0, max_value=5200), st.sampled_from([64, 100, 128, 1000, 4096]),
       st.sampled_from([128, 1 << 15]), st.booleans(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_lag_products_match_one_dot_per_lag_at_the_edges(size_a, size_b, max_lag, block, piece,
                                                          edges_only, seed):
    # blocks that are and are not multiples of the row width, pieces within
    # a block, lags past both ends; with only its edges kept, `b` puts the
    # peak on a lag whose overlap is a sample or two
    rng = np.random.default_rng(seed)
    a = rng.integers(-32768, 32768, size_a, dtype=np.int16)
    b = rng.integers(-32768, 32768, size_b, dtype=np.int16)
    if edges_only:
        b[2:-2] = 0
    lags = range(-min(max_lag, a.size), min(max_lag, b.size) + 1)
    with mock.patch.object(quality, "BLOCK_SAMPLES", block), \
            mock.patch.object(quality, "PRODUCT_SAMPLES", piece):
        dots = quality._lag_dots(a, b, lags)
        got = waveform_compare(a, b, max_lag)
    assert repr(dots) == repr(_lag_dots_oracle(a, b, lags))
    assert repr(got) == repr(_reference_waveform_compare(a, b, max_lag))


def test_lag_product_scratch_does_not_grow_with_the_lag_count():
    rng = np.random.default_rng(8)
    a = rng.integers(-32768, 32768, 8192, dtype=np.int16)
    b = rng.integers(-32768, 32768, 8192, dtype=np.int16)
    peaks = {}
    for max_lag in (64, 4096):
        tracemalloc.start()
        try:
            waveform_compare(a, b, max_lag)
            peaks[max_lag] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4096] <= 2 * peaks[64]


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=1, max_value=60),
       st.sampled_from([1, 3, 7]))
@example(1, 60, 7)  # frames longer than a block
@example(2, 5, 7)  # blocks that cut frames
def test_blocked_frame_snrs_equal_one_block(seed, frame_len, block):
    rng = np.random.default_rng(seed)
    original = rng.integers(-32768, 32768, 500, dtype=np.int16)
    modified = original ^ rng.integers(0, 4, 500, dtype=np.int16)
    modified[:frame_len] = original[:frame_len]  # one frame at the cap
    original[-frame_len:] = 0  # and one skipped
    with mock.patch.object(quality, "BLOCK_SAMPLES", block):
        blocked = frame_snrs(original, modified, frame_len)
    assert blocked == frame_snrs(original, modified, frame_len)


def _frame_snrs_peak(samples, frame_len):
    rng = np.random.default_rng(9)
    original = rng.integers(-32768, 32768, samples, dtype=np.int16)
    modified = original ^ rng.integers(0, 4, samples, dtype=np.int16)
    tracemalloc.start()
    try:
        values = frame_snrs(original, modified, frame_len)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(values) == samples // frame_len
    return peak


def test_frame_snrs_makes_its_blocks_once():
    # a float64 copy of each signal and their difference, made per block,
    # peaked at about 4 MiB; one scratch of two blocks made once takes 2 MiB
    assert _frame_snrs_peak(1 << 20, 441) <= 2.5 * (1 << 20)
    # a frame longer than a block still gets one block: a scratch of whole
    # frames held two float64 copies of it, 32 MiB
    assert _frame_snrs_peak(4 << 20, 2 << 20) <= 2.5 * (1 << 20)
    # a pair shorter than a block gets only the samples it has
    assert _frame_snrs_peak(4410, 441) <= 128 << 10


def test_blocked_lengths_still_mismatch():
    with mock.patch.object(quality, "BLOCK_SAMPLES", 3):
        with pytest.raises(LengthMismatch, match="sample counts differ: 10 vs 11"):
            frame_snrs(np.ones(10, np.int16), np.ones(11, np.int16), 2)
        with pytest.raises(LengthMismatch, match="byte counts differ: 10 vs 11"):
            bitplane_diff(memoryview(bytes(10)), memoryview(bytes(11)))


# -- bitplane diff ---------------------------------------------------------------

def test_bitplane_diff_counts():
    assert bitplane_diff(b"abc", b"abc") == (0, 0, 0)
    assert bitplane_diff(b"\x00", b"\x01") == (1, 0, 0)
    assert bitplane_diff(b"\x00", b"\x03") == (1, 1, 0)
    assert bitplane_diff(b"\x00\x00", b"\x04\x03") == (1, 1, 1)


@settings(max_examples=100)
@given(st.binary(max_size=100), st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([1, 3, 7]))
def test_blocked_bitplane_diff_on_memoryviews(before, seed, block):
    rng = random.Random(seed)
    after = bytes(byte ^ rng.choice((0, 1, 2, 3, 4, 0x80)) for byte in before)
    deltas = [x ^ y for x, y in zip(before, after)]
    expected = (sum(d & 0x01 != 0 for d in deltas), sum(d & 0x02 != 0 for d in deltas),
                sum(d & 0xFC != 0 for d in deltas))
    # blocks of 8, 24 and 56 bytes
    with mock.patch.object(quality, "BLOCK_SAMPLES", block):
        assert bitplane_diff(memoryview(before), memoryview(after)) == expected


def test_bitplane_diff_length_guard():
    with pytest.raises(LengthMismatch):
        bitplane_diff(b"ab", b"a")


# -- embeds as seen by the metrics ----------------------------------------------

def _random_pcm_carrier(rng, n_samples):
    samples = [rng.randrange(-3000, 3000) for _ in range(n_samples)]
    return parse_carrier(build_wav(pcm16_bytes(samples)))


def test_amplitude_bound_per_mode():
    rng = random.Random(77)
    carrier = _random_pcm_carrier(rng, 2000)
    message = bytes(rng.randrange(256) for _ in range(150))
    for mode, bound in ((StegoMode.REGULAR, 257), (StegoMode.EXCESSIVE, 771)):
        stego = embed(carrier, SealedPayload(message, 0, len(message)), mode)
        delta = samples_16(stego).astype(int) - samples_16(carrier).astype(int)
        assert int(np.abs(delta).max()) <= bound


def test_embed_touches_no_other_planes():
    rng = random.Random(78)
    carrier = _random_pcm_carrier(rng, 1500)
    message = bytes(rng.randrange(256) for _ in range(100))
    for mode in StegoMode:
        stego = embed(carrier, SealedPayload(message, 0, len(message)), mode)
        _, _, other = bitplane_diff(carrier.data, stego.data)
        assert other == 0


def test_report_lines_format():
    report = QualityReport(13.5, 4, 0.999, -2, 10, 3)
    lines = report.lines()
    assert lines[0].startswith("seg_snr_db=13.5")
    assert "xcorr_lag=-2" in lines
    assert "modified_bytes_plane1=3" in lines
    assert lines[-1] == "modified_bytes_other_planes=0"
    assert QualityReport(13.5, 4, 0.999, -2, 10, 3, 7).lines()[-1] == "modified_bytes_other_planes=7"


def _multi_page_pairs(rng):
    """(original, modified) WAV bytes a few pages long: mono with an odd data
    chunk and a chunk after it, and stereo; flips reach planes 0, 1 and 7."""
    page = mmap.PAGESIZE
    for size, channels, after in [(3 * page + 77, 1, [(b"cue ", b"c" * 9)]), (3 * page + 1234, 2, [])]:
        data = rng.randbytes(size)
        modified = bytes(byte ^ rng.choice((0, 0, 1, 2, 3, 0x80)) for byte in data)
        yield tuple(build_wav(blob, channels=channels, post_data_chunks=after)
                    for blob in (data, modified))


@pytest.mark.parametrize("block", [1, 3, 7, 4097])
def test_dropping_pages_changes_no_report(tmp_path, monkeypatch, block):
    # blocks of 1, 3 and 7 samples end mid-page and mid-frame
    monkeypatch.setattr(quality, "BLOCK_SAMPLES", block)
    dropped = []
    drop_pages = container._drop_pages

    def spy(buffer, start, stop):
        dropped.append(drop_pages(buffer, start, stop))
        return dropped[-1]

    monkeypatch.setattr(container, "_drop_pages", spy)
    for original, modified in _multi_page_pairs(random.Random(block)):
        expected = quality.report(parse_carrier(original), parse_carrier(modified), 50, 20)
        (tmp_path / "c.wav").write_bytes(original)
        (tmp_path / "s.wav").write_bytes(modified)
        dropped.clear()
        with open_carrier(tmp_path / "c.wav", write=False) as a, \
                open_carrier(tmp_path / "s.wav", write=False) as b:
            assert quality.report(a, b, 50, 20) == expected
        assert sum(dropped) >= mmap.PAGESIZE
