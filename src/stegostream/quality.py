"""Distortion and fidelity metrics for carrier/stego pairs.

Segmental SNR averages per-frame ``10*log10(signal / distortion)`` over
fixed-length frames; cross-correlation and bit-plane diffs back up the
"did anything audible or structural change" checks. Stereo input is
treated as one interleaved stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .container import AudioCarrier, _walk, samples_16
from .errors import EmptyInput, LengthMismatch, TooShort

SNR_CAP_DB = 100.0
DEFAULT_FRAME_MS = 10
# samples per block: every pass walks its inputs a block at a time (a
# 1 MiB float64 block; the plane diff reads 8 bytes per block sample)
BLOCK_SAMPLES = 1 << 17
# one matrix product of `_lag_sums` takes at most LAG_CHUNK lags and
# PRODUCT_SAMPLES samples of one signal: with rows of up to 128 samples
# its operands and result (0.25 + 0.25 + 0.75 + 0.4 MiB at most) fit a
# 2 MiB L2 cache, and OpenBLAS packs little of them
LAG_CHUNK = 256
PRODUCT_SAMPLES = 1 << 15


@dataclass(frozen=True)
class QualityReport:
    seg_snr_db: float
    frames_used: int
    xcorr_peak: float
    xcorr_lag: int
    modified_bytes_plane0: int
    modified_bytes_plane1: int
    modified_bytes_other_planes: int = 0

    def lines(self) -> list[str]:
        """key=value lines, one per field."""
        return [
            f"seg_snr_db={self.seg_snr_db:.6f}",
            f"frames_used={self.frames_used}",
            f"xcorr_peak={self.xcorr_peak:.9f}",
            f"xcorr_lag={self.xcorr_lag}",
            f"modified_bytes_plane0={self.modified_bytes_plane0}",
            f"modified_bytes_plane1={self.modified_bytes_plane1}",
            f"modified_bytes_other_planes={self.modified_bytes_other_planes}",
        ]


def default_frame_len(sample_rate: int, frame_ms: int = DEFAULT_FRAME_MS) -> int:
    """Frame length in samples for a frame duration in milliseconds."""
    return max(1, sample_rate * frame_ms // 1000)


def frame_snrs(original, modified, frame_len: int) -> list[float]:
    """Per-frame SNR values in dB, capped at SNR_CAP_DB.

    Frames with zero signal energy are skipped; frames with zero
    distortion contribute the cap value. Trailing samples that do not
    fill a frame are ignored. The signals are walked BLOCK_SAMPLES at a
    time, whatever the frame length, and each block's energies are added
    to those of the frames it holds part of: for 16-bit samples every
    partial sum is an exact integer, so no value depends on the blocks.
    """
    a = _as_samples(original)
    b = _as_samples(modified)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatch(f"sample counts differ: {a.size} vs {b.size}")
    if frame_len < 1:
        raise TooShort("frame length must be >= 1")
    frame_count = a.size // frame_len
    if frame_count == 0:
        raise TooShort(f"need at least {frame_len} samples, got {a.size}")
    squares = np.empty((2, min(BLOCK_SAMPLES, a.size)))  # made once per call
    energies = np.zeros((2, frame_count))  # signal, distortion
    for lo, hi in _walk(frame_count * frame_len, BLOCK_SAMPLES, (a, 0, 1), (b, 0, 1)):
        block = squares[:, : hi - lo]
        np.copyto(block[0], a[lo:hi])
        np.subtract(block[0], b[lo:hi], out=block[1])
        np.square(block, out=block)
        first = lo // frame_len  # the frame holding sample lo may begin in an earlier block
        starts = np.arange(first * frame_len - lo, hi - lo, frame_len).clip(0)
        energies[:, first : first + starts.size] += np.add.reduceat(block, starts, axis=1)
    signal, distortion = energies
    audible = signal != 0
    # zero distortion gives log10(inf), which the cap turns into SNR_CAP_DB
    with np.errstate(divide="ignore"):
        snrs = np.minimum(10.0 * np.log10(signal[audible] / distortion[audible]), SNR_CAP_DB)
    return snrs.tolist()


def mean_snr(original, modified, frame_len: int) -> tuple[float, int]:
    """Mean per-frame SNR in dB and the number of frames it averages."""
    values = frame_snrs(original, modified, frame_len)
    if not values:
        raise TooShort("no frame has signal energy")
    return sum(values) / len(values), len(values)


def segmental_snr(original, modified, frame_len: int) -> float:
    """Mean per-frame SNR in dB over all frames with signal energy."""
    return mean_snr(original, modified, frame_len)[0]


def waveform_compare(a, b, max_lag: int) -> tuple[float, int]:
    """Peak normalized cross-correlation within |lag| <= max_lag.

    r(lag) = sum(a[t] * b[t+lag]) / sqrt(sum(a^2) * sum(b^2)) over the
    overlap. Ties prefer the smaller |lag|, then the negative one. Zero
    total energy on either side yields (0.0, 0).

    Sums are taken by matrix products over blocks (`_lag_dots`), an
    energy being a signal's lag-0 dot with itself; for 16-bit samples
    every partial sum is an exact integer, so the numerators and energies
    are those of one whole-signal float64 dot wherever that dot is exact.
    """
    xs = _as_samples(a)
    ys = _as_samples(b)
    if xs.size == 0 or ys.size == 0:
        raise EmptyInput("waveform comparison needs non-empty signals")
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    denom = math.sqrt(_lag_dots(xs, xs, range(1))[0] * _lag_dots(ys, ys, range(1))[0])
    if denom == 0.0:
        return 0.0, 0
    # past the overlap every lag scores 0.0, so one such lag per side is enough
    lags = range(-min(max_lag, xs.size), min(max_lag, ys.size) + 1)
    scores = [dot / denom if dot is not None else 0.0 for dot in _lag_dots(xs, ys, lags)]
    best = max(range(len(lags)), key=lambda i: (scores[i], -abs(lags[i]), -lags[i]))
    return scores[best], lags[best]


def _as_samples(values) -> np.ndarray:
    """An ndarray as it is, since blocks are converted one at a time;
    anything else as float64."""
    return values if isinstance(values, np.ndarray) else np.asarray(values, dtype=np.float64)


def _lag_dots(xs: np.ndarray, ys: np.ndarray, lags: range) -> list[float | None]:
    """sum(xs[t] * ys[t+lag]) over the overlap for each lag, or None where
    the signals do not overlap.

    A one-sample overlap keeps its bare product, as `np.dot` gives it, so
    a zero keeps its sign; longer overlaps sum from 0.0 (`_lag_sums`).
    """
    def dot(lag, total):
        t0, t1 = max(0, -lag), min(xs.size, ys.size - lag)
        if t1 - t0 == 1:
            return float(xs[t0]) * float(ys[t0 + lag])
        return None if t1 <= t0 else float(total)

    return [dot(lag, total) for lag, total in zip(lags, _lag_sums(xs, ys, lags))]


def _lag_sums(xs: np.ndarray, ys: np.ndarray, lags: range) -> np.ndarray:
    """sum(xs[t] * ys[t+lag]) for each lag, `ys` read as zero outside the
    signal, by matrix products; the array may run past the last lag.

    `xs` is walked block by block, each block in pieces of at most
    `PRODUCT_SAMPLES`, and the lags in chunks of at most `LAG_CHUNK`. For
    a chunk of K lags from lag L on, and Q the power of two no smaller
    than K, up to 128: the piece from sample s on, as rows of Q samples,
    is X (X[r, j] = xs[s + r*Q + j]); the `ys` window from s + L on, as
    rows of Q+K-1 samples that start Q apart, is Z (Z[r, m] =
    ys[s + L + r*Q + m]). So (Xᵀ·Z)[j, j+k] sums the lag L+k terms of the
    samples s + r*Q + j, and its k-th diagonal sums all the piece's lag
    L+k terms. The scratch is made once per call and reused.
    """
    chunks = range(0, len(lags), LAG_CHUNK)
    k = min(len(lags), LAG_CHUNK)
    q = min(1 << (k - 1).bit_length(), 128)
    rows = -(-min(PRODUCT_SAMPLES, BLOCK_SAMPLES, xs.size) // q)
    x, window = np.empty((rows, q)), np.empty(rows * q + k - 1)
    z, c = np.empty((rows, q + k - 1)), np.empty((q, q + k - 1))
    x_flat = x.reshape(-1)
    windows = np.lib.stride_tricks.sliding_window_view
    z_rows = windows(window, q + k - 1)[::q]  # row r: window[r*q : r*q + q+k-1]
    diagonals = windows(c, k, axis=1).diagonal()  # [k, j]: c[j, j+k]
    totals = np.zeros(len(chunks) * k)
    for start, end in _walk(xs.size, BLOCK_SAMPLES,
                            (xs, 0, 1), (ys, lags.start, 1)):
        for lo in range(start, end, rows * q):
            n = min(rows * q, end - lo)
            p = -(-n // q)
            x_flat[:n] = xs[lo : lo + n]
            x_flat[n : p * q] = 0
            for first in chunks:
                y0 = lo + lags[first]
                y1, y2 = max(y0, 0), min(y0 + p * q + k - 1, ys.size)
                if y2 <= y1:
                    continue
                window[: y1 - y0] = 0
                window[y1 - y0 : y2 - y0] = ys[y1:y2]
                window[y2 - y0 : p * q + k - 1] = 0
                np.copyto(z[:p], z_rows[:p])
                np.matmul(x[:p].T, z[:p], out=c)
                totals[first : first + k] += diagonals.sum(axis=1)
    return totals


def bitplane_diff(before, after) -> tuple[int, int, int]:
    """Count bytes changed in plane 0, plane 1, and any higher plane.

    Takes any buffer and compares it in blocks, without copying it.
    """
    xs = np.frombuffer(before, dtype=np.uint8)
    ys = np.frombuffer(after, dtype=np.uint8)
    if xs.size != ys.size:
        raise LengthMismatch(f"byte counts differ: {xs.size} vs {ys.size}")
    plane0 = plane1 = other = 0
    for start, end in _walk(xs.size, BLOCK_SAMPLES * 8, (xs, 0, 1), (ys, 0, 1)):
        delta = xs[start:end] ^ ys[start:end]
        plane0 += int(np.count_nonzero(delta & 0x01))
        plane1 += int(np.count_nonzero(delta & 0x02))
        other += int(np.count_nonzero(delta & 0xFC))
    return plane0, plane1, other


def report(original: AudioCarrier, modified: AudioCarrier, frame_len: int,
           max_lag: int) -> QualityReport:
    """Segmental SNR, cross-correlation and bit-plane diff of a WAV pair;
    the metrics read `int16` views of the carriers block by block, the
    plane diff reads the file bytes."""
    a = samples_16(original)
    b = samples_16(modified)
    seg_snr_db, frames_used = mean_snr(a, b, frame_len)
    peak, lag = waveform_compare(a, b, max_lag)
    plane0, plane1, other = bitplane_diff(original.data, modified.data)
    return QualityReport(seg_snr_db, frames_used, peak, lag, plane0, plane1, other)
