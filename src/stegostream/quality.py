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

from .container import AudioCarrier, samples_16
from .errors import EmptyInput, LengthMismatch, TooShort

SNR_CAP_DB = 100.0
DEFAULT_FRAME_MS = 10
# samples per block: a float64 block plus the window it is correlated
# with fit in a 2 MiB L2 cache; the plane diff takes the same 1 MiB,
# 8 bytes per block sample
BLOCK_SAMPLES = 1 << 17


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
    fill a frame are ignored. Frames are converted to float64 a block of
    whole frames at a time; each frame's value does not depend on the
    block it falls in.
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
    rows = max(1, BLOCK_SAMPLES // frame_len)
    values: list[float] = []
    for first in range(0, frame_count, rows):
        count = min(rows, frame_count - first)
        lo, hi = first * frame_len, (first + count) * frame_len
        frames = a[lo:hi].astype(np.float64).reshape(count, frame_len)
        error = frames - b[lo:hi].astype(np.float64).reshape(count, frame_len)
        signal = np.einsum("ij,ij->i", frames, frames)
        distortion = np.einsum("ij,ij->i", error, error)
        audible = signal != 0
        # zero distortion gives log10(inf), which the cap turns into SNR_CAP_DB
        with np.errstate(divide="ignore"):
            snrs = np.minimum(10.0 * np.log10(signal[audible] / distortion[audible]), SNR_CAP_DB)
        values.extend(snrs.tolist())
    return values


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

    Sums are taken block by block (`_lag_dots`), an energy being a
    signal's lag-0 dot with itself; for 16-bit samples every block dot is
    an exact integer, so the numerators and energies are those of one
    whole-signal float64 dot wherever that dot is exact.
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

    Each block of `xs` and the `ys` window it meets at any lag are
    converted to float64 once, and every lag's dot runs on them while
    they are in cache. Sums start where `np.dot` does, so a one-sample
    overlap keeps the sign of a zero product and a longer one does not.
    """
    def initial(lag):
        overlap = min(xs.size, ys.size - lag) - max(0, -lag)
        return None if overlap < 1 else -0.0 if overlap == 1 else 0.0

    dots = [initial(lag) for lag in lags]
    for start in range(0, xs.size, BLOCK_SAMPLES):
        end = min(start + BLOCK_SAMPLES, xs.size)
        lo, hi = max(0, start + lags.start), min(ys.size, end + lags.stop - 1)
        x_block = xs[start:end].astype(np.float64)
        y_window = ys[lo:hi].astype(np.float64)
        for i, lag in enumerate(lags):
            t0, t1 = max(start, -lag), min(end, ys.size - lag)
            if t1 > t0:
                dots[i] += float(np.dot(x_block[t0 - start : t1 - start],
                                        y_window[t0 + lag - lo : t1 + lag - lo]))
    return dots


def bitplane_diff(before, after) -> tuple[int, int, int]:
    """Count bytes changed in plane 0, plane 1, and any higher plane.

    Takes any buffer and compares it in blocks, without copying it.
    """
    xs = np.frombuffer(before, dtype=np.uint8)
    ys = np.frombuffer(after, dtype=np.uint8)
    if xs.size != ys.size:
        raise LengthMismatch(f"byte counts differ: {xs.size} vs {ys.size}")
    plane0 = plane1 = other = 0
    step = BLOCK_SAMPLES * 8
    for start in range(0, xs.size, step):
        delta = xs[start : start + step] ^ ys[start : start + step]
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
