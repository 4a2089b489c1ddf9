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
    fill a frame are ignored.
    """
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(modified, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatch(f"sample counts differ: {a.size} vs {b.size}")
    if frame_len < 1:
        raise TooShort("frame length must be >= 1")
    frame_count = a.size // frame_len
    if frame_count == 0:
        raise TooShort(f"need at least {frame_len} samples, got {a.size}")
    n = frame_count * frame_len
    frames = a[:n].reshape(frame_count, frame_len)
    error = frames - b[:n].reshape(frame_count, frame_len)
    signal = np.einsum("ij,ij->i", frames, frames)
    distortion = np.einsum("ij,ij->i", error, error)
    audible = signal != 0
    # zero distortion gives log10(inf), which the cap turns into SNR_CAP_DB
    with np.errstate(divide="ignore"):
        values = np.minimum(10.0 * np.log10(signal[audible] / distortion[audible]), SNR_CAP_DB)
    return values.tolist()


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
    """
    xs = np.asarray(a, dtype=np.float64)
    ys = np.asarray(b, dtype=np.float64)
    if xs.size == 0 or ys.size == 0:
        raise EmptyInput("waveform comparison needs non-empty signals")
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    denom = math.sqrt(float((xs * xs).sum()) * float((ys * ys).sum()))
    if denom == 0.0:
        return 0.0, 0
    best_r = -math.inf
    best_lag = 0
    # past the overlap every lag scores 0.0, so one such lag per side is enough;
    # visiting in tie order lets the first of equal scores win
    lags = range(-min(max_lag, xs.size), min(max_lag, ys.size) + 1)
    for lag in sorted(lags, key=lambda k: (abs(k), k)):
        lo, hi = max(0, -lag), min(xs.size, ys.size - lag)
        r = float(np.dot(xs[lo:hi], ys[lo + lag : hi + lag])) / denom if hi > lo else 0.0
        if r > best_r:
            best_r = r
            best_lag = lag
    return best_r, best_lag


def bitplane_diff(before: bytes, after: bytes) -> tuple[int, int, int]:
    """Count bytes changed in plane 0, plane 1, and any higher plane."""
    if len(before) != len(after):
        raise LengthMismatch(f"byte counts differ: {len(before)} vs {len(after)}")
    delta = np.frombuffer(bytes(before), dtype=np.uint8) ^ np.frombuffer(bytes(after), dtype=np.uint8)
    plane0 = int(np.count_nonzero(delta & 0x01))
    plane1 = int(np.count_nonzero(delta & 0x02))
    other = int(np.count_nonzero(delta & 0xFC))
    return plane0, plane1, other


def report(original: AudioCarrier, modified: AudioCarrier, frame_len: int,
           max_lag: int) -> QualityReport:
    """Segmental SNR, cross-correlation and bit-plane diff of a WAV pair; the
    samples are decoded to float64 once, the plane diff reads the file bytes."""
    a = samples_16(original).astype(np.float64)
    b = samples_16(modified).astype(np.float64)
    seg_snr_db, frames_used = mean_snr(a, b, frame_len)
    peak, lag = waveform_compare(a, b, max_lag)
    plane0, plane1, other = bitplane_diff(original.data, modified.data)
    return QualityReport(seg_snr_db, frames_used, peak, lag, plane0, plane1, other)
