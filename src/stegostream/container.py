"""Audio carrier parsing.

WAV files are walked chunk by chunk (``fmt ``, ``data``, anything else is
skipped by its declared size) to find where the audio payload starts. All
bytes before the payload form the immutable header; embedding must never
touch them. Any other file can be used as a carrier in raw mode by telling
the parser how many leading bytes to protect.
"""

from __future__ import annotations

import contextlib
import enum
import mmap
import os
import struct
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import HeaderExceedsFile, MalformedRiff, UnknownFormat, UnsupportedDepth

RIFF_TAG = b"RIFF"
WAVE_TAG = b"WAVE"
FMT_TAG = b"fmt "
DATA_TAG = b"data"

# the shared maps `_mapped` made: only on these does dropping pages
# keep the data (a private map would lose its writes)
_SHARED_MAPS = weakref.WeakSet()


class CarrierKind(enum.Enum):
    WAV_PCM = "wav-pcm"
    RAW = "raw"


@dataclass(frozen=True)
class FormatInfo:
    """Where the audio payload lives and how it is encoded."""

    kind: CarrierKind
    sample_rate: int
    bits_per_sample: int
    channels: int
    data_offset: int
    data_len: int


@dataclass(frozen=True)
class AudioCarrier:
    """A parsed carrier file: raw bytes plus where their body lies.

    `data` is `bytes`, or a `memoryview` of a file mapping when the
    carrier comes from `open_carrier`: writable by default, read-only
    with `write=False`.
    """

    data: bytes | memoryview
    format: FormatInfo

    @property
    def header_len(self) -> int:
        """Length of the protected header: every byte before the body."""
        return self.format.data_offset

    @property
    def body_end(self) -> int:
        """One past the last byte embedding may modify.

        For WAV this is the end of the data chunk payload, so a RIFF pad
        byte or trailing chunks are never written into. For raw carriers
        it is the end of the file.
        """
        return self.format.data_offset + self.format.data_len


def _walk(size: int, step: int, *reads):
    """Yield (start, end) of each block of `step` items from 0 to `size`.

    A read is (array, first, stride), the array a flat buffer (an
    `ndarray` or a `memoryview`): no block after the one ending at `end`
    reads `array` below item `first + stride * end`. So once a block is
    done, the pages of a mapped array between that item at the block's
    start and at its end, both held to the array, are dropped
    (`_drop_pages`).
    """
    for start in range(0, size, step):
        end = min(start + step, size)
        yield start, end
        for array, first, stride in reads:
            low, high = (min(max(first + stride * at, 0), len(array)) * array.itemsize
                         for at in (start, end))
            _drop_pages(array, low, high)


def _drop_pages(buffer, start: int, stop: int) -> int:
    """Drop the pages of `buffer` from the one holding byte `start` to the
    last one ending by byte `stop`; returns the bytes dropped.

    `buffer` is a `memoryview` or an array straight over one (its `.base`).
    Only a map in `_SHARED_MAPS` is touched: its pages leave this process
    but stay in the page cache with their writes, and a later read faults
    them back in. Anything else keeps its pages.
    """
    view = buffer.base if isinstance(buffer, np.ndarray) else buffer
    mapped = getattr(view, "obj", None)
    if mapped not in _SHARED_MAPS:
        return 0
    offset = _address(buffer) - _address(mapped)
    low = offset + start - (offset + start) % mmap.PAGESIZE
    high = offset + stop - (offset + stop) % mmap.PAGESIZE
    if high <= low:
        return 0
    mapped.madvise(mmap.MADV_DONTNEED, low, high - low)
    return high - low


def _address(buffer) -> int:
    return np.asarray(buffer).__array_interface__["data"][0]


@contextlib.contextmanager
def _mapped(fileno: int, *, write: bool = False):
    """Yield a `memoryview` of a shared `mmap` of the open file `fileno`,
    writable with `write` and read-only otherwise, so only the pages
    touched are read. An empty file, which mmap refuses, yields an empty
    view. The view is released when the block ends, or, while an
    exception's traceback still holds arrays over it, when they are freed.
    """
    if os.fstat(fileno).st_size == 0:
        yield memoryview(b"")
        return
    mapped = mmap.mmap(fileno, 0, access=mmap.ACCESS_WRITE if write else mmap.ACCESS_READ)
    if hasattr(mmap, "MADV_DONTNEED"):
        _SHARED_MAPS.add(mapped)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        # a file in 2 MiB folios may be mapped 2 MiB at a time, far more than
        # a walk keeps; a kernel built without huge pages refuses the advice
        with contextlib.suppress(OSError):
            mapped.madvise(mmap.MADV_NOHUGEPAGE)
    view = memoryview(mapped)
    try:
        yield view
    finally:
        with contextlib.suppress(BufferError):
            view.release()
            mapped.close()


@contextlib.contextmanager
def open_carrier(path, raw_header_override: int | None = None, *, write: bool = True):
    """Parse a carrier file in place, for patching or reading it.

    Yields the `parse_carrier` of a `_mapped` view of the file. By
    default the view is writable and writes to it change the file; with
    `write=False` the file is opened read-only (a mode-0444 file will do)
    and so is the view.
    """
    with open(path, "r+b" if write else "rb") as file, \
            _mapped(file.fileno(), write=write) as view:
        yield parse_carrier(view, raw_header_override)


def parse_carrier(file_bytes: bytes | memoryview,
                  raw_header_override: int | None = None) -> AudioCarrier:
    """Parse carrier bytes into an AudioCarrier.

    A RIFF/WAVE input is chunk-walked to locate the data payload. Anything
    else needs `raw_header_override`: the number of leading bytes that must
    stay untouched (0 is fine for headerless blobs). A `memoryview` is used
    as it is, cast to a flat view of unsigned bytes if it is not one, so a
    writable one can be patched in place; anything else is taken as `bytes`.
    """
    if isinstance(file_bytes, memoryview):
        flat = (file_bytes.format, file_bytes.ndim) == ("B", 1)
        data = file_bytes if flat else file_bytes.cast("B")
    else:
        data = bytes(file_bytes)
    if len(data) >= 12 and data[:4] == RIFF_TAG and data[8:12] == WAVE_TAG:
        return _parse_wav(data)
    if raw_header_override is not None:
        if raw_header_override < 0:
            raise ValueError("raw header override must be >= 0")
        if raw_header_override >= len(data):
            raise HeaderExceedsFile(
                f"header override {raw_header_override} leaves no body "
                f"(file is {len(data)} bytes)"
            )
        fmt = FormatInfo(
            kind=CarrierKind.RAW,
            sample_rate=0,
            bits_per_sample=0,
            channels=0,
            data_offset=raw_header_override,
            data_len=len(data) - raw_header_override,
        )
        return AudioCarrier(data=data, format=fmt)
    if data[:4] == RIFF_TAG:
        raise MalformedRiff("RIFF input without a complete WAVE signature")
    raise UnknownFormat("not a RIFF/WAVE file; pass a raw header override to embed anyway")


def _parse_wav(data: bytes | memoryview) -> AudioCarrier:
    fmt_fields = None
    data_offset = None
    data_len = None
    pos = 12
    while pos + 8 <= len(data):
        tag = bytes(data[pos : pos + 4])
        (size,) = struct.unpack_from("<I", data, pos + 4)
        payload_start = pos + 8
        if payload_start + size > len(data):
            raise MalformedRiff(
                f"chunk {tag!r} at offset {pos} declares {size} bytes past end of file"
            )
        if tag == FMT_TAG:
            if size < 16:
                raise MalformedRiff(f"fmt chunk too small ({size} bytes)")
            fmt_fields = struct.unpack_from("<HHIIHH", data, payload_start)
        elif tag == DATA_TAG:
            if data_offset is not None:
                raise MalformedRiff("more than one data chunk")
            data_offset = payload_start
            data_len = size
        # chunks are word-aligned; odd sizes carry a pad byte
        pos = payload_start + size + (size & 1)
    if fmt_fields is None:
        raise MalformedRiff("missing fmt chunk")
    if data_offset is None:
        raise MalformedRiff("missing data chunk")
    _, channels, sample_rate, _, _, bits_per_sample = fmt_fields
    if sample_rate <= 0:
        raise MalformedRiff("fmt chunk declares a zero sample rate")
    fmt = FormatInfo(
        kind=CarrierKind.WAV_PCM,
        sample_rate=sample_rate,
        bits_per_sample=bits_per_sample,
        channels=channels,
        data_offset=data_offset,
        data_len=data_len,
    )
    return AudioCarrier(data=data, format=fmt)


def samples_16(carrier: AudioCarrier) -> np.ndarray:
    """Decode the data chunk as little-endian signed 16-bit samples.

    Channel interleaving is preserved; a trailing odd byte is ignored.
    """
    if carrier.format.kind is not CarrierKind.WAV_PCM:
        raise UnsupportedDepth("sample decoding requires a WAV PCM carrier")
    if carrier.format.bits_per_sample != 16:
        raise UnsupportedDepth(
            f"expected 16 bits per sample, carrier has {carrier.format.bits_per_sample}"
        )
    # a view of the carrier bytes, not a slice: slicing bytes copies them
    return np.frombuffer(carrier.data, "<i2", count=carrier.format.data_len // 2,
                         offset=carrier.format.data_offset)
