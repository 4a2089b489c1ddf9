import mmap
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stegostream import container
from stegostream.container import (
    CarrierKind,
    open_carrier,
    parse_carrier,
    samples_16,
)
from stegostream.errors import (
    HeaderExceedsFile,
    MalformedRiff,
    StegoStreamError,
    UnknownFormat,
    UnsupportedDepth,
)

from conftest import build_wav


def test_canonical_header_offset(canonical_wav):
    # RIFF(12) + fmt(8+16) + data header(8) = 44
    carrier = parse_carrier(canonical_wav)
    assert carrier.header_len == 44
    assert carrier.format.kind is CarrierKind.WAV_PCM
    assert carrier.format.sample_rate == 44100
    assert carrier.format.channels == 1
    assert carrier.format.bits_per_sample == 16
    assert carrier.format.data_len == 1000
    assert carrier.body_end == len(canonical_wav)


def test_list_chunk_before_data_shifts_header():
    wav = build_wav(bytes(100), pre_data_chunks=[(b"LIST", b"x" * 26)])
    carrier = parse_carrier(wav)
    assert carrier.header_len == 44 + 26 + 8


def test_raw_override_zero():
    carrier = parse_carrier(b"\x12\x34\x56", raw_header_override=0)
    assert carrier.format.kind is CarrierKind.RAW
    assert carrier.header_len == 0
    assert carrier.body_end == 3


def test_raw_override_bounds():
    with pytest.raises(HeaderExceedsFile):
        parse_carrier(b"abc", raw_header_override=3)
    with pytest.raises(HeaderExceedsFile):
        parse_carrier(b"", raw_header_override=0)
    with pytest.raises(ValueError):
        parse_carrier(b"abc", raw_header_override=-1)


def test_unknown_format_without_override():
    with pytest.raises(UnknownFormat):
        parse_carrier(b"\x00" * 64)
    with pytest.raises(UnknownFormat):
        parse_carrier(b"ID3\x04" + b"\x00" * 60)


def test_riff_without_wave_is_malformed_unless_overridden():
    avi_ish = b"RIFF" + b"\x10\x00\x00\x00" + b"AVI " + b"\x00" * 16
    with pytest.raises(MalformedRiff):
        parse_carrier(avi_ish)
    assert parse_carrier(avi_ish, raw_header_override=12).format.kind is CarrierKind.RAW


def test_truncated_chunk_rejected(canonical_wav):
    with pytest.raises(MalformedRiff):
        parse_carrier(canonical_wav[:-1])


def test_missing_fmt_rejected():
    wav = build_wav(bytes(10))
    # splice the fmt chunk out: RIFF header stays, data chunk remains
    no_fmt = wav[:12] + wav[36:]
    with pytest.raises(MalformedRiff):
        parse_carrier(no_fmt)


def test_missing_data_rejected():
    wav = build_wav(bytes(10))
    with pytest.raises(MalformedRiff):
        parse_carrier(wav[:36])


def test_two_data_chunks_rejected():
    wav = build_wav(bytes(10), post_data_chunks=[(b"data", bytes(4))])
    with pytest.raises(MalformedRiff):
        parse_carrier(wav)


def test_zero_sample_rate_rejected():
    wav = bytearray(build_wav(bytes(10)))
    wav[24:28] = b"\x00\x00\x00\x00"
    with pytest.raises(MalformedRiff):
        parse_carrier(bytes(wav))


@pytest.mark.parametrize("extra", [
    {},
    {"pre_data_chunks": [(b"LIST", b"m" * 26)]},
    {"post_data_chunks": [(b"cue ", b"c" * 12)]},
    {"pre_data_chunks": [(b"junk", b"j" * 7)]},  # odd chunk, padded
])
def test_round_trip_byte_identical(extra):
    wav = build_wav(bytes(range(200)) + bytes(56), **extra)
    carrier = parse_carrier(wav)
    assert carrier.data == wav
    again = parse_carrier(carrier.data)
    assert again.header_len == carrier.header_len
    assert again.data == carrier.data


def test_odd_data_chunk_pad_byte_outside_body():
    wav = build_wav(b"\x01\x02\x03")  # data size 3 + one pad byte
    carrier = parse_carrier(wav)
    assert carrier.body_end == carrier.header_len + 3
    assert len(carrier.data) == carrier.body_end + 1  # pad byte after body
    assert carrier.data == wav


def test_trailing_chunks_outside_body():
    wav = build_wav(bytes(64), post_data_chunks=[(b"LIST", b"t" * 10)])
    carrier = parse_carrier(wav)
    assert carrier.body_end == carrier.header_len + 64
    assert carrier.body_end < len(carrier.data)


def test_samples_16_decoding():
    wav = build_wav(b"\x01\x00\xff\xff\x00\x80")
    got = samples_16(parse_carrier(wav))
    assert got.tolist() == [1, -1, -32768]
    assert got.dtype == np.int16


def test_samples_16_rejects_other_depths():
    wav8 = build_wav(bytes(10), bits_per_sample=8)
    with pytest.raises(UnsupportedDepth):
        samples_16(parse_carrier(wav8))
    with pytest.raises(UnsupportedDepth):
        samples_16(parse_carrier(b"\x00" * 10, raw_header_override=0))


def test_truncation_fuzz_never_crashes(canonical_wav):
    rng = random.Random(7)
    for _ in range(300):
        cut = rng.randrange(len(canonical_wav))
        with pytest.raises(StegoStreamError):
            parse_carrier(canonical_wav[:cut])


def test_open_carrier_fails_like_parse_carrier(canonical_wav, tmp_path):
    path = tmp_path / "cut.wav"
    # an empty file, which mmap refuses, and WAVs cut inside each chunk
    cases = [(0, None), (0, 0), (3, None), (12, None), (20, None), (40, None), (500, None)]
    for cut, header in cases:
        path.write_bytes(canonical_wav[:cut])
        with pytest.raises(StegoStreamError) as expected:
            parse_carrier(canonical_wav[:cut], header)
        for write in (True, False):
            with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
                with open_carrier(path, header, write=write):
                    pass


def test_open_carrier_writes_through_to_the_file(canonical_wav, tmp_path):
    path = tmp_path / "c.wav"
    path.write_bytes(canonical_wav)
    with open_carrier(path) as carrier:
        assert carrier.header_len == parse_carrier(canonical_wav).header_len
        assert carrier.data == canonical_wav
        carrier.data[50] ^= 0x01
    assert [i for i, (a, b) in enumerate(zip(canonical_wav, path.read_bytes())) if a != b] == [50]


def test_open_carrier_read_only(canonical_wav, tmp_path):
    path = tmp_path / "c.wav"
    path.write_bytes(canonical_wav)
    path.chmod(0o444)
    with open_carrier(path, write=False) as carrier:
        assert carrier.data.readonly
        assert carrier.data == canonical_wav
        assert carrier.format == parse_carrier(canonical_wav).format
        with pytest.raises(TypeError):
            carrier.data[50] ^= 0x01
        assert samples_16(carrier).tolist() == samples_16(parse_carrier(canonical_wav)).tolist()
    assert path.read_bytes() == canonical_wav


@st.composite
def _carrier_bytes(draw):
    """Arbitrary bytes, or a WAV with a few bytes flipped and maybe cut short."""
    if draw(st.booleans()):
        data = draw(st.binary(max_size=120))
    else:
        chunks = draw(st.lists(st.tuples(st.sampled_from([b"LIST", b"junk", b"data", b"fmt "]),
                                         st.binary(max_size=9)), max_size=2))
        wav = bytearray(build_wav(draw(st.binary(max_size=40)), pre_data_chunks=chunks))
        for _ in range(draw(st.integers(0, 3))):
            wav[draw(st.integers(0, len(wav) - 1))] = draw(st.integers(0, 255))
        data = bytes(wav[: draw(st.integers(0, len(wav)))])
    return data, draw(st.none() | st.integers(0, len(data) + 2))


@settings(max_examples=400, deadline=None)
@given(_carrier_bytes())
def test_parse_carrier_fails_closed_and_alike_on_a_memoryview(case):
    data, header = case
    # a view of 16-bit items is still read byte by byte
    views = [memoryview(data)] + ([memoryview(data).cast("h")] if len(data) % 2 == 0 else [])
    try:
        carrier = parse_carrier(data, header)
    except StegoStreamError as expected:
        for view in views:
            with pytest.raises(StegoStreamError) as got:
                parse_carrier(view, header)
            assert (type(got.value), str(got.value)) == (type(expected), str(expected))
        return
    for view in views:
        viewed = parse_carrier(view, header)
        assert isinstance(viewed.data, memoryview)
        assert (viewed.header_len, viewed.body_end, viewed.format) == (
            carrier.header_len, carrier.body_end, carrier.format)
        assert bytes(carrier.data) == data == bytes(viewed.data)



@st.composite
def _walks(draw):
    """(file length, walk size, step, reads): a read is an item type, a byte
    offset into the file, and the first item and stride of its frontier,
    which may start below 0 and run on past the end of the array."""
    length = draw(st.integers(mmap.PAGESIZE, 4 * mmap.PAGESIZE))
    size = draw(st.integers(0, length + 50))
    step = draw(st.integers(max(1, size // 40), size + 10))
    reads = [(draw(st.sampled_from(["u1", "<i2"])), 2 * draw(st.integers(0, 300)),
              draw(st.integers(-2 * step, 2 * step)), draw(st.integers(1, 3)))
             for _ in range(draw(st.integers(1, 2)))]
    return length, size, step, reads


@pytest.mark.skipif(not hasattr(mmap, "MADV_DONTNEED"), reason="pages are dropped with madvise")
@settings(max_examples=200, deadline=None)
@given(_walks())
def test_walk_drops_pages_once_and_only_behind_each_frontier(tmp_path_factory, case):
    length, size, step, reads = case
    data = random.Random(length).randbytes(length)
    path = tmp_path_factory.getbasetemp() / "walk.bin"
    path.write_bytes(data)
    expected = [(start, min(start + step, size)) for start in range(0, size, step)]
    blocks, calls = [], []  # calls: (read, block just finished, start, stop, bytes dropped)
    drop_pages = container._drop_pages

    def spy(buffer, start, stop):
        read = next(i for i, array in enumerate(arrays) if array is buffer)
        calls.append((read, len(blocks) - 1, start, stop, drop_pages(buffer, start, stop)))
        return calls[-1][-1]

    with open_carrier(path, 0, write=False) as carrier, \
            mock.patch.object(container, "_drop_pages", spy):
        arrays = [np.frombuffer(carrier.data, dtype, (length - offset) // np.dtype(dtype).itemsize,
                                offset) for dtype, offset, _, _ in reads]
        walked = [(array, first, stride) for array, (_, _, first, stride) in zip(arrays, reads)]
        for block in container._walk(size, step, *walked):
            blocks.append(block)
        assert bytes(carrier.data) == data  # a dropped page reads back from the file
        sizes = [array.size for array in arrays]
        del arrays, walked
    assert blocks == expected
    page = mmap.PAGESIZE
    for read, (dtype, offset, first, stride) in enumerate(reads):
        itemsize = np.dtype(dtype).itemsize

        def frontier(end):
            return min(max(first + stride * end, 0), sizes[read]) * itemsize

        mine = [call[1:] for call in calls if call[0] == read]
        done = low = frontier(0)
        for block, start, stop, dropped in mine:
            if start == stop:
                assert dropped == 0  # an empty span drops nothing
                continue
            assert done <= start < stop  # disjoint and rising
            assert stop <= frontier(blocks[block][1])
            done = stop
        # everything from the first frontier to the last went, and only whole pages go
        last = frontier(size)
        assert done == last
        pages = (offset + last) // page - (offset + low) // page
        assert sum(dropped for *_, dropped in mine) == pages * page
