import random
import re

import numpy as np
import pytest

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
