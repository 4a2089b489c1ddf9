import struct

import pytest
from hypothesis import strategies as st


def build_wav(data: bytes, *, sample_rate=44100, channels=1, bits_per_sample=16,
              pre_data_chunks=(), post_data_chunks=()) -> bytes:
    """Hand-assemble a RIFF/WAVE file around the given data payload.

    `pre_data_chunks` / `post_data_chunks` are (tag, payload) pairs placed
    before / after the data chunk. Odd-sized chunks get their pad byte.
    """
    block_align = channels * bits_per_sample // 8
    byte_rate = sample_rate * block_align
    fmt = struct.pack("<HHIIHH", 1, channels, sample_rate, byte_rate,
                      block_align, bits_per_sample)
    body = _chunk(b"fmt ", fmt)
    for tag, payload in pre_data_chunks:
        body += _chunk(tag, payload)
    body += _chunk(b"data", data)
    for tag, payload in post_data_chunks:
        body += _chunk(tag, payload)
    return b"RIFF" + struct.pack("<I", len(body) + 4) + b"WAVE" + body


def _chunk(tag: bytes, payload: bytes) -> bytes:
    out = tag + struct.pack("<I", len(payload)) + payload
    if len(payload) % 2:
        out += b"\x00"
    return out


def mutated(draw, blob: bytes) -> bytes:
    """`blob` with up to three byte flips, cuts or insertions, drawn with `draw`."""
    blob = bytearray(blob)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(blob)))
        edit = draw(st.sampled_from(["flip", "cut", "insert"]))
        if edit == "flip" and at < len(blob):
            blob[at] ^= draw(st.integers(1, 255))
        elif edit == "cut":
            del blob[at:]
        elif edit == "insert":
            blob[at:at] = draw(st.binary(min_size=1, max_size=4))
    return bytes(blob)


def pcm16_bytes(samples) -> bytes:
    return struct.pack(f"<{len(samples)}h", *samples)


@pytest.fixture
def canonical_wav():
    """1000 data bytes behind the classic 44-byte header."""
    return build_wav(bytes(i & 0xFF for i in range(1000)))
