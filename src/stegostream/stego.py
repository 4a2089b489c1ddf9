"""Two-tier bit-plane embedding of sealed payloads into audio carriers.

Two layouts are supported. Regular hides one bit per carrier byte (LSB
only) and reserves 41 bytes of metadata; Excessive hides two bits per
carrier byte (LSB plus the 7th bit, i.e. the second-least-significant)
and reserves 21, doubling capacity at the cost of more distortion. The
ciphertext is split into a head half (first ``ceil(m/2)`` bytes) and a
tail half that are written as two parallel bit streams.

Every field of both layouts is a lane: a strided run of carrier bytes in
one bit plane. `EmbedPlan.lanes()` lists them in stream order, and the
bit stream is the flag bit, the type byte, the 32-bit size and then the
ciphertext, each MSB-first. Embed, extract, inspect and delete all work
from that one table. Offsets below are relative to the protected header
length ``h``:

    Regular (flag LSB = 1)               Excessive (flag LSB = 0)
    h           flag bit                 h           flag bit
    h+1 ..h+8   type byte, LSBs          h+1 ..h+4   type nibbles, LSB/7th planes
    h+9 ..h+40  32-bit size, LSBs        h+5 ..h+20  size halves, LSB/7th planes
    h+41+2i     head bit i, LSB          h+21+i      head bit i in LSB,
    h+42+2j     tail bit j, LSB                      tail bit j in 7th bit

A carrier holds no marker that a message is present: inspecting a clean
file decodes noise, and implausible sizes are the only rejection signal.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, replace

import numpy as np

from .cipher import MAX_MESSAGE_BYTES, SealedPayload, unseal
from .container import AudioCarrier
from .errors import CapacityExceeded, CarrierTooSmall, SizeImplausible

PLANE_LSB = 0
PLANE_SEVENTH = 1


def read_bit(value: int, plane: int) -> int:
    """Read the bit of `value` in the given plane (0 = LSB, 1 = 7th bit)."""
    _check_plane(plane)
    return (value >> plane) & 1


def _check_plane(plane: int):
    if plane not in (PLANE_LSB, PLANE_SEVENTH):
        raise ValueError("plane must be 0 (LSB) or 1 (7th bit)")


class StegoMode(enum.Enum):
    """Embedding layout plus its per-mode constants.

    `head_byte_span` is how many carrier bytes one head-half message byte
    occupies (the matching tail byte rides inside the same span).
    """

    def __new__(cls, label, flag_bit, type_field_len, size_field_len, head_byte_span):
        obj = object.__new__(cls)
        obj._value_ = label
        obj.flag_bit = flag_bit
        obj.type_field_len = type_field_len
        obj.size_field_len = size_field_len
        obj.head_byte_span = head_byte_span
        return obj

    REGULAR = ("regular", 1, 8, 32, 16)
    EXCESSIVE = ("excessive", 0, 4, 16, 8)

    @property
    def reserved_bytes(self) -> int:
        return 1 + self.type_field_len + self.size_field_len

    @classmethod
    def from_flag(cls, bit: int) -> "StegoMode":
        return cls.REGULAR if bit == cls.REGULAR.flag_bit else cls.EXCESSIVE


# -- file types ---------------------------------------------------------------

# the index of an extension is its one-byte type code; code 0x00 is unknown
_FILE_TYPES = ("bin", "txt", "wav", "mp3", "png", "jpg", "pdf", "zip")


def code_for_extension(extension: str) -> int:
    """Type code for a file extension; unknown extensions map to 0x00."""
    ext = extension.lower().lstrip(".")
    return _FILE_TYPES.index(ext) if ext in _FILE_TYPES else 0


def extension_for_code(code: int) -> str:
    """Extension for a type code; unknown codes map to "bin"."""
    return _FILE_TYPES[code] if 0 <= code < len(_FILE_TYPES) else _FILE_TYPES[0]


# -- layout planning ----------------------------------------------------------

@dataclass(frozen=True)
class Lane:
    """`count` stream bits in one plane of the bytes start, start+stride, ..."""

    start: int
    stride: int
    count: int
    plane: int

    def view(self, arr: np.ndarray) -> np.ndarray:
        return arr[self.start : self.start + self.stride * self.count : self.stride]


@dataclass(frozen=True)
class EmbedPlan:
    """Resolved byte offsets for one embed of `message_len` ciphertext bytes."""

    mode: StegoMode
    flag_offset: int
    type_field_range: range
    size_field_range: range
    payload_base: int
    message_len: int
    head_len: int
    tail_len: int
    required_size: int

    @property
    def payload_span(self) -> int:
        """Carrier bytes covered by the payload region, full strides."""
        return self.mode.head_byte_span * self.head_len

    def lanes(self) -> list[Lane]:
        """The layout's lanes in stream order: flag, type, size, head, tail."""
        base = self.payload_base
        head_bits, tail_bits = 8 * self.head_len, 8 * self.tail_len
        if self.mode is StegoMode.REGULAR:
            return [
                Lane(self.flag_offset, 1, self.mode.reserved_bytes, PLANE_LSB),
                Lane(base, 2, head_bits, PLANE_LSB),
                Lane(base + 1, 2, tail_bits, PLANE_LSB),
            ]
        return [
            Lane(self.flag_offset, 1, 1, PLANE_LSB),
            *(Lane(field.start, 1, len(field), plane)
              for field in (self.type_field_range, self.size_field_range)
              for plane in (PLANE_LSB, PLANE_SEVENTH)),
            Lane(base, 1, head_bits, PLANE_LSB),
            Lane(base, 1, tail_bits, PLANE_SEVENTH),
        ]


def plan_embed(header_len: int, message_len: int, mode: StegoMode) -> EmbedPlan:
    """Lay out flag, type field, size field and payload for a message."""
    if header_len < 0:
        raise ValueError("header length must be >= 0")
    if message_len < 0:
        raise ValueError("message length must be >= 0")
    head_len = (message_len + 1) // 2
    tail_len = message_len // 2
    type_start = header_len + 1
    size_start = type_start + mode.type_field_len
    payload_base = size_start + mode.size_field_len
    return EmbedPlan(
        mode=mode,
        flag_offset=header_len,
        type_field_range=range(type_start, size_start),
        size_field_range=range(size_start, payload_base),
        payload_base=payload_base,
        message_len=message_len,
        head_len=head_len,
        tail_len=tail_len,
        required_size=payload_base + mode.head_byte_span * head_len,
    )


def capacity(carrier: AudioCarrier, mode: StegoMode) -> int:
    """Largest message byte count the carrier can hold in the given mode."""
    room = carrier.body_end - carrier.header_len - mode.reserved_bytes
    if room < mode.head_byte_span:
        return 0
    return min(2 * (room // mode.head_byte_span), MAX_MESSAGE_BYTES)


# -- lane I/O ----------------------------------------------------------------

# the stream is struct.pack(">BBI", flag, type, size) + ciphertext with the
# flag byte's 7 high (always zero) bits dropped; the metadata lanes carry
# the header, and the payload lanes carry the ciphertext from its bit 0
_STREAM_PAD_BITS = 7
_STREAM_HEADER = struct.Struct(">BBI")

# stream bits per lane step (32 KiB of stream bytes); memory stays at one
# chunk's bits, and 2^16-2^20 ran about equally fast on 4-8 MB messages
_CHUNK_BITS = 1 << 18


def _split_lanes(plan: EmbedPlan) -> tuple[list[Lane], list[Lane]]:
    """(metadata lanes, payload lanes): the last two lanes are head and tail."""
    lanes = plan.lanes()
    return lanes[:-2], lanes[-2:]


def _chunks(arr: np.ndarray, lanes: list[Lane]):
    """Yield (carrier view, plane) for runs of at most `_CHUNK_BITS` stream bits."""
    for lane in lanes:
        view = lane.view(arr)
        for i in range(0, lane.count, _CHUNK_BITS):
            yield view[i : i + _CHUNK_BITS], lane.plane


def _write_lanes(arr: np.ndarray, lanes: list[Lane], data: bytes, skip: int = 0):
    """Write the bits of `data`, MSB-first from bit `skip` on, over the lanes."""
    src = np.frombuffer(data, dtype=np.uint8)
    pos = skip
    for out, plane in _chunks(arr, lanes):
        n, lo = len(out), pos & 7
        bits = np.unpackbits(src[pos >> 3 : (pos + n + 7) >> 3])[lo : lo + n]
        bits <<= plane
        out &= np.uint8(0xFF ^ (1 << plane))
        out |= bits
        pos += n


def _read_lanes(arr: np.ndarray, lanes: list[Lane], skip: int = 0) -> bytes:
    """Pack `skip` zero bits, then the lanes' bits, MSB-first into bytes."""
    total = skip + sum(lane.count for lane in lanes)
    out = np.empty(total // 8, dtype=np.uint8)
    bits = np.zeros(min(total, _CHUNK_BITS) + 8, dtype=np.uint8)
    fill, at = skip, 0  # `fill` bits wait in `bits`, fewer than 8 between chunks
    for view, plane in _chunks(arr, lanes):
        end = fill + len(view)
        np.right_shift(view, plane, out=bits[fill:end])
        bits[fill:end] &= 1
        whole = end >> 3
        out[at : at + whole] = np.packbits(bits[: 8 * whole])
        at += whole
        fill = end & 7
        bits[:fill] = bits[8 * whole : end]
    return out.tobytes()


# -- operations ---------------------------------------------------------------

def _patch(carrier: AudioCarrier, write) -> AudioCarrier:
    """Apply `write` to the carrier bytes as a uint8 array.

    A carrier over a writable memoryview (`open_carrier`) is patched in
    place and returned; any other carrier is left alone and a patched
    copy is returned.
    """
    data = carrier.data
    if isinstance(data, memoryview) and not data.readonly:
        write(np.frombuffer(data, dtype=np.uint8))
        return carrier
    buf = bytearray(data)
    write(np.frombuffer(buf, dtype=np.uint8))
    return replace(carrier, data=bytes(buf))


def embed(carrier: AudioCarrier, payload: SealedPayload, mode: StegoMode) -> AudioCarrier:
    """Write a sealed payload into the carrier.

    Only the selected bit planes of body bytes change; the header region
    and every other bit plane are untouched. An `open_carrier` carrier is
    written in place and returned; any other gets a patched copy.
    """
    plan = plan_embed(carrier.header_len, payload.declared_size, mode)
    available = carrier.body_end
    if plan.required_size > available:
        raise CapacityExceeded(
            f"carrier size is not enough: {mode.value} embed of "
            f"{payload.declared_size} bytes needs {plan.required_size} carrier "
            f"bytes, only {available} usable"
        )
    header = _STREAM_HEADER.pack(mode.flag_bit, payload.file_type_code, payload.declared_size)
    metadata, payload_lanes = _split_lanes(plan)

    def write(arr):
        _write_lanes(arr, metadata, header, _STREAM_PAD_BITS)
        _write_lanes(arr, payload_lanes, payload.ciphertext)

    return _patch(carrier, write)


def inspect_carrier(carrier: AudioCarrier) -> tuple[StegoMode, int, int]:
    """Decode (mode, file type code, declared size) from the metadata block.

    Presence is not authenticated: a carrier without a message decodes to
    an arbitrary triple.
    """
    limit = carrier.body_end
    h = carrier.header_len
    if limit < h + 1:
        raise CarrierTooSmall("carrier has no room for the mode flag")
    mode = StegoMode.from_flag(read_bit(carrier.data[h], PLANE_LSB))
    if limit < h + mode.reserved_bytes:
        raise CarrierTooSmall(
            f"carrier ends inside the {mode.value} metadata block "
            f"({limit - h} bytes past header, {mode.reserved_bytes} needed)"
        )
    arr = np.frombuffer(carrier.data, dtype=np.uint8)
    metadata, _ = _split_lanes(plan_embed(h, 0, mode))
    _, type_code, declared = _STREAM_HEADER.unpack(_read_lanes(arr, metadata, _STREAM_PAD_BITS))
    return mode, type_code, declared


def extract(carrier: AudioCarrier, passphrase: str) -> tuple[bytes, str]:
    """Recover (plaintext, extension) from an embedded carrier.

    A wrong passphrase produces garbage plaintext, not an error.
    """
    mode, type_code, declared = inspect_carrier(carrier)
    plan = plan_embed(carrier.header_len, declared, mode)
    if declared < 1 or plan.required_size > carrier.body_end:
        raise SizeImplausible(
            f"declared size {declared} does not fit this carrier; no valid message"
        )
    _, payload_lanes = _split_lanes(plan)
    ciphertext = _read_lanes(np.frombuffer(carrier.data, dtype=np.uint8), payload_lanes)
    payload = SealedPayload(ciphertext, type_code, declared)
    return unseal(payload, passphrase), extension_for_code(type_code)


def delete_message(carrier: AudioCarrier, passphrase: str = "") -> AudioCarrier:
    """Blank an embedded message in the carrier.

    Zeroes the LSBs of the size field and of the payload span, then clears
    the flag bit. 7th-bit planes are left alone to avoid extra noise, and
    the type field is kept, so deletion leaves recoverable residue in
    Excessive mode by design. The passphrase is accepted for interface
    parity only; nothing verifies it. An `open_carrier` carrier is
    blanked in place and returned; any other gets a blanked copy.
    """
    mode, _, declared = inspect_carrier(carrier)
    plan = plan_embed(carrier.header_len, declared, mode)
    if plan.required_size > carrier.body_end:
        raise SizeImplausible(
            f"declared size {declared} does not fit this carrier; nothing to delete"
        )

    def blank(arr):
        # the size field and the payload span are one contiguous run
        arr[plan.size_field_range.start : plan.required_size] &= 0xFE
        arr[plan.flag_offset] &= 0xFE

    return _patch(carrier, blank)
