import functools
import mmap
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stegostream import container
from stegostream import stego as stego_module
from stegostream.cipher import SealedPayload, seal
from stegostream.container import open_carrier, parse_carrier
from stegostream.errors import CapacityExceeded, CarrierTooSmall, SizeImplausible
from stegostream.stego import (
    StegoMode,
    capacity,
    code_for_extension,
    delete_message,
    embed,
    extension_for_code,
    extract,
    inspect_carrier,
    plan_embed,
    read_bit,
)

from conftest import build_wav
from reference_embedder import reference_embed, reference_placements

MODES = list(StegoMode)


def raw_carrier(rng, size, header_len=0):
    return parse_carrier(bytes(rng.randrange(256) for _ in range(size)), header_len)


# -- bit primitives -----------------------------------------------------------

def test_read_bit_examples():
    assert read_bit(0b01100110, 0) == 0
    assert read_bit(0b01100110, 1) == 1
    assert read_bit(0xFF, 1) == 1


def test_plane_validation():
    with pytest.raises(ValueError):
        read_bit(0, 2)


# -- mode constants and planning ----------------------------------------------

def test_mode_constants():
    regular, excessive = StegoMode.REGULAR, StegoMode.EXCESSIVE
    assert (regular.flag_bit, excessive.flag_bit) == (1, 0)
    assert regular.reserved_bytes == 1 + 8 + 32 == 41
    assert excessive.reserved_bytes == 1 + 4 + 16 == 21
    assert (regular.head_byte_span, excessive.head_byte_span) == (16, 8)


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=4000),
       st.sampled_from(MODES))
def test_plan_split_and_disjointness(header_len, message_len, mode):
    plan = plan_embed(header_len, message_len, mode)
    assert plan.head_len - plan.tail_len in (0, 1)
    assert plan.head_len + plan.tail_len == message_len

    # one (offset, plane) slot per stream bit: flag, type, size, then payload
    slots = [
        (lane.start + lane.stride * i, lane.plane)
        for lane in plan.lanes()
        for i in range(lane.count)
    ]
    assert len(slots) == len(set(slots)) == 41 + 8 * message_len
    # the lanes place each stream bit where the brute-force oracle does
    assert slots == [(offset, plane) for offset, plane, _ in
                     reference_placements(header_len, bytes(message_len), 0, mode.value)]
    assert all(plan.flag_offset <= offset < plan.required_size for offset, _ in slots)
    assert plan.required_size == plan.payload_base + plan.payload_span
    # `_chunks` drops pages behind its first lane's next byte, which bounds
    # every lane's next byte only when each walk's lanes share one stride
    # and list the lowest lane first
    for lanes in stego_module._split_lanes(plan):
        assert len({lane.stride for lane in lanes}) == 1
        assert lanes[0].start == min(lane.start for lane in lanes)


def test_required_size_closed_forms():
    for h in (0, 44):
        for m in range(0, 12):
            head = (m + 1) // 2
            assert plan_embed(h, m, StegoMode.REGULAR).required_size == h + 41 + 16 * head
            assert plan_embed(h, m, StegoMode.EXCESSIVE).required_size == h + 21 + 8 * head


def brute_force_capacity(limit, header_len, mode):
    best = 0
    m = 1
    while plan_embed(header_len, m, mode).required_size <= limit:
        best = m
        m += 1
    return best


def test_capacity_frozen_examples():
    rng = random.Random(1)
    carrier = raw_carrier(rng, 100000, header_len=44)
    assert capacity(carrier, StegoMode.REGULAR) == 12488
    assert brute_force_capacity(100000, 44, StegoMode.REGULAR) == 12488
    assert capacity(carrier, StegoMode.EXCESSIVE) == 24982
    assert brute_force_capacity(100000, 44, StegoMode.EXCESSIVE) == 24982


def test_capacity_zero_when_no_payload_room():
    carrier = parse_carrier(bytes(44 + 41), 44)
    assert capacity(carrier, StegoMode.REGULAR) == 0


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=700),
       st.sampled_from(MODES))
def test_capacity_matches_brute_force(header_len, size, mode):
    if header_len >= size:
        return
    carrier = parse_carrier(bytes(size), header_len)
    assert capacity(carrier, mode) == brute_force_capacity(size, header_len, mode)


def test_capacity_boundary_embeds():
    rng = random.Random(2)
    for mode in MODES:
        carrier = raw_carrier(rng, 500)
        fit = capacity(carrier, mode)
        payload = SealedPayload(bytes(fit), 0, fit)
        embed(carrier, payload, mode)  # exactly at capacity: fine
        too_big = SealedPayload(bytes(fit + 1), 0, fit + 1)
        with pytest.raises(CapacityExceeded):
            embed(carrier, too_big, mode)


# -- embed layout -------------------------------------------------------------

def test_regular_layout_hand_traced():
    carrier = parse_carrier(bytes(100), 0)
    stego = embed(carrier, SealedPayload(b"\xa5", 0, 1), StegoMode.REGULAR)
    set_offsets = [i for i, byte in enumerate(stego.data) if byte]
    # flag; size LSB; payload bits 1,0,1,0,0,1,0,1 on stride-2 offsets
    assert set_offsets == [0, 40, 41, 45, 51, 55]
    assert all(byte in (0, 1) for byte in stego.data)


def test_excessive_layout_hand_traced():
    carrier = parse_carrier(bytes(100), 0)
    stego = embed(carrier, SealedPayload(b"\xa5", 0, 1), StegoMode.EXCESSIVE)
    changed = {i: byte for i, byte in enumerate(stego.data) if byte}
    # size low half lives in the 7th-bit plane; head half in LSBs of 21..28
    assert changed == {20: 2, 21: 1, 23: 1, 26: 1, 28: 1}


def test_type_byte_placement_both_planes():
    carrier = parse_carrier(bytes(64), 0)
    stego = embed(carrier, SealedPayload(b"\x00", 0xC3, 1), StegoMode.EXCESSIVE)
    # 0xC3 = 1100 0011: high nibble in LSBs of 1..4, low nibble in 7th bits
    assert [read_bit(stego.data[i], 0) for i in (1, 2, 3, 4)] == [1, 1, 0, 0]
    assert [read_bit(stego.data[i], 1) for i in (1, 2, 3, 4)] == [0, 0, 1, 1]


def test_all_ones_carrier_plane_confinement():
    carrier = parse_carrier(b"\xff" * 300, 0)
    for mode, allowed in ((StegoMode.REGULAR, {0, 1}), (StegoMode.EXCESSIVE, {0, 1, 2, 3})):
        stego = embed(carrier, SealedPayload(b"\x0f\xf0\x55", 2, 3), mode)
        deltas = {a ^ b for a, b in zip(carrier.data, stego.data)}
        assert deltas <= allowed


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("message_len", [1, 2, 3, 8])
def test_embed_matches_reference(mode, message_len):
    rng = random.Random(900 + message_len)
    for header_len in (0, 5):
        carrier = raw_carrier(rng, 400, header_len)
        ciphertext = bytes(rng.randrange(256) for _ in range(message_len))
        type_code = rng.randrange(256)
        stego = embed(carrier, SealedPayload(ciphertext, type_code, message_len), mode)
        expected = reference_embed(carrier.data, header_len, ciphertext, type_code, mode.value)
        assert stego.data == expected


@pytest.mark.parametrize("chunk_bits", [8, 13])
@pytest.mark.parametrize("mode", MODES)
def test_chunked_lanes_match_reference(tmp_path, monkeypatch, chunk_bits, mode):
    # small chunks put many chunk boundaries inside every lane, byte-aligned or not
    monkeypatch.setattr(stego_module, "_CHUNK_BITS", chunk_bits)
    rng = random.Random(chunk_bits)
    for header_len in (0, 5):
        for message_len in (1, 6, 37):
            carrier = raw_carrier(rng, 800, header_len)
            plaintext = bytes(rng.randrange(256) for _ in range(message_len))
            payload = seal(plaintext, 0x03, "key")
            stego = embed(carrier, payload, mode)
            expected = reference_embed(carrier.data, header_len, payload.ciphertext, 0x03,
                                       mode.value)
            assert stego.data == expected
            assert _patched_in_place(tmp_path / "carrier.bin", carrier.data, header_len,
                                     lambda c: embed(c, payload, mode)) == expected
            assert extract(stego, "key") == (plaintext, "mp3")


# -- inspect ------------------------------------------------------------------

def test_inspect_inverts_embed():
    rng = random.Random(3)
    for mode in MODES:
        carrier = raw_carrier(rng, 4000)
        payload = SealedPayload(bytes(rng.randrange(256) for _ in range(77)), 0x04, 77)
        stego = embed(carrier, payload, mode)
        assert inspect_carrier(stego) == (mode, 0x04, 77)


def test_inspect_total_on_noise():
    rng = random.Random(4)
    for _ in range(20):
        mode, type_code, declared = inspect_carrier(raw_carrier(rng, 200))
        assert mode in MODES
        assert 0 <= type_code <= 0xFF
        assert 0 <= declared <= 0xFFFFFFFF


def test_inspect_too_small():
    with pytest.raises(CarrierTooSmall):
        inspect_carrier(parse_carrier(bytes(10), 9))  # single body byte < flag+metadata
    # flag reads regular -> needs 41 metadata bytes
    data = bytearray(30)
    data[0] = 1
    with pytest.raises(CarrierTooSmall):
        inspect_carrier(parse_carrier(bytes(data), 0))
    # same file with flag 0 inspects fine in excessive terms
    data[0] = 0
    inspect_carrier(parse_carrier(bytes(data), 0))


# -- extract ------------------------------------------------------------------

@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("message_len", [1, 2, 5, 8])
def test_round_trip_small(mode, message_len):
    rng = random.Random(10 * message_len)
    carrier = raw_carrier(rng, 600)
    plaintext = bytes(rng.randrange(256) for _ in range(message_len))
    stego = embed(carrier, seal(plaintext, 0x01, "key"), mode)
    assert extract(stego, "key") == (plaintext, "txt")


def test_round_trip_at_capacity_on_wav():
    rng = random.Random(11)
    wav = build_wav(bytes(rng.randrange(256) for _ in range(3000)))
    carrier = parse_carrier(wav)
    for mode in MODES:
        fit = capacity(carrier, mode)
        plaintext = bytes(rng.randrange(256) for _ in range(fit))
        stego = embed(carrier, seal(plaintext, 0x02, "k"), mode)
        got, ext = extract(stego, "k")
        assert got == plaintext and ext == "wav"
        assert stego.data[: carrier.header_len] == wav[: carrier.header_len]


@settings(max_examples=30)
@given(st.binary(min_size=1, max_size=64), st.sampled_from(MODES),
       st.integers(min_value=0, max_value=3))
def test_round_trip_property(plaintext, mode, seed):
    rng = random.Random(seed)
    carrier = raw_carrier(rng, 1200, header_len=seed)
    stego = embed(carrier, seal(plaintext, 0x07, "p@ss"), mode)
    assert extract(stego, "p@ss")[0] == plaintext


def test_extract_wrong_passphrase_garbage():
    rng = random.Random(12)
    carrier = raw_carrier(rng, 800)
    plaintext = bytes(rng.randrange(256) for _ in range(40))
    stego = embed(carrier, seal(plaintext, 0, "right"), StegoMode.REGULAR)
    wrong, _ = extract(stego, "wrong")
    assert wrong != plaintext


def test_extract_implausible_size():
    # craft metadata declaring a message far beyond the carrier
    data = bytearray(100)
    data[0] = 1  # regular flag
    for offset in range(9, 41):
        data[offset] = 1  # declared size 0xFFFFFFFF
    with pytest.raises(SizeImplausible):
        extract(parse_carrier(bytes(data), 0), "k")


def test_extract_zero_size_means_no_message():
    with pytest.raises(SizeImplausible):
        extract(parse_carrier(bytes(100), 0), "k")


# -- plane confinement and byte counts -----------------------------------------

@pytest.mark.parametrize("mode,allowed,bound", [
    (StegoMode.REGULAR, {0, 1}, lambda m: 41 + 8 * m),
    (StegoMode.EXCESSIVE, {0, 1, 2, 3}, lambda m: 21 + 8 * ((m + 1) // 2)),
])
def test_embed_confinement_random(mode, allowed, bound):
    rng = random.Random(mode.flag_bit + 40)
    for _ in range(20):
        header_len = rng.randrange(0, 60)
        message_len = rng.randrange(1, 50)
        size = plan_embed(header_len, message_len, mode).required_size + rng.randrange(0, 64)
        carrier = raw_carrier(rng, size, header_len)
        ciphertext = bytes(rng.randrange(256) for _ in range(message_len))
        stego = embed(carrier, SealedPayload(ciphertext, 1, message_len), mode)
        deltas = [a ^ b for a, b in zip(carrier.data, stego.data)]
        assert set(deltas) <= allowed
        assert all(delta == 0 for delta in deltas[:header_len])
        assert sum(1 for delta in deltas if delta) <= bound(message_len)


# -- delete -------------------------------------------------------------------

def test_delete_regular_zeroes_exact_spans():
    rng = random.Random(13)
    carrier = raw_carrier(rng, 300)
    stego = embed(carrier, SealedPayload(b"\xff\xff", 0x01, 2), StegoMode.REGULAR)
    cleaned = delete_message(stego, "ignored")
    assert all(read_bit(cleaned.data[off], 0) == 0 for off in range(9, 41))
    assert all(read_bit(cleaned.data[off], 0) == 0 for off in range(41, 41 + 16))
    assert read_bit(cleaned.data[0], 0) == 0
    # only LSBs move on delete
    assert all(a ^ b in (0, 1) for a, b in zip(stego.data, cleaned.data))
    # type field survives
    assert [read_bit(cleaned.data[off], 0) for off in range(1, 9)] == [0, 0, 0, 0, 0, 0, 0, 1]


def test_delete_excessive_keeps_seventh_bits():
    rng = random.Random(14)
    carrier = raw_carrier(rng, 300)
    stego = embed(carrier, SealedPayload(b"\xa5", 0x01, 1), StegoMode.EXCESSIVE)
    cleaned = delete_message(stego)
    assert all(read_bit(cleaned.data[off], 0) == 0 for off in range(5, 21))
    assert all(read_bit(cleaned.data[off], 0) == 0 for off in range(21, 29))
    assert read_bit(cleaned.data[0], 0) == 0
    assert all(a ^ b in (0, 1) for a, b in zip(stego.data, cleaned.data))
    # the 7th-bit half of the size field still decodes the old size
    assert all(
        read_bit(cleaned.data[off], 1) == read_bit(stego.data[off], 1)
        for off in range(len(stego.data))
    )


def test_delete_keeps_header_intact():
    rng = random.Random(15)
    wav = build_wav(bytes(rng.randrange(256) for _ in range(500)))
    carrier = parse_carrier(wav)
    stego = embed(carrier, seal(b"payload", 0, "k"), StegoMode.REGULAR)
    cleaned = delete_message(stego)
    assert cleaned.data[: carrier.header_len] == wav[: carrier.header_len]


def test_delete_zeroed_carrier_idempotent():
    carrier = parse_carrier(bytes(128), 0)
    once = delete_message(carrier)
    assert once.data == carrier.data
    assert delete_message(once).data == once.data


def test_delete_twice_excessive_idempotent():
    rng = random.Random(16)
    carrier = raw_carrier(rng, 400)
    stego = embed(carrier, SealedPayload(bytes(rng.randrange(256) for _ in range(9)), 0, 9),
                  StegoMode.EXCESSIVE)
    once = delete_message(stego)
    assert delete_message(once).data == once.data


def test_delete_implausible_size():
    data = bytearray(100)
    data[0] = 1
    for offset in range(9, 41):
        data[offset] = 1
    with pytest.raises(SizeImplausible):
        delete_message(parse_carrier(bytes(data), 0))


# -- patching a carrier file in place -------------------------------------------

@st.composite
def carrier_files(draw):
    """(file bytes, raw header override): a raw carrier, or a WAV whose data
    chunk may be odd-sized (RIFF pad byte) and followed by another chunk."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        header_len = draw(st.integers(min_value=0, max_value=64))
        size = header_len + draw(st.integers(min_value=1, max_value=700))
        return bytes(rng.randrange(256) for _ in range(size)), header_len
    body = bytes(rng.randrange(256) for _ in range(draw(st.integers(min_value=1, max_value=700))))
    pre, post = [], []
    if draw(st.booleans()):  # random header length
        pre.append((b"LIST", b"l" * draw(st.integers(min_value=0, max_value=41))))
    if draw(st.booleans()):
        post.append((b"cue ", b"c" * draw(st.integers(min_value=0, max_value=13))))
    return build_wav(body, pre_data_chunks=pre, post_data_chunks=post), None


def _patched_in_place(path, file_bytes, header, operation) -> bytes:
    path.write_bytes(file_bytes)
    with open_carrier(path, header) as carrier:
        assert operation(carrier) is carrier
    return path.read_bytes()


def _assert_patch_equals_copy(patch, file_bytes, header, payload, mode):
    """`patch(file_bytes, header, operation)` gives the bytes that the copy
    path gives for embed and then for delete, with header and tail kept."""
    carrier = parse_carrier(file_bytes, header)
    h, end = carrier.header_len, carrier.body_end

    stego = patch(file_bytes, header, lambda c: embed(c, payload, mode))
    assert stego == embed(carrier, payload, mode).data
    assert stego[:h] == file_bytes[:h] and stego[end:] == file_bytes[end:]

    cleaned = patch(stego, header, delete_message)
    assert cleaned == delete_message(parse_carrier(stego, header)).data
    assert cleaned[:h] == file_bytes[:h] and cleaned[end:] == file_bytes[end:]


@given(carrier_files(), st.sampled_from(MODES), st.data())
def test_in_place_equals_copy(tmp_path_factory, carrier_file, mode, data):
    file_bytes, header = carrier_file
    fit = capacity(parse_carrier(file_bytes, header), mode)
    assume(fit >= 1)
    size = data.draw(st.integers(min_value=1, max_value=min(fit, 64)))
    payload = SealedPayload(data.draw(st.binary(min_size=size, max_size=size)), 2, size)
    path = tmp_path_factory.getbasetemp() / "in-place.bin"
    _assert_patch_equals_copy(functools.partial(_patched_in_place, path), file_bytes, header,
                              payload, mode)


def _multi_page_cases(rng, mode):
    """(file bytes, raw header override, payload) on carriers of a few pages:
    a raw one with a header, and a WAV whose odd data chunk is followed by
    another chunk; messages fill the carrier or about three quarters of it."""
    page = mmap.PAGESIZE
    for file_bytes, header in [
        (rng.randbytes(6 * page + 123), 300),
        (build_wav(rng.randbytes(5 * page + 77), post_data_chunks=[(b"cue ", b"c" * 9)]), None),
    ]:
        fit = capacity(parse_carrier(file_bytes, header), mode)
        for size in (fit - rng.randrange(3), 3 * fit // 4 + rng.randrange(1, 100)):
            yield file_bytes, header, SealedPayload(rng.randbytes(size), 2, size)


@pytest.mark.parametrize("chunk_bits", [8, 13, mmap.PAGESIZE])
@pytest.mark.parametrize("mode", MODES)
def test_dropping_pages_keeps_in_place_equal_to_copy(tmp_path, monkeypatch, chunk_bits, mode):
    # small chunks end inside lanes and pages, so pages are dropped mid-lane
    monkeypatch.setattr(stego_module, "_CHUNK_BITS", chunk_bits)
    dropped = []
    drop_pages = container._drop_pages

    def spy(buffer, start, stop):
        dropped.append(drop_pages(buffer, start, stop))
        return dropped[-1]

    monkeypatch.setattr(container, "_drop_pages", spy)

    def patch(file_bytes, header, operation):
        dropped.clear()
        patched = _patched_in_place(tmp_path / "carrier.bin", file_bytes, header, operation)
        assert sum(dropped) >= mmap.PAGESIZE
        return patched

    for file_bytes, header, payload in _multi_page_cases(random.Random(chunk_bits), mode):
        _assert_patch_equals_copy(patch, file_bytes, header, payload, mode)


def _patched_private_map(path, file_bytes, header, operation) -> bytes:
    path.write_bytes(file_bytes)
    with open(path, "rb") as file, \
            mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_COPY) as private, \
            memoryview(private) as view:
        carrier = parse_carrier(view, header)
        assert operation(carrier) is carrier
        patched = bytes(view)
    assert path.read_bytes() == file_bytes
    return patched


@pytest.mark.parametrize("mode", MODES)
def test_private_map_keeps_its_writes(tmp_path, monkeypatch, mode):
    # dropping a private map's pages would throw away what was written there
    monkeypatch.setattr(stego_module, "_CHUNK_BITS", mmap.PAGESIZE)
    patch = functools.partial(_patched_private_map, tmp_path / "carrier.bin")
    for file_bytes, header, payload in _multi_page_cases(random.Random(7), mode):
        _assert_patch_equals_copy(patch, file_bytes, header, payload, mode)


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", MODES)
def test_lane_memory_does_not_grow_with_the_message(tmp_path, mode):
    # a whole-stream bit array would cost 8 bytes per message byte
    message_len = 2 << 20
    plaintext = random.Random(5).randbytes(message_len)
    payload = seal(plaintext, 0, "key")
    path = tmp_path / "carrier.bin"
    with open(path, "wb") as file:
        file.truncate(plan_embed(0, message_len, mode).required_size)
    with open_carrier(path, 0) as carrier:
        _, embed_peak = _traced_peak(lambda: embed(carrier, payload, mode))
        (got, _), extract_peak = _traced_peak(lambda: extract(carrier, "key"))
    assert got == plaintext
    assert embed_peak <= 1 << 20
    assert extract_peak <= 2.5 * message_len


# -- file types ----------------------------------------------------------------

def test_registry_defaults():
    assert code_for_extension(".txt") == 0x01
    assert code_for_extension("TXT") == 0x01
    assert code_for_extension(".weird") == 0x00
    assert extension_for_code(0x06) == "pdf"
    assert extension_for_code(0xEE) == "bin"


def test_type_table_round_trip():
    table = ["bin", "txt", "wav", "mp3", "png", "jpg", "pdf", "zip"]
    for code, extension in enumerate(table):
        assert extension_for_code(code) == extension
        assert code_for_extension(extension) == code
    assert code_for_extension(".TXT") == 0x01
    assert code_for_extension("flac") == 0x00
    assert extension_for_code(0xEE) == "bin"


def test_public_names_resolve():
    import stegostream

    for name in stegostream.__all__:
        assert hasattr(stegostream, name), name
