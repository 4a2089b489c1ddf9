import hashlib
import os
import random

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from stegostream import cipher
from stegostream.cipher import (
    MAX_MESSAGE_BYTES,
    SealedPayload,
    _ctr_xor,
    derive_key_material,
    encrypt_block,
    seal,
    unseal,
)
from stegostream.container import _mapped
from stegostream.errors import EmptyMessage, EmptyPassphrase, MessageTooLarge

# published AES-256 known-answer vector (single block)
AES256_KEY = bytes(range(32))
AES256_PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")
AES256_CIPHER = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")


def test_block_cipher_known_answer():
    assert encrypt_block(AES256_KEY, AES256_PLAIN) == AES256_CIPHER


def test_derivation_deterministic():
    assert derive_key_material("hunter2") == derive_key_material("hunter2")


def test_derivation_separates_passphrases():
    assert derive_key_material("a")[0] != derive_key_material("b")[0]


def test_derivation_matches_direct_digest():
    key, nonce = derive_key_material("secret")
    assert key == hashlib.sha256(b"stegostream-key:secret").digest()
    assert nonce == hashlib.sha256(b"stegostream-nonce:secret").digest()[:16]
    # frozen values, recomputed independently
    assert key.hex() == "2a17148b259dabb0c6aa0aeb3a387ce25a0dbc42f4dce222a322b4247e17f686"
    assert nonce.hex() == "3e5f0e60f3bcaadc06076a5a0ec5ddc3"


def test_empty_passphrase_rejected():
    with pytest.raises(EmptyPassphrase):
        derive_key_material("")
    with pytest.raises(EmptyPassphrase):
        seal(b"x", 0, "")


def test_one_byte_message_stays_one_byte():
    assert len(seal(b"\x42", 0, "pw").ciphertext) == 1


@given(st.binary(min_size=1, max_size=4096), st.text(min_size=1, max_size=32))
def test_round_trip_and_length_preserved(plaintext, passphrase):
    payload = seal(plaintext, 0x01, passphrase)
    assert len(payload.ciphertext) == len(plaintext)
    assert payload.declared_size == len(plaintext)
    assert unseal(payload, passphrase) == plaintext


def test_wrong_passphrase_yields_garbage():
    plaintext = os.urandom(32)
    payload = seal(plaintext, 0, "right")
    assert unseal(payload, "wrong") != plaintext


def test_empty_message_rejected():
    with pytest.raises(EmptyMessage):
        seal(b"", 0, "pw")


def test_oversized_message_rejected():
    class _Huge(bytes):
        def __len__(self):
            return MAX_MESSAGE_BYTES + 1

    with pytest.raises(MessageTooLarge):
        seal(_Huge(), 0, "pw")


def test_sealed_payload_validation():
    with pytest.raises(ValueError):
        SealedPayload(b"ab", 0, 3)
    with pytest.raises(ValueError):
        SealedPayload(b"ab", 256, 2)


@settings(max_examples=25)
@given(st.text(min_size=1, max_size=16), st.integers(min_value=1, max_value=256))
def test_counter_mode_matches_library(passphrase, length):
    # independent oracle: the library's own CTR mode (full 128-bit counter,
    # identical while the low 64 bits do not wrap)
    key, nonce = derive_key_material(passphrase)
    plaintext = bytes(length)
    lib = Cipher(algorithms.AES(key), modes.CTR(nonce)).encryptor()
    expected = lib.update(plaintext) + lib.finalize()
    assert seal(plaintext, 0, passphrase).ciphertext == expected


def _reference_keystream(key, nonce, length):
    # the layout's counter by hand: block i encrypts nonce[:8] followed by
    # (low + i) mod 2^64, where low is the nonce's low 64 bits
    low = int.from_bytes(nonce[8:], "big")
    blocks = (
        encrypt_block(key, nonce[:8] + ((low + i) % 2**64).to_bytes(8, "big"))
        for i in range((length + 15) // 16)
    )
    return b"".join(blocks)[:length]


@pytest.mark.parametrize("length", [1, 16, 17, 33, 4097])
@pytest.mark.parametrize(
    "low", [0, 2**64 - 1, 2**64 - 2, 2**64 - 17, random.Random(13).getrandbits(64)]
)
def test_ctr_xor_matches_reference_counter(low, length):
    rng = random.Random(low ^ length)
    key = rng.randbytes(32)
    nonce = rng.randbytes(8) + low.to_bytes(8, "big")
    data = rng.randbytes(length)
    stream = _reference_keystream(key, nonce, length)
    expected = bytes(a ^ b for a, b in zip(data, stream))
    assert _ctr_xor(key, nonce, data) == expected


@pytest.mark.parametrize("piece, low, length", [
    (48, 2**64 - 5, 200),  # the wrap falls inside the second piece
    (40, 2**64 - 7, 130),  # pieces end mid-block; the wrap falls inside the third
    (37, 2**64 - 2, 100),  # the first piece straddles the wrap
    (37, 0, 100),
])
def test_ctr_xor_in_pieces_matches_reference_counter(monkeypatch, piece, low, length):
    monkeypatch.setattr(cipher, "_PIECE_BYTES", piece)
    rng = random.Random(piece ^ low ^ length)
    key = rng.randbytes(32)
    nonce = rng.randbytes(8) + low.to_bytes(8, "big")
    data = rng.randbytes(length)
    stream = _reference_keystream(key, nonce, length)
    assert _ctr_xor(key, nonce, data) == bytes(a ^ b for a, b in zip(data, stream))


def test_mapped_message_seals_like_bytes(tmp_path, monkeypatch):
    # small pieces make the walk drop the map's pages behind it; the file
    # still holds them, so the view reads the same afterwards
    monkeypatch.setattr(cipher, "_PIECE_BYTES", 3 * 4096 + 5)
    data = random.Random(21).randbytes(100_000)
    path = tmp_path / "message.bin"
    path.write_bytes(data)
    with open(path, "rb") as file, _mapped(file.fileno()) as view:
        assert seal(view, 7, "pw") == seal(data, 7, "pw")
        assert bytes(view) == data


def test_seal_and_unseal_return_bytes():
    # the benchmark's tracer sizes only `bytes`: a bytearray or memoryview
    # ciphertext would count as 0 bytes in its per-layer figures
    payload = seal(memoryview(b"any buffer"), 0, "pw")
    assert type(payload.ciphertext) is bytes
    assert type(unseal(payload, "pw")) is bytes


def test_counter_wrap_stays_in_low_64_bits():
    key = bytes(32)
    nonce = b"\x01" * 8 + b"\xff" * 8
    stream = _ctr_xor(key, nonce, bytes(32))
    assert stream[:16] == encrypt_block(key, nonce)
    # next counter wraps to zero without carrying into the high half
    assert stream[16:] == encrypt_block(key, b"\x01" * 8 + b"\x00" * 8)


def test_keystream_blocks_differ():
    key, nonce = derive_key_material("pw")
    stream = _ctr_xor(key, nonce, bytes(48))
    blocks = {stream[i : i + 16] for i in range(0, 48, 16)}
    assert len(blocks) == 3
