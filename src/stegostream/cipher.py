"""Size-preserving message sealing with AES-256 in counter mode.

The keystream is the cryptography library's CTR mode (NIST SP 800-38A)
from the nonce, but only the nonce's low 64 bits count: where they wrap,
the stream restarts at the nonce's high 64 bits followed by 64 zero bits.

Key and nonce are both derived deterministically from the passphrase with
domain-separated SHA-256, because the embed layout has no room to store a
random nonce next to the message.

Security caveat, read before reusing this module elsewhere: a deterministic
nonce means the same passphrase always produces the same keystream. Sealing
two different messages under one passphrase reuses keystream, and sealing
the same message twice yields identical ciphertext. There is also no
authentication tag, so a wrong passphrase (or a corrupted carrier) decrypts
to garbage instead of failing. Use one passphrase per message.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .container import _walk
from .errors import EmptyMessage, EmptyPassphrase, MessageTooLarge

_KEY_DOMAIN = b"stegostream-key:"
_NONCE_DOMAIN = b"stegostream-nonce:"

MAX_MESSAGE_BYTES = 0xFFFFFFFF  # declared size must fit the 32-bit field
_PIECE_BYTES = 1024 * 1024  # `_ctr_xor` encrypts this much at a time


@dataclass(frozen=True)
class SealedPayload:
    """Ciphertext plus the one-byte file-type code and its declared size."""

    ciphertext: bytes
    file_type_code: int
    declared_size: int

    def __post_init__(self):
        if not 0 <= self.file_type_code <= 0xFF:
            raise ValueError("file type code must fit one byte")
        if self.declared_size != len(self.ciphertext):
            raise ValueError("declared size must equal the ciphertext length")
        if self.declared_size > MAX_MESSAGE_BYTES:
            raise ValueError("declared size must fit in 32 bits")


def derive_key_material(passphrase: str) -> tuple[bytes, bytes]:
    """Derive the (key, nonce) pair for a passphrase; deterministic."""
    if not passphrase:
        raise EmptyPassphrase("passphrase must not be empty")
    encoded = passphrase.encode("utf-8")
    key = hashlib.sha256(_KEY_DOMAIN + encoded).digest()
    nonce = hashlib.sha256(_NONCE_DOMAIN + encoded).digest()[:16]
    return key, nonce


def encrypt_block(key: bytes, block: bytes) -> bytes:
    """Raw AES-256 encryption of a single 16-byte block."""
    encryptor = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return encryptor.update(block) + encryptor.finalize()


def _ctr_xor(key: bytes, nonce: bytes, data) -> bytes:
    """XOR `data` with the counter-mode keystream; the counter is the low 64 bits.

    `data` is walked in pieces of `_PIECE_BYTES` (`container._walk`), and
    each piece is encrypted into one output buffer. The result is that
    buffer itself as `bytes`: `getvalue()` hands it over uncopied once no
    view of it is left, and the last piece's 15 spare bytes are cut off
    first.
    """
    # bytes before the low half wraps to zero
    split = 16 * (2**64 - int.from_bytes(nonce[8:16], "big"))
    first = Cipher(algorithms.AES(key), modes.CTR(nonce)).encryptor()
    wrapped = Cipher(algorithms.AES(key), modes.CTR(nonce[:8] + bytes(8))).encryptor()
    view = memoryview(data)
    size = len(view)
    out = io.BytesIO()
    out.seek(size + 14)  # update_into wants room for its input plus 15 bytes
    out.write(b"\0")
    with out.getbuffer() as target:
        for start, end in _walk(size, _PIECE_BYTES, (view, 0, 1)):
            cut = min(max(split, start), end)  # a piece may straddle the wrap
            for encryptor, lo, hi in ((first, start, cut), (wrapped, cut, end)):
                if lo < hi:
                    encryptor.update_into(view[lo:hi], target[lo:hi + 15])
    out.truncate(size)
    return out.getvalue()


def seal(plaintext: bytes, file_type_code: int, passphrase: str) -> SealedPayload:
    """Encrypt a message; the ciphertext has exactly the plaintext's length.

    `plaintext` may be any flat byte buffer, such as a `memoryview` of a
    mapped file, whose pages are dropped as they are sealed.
    """
    if len(plaintext) == 0:
        raise EmptyMessage("cannot seal an empty message")
    if len(plaintext) > MAX_MESSAGE_BYTES:
        raise MessageTooLarge(
            f"message is {len(plaintext)} bytes; the size field holds at most "
            f"{MAX_MESSAGE_BYTES}"
        )
    ciphertext = _ctr_xor(*derive_key_material(passphrase), plaintext)
    return SealedPayload(
        ciphertext=ciphertext,
        file_type_code=file_type_code,
        declared_size=len(ciphertext),
    )


def unseal(payload: SealedPayload, passphrase: str) -> bytes:
    """Decrypt a sealed payload.

    A wrong passphrase yields garbage bytes rather than an error: counter
    mode is unauthenticated.
    """
    return _ctr_xor(*derive_key_material(passphrase), payload.ciphertext)
