import errno
import hashlib
import itertools
import os
import socket
import struct
import sys
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest

from stegostream.errors import ConnectFailed, RemoteRejected, TransferIoError
from stegostream.transfer import (
    ACK_OK,
    ACK_REJECTED,
    MAGIC,
    FileReceiver,
    encode_frame,
    send_file,
)


@pytest.fixture
def receiver(tmp_path):
    inbox = tmp_path / "inbox"
    with FileReceiver(0, inbox) as server:
        yield server, inbox


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


_DROPPED = (errno.ECONNRESET, errno.EPIPE, errno.ENOTCONN)


def _raw_exchange(port, blob):
    # a dropped connection surfaces as EOF, a reset or an already
    # disconnected socket at shutdown, depending on timing; a timeout
    # (the receiver kept the connection open) still fails the test
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        try:
            conn.sendall(blob)
            conn.shutdown(socket.SHUT_WR)
            return conn.recv(1)
        except OSError as exc:
            if exc.errno not in _DROPPED:
                raise
            return b""


def test_single_transfer_byte_identical(receiver, tmp_path):
    server, inbox = receiver
    source = tmp_path / "song.wav"
    source.write_bytes(os.urandom(1024 * 1024))
    sent = send_file("127.0.0.1", server.port, source)
    stored = inbox / "song.wav"
    assert stored.exists()
    assert _digest(stored) == _digest(source)
    assert sent == len(encode_frame("song.wav", source.read_bytes()))


def test_eight_concurrent_transfers(receiver, tmp_path):
    server, inbox = receiver
    sources = []
    for i in range(8):
        path = tmp_path / f"clip-{i}.wav"
        path.write_bytes(os.urandom(32768 + i))
        sources.append(path)
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda p: send_file("127.0.0.1", server.port, p), sources))
    for path in sources:
        assert _digest(inbox / path.name) == _digest(path)


def test_same_name_collisions_get_suffixes(receiver, tmp_path):
    server, inbox = receiver
    contents = [b"first" * 100, b"second" * 100, b"third" * 100]
    for i, blob in enumerate(contents):
        src = tmp_path / f"src{i}" / "same.wav"
        src.parent.mkdir()
        src.write_bytes(blob)
        send_file("127.0.0.1", server.port, src)
    names = sorted(p.name for p in inbox.iterdir())
    assert names == ["same-1.wav", "same-2.wav", "same.wav"]
    stored = {p.read_bytes() for p in inbox.iterdir()}
    assert stored == set(contents)


@pytest.mark.parametrize("name, second", [
    ("a" * 251 + ".wav", "a" * 249 + "-1.wav"),
    ("\u00e9" * 125 + ".wav", "\u00e9" * 124 + "-1.wav"),  # cut on a character boundary
    ("a." + "b" * 253, "-1." + "b" * 252),  # no room for the stem: the suffix is cut
], ids=["ascii", "two-byte", "long-suffix"])
def test_long_name_collision_is_cut_to_fit(receiver, name, second):
    server, inbox = receiver
    for body in (b"first", b"second"):
        assert _raw_exchange(server.port, encode_frame(name, body)) == ACK_OK
    assert sorted(p.name for p in inbox.iterdir()) == sorted([name, second])
    assert (inbox / name).read_bytes() == b"first"
    assert (inbox / second).read_bytes() == b"second"


def test_concurrent_same_name_sends_keep_every_file(receiver):
    # names are claimed without a lock; a lost claim would overwrite a file
    server, inbox = receiver
    bodies = [os.urandom(4096 + i) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            acks = list(pool.map(
                lambda body: _raw_exchange(server.port, encode_frame("same.wav", body)), bodies))
    finally:
        sys.setswitchinterval(interval)
    assert acks == [ACK_OK] * len(bodies)
    assert sorted(p.read_bytes() for p in inbox.iterdir()) == sorted(bodies)


def test_corrupted_payload_rejected(receiver):
    server, inbox = receiver
    frame = bytearray(encode_frame("x.wav", b"payload-bytes"))
    frame[-6] ^= 0xFF  # flip a payload byte after the checksum was computed
    assert _raw_exchange(server.port, bytes(frame)) == ACK_REJECTED
    assert list(inbox.iterdir()) == []


def test_sender_raises_on_rejection(tmp_path):
    # a one-shot peer that always rejects
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def reject():
        conn, _ = listener.accept()
        with conn:
            conn.recv(65536)
            conn.sendall(ACK_REJECTED)

    threading.Thread(target=reject, daemon=True).start()
    source = tmp_path / "f.bin"
    source.write_bytes(b"data")
    with pytest.raises(RemoteRejected):
        send_file("127.0.0.1", port, source)
    listener.close()


def test_wrong_magic_dropped_without_ack(receiver, tmp_path):
    server, inbox = receiver
    assert _raw_exchange(server.port, b"NOPE" + b"\x00" * 20) == b""
    # the server still accepts the next well-formed transfer
    source = tmp_path / "after.bin"
    source.write_bytes(b"still alive")
    send_file("127.0.0.1", server.port, source)
    assert (inbox / "after.bin").read_bytes() == b"still alive"


def _raw_frame(name: bytes, body: bytes) -> bytes:
    # built by hand: encode_frame refuses the names these tests send
    return b"".join((MAGIC, struct.pack(">H", len(name)), name, struct.pack(">Q", len(body)),
                     body, struct.pack(">I", zlib.crc32(body))))


def test_traversal_name_rejected(receiver):
    server, inbox = receiver
    assert _raw_exchange(server.port, _raw_frame(b"../escape.wav", b"data")) == ACK_REJECTED
    assert list(inbox.iterdir()) == []
    assert not (inbox.parent / "escape.wav").exists()


def test_overlong_name_rejected(receiver):
    server, inbox = receiver
    assert _raw_exchange(server.port, _raw_frame(b"n" * 300, b"x")) == ACK_REJECTED


@pytest.mark.parametrize("name", [b"a\x00b", b".incoming-x", b"...", b"\xff\xfe.wav"])
def test_hostile_names_rejected_with_ack(receiver, tmp_path, name):
    server, inbox = receiver
    assert _raw_exchange(server.port, _raw_frame(name, b"data")) == ACK_REJECTED
    assert list(inbox.iterdir()) == []
    # the receiver is still serving
    source = tmp_path / "next.bin"
    source.write_bytes(b"fine")
    send_file("127.0.0.1", server.port, source)
    assert (inbox / "next.bin").read_bytes() == b"fine"


def test_short_frame_survived(receiver, tmp_path):
    server, inbox = receiver
    # dies mid-header: no ack, no file, server keeps running
    assert _raw_exchange(server.port, MAGIC + b"\x00") == b""
    source = tmp_path / "ok.bin"
    source.write_bytes(b"fine")
    send_file("127.0.0.1", server.port, source)
    assert (inbox / "ok.bin").exists()


def test_peer_closing_mid_body_leaves_no_temp_file(tmp_path):
    inbox = tmp_path / "inbox"
    frame = encode_frame("half.wav", os.urandom(100_000))
    with FileReceiver(0, inbox) as server:  # leaving the block joins the workers
        assert _raw_exchange(server.port, frame[: len(frame) // 2]) == b""
    assert list(inbox.iterdir()) == []


def test_frame_in_tiny_sends_is_stored(receiver):
    # 1-3 bytes per segment split every header field across reads
    server, inbox = receiver
    body = os.urandom(40)
    frame = encode_frame("drip.bin", body)
    steps = itertools.cycle((1, 2, 3))
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        at = 0
        while at < len(frame):
            step = next(steps)
            conn.sendall(frame[at : at + step])
            at += step
            time.sleep(0.001)
        assert conn.recv(1) == ACK_OK
    assert (inbox / "drip.bin").read_bytes() == body


def test_connect_failed():
    with pytest.raises(ConnectFailed):
        send_file("127.0.0.1", 1, "/dev/null", timeout=2)


def test_missing_ack_is_io_error(tmp_path):
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def close_without_ack():
        conn, _ = listener.accept()
        conn.close()

    threading.Thread(target=close_without_ack, daemon=True).start()
    source = tmp_path / "f.bin"
    source.write_bytes(b"imagine a stego file here")
    with pytest.raises(TransferIoError):
        send_file("127.0.0.1", port, source)
    listener.close()


def test_encode_frame_validates_names():
    with pytest.raises(ValueError):
        encode_frame("a/b.wav", b"x")
    with pytest.raises(ValueError):
        encode_frame("", b"x")
    with pytest.raises(ValueError):
        encode_frame("..", b"x")
    # accepted names encode to the hand-built frame
    for name in ("a", "song.wav", "\u00e9t\u00e9 2024.mp3", "n" * 255):
        assert encode_frame(name, b"body") == _raw_frame(name.encode(), b"body")


def test_transfer_is_oblivious_to_stego_content(receiver, tmp_path):
    # shipping an embedded carrier must not disturb the hidden message
    import random

    from stegostream.cipher import seal
    from stegostream.container import parse_carrier
    from stegostream.stego import StegoMode, embed, extract

    from conftest import build_wav

    server, inbox = receiver
    rng = random.Random(21)
    carrier = parse_carrier(build_wav(bytes(rng.randrange(256) for _ in range(2000))))
    secret = b"the message rides along unchanged"
    stego = embed(carrier, seal(secret, 0x01, "pw"), StegoMode.EXCESSIVE)
    source = tmp_path / "payload.wav"
    source.write_bytes(stego.data)
    send_file("127.0.0.1", server.port, source)
    received = parse_carrier((inbox / "payload.wav").read_bytes())
    assert extract(received, "pw") == (secret, "txt")


def test_no_temp_residue_after_rejection(receiver):
    server, inbox = receiver
    frame = bytearray(encode_frame("y.bin", b"zzz"))
    frame[-1] ^= 0x01  # corrupt the checksum field itself
    assert _raw_exchange(server.port, bytes(frame)) == ACK_REJECTED
    assert list(inbox.iterdir()) == []
