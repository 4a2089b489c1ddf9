import contextlib
import errno
import hashlib
import itertools
import logging
import os
import random
import signal
import socket
import struct
import sys
import threading
import time
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stegostream import transfer
from stegostream.errors import (
    ConnectFailed,
    InvalidTransferName,
    RemoteRejected,
    TransferIoError,
)
from stegostream.transfer import (
    ACK_OK,
    ACK_REJECTED,
    MAGIC,
    FileReceiver,
    encode_frame,
    send_file,
)

from conftest import mutated, read_line, recv_child


@pytest.fixture
def receiver(tmp_path):
    inbox = tmp_path / "inbox"
    with FileReceiver(0, inbox) as server:
        yield server, inbox


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _random_bytes(count: int, seed: int) -> bytes:
    return random.Random(seed).randbytes(count)


_DROPPED = (errno.ECONNRESET, errno.EPIPE, errno.ENOTCONN)


def _raw_exchange(port, blob):
    # a dropped connection surfaces as EOF, a reset or an already
    # disconnected socket at shutdown, depending on timing; an ack sent
    # before the receiver closed with bytes unread arrives before its
    # reset, so it is still read after a failed send; a timeout (the
    # receiver kept the connection open) still fails the test
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        try:
            conn.sendall(blob)
            conn.shutdown(socket.SHUT_WR)
        except OSError as exc:
            if exc.errno not in _DROPPED:
                raise
        try:
            return conn.recv(1)
        except OSError as exc:
            if exc.errno not in _DROPPED:
                raise
            return b""


# one byte past the in-memory frame's limit goes out through sendfile
_SIZES = [64 * 1024, 1024 * 1024, 1024 * 1024 + 1, 3 * 1024 * 1024]
_SIZE_IDS = ["64KiB", "1MiB", "1MiB+1", "3MiB"]


@pytest.mark.parametrize("size", _SIZES, ids=_SIZE_IDS)
def test_single_transfer_byte_identical(receiver, tmp_path, size):
    server, inbox = receiver
    source = tmp_path / "song.wav"
    source.write_bytes(_random_bytes(size, seed=size))
    sent = send_file("127.0.0.1", server.port, source)
    stored = inbox / "song.wav"
    assert stored.exists()
    assert _digest(stored) == _digest(source)
    assert sent == len(encode_frame("song.wav", source.read_bytes()))


def _listen_once(expected: int):
    """A peer for one connection: it reads at most `expected` bytes into a
    buffer allocated here, answers ACK_OK once all of them arrived, and gives
    up on a sender silent for 5 s. Returns its port and a function that
    waits for it and returns the bytes it read before the end of the frame
    or the sender's close."""
    listener = socket.create_server(("127.0.0.1", 0))
    buffer = memoryview(bytearray(expected))
    received = []

    def serve():
        with listener:
            conn, _ = listener.accept()
        with conn:
            conn.settimeout(5)
            at = 0
            while at < expected:
                count = conn.recv_into(buffer[at:])
                if not count:
                    break
                at += count
            if at == expected:
                conn.sendall(ACK_OK)
            received.append(at)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()

    def result() -> bytes:
        thread.join(10)
        assert received, "the peer was still waiting for the frame"
        return bytes(buffer[: received[0]])

    return listener.getsockname()[1], result


@pytest.mark.parametrize("size", _SIZES, ids=_SIZE_IDS)
def test_wire_bytes_are_encode_frames_for_any_size(tmp_path, size):
    source = tmp_path / "pinned.wav"
    source.write_bytes(_random_bytes(size, seed=size + 1))
    frame = encode_frame("pinned.wav", source.read_bytes())
    port, result = _listen_once(len(frame))
    assert send_file("127.0.0.1", port, source) == len(frame)
    assert result() == frame


def _forbid_connecting(monkeypatch):
    def connect(*args, **kwargs):
        raise AssertionError("send_file connected")

    monkeypatch.setattr(transfer.socket, "create_connection", connect)


@pytest.mark.parametrize("name", [".hidden.wav", "tab\there.wav", os.fsdecode(b"\xff.wav")],
                         ids=["leading-dot", "control", "not-utf8"])
def test_large_file_with_hostile_name_is_refused_before_connecting(tmp_path, monkeypatch, name):
    source = tmp_path / name
    source.write_bytes(bytes(2 * 1024 * 1024))
    _forbid_connecting(monkeypatch)
    with pytest.raises(InvalidTransferName):
        send_file("127.0.0.1", 1, source)


def test_short_sendfile_raises_and_ends_the_peers_wait(tmp_path, monkeypatch):
    # a file that shrinks under sendfile: the frame header has promised more
    source = tmp_path / "shrinks.wav"
    source.write_bytes(_random_bytes(2 * 1024 * 1024, seed=3))
    frame = encode_frame("shrinks.wav", source.read_bytes())
    sendfile = socket.socket.sendfile
    monkeypatch.setattr(socket.socket, "sendfile",
                        lambda self, file, offset=0, count=None:
                        sendfile(self, file, offset, count - 1000))
    port, result = _listen_once(len(frame))
    with pytest.raises(TransferIoError):
        send_file("127.0.0.1", port, source)
    assert result() == frame[: len(frame) - 4 - 1000]


def test_file_shorter_than_its_size_raises_before_connecting(tmp_path, monkeypatch):
    # a file cut between fstat and the CRC pass may not spin that pass forever
    source = tmp_path / "cut.wav"
    source.write_bytes(bytes(2 * 1024 * 1024))
    fields = list(os.stat(source))
    fields[6] += 1  # st_size
    monkeypatch.setattr(transfer.os, "fstat", lambda fd: os.stat_result(fields))
    _forbid_connecting(monkeypatch)
    with pytest.raises(TransferIoError, match="shrank"):
        send_file("127.0.0.1", 1, source)


def test_large_send_holds_no_copy_of_the_file(tmp_path):
    source = tmp_path / "big.wav"
    source.write_bytes(_random_bytes(8 * 1024 * 1024, seed=4))
    port, result = _listen_once(len(encode_frame("big.wav", source.read_bytes())))
    tracemalloc.start()
    try:
        send_file("127.0.0.1", port, source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result()
    assert peak < 4 * 1024 * 1024


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


def test_name_collisions_stop_at_the_candidate_cap(receiver, monkeypatch):
    # each store of one name tries one more link than the last, up to the
    # cap; past it the file is refused instead of costing ever more links
    server, inbox = receiver
    monkeypatch.setattr(transfer, "MAX_NAME_CANDIDATES", 4)
    links = []
    link = os.link

    def counted_link(source, target):
        links.append(target)
        link(source, target)

    monkeypatch.setattr(os, "link", counted_link)
    counts, acks = [], []
    for i in range(6):
        before = len(links)
        acks.append(_raw_exchange(server.port, encode_frame("f.bin", b"body %d" % i)))
        counts.append(len(links) - before)
    assert counts == [1, 2, 3, 4, 4, 4]
    assert acks == [ACK_OK] * 4 + [ACK_REJECTED] * 2
    assert sorted(p.name for p in inbox.iterdir()) == ["f-1.bin", "f-2.bin", "f-3.bin", "f.bin"]


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


def test_refused_name_is_answered_without_a_temp_file(receiver, monkeypatch):
    server, inbox = receiver
    opened = []
    named_temporary_file = transfer.tempfile.NamedTemporaryFile

    def spy(*args, **kwargs):
        opened.append(kwargs)
        return named_temporary_file(*args, **kwargs)

    monkeypatch.setattr(transfer.tempfile, "NamedTemporaryFile", spy)
    # more than the socket buffers hold, so the send of the refused frame is
    # reset and its ack is read after that
    body = _random_bytes(8 << 20, seed=6)
    assert _raw_exchange(server.port, _raw_frame(b"../escape.wav", body)) == ACK_REJECTED
    assert opened == []
    assert _raw_exchange(server.port, _raw_frame(b"fine.wav", body)) == ACK_OK
    assert len(opened) == 1
    assert [p.read_bytes() for p in inbox.iterdir()] == [body]


def test_refused_name_is_answered_at_its_header(receiver):
    # no body follows the header, and the declared one would never end
    server, inbox = receiver
    head = MAGIC + struct.pack(">H", 13) + b"../escape.wav" + struct.pack(">Q", 1 << 63)
    assert _raw_exchange(server.port, head) == ACK_REJECTED
    assert list(inbox.iterdir()) == []


@pytest.mark.parametrize("body_len", [(1 << 32) + 8, 1 << 63], ids=["riff-limit+1", "2**63"])
def test_body_larger_than_any_wav_is_answered_at_its_header(receiver, body_len):
    # no body follows the header; a receiver waiting for it would never answer
    server, inbox = receiver
    head = MAGIC + struct.pack(">H", 8) + b"huge.wav" + struct.pack(">Q", body_len)
    assert _raw_exchange(server.port, head) == ACK_REJECTED
    assert list(inbox.iterdir()) == []


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


# "early.wav" with a 40-byte body: magic 0-4, name_len 4-6, name 6-15,
# body_len 15-23, body 23-63, checksum 63-67
@pytest.mark.parametrize("cut", [0, 2, 5, 12, 20, 40, 65],
                         ids=["nothing", "magic", "name_len", "name", "body_len", "body", "crc"])
def test_peer_closing_early_logs_one_info_line(tmp_path, caplog, cut):
    frame = encode_frame("early.wav", bytes(40))
    caplog.set_level(logging.INFO, logger="stegostream.transfer")
    with FileReceiver(0, tmp_path / "inbox") as server:  # leaving the block joins the workers
        assert _raw_exchange(server.port, frame[:cut]) == b""
    records = [r for r in caplog.records if r.name == "stegostream.transfer"]
    assert [r.levelno for r in records] == [logging.INFO]
    assert "closed before its frame ended" in records[0].getMessage()
    assert list((tmp_path / "inbox").iterdir()) == []


def test_stop_without_entering_closes_the_listener(tmp_path):
    # no accept thread was started, so there is none to join
    server = FileReceiver(0, tmp_path / "inbox")
    server.stop()
    assert server._listener.fileno() == -1
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", server.port), timeout=5).close()


def _wait_for(condition, timeout=5):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert condition()


def test_stop_is_bounded_with_idle_peers(tmp_path):
    # three peers that connect and send nothing may not hold stop() for their timeouts
    with FileReceiver(0, tmp_path / "inbox") as server, contextlib.ExitStack() as peers:
        for _ in range(3):
            peers.enter_context(socket.create_connection(("127.0.0.1", server.port), timeout=5))
        _wait_for(lambda: len(server._open) == 3)
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 3
        assert not server._open
        assert not any(thread.is_alive() for thread in server._threads)
    assert list((tmp_path / "inbox").iterdir()) == []


def test_stop_is_bounded_with_peers_mid_body(tmp_path):
    # two peers stall inside their bodies, each with a temp file open
    inbox = tmp_path / "inbox"
    frame = encode_frame("stalled.wav", bytes(100_000))
    with FileReceiver(0, inbox) as server, contextlib.ExitStack() as peers:
        for _ in range(2):
            peer = peers.enter_context(
                socket.create_connection(("127.0.0.1", server.port), timeout=5))
            peer.sendall(frame[:50_000])
        _wait_for(lambda: len(list(inbox.iterdir())) == 2)
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 3
        assert not any(thread.is_alive() for thread in server._threads)
    assert list(inbox.iterdir()) == []


def test_connection_over_the_cap_is_answered_at_once(tmp_path, monkeypatch):
    monkeypatch.setattr(transfer, "MAX_CONNECTIONS", 2)
    with FileReceiver(0, tmp_path / "inbox") as server, contextlib.ExitStack() as peers:
        for _ in range(2):
            peers.enter_context(socket.create_connection(("127.0.0.1", server.port), timeout=5))
        _wait_for(lambda: len(server._open) == 2)
        # the third peer sends nothing and is still answered
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as third:
            assert third.recv(1) == ACK_REJECTED
        assert len(server._threads) == 3


def test_senders_over_the_cap_lose_no_slot_and_start_no_extra_thread(tmp_path, monkeypatch):
    # four times as many senders as slots, with threads switching as often
    # as they can: each file is stored or refused, every slot is given back
    # and no more than MAX_CONNECTIONS + 1 threads exist
    monkeypatch.setattr(transfer, "MAX_CONNECTIONS", 3)
    inbox = tmp_path / "inbox"
    frames = [encode_frame(f"c{i}.wav", os.urandom(20000 + i)) for i in range(12)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with FileReceiver(0, inbox) as server:
            with ThreadPoolExecutor(max_workers=len(frames)) as pool:
                acks = list(pool.map(lambda frame: _raw_exchange(server.port, frame), frames))
            _wait_for(lambda: not server._open)
            assert len(server._threads) <= 4
    finally:
        sys.setswitchinterval(interval)
    assert set(acks) <= {ACK_OK, ACK_REJECTED}
    assert {p.name for p in inbox.iterdir()} == {
        f"c{i}.wav" for i, ack in enumerate(acks) if ack == ACK_OK}


def test_early_rejection_of_a_streamed_send_is_read(tmp_path, monkeypatch):
    # the receiver answers 0x01 and closes with the body unread; the body
    # is more than the socket buffers hold, so the sender's sendfile is
    # reset, and the ack must still be read and reported
    monkeypatch.setattr(transfer, "MAX_CONNECTIONS", 2)
    source = tmp_path / "large.wav"
    source.write_bytes(_random_bytes(8 << 20, seed=7))
    with FileReceiver(0, tmp_path / "inbox") as server, contextlib.ExitStack() as peers:
        for _ in range(2):
            peers.enter_context(socket.create_connection(("127.0.0.1", server.port), timeout=5))
        _wait_for(lambda: len(server._open) == 2)
        with pytest.raises(RemoteRejected):
            send_file("127.0.0.1", server.port, source, timeout=5)
    assert list((tmp_path / "inbox").iterdir()) == []


def test_sequential_sends_start_no_thread_per_connection(tmp_path, monkeypatch):
    source = tmp_path / "loop.wav"
    source.write_bytes(os.urandom(5000))
    starts = []
    start = threading.Thread.start

    def counted_start(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    with FileReceiver(0, tmp_path / "inbox") as server:
        for _ in range(50):
            send_file("127.0.0.1", server.port, source, timeout=5)
    assert len(starts) <= 2
    assert len(list((tmp_path / "inbox").iterdir())) == 50


def _limit_descriptors():
    import resource

    resource.setrlimit(resource.RLIMIT_NOFILE, (16, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))


@pytest.mark.skipif(sys.platform != "linux", reason="limits the child's descriptors")
def test_receiver_keeps_accepting_after_descriptors_run_out(tmp_path):
    # a child limited to 16 descriptors has fewer than MAX_CONNECTIONS free,
    # so that many idle peers use them up before the cap refuses any, and
    # accept() fails with EMFILE until they leave; then the receiver must
    # serve the next file
    source = tmp_path / "after.wav"
    source.write_bytes(os.urandom(5000))
    inbox = tmp_path / "inbox"
    with recv_child(inbox, _limit_descriptors) as (child, port):
        with contextlib.ExitStack() as peers:
            for _ in range(transfer.MAX_CONNECTIONS):
                peers.enter_context(socket.create_connection(("127.0.0.1", port), timeout=5))
            assert b"accept failed: [Errno 24]" in read_line(child.stderr, 5)
        assert send_file("127.0.0.1", port, source, timeout=5) > 0
        child.send_signal(signal.SIGINT)
        child.communicate(timeout=5)
    assert child.returncode == 0
    assert (inbox / "after.wav").read_bytes() == source.read_bytes()


def test_a_thread_that_cannot_start_costs_no_connection(tmp_path, monkeypatch, caplog):
    source = tmp_path / "twice.wav"
    source.write_bytes(os.urandom(5000))
    inbox = tmp_path / "inbox"
    refused = []

    class FailsOnce(threading.Thread):
        def start(self):
            if not refused:
                refused.append(self)
                raise RuntimeError("can't start new thread")
            super().start()

    with FileReceiver(0, inbox) as server:
        monkeypatch.setattr(transfer.threading, "Thread", FailsOnce)
        send_file("127.0.0.1", server.port, source, timeout=5)
        send_file("127.0.0.1", server.port, source, timeout=5)
        server.stop()
        assert refused
        assert not any(thread.is_alive() for thread in server._threads)
    assert (inbox / "twice.wav").read_bytes() == source.read_bytes()
    assert (inbox / "twice-1.wav").read_bytes() == source.read_bytes()
    assert any("can't start new thread" in r.getMessage() for r in caplog.records
               if r.levelno == logging.WARNING)


def test_a_connection_that_fails_with_an_os_error_is_rejected(tmp_path, monkeypatch):
    # no free descriptor for the temp file must get an explicit 0x01, not a
    # reset, and cost only that connection
    source = tmp_path / "spare.wav"
    source.write_bytes(os.urandom(5000))
    inbox = tmp_path / "inbox"
    opened = []
    temp_file = transfer.tempfile.NamedTemporaryFile

    def fails_once(*args, **kwargs):
        opened.append(None)
        if len(opened) == 1:
            raise OSError(errno.EMFILE, "Too many open files")
        return temp_file(*args, **kwargs)

    monkeypatch.setattr(transfer.tempfile, "NamedTemporaryFile", fails_once)
    with FileReceiver(0, inbox) as server:
        with pytest.raises(RemoteRejected):
            send_file("127.0.0.1", server.port, source, timeout=5)
        send_file("127.0.0.1", server.port, source, timeout=5)
    assert [p.name for p in inbox.iterdir()] == ["spare.wav"]


@st.composite
def _mutated_frames(draw):
    """A valid frame with up to three byte flips, cuts or insertions."""
    name = draw(st.text("ab.-_\u00e9", min_size=1, max_size=12).filter(lambda n: n[0] != "."))
    return mutated(draw, encode_frame(name, draw(st.binary(max_size=64))))


def _framed_body(blob: bytes) -> tuple[bytes, bytes]:
    """The body and checksum field that `blob` declares, read as a frame."""
    (name_len,) = struct.unpack_from(">H", blob, 4)
    (body_len,) = struct.unpack_from(">Q", blob, 6 + name_len)
    start = 6 + name_len + 8
    return blob[start : start + body_len], blob[start + body_len : start + body_len + 4]


def test_receiver_answers_any_bytes_in_one_of_three_ways(tmp_path):
    # one receiver serves every example; each gets an ack with the matching
    # inbox change, or a close that leaves the inbox as it was
    inbox = tmp_path / "inbox"
    with FileReceiver(0, inbox) as server:
        @settings(max_examples=100, deadline=None)
        @given(st.one_of(st.binary(max_size=80), _mutated_frames()))
        def check(blob):
            before = set(inbox.iterdir())
            ack = _raw_exchange(server.port, blob)
            added = set(inbox.iterdir()) - before
            assert not any(p.name.startswith(".incoming-") for p in inbox.iterdir())
            assert ack in (ACK_OK, ACK_REJECTED, b"")
            if ack == ACK_OK:
                body, crc = _framed_body(blob)
                assert struct.unpack(">I", crc)[0] == zlib.crc32(body)
                assert [p.read_bytes() for p in added] == [body]
            else:
                assert added == set()

        check()


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
