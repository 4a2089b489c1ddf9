"""LAN file transfer for stego audio, one file per connection.

Wire format (big-endian lengths):

    magic     4 bytes  "STG1"
    name_len  u16      byte length of the UTF-8 file name (1..255)
    name      bytes    no path separators, control characters or leading dot
    body_len  u64      payload byte count
    body      bytes    file content
    checksum  u32      CRC-32 of the payload

`MAGIC`, `_NAME_LEN`, `_BODY_LEN` and `_CRC` are this layout's single
statement: the sender packs with them and the receiver unpacks with them.

A sender writes a file of at most 1 MiB as one `encode_frame` frame; a
larger regular file goes out as the header, the body through
`socket.sendfile` and the checksum, after one CRC pass over the file
through a reused 256 KiB buffer.

The receiver streams the payload through one reused buffer of at most
256 KiB to a temporary file, links it into place only after the checksum
verifies, under the first free one of MAX_NAME_CANDIDATES names, and
answers one acknowledgment byte: 0x00 accepted, 0x01 rejected. A refused
name is answered at the header, before any body byte is read. Frames
with a bad magic are dropped without an acknowledgment.
Connections are handled concurrently and a failing one never stops the
server.
"""

from __future__ import annotations

import contextlib
import logging
import os
import re
import socket
import stat
import struct
import tempfile
import threading
import time
import zlib
from pathlib import Path

from .errors import (
    BindFailed,
    ConnectFailed,
    InvalidTransferName,
    RemoteRejected,
    TransferIoError,
)

log = logging.getLogger(__name__)

MAGIC = b"STG1"
ACK_OK = b"\x00"
ACK_REJECTED = b"\x01"
MAX_NAME_BYTES = 255
# names `claim_name` tries for one file: each try is one link, so a name
# sent again and again would otherwise cost each store one link more
MAX_NAME_CANDIDATES = 1000
_SENDFILE_ABOVE = 1024 * 1024  # larger regular files skip the in-memory frame
# the one buffer each large send and each connection reuses; 1 MiB raised
# the receiver's peak RSS and sped nothing up
_BUFFER_BYTES = 256 * 1024
_CONTROL_CHARS = re.compile("[\x00-\x1f\x7f-\x9f]")  # Unicode category Cc
DEFAULT_TIMEOUT = 30.0
_NAME_LEN = struct.Struct(">H")
_BODY_LEN = struct.Struct(">Q")
_CRC = struct.Struct(">I")


def encode_frame(name: str, payload: bytes) -> bytes:
    """Build one wire frame; the name must be a bare file name."""
    return b"".join((_frame_head(name, len(payload)), payload, _CRC.pack(zlib.crc32(payload))))


def _frame_head(name: str, body_len: int) -> bytes:
    """The frame's fields before the body; raises ValueError unless `name`
    is a bare file name."""
    name_bytes = name.encode("utf-8")
    if _wire_name(name_bytes) is None:
        raise ValueError(f"invalid transfer file name: {name!r}")
    return b"".join((MAGIC, _NAME_LEN.pack(len(name_bytes)), name_bytes, _BODY_LEN.pack(body_len)))


def _wire_name(name_bytes: bytes) -> str | None:
    """The file name that `name_bytes` encodes, or None when it is not UTF-8
    or not a bare file name."""
    try:
        name = name_bytes.decode("utf-8")
    except UnicodeDecodeError:
        return None
    # a leading dot covers ".", ".." and the receiver's own temp prefix
    if not 1 <= len(name_bytes) <= MAX_NAME_BYTES or name.startswith("."):
        return None
    if "/" in name or "\\" in name or _CONTROL_CHARS.search(name):
        return None
    return name


def claim_name(source, out_dir: Path, stem: str, suffix: str) -> Path:
    """Hard-link `source` into `out_dir` as `<stem><suffix>`, or as the first
    free `<stem>-N<suffix>` for N below MAX_NAME_CANDIDATES; never replaces a
    file, and raises FileExistsError when every candidate is taken. Each
    candidate is cut to MAX_NAME_BYTES as the file system encodes it, on a
    character boundary: the stem first, then the end of the name."""
    for counter in range(MAX_NAME_CANDIDATES):
        tail = f"-{counter}{suffix}" if counter else suffix
        head = _cut(stem, MAX_NAME_BYTES - len(os.fsencode(tail)))
        candidate = _cut(head + tail, MAX_NAME_BYTES)
        try:  # a link never overwrites, so no two writers claim one name
            os.link(source, out_dir / candidate)
            return out_dir / candidate
        except FileExistsError:
            pass
    raise FileExistsError(f"{stem}{suffix} and its numbered names up to "
                          f"-{MAX_NAME_CANDIDATES - 1} are all taken in {out_dir}")


def _cut(text: str, limit: int) -> str:
    """The longest prefix of `text` that os.fsencode fits in `limit` bytes."""
    while text and len(os.fsencode(text)) > limit:
        text = text[:-1]
    return text


class _PeerClosed(Exception):
    """The peer closed the connection before its frame ended."""


def _recv_into(conn: socket.socket, view: memoryview) -> None:
    """Fill `view` exactly; raises _PeerClosed if the peer closes first."""
    while view:
        count = conn.recv_into(view)
        if not count:
            raise _PeerClosed
        view = view[count:]


def _recv_exact(conn: socket.socket, count: int) -> bytes:
    """Read exactly `count` bytes; raises _PeerClosed if the peer closes first."""
    buffer = bytearray(count)
    _recv_into(conn, memoryview(buffer))
    return bytes(buffer)


def _crc_in_pieces(length: int, fill, out=None) -> int:
    """CRC-32 of `length` bytes that `fill(view)` puts, piece by piece, into
    one reused buffer of at most _BUFFER_BYTES; each piece is also written to
    `out` when one is given."""
    buffer = memoryview(bytearray(min(length, _BUFFER_BYTES)))
    crc = 0
    while length:
        piece = buffer[: min(length, len(buffer))]
        fill(piece)
        crc = zlib.crc32(piece, crc)
        if out is not None:
            out.write(piece)
        length -= len(piece)
    return crc


def _read_into(file, view: memoryview) -> None:
    """Fill `view` from a regular file, which reads short only at its end."""
    if file.readinto(view) != len(view):
        raise TransferIoError(f"{file.name} shrank while it was read")


def send_file(host: str, port: int, file_path, timeout: float = DEFAULT_TIMEOUT) -> int:
    """Send one file; returns the number of frame bytes written.

    A regular file larger than 1 MiB is never held in memory: its CRC is
    taken in one pass, then its body goes out through `socket.sendfile`.
    The connection originates from an ephemeral local port. Raises
    InvalidTransferName before connecting when the file's name cannot go
    on the wire, ConnectFailed when the receiver is unreachable,
    RemoteRejected when it answers 0x01, and TransferIoError when the
    connection dies early or the file shrinks while it is sent.
    """
    path = Path(file_path)
    with open(path, "rb", buffering=0) as file:
        info = os.fstat(file.fileno())
        streamed = stat.S_ISREG(info.st_mode) and info.st_size > _SENDFILE_ABOVE
        try:
            if streamed:
                size = info.st_size
                head = _frame_head(path.name, size)
                tail = _CRC.pack(_crc_in_pieces(size, lambda piece: _read_into(file, piece)))
                sent = len(head) + size + len(tail)
            else:
                frame = encode_frame(path.name, file.read())
                sent = len(frame)
        except ValueError as exc:
            raise InvalidTransferName(f"cannot send {path}: {exc}") from exc
        try:
            conn = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ConnectFailed(f"cannot reach {host}:{port}: {exc}") from exc
        with conn:  # closing it on a short sendfile ends the peer's wait for the body
            try:
                if streamed:
                    conn.sendall(head)
                    if conn.sendfile(file, 0, size) != size:
                        raise TransferIoError(f"{path} shrank while it was sent to {host}:{port}")
                    conn.sendall(tail)
                else:
                    conn.sendall(frame)
                ack = conn.recv(1)
            except OSError as exc:
                raise TransferIoError(f"transfer to {host}:{port} failed: {exc}") from exc
    if not ack:
        raise TransferIoError(f"{host}:{port} closed the connection without acknowledging")
    if ack != ACK_OK:
        raise RemoteRejected(f"{host}:{port} rejected the file (ack {ack.hex()})")
    return sent


class FileReceiver:
    """Accepts transfer connections and stores verified files in out_dir.

    Used as a context manager: entering starts the accept thread, leaving
    calls stop().
    """

    def __init__(self, port: int, out_dir, host: str = "0.0.0.0"):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._workers: dict[threading.Thread, socket.socket] = {}
        self._accept_thread = threading.Thread(target=self._serve_forever, daemon=True)
        self._stopping = threading.Event()
        try:
            self._listener = socket.create_server((host, port))
        except OSError as exc:
            raise BindFailed(f"cannot listen on {host}:{port}: {exc}") from exc
        self.port = self._listener.getsockname()[1]

    def __enter__(self):
        self._accept_thread.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def stop(self):
        """Stop accepting, cut the open connections short and wait for the
        threads, 5 s at most in all."""
        self._stopping.set()
        deadline = time.monotonic() + 5
        with contextlib.suppress(OSError):  # on Linux a blocked accept() fails at once
            self._listener.shutdown(socket.SHUT_RDWR)
        if self._accept_thread.ident is not None:  # a receiver never entered has none
            self._accept_thread.join(timeout=5)
        self._listener.close()
        for conn in list(self._workers.values()):
            with contextlib.suppress(OSError):  # a worker waiting on a silent peer reads EOF
                conn.shutdown(socket.SHUT_RDWR)
        for worker in list(self._workers):
            worker.join(max(0.0, deadline - time.monotonic()))

    def _serve_forever(self):
        """Accept until stop(): a failed accept() is retried, and a thread
        that cannot start costs only its connection."""
        while True:
            try:
                conn, addr = self._listener.accept()
            except OSError as exc:
                if self._stopping.wait(0.1):  # also paces retries while descriptors run out
                    return
                log.warning("accept failed: %s", exc)
                continue
            conn.settimeout(DEFAULT_TIMEOUT)
            worker = threading.Thread(target=self._run_connection, args=(conn, addr), daemon=True)
            self._workers[worker] = conn
            try:
                worker.start()
            except RuntimeError as exc:
                del self._workers[worker]
                conn.close()
                log.warning("dropping connection from %s: %s", addr, exc)

    def _run_connection(self, conn: socket.socket, addr):
        try:
            with conn:
                self._handle(conn, addr)
        except _PeerClosed:
            log.info("connection from %s closed before its frame ended", addr)
        except Exception:
            log.warning("connection from %s failed", addr, exc_info=True)
        finally:
            self._workers.pop(threading.current_thread(), None)

    def _handle(self, conn: socket.socket, addr):
        magic = _recv_exact(conn, len(MAGIC))
        if magic != MAGIC:
            log.warning("dropping connection from %s: bad magic %r", addr, magic)
            return
        (name_len,) = _NAME_LEN.unpack(_recv_exact(conn, _NAME_LEN.size))
        rest = _recv_exact(conn, name_len + _BODY_LEN.size)
        name_bytes = rest[:name_len]
        name = _wire_name(name_bytes)
        (body_len,) = _BODY_LEN.unpack_from(rest, name_len)

        reject_reason = None
        if name is None:  # answered at the header: its body_len sizes no work
            reject_reason = f"unsafe or invalid name {name_bytes!r}"
        else:  # the temp file is gone before the ack, so out_dir never shows it
            with tempfile.NamedTemporaryFile(dir=self.out_dir, prefix=".incoming-") as tmp:
                crc = _crc_in_pieces(body_len, lambda piece: _recv_into(conn, piece), tmp)
                if crc != _CRC.unpack(_recv_exact(conn, _CRC.size))[0]:
                    reject_reason = f"checksum mismatch for {name!r}"
                else:
                    tmp.flush()  # the name shows the whole body from the moment it exists
                    stem, dot, suffix = name.partition(".")
                    try:
                        stored = claim_name(tmp.name, self.out_dir, stem, dot + suffix)
                    except FileExistsError as exc:
                        reject_reason = str(exc)
        if reject_reason is not None:
            log.warning("rejecting %s: %s", addr, reject_reason)
            conn.sendall(ACK_REJECTED)
        else:
            log.info("stored %s (%d bytes) from %s", stored, body_len, addr)
            conn.sendall(ACK_OK)
