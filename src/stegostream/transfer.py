"""LAN file transfer for stego audio, one file per connection.

Wire format (big-endian lengths):

    magic     4 bytes  "STG1"
    name_len  u16      byte length of the UTF-8 file name (1..255)
    name      bytes    no path separators, control characters or leading dot
    body_len  u64      payload byte count
    body      bytes    file content
    checksum  u32      CRC-32 of the payload

`_HEAD`, `_BODY_LEN` and `_CRC` are this layout's single statement: the
sender packs with them and the receiver unpacks with them.

The receiver streams the payload to a temporary file, links it into
place only after the checksum verifies, and answers one acknowledgment
byte: 0x00 accepted, 0x01 rejected. Frames with a bad magic are dropped
without an acknowledgment. Connections are handled concurrently and a
failing one never stops the server.
"""

from __future__ import annotations

import logging
import os
import re
import socket
import struct
import tempfile
import threading
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
_CHUNK = 64 * 1024
_CONTROL_CHARS = re.compile("[\x00-\x1f\x7f-\x9f]")  # Unicode category Cc
DEFAULT_TIMEOUT = 30.0
_HEAD = struct.Struct(">4sH")  # magic, name_len
_BODY_LEN = struct.Struct(">Q")
_CRC = struct.Struct(">I")


def encode_frame(name: str, payload: bytes) -> bytes:
    """Build one wire frame; the name must be a bare file name."""
    name_bytes = name.encode("utf-8")
    if not _name_ok(name, name_bytes):
        raise ValueError(f"invalid transfer file name: {name!r}")
    return b"".join((_HEAD.pack(MAGIC, len(name_bytes)), name_bytes, _BODY_LEN.pack(len(payload)),
                     payload, _CRC.pack(zlib.crc32(payload))))


def _name_ok(name: str, name_bytes: bytes) -> bool:
    # a leading dot covers ".", ".." and the receiver's own temp prefix
    if not 1 <= len(name_bytes) <= MAX_NAME_BYTES or name.startswith("."):
        return False
    if "/" in name or "\\" in name:
        return False
    return not _CONTROL_CHARS.search(name)


def claim_name(source, out_dir: Path, name: str) -> Path:
    """Hard-link `source` into `out_dir` as `name`, or as the first free
    `<stem>-N.<suffix>` cut to MAX_NAME_BYTES; never replaces a file."""
    stem, dot, suffix = name.partition(".")
    candidate, counter = name, 0
    while True:
        try:  # a link never overwrites, so no two writers claim one name
            os.link(source, out_dir / candidate)
            return out_dir / candidate
        except FileExistsError:
            counter += 1
        # cut the stem on a character boundary to stay within MAX_NAME_BYTES
        tail = f"-{counter}{dot}{suffix}".encode("utf-8")
        head = stem.encode("utf-8")[: max(MAX_NAME_BYTES - len(tail), 0)]
        candidate = (head + tail)[:MAX_NAME_BYTES].decode("utf-8", "ignore")


def _recv_exact(conn: socket.socket, count: int) -> bytes | None:
    """Read exactly `count` bytes; None if the peer closed early."""
    chunks = []
    remaining = count
    while remaining > 0:
        piece = conn.recv(min(remaining, _CHUNK))
        if not piece:
            return None
        chunks.append(piece)
        remaining -= len(piece)
    return b"".join(chunks)


def send_file(host: str, port: int, file_path, timeout: float = DEFAULT_TIMEOUT) -> int:
    """Send one file; returns the number of frame bytes written.

    The connection originates from an ephemeral local port. Raises
    InvalidTransferName before connecting when the file's name cannot go
    on the wire, ConnectFailed when the receiver is unreachable,
    RemoteRejected when it answers 0x01, and TransferIoError when the
    connection dies early.
    """
    path = Path(file_path)
    try:
        frame = encode_frame(path.name, path.read_bytes())
    except ValueError as exc:
        raise InvalidTransferName(f"cannot send {path}: {exc}") from exc
    try:
        conn = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ConnectFailed(f"cannot reach {host}:{port}: {exc}") from exc
    with conn:
        try:
            conn.sendall(frame)
            ack = _recv_exact(conn, 1)
        except OSError as exc:
            raise TransferIoError(f"transfer to {host}:{port} failed: {exc}") from exc
    if ack is None:
        raise TransferIoError(f"{host}:{port} closed the connection without acknowledging")
    if ack != ACK_OK:
        raise RemoteRejected(f"{host}:{port} rejected the file (ack {ack.hex()})")
    return len(frame)


class FileReceiver:
    """Accepts transfer connections and stores verified files in out_dir."""

    def __init__(self, port: int, out_dir, host: str = "0.0.0.0",
                 timeout: float = DEFAULT_TIMEOUT):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.timeout = timeout
        self._workers: set[threading.Thread] = set()
        self._accept_thread: threading.Thread | None = None
        self._closing = False
        try:
            self._listener = socket.create_server((host, port))
        except OSError as exc:
            raise BindFailed(f"cannot listen on {host}:{port}: {exc}") from exc
        # closing a socket does not reliably wake a blocked accept(); poll
        self._listener.settimeout(0.2)
        self.port = self._listener.getsockname()[1]

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def start(self):
        """Accept connections on a background thread."""
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def serve_forever(self):
        """Accept connections on the calling thread until stop()."""
        self._accept_loop()

    def stop(self):
        self._closing = True
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        for worker in list(self._workers):
            worker.join(timeout=5)

    def _accept_loop(self):
        while not self._closing:
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                if not self._closing:
                    log.warning("listener closed unexpectedly")
                return
            conn.settimeout(self.timeout)
            worker = threading.Thread(target=self._run_connection, args=(conn, addr), daemon=True)
            self._workers.add(worker)
            worker.start()

    def _run_connection(self, conn: socket.socket, addr):
        try:
            with conn:
                self._handle(conn, addr)
        except Exception:
            log.warning("connection from %s failed", addr, exc_info=True)
        finally:
            self._workers.discard(threading.current_thread())

    def _handle(self, conn: socket.socket, addr):
        magic = _recv_exact(conn, len(MAGIC))
        if magic != MAGIC:
            log.warning("dropping connection from %s: bad magic %r", addr, magic)
            return
        name_len_field = _recv_exact(conn, _HEAD.size - len(MAGIC))
        if name_len_field is None:
            return
        _, name_len = _HEAD.unpack(magic + name_len_field)
        rest = _recv_exact(conn, name_len + _BODY_LEN.size)
        if rest is None:
            return
        name_bytes = rest[:name_len]
        (body_len,) = _BODY_LEN.unpack_from(rest, name_len)
        try:
            name = name_bytes.decode("utf-8")
        except UnicodeDecodeError:
            name = None
        name_valid = name is not None and _name_ok(name, name_bytes)

        crc = received = 0
        reject_reason = None
        # the temp file is gone before the ack, so the peer never observes
        # a half-finished out_dir
        with tempfile.NamedTemporaryFile(dir=self.out_dir, prefix=".incoming-") as tmp:
            while received < body_len:
                piece = conn.recv(min(body_len - received, _CHUNK))
                if not piece:
                    return
                tmp.write(piece)
                crc = zlib.crc32(piece, crc)
                received += len(piece)
            crc_field = _recv_exact(conn, _CRC.size)
            if crc_field is None:
                return
            if not name_valid:
                reject_reason = f"unsafe or invalid name {name_bytes!r}"
            elif crc != _CRC.unpack(crc_field)[0]:
                reject_reason = f"checksum mismatch for {name!r}"
            else:
                tmp.flush()  # the name shows the whole body from the moment it exists
                stored = claim_name(tmp.name, self.out_dir, name)
        if reject_reason is not None:
            log.warning("rejecting %s: %s", addr, reject_reason)
            conn.sendall(ACK_REJECTED)
        else:
            log.info("stored %s (%d bytes) from %s", stored, received, addr)
            conn.sendall(ACK_OK)
