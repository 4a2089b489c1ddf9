"""Command-line front end: embed, extract, delete, inspect, capacity,
snr, compare, send, recv.

Exit codes: 0 success, 1 usage, 2 capacity, 3 format, 4 network,
5 no valid message.
"""

from __future__ import annotations

import argparse
import contextlib
import getpass
import os
import shutil
import stat
import sys
import tempfile
import threading
from pathlib import Path

from . import container, quality, stego, transfer
from .cipher import seal
from .errors import CapacityExceeded, EmptyPassphrase, FormatMismatch, StegoStreamError

_COPY_BYTES = 256 * 1024  # the most of the message `embed` reads at a time


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for capacity
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_in(low: int, high: int | None = None):
    """argparse type for an integer in [low, high]; no upper bound when high is None."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return parse


def _passphrase(args) -> str:
    if getattr(args, "key_env", None):
        value = os.environ.get(args.key_env, "")
        if not value:
            raise EmptyPassphrase(f"environment variable {args.key_env} is unset or empty")
        return value
    try:
        return getpass.getpass("passphrase: ")
    except EOFError:
        # getpass has written its prompt without a newline
        sys.stderr.write("\n")
        raise EmptyPassphrase("no passphrase: standard input is closed") from None


def _emit(**fields):
    """Print each field as a `key=value` line, all in one flushed write."""
    print("".join(f"{key}={value}\n" for key, value in fields.items()), end="", flush=True)


def _refuse_special_files(args):
    """Refuse, before anything opens it, a carrier or WAV path that is not a
    regular file, a message or a file to send that is neither a regular file
    nor a FIFO, and an existing `--out` of embed or delete that is not a
    regular file: a FIFO blocks a carrier's open(), a device like /dev/zero
    never ends, and renaming the patched copy onto a node replaces it."""
    for name in ("carrier", "original", "stego", "message", "file", "out"):
        path = getattr(args, name, None)
        if path is None or name == "out" and not os.path.exists(path):
            continue
        mode = os.stat(path).st_mode
        piped = name in ("message", "file")
        if not (stat.S_ISREG(mode) or piped and stat.S_ISFIFO(mode)):
            kind = "a regular file or a FIFO" if piped else "a regular file"
            raise shutil.SpecialFileError(f"{path} is not {kind}")


@contextlib.contextmanager
def _patched_copy(carrier_path, out, header_size):
    """Yield an `open_carrier` carrier over a copy of the carrier file.

    The copy is made in a private directory next to `out` and replaces
    `out` only when the block succeeds, so `out` is never left half
    written, and `out` may be the carrier itself. The copy gets the mode
    `out` has, or a new file's mode when `out` does not exist yet.
    """
    target = os.path.realpath(out)
    tmp_dir = tempfile.mkdtemp(prefix=".stegostream-", dir=os.path.dirname(target))
    try:
        tmp = os.path.join(tmp_dir, "carrier")
        shutil.copyfile(carrier_path, tmp)
        with container.open_carrier(tmp, header_size) as carrier:
            yield carrier
        if os.path.exists(target):  # after the patch: a read-only mode would refuse it
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def _choose_mode(carrier, message_len: int, requested: str | None) -> stego.StegoMode:
    if requested:
        return stego.StegoMode(requested)
    # REGULAR first; `_message_copy` has refused what fits neither
    return next(mode for mode in stego.StegoMode
                if message_len <= stego.capacity(carrier, mode))


@contextlib.contextmanager
def _message_copy(path, carrier, out):
    """Yield a read-only `memoryview` of a copy of the message file, mapped.

    The copy is read in pieces into an unnamed temporary file next to
    `out`: a FIFO is read the same way as a regular file, nothing another
    process does to the message can fault the map, and no crash leaves
    the copy behind. Reading stops one byte past the larger of the
    carrier's two capacities, which raises CapacityExceeded.
    """
    regular, excessive = (stego.capacity(carrier, mode) for mode in stego.StegoMode)
    limit = max(regular, excessive)
    with tempfile.TemporaryFile(dir=os.path.dirname(os.path.realpath(out))) as copy:
        copied = 0
        with open(path, "rb", buffering=0) as source:
            while copied <= limit and (piece := source.read(min(_COPY_BYTES, limit + 1 - copied))):
                copy.write(piece)
                copied += len(piece)
        if copied > limit:
            raise CapacityExceeded(
                f"message of more than {limit} bytes fits neither mode: regular capacity "
                f"{regular} bytes, excessive capacity {excessive} bytes")
        copy.flush()
        with container._mapped(copy.fileno()) as view:
            yield view


def _cmd_embed(args) -> int:
    with _patched_copy(args.carrier, args.out, args.header_size) as carrier:
        with _message_copy(args.message, carrier, args.out) as message:
            mode = _choose_mode(carrier, len(message), args.mode)
            payload = seal(message, stego.code_for_extension(Path(args.message).suffix),
                           _passphrase(args))
        stego.embed(carrier, payload, mode)
    _emit(mode=mode.value, message_bytes=payload.declared_size, out=args.out)
    return 0


def _cmd_extract(args) -> int:
    carrier = container.parse_carrier(Path(args.carrier).read_bytes(), args.header_size)
    plaintext, extension = stego.extract(carrier, _passphrase(args))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.NamedTemporaryFile(dir=out_dir, prefix=".extract-") as tmp:
        tmp.write(plaintext)
        tmp.flush()
        out_path = transfer.claim_name(tmp.name, out_dir, Path(args.carrier).stem, f".{extension}")
    _emit(extension=extension, message_bytes=len(plaintext), out=out_path)
    return 0


def _cmd_delete(args) -> int:
    # nothing can verify a passphrase here, so --key-env is accepted but never read
    with _patched_copy(args.carrier, args.out, args.header_size) as carrier:
        stego.delete_message(carrier)
    _emit(out=args.out)
    return 0


def _cmd_inspect(args) -> int:
    with container.open_carrier(args.carrier, args.header_size, write=False) as carrier:
        mode, type_code, declared = stego.inspect_carrier(carrier)
        plausible = 1 <= declared <= stego.capacity(carrier, mode)
    _emit(mode=mode.value, file_type_code=f"{type_code:#04x}",
          extension=stego.extension_for_code(type_code), declared_size=declared,
          plausible="yes" if plausible else "no")
    return 0


def _cmd_capacity(args) -> int:
    with container.open_carrier(args.carrier, args.header_size, write=False) as carrier:
        _emit(**{f"{mode.value}_capacity_bytes": stego.capacity(carrier, mode)
                 for mode in stego.StegoMode})
    return 0


@contextlib.contextmanager
def _open_sample_pair(args):
    """Yield both WAVs of `snr`/`compare`, mapped read-only, and the frame
    length; the two must share a sample rate and a channel count."""
    with container.open_carrier(args.original, write=False) as original, \
            container.open_carrier(args.stego, write=False) as modified:
        formats = [(wav.format.sample_rate, wav.format.channels) for wav in (original, modified)]
        if formats[0] != formats[1]:
            raise FormatMismatch("formats differ: {} Hz x {} vs {} Hz x {}".format(
                *formats[0], *formats[1]))
        yield original, modified, quality.default_frame_len(original.format.sample_rate,
                                                            args.frame_ms)


def _cmd_snr(args) -> int:
    with _open_sample_pair(args) as (original, modified, frame_len):
        seg_snr_db, frames_used = quality.mean_snr(
            container.samples_16(original), container.samples_16(modified), frame_len
        )
    _emit(seg_snr_db=f"{seg_snr_db:.6f}", frames_used=frames_used, frame_len=frame_len)
    return 0


def _cmd_compare(args) -> int:
    with _open_sample_pair(args) as (original, modified, frame_len):
        report = quality.report(original, modified, frame_len, args.max_lag)
    for line in report.lines():
        print(line)
    return 0


def _cmd_send(args) -> int:
    sent = transfer.send_file(args.host, args.port, args.file)
    _emit(bytes_sent=sent)
    return 0


def _cmd_recv(args) -> int:
    with transfer.FileReceiver(args.port, args.out_dir) as receiver, \
            contextlib.suppress(KeyboardInterrupt):
        _emit(listening_port=receiver.port, out_dir=args.out_dir)
        threading.Event().wait()  # until Ctrl-C
    return 0


def _add_header_size(parser):
    parser.add_argument("--header-size", type=_int_in(0), default=None, metavar="N",
                        help="treat the carrier as raw bytes with N protected leading bytes")


def _add_key_env(parser):
    parser.add_argument("--key-env", metavar="VAR",
                        help="environment variable holding the passphrase (otherwise prompt)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stegostream",
                     description="Hide encrypted files inside audio carriers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="hide a message file inside a carrier")
    p.add_argument("--carrier", required=True)
    p.add_argument("--message", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=[m.value for m in stego.StegoMode],
                   help="embedding mode (default: regular when it fits, else excessive)")
    _add_key_env(p)
    _add_header_size(p)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("extract", help="recover a hidden message")
    p.add_argument("--carrier", required=True)
    p.add_argument("--out-dir", default=".")
    _add_key_env(p)
    _add_header_size(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("delete", help="blank a hidden message in place")
    p.add_argument("--carrier", required=True)
    p.add_argument("--out", required=True)
    _add_key_env(p)
    _add_header_size(p)
    p.set_defaults(func=_cmd_delete)

    p = sub.add_parser("inspect", help="decode embed metadata (no passphrase needed)")
    p.add_argument("carrier")
    _add_header_size(p)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("capacity", help="print both modes' maximum message size")
    p.add_argument("carrier")
    _add_header_size(p)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("snr", help="segmental SNR between two 16-bit PCM WAVs")
    p.add_argument("--original", required=True)
    p.add_argument("--stego", required=True)
    p.add_argument("--frame-ms", type=_int_in(1), default=quality.DEFAULT_FRAME_MS)
    p.set_defaults(func=_cmd_snr)

    p = sub.add_parser("compare", help="full quality report between two WAVs")
    p.add_argument("--original", required=True)
    p.add_argument("--stego", required=True)
    p.add_argument("--frame-ms", type=_int_in(1), default=quality.DEFAULT_FRAME_MS)
    p.add_argument("--max-lag", type=_int_in(0), default=100)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("send", help="send a file to a receiver on the LAN")
    p.add_argument("--host", required=True)
    p.add_argument("--port", type=_int_in(1, 65535), required=True)
    p.add_argument("file")
    p.set_defaults(func=_cmd_send)

    p = sub.add_parser("recv", help="receive files until interrupted")
    p.add_argument("--port", type=_int_in(0, 65535), required=True)
    p.add_argument("--out", dest="out_dir", required=True)
    p.set_defaults(func=_cmd_recv)

    return parser


def run(argv=None) -> int:
    """Parse arguments and execute one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _refuse_special_files(args)
        return args.func(args)
    except (StegoStreamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


def main():
    # argv holds an undecodable file name as surrogate escapes; print it back
    # as the same bytes, even where stdout's error handler would be strict
    sys.stdout.reconfigure(errors="surrogateescape")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
