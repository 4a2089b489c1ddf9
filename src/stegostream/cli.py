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
import sys
import tempfile
from pathlib import Path

from . import container, quality, stego, transfer
from .cipher import seal
from .errors import CapacityExceeded, EmptyPassphrase, StegoStreamError


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
        if os.path.exists(target):
            shutil.copymode(target, tmp)
        with container.open_carrier(tmp, header_size) as carrier:
            yield carrier
        os.replace(tmp, target)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def _choose_mode(carrier, message_len: int, requested: str | None) -> stego.StegoMode:
    if requested:
        return stego.StegoMode(requested)
    for mode in stego.StegoMode:  # REGULAR first
        if message_len <= stego.capacity(carrier, mode):
            return mode
    raise CapacityExceeded(
        f"message of {message_len} bytes fits neither mode: "
        f"regular capacity {stego.capacity(carrier, stego.StegoMode.REGULAR)} bytes, "
        f"excessive capacity {stego.capacity(carrier, stego.StegoMode.EXCESSIVE)} bytes"
    )


def _cmd_embed(args) -> int:
    message_path = Path(args.message)
    with _patched_copy(args.carrier, args.out, args.header_size) as carrier:
        message = message_path.read_bytes()
        mode = _choose_mode(carrier, len(message), args.mode)
        payload = seal(message, stego.code_for_extension(message_path.suffix), _passphrase(args))
        del message  # the ciphertext is all embed needs
        stego.embed(carrier, payload, mode)
    print(f"mode={mode.value}")
    print(f"message_bytes={payload.declared_size}")
    print(f"out={args.out}")
    return 0


def _cmd_extract(args) -> int:
    carrier = container.parse_carrier(Path(args.carrier).read_bytes(), args.header_size)
    plaintext, extension = stego.extract(carrier, _passphrase(args))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.NamedTemporaryFile(dir=out_dir, prefix=".extract-") as tmp:
        tmp.write(plaintext)
        tmp.flush()
        out_path = transfer.claim_name(tmp.name, out_dir, f"{Path(args.carrier).stem}.{extension}")
    print(f"extension={extension}")
    print(f"message_bytes={len(plaintext)}")
    print(f"out={out_path}")
    return 0


def _cmd_delete(args) -> int:
    # the passphrase is not verifiable; take it from the env when offered,
    # but never prompt for a value nothing will check
    key = os.environ.get(args.key_env, "") if args.key_env else ""
    with _patched_copy(args.carrier, args.out, args.header_size) as carrier:
        stego.delete_message(carrier, key)
    print(f"out={args.out}")
    return 0


def _cmd_inspect(args) -> int:
    with container.open_carrier(args.carrier, args.header_size, write=False) as carrier:
        mode, type_code, declared = stego.inspect_carrier(carrier)
        plausible = 1 <= declared <= stego.capacity(carrier, mode)
    print(f"mode={mode.value}")
    print(f"file_type_code={type_code:#04x}")
    print(f"extension={stego.extension_for_code(type_code)}")
    print(f"declared_size={declared}")
    print(f"plausible={'yes' if plausible else 'no'}")
    return 0


def _cmd_capacity(args) -> int:
    with container.open_carrier(args.carrier, args.header_size, write=False) as carrier:
        for mode in stego.StegoMode:
            print(f"{mode.value}_capacity_bytes={stego.capacity(carrier, mode)}")
    return 0


@contextlib.contextmanager
def _open_sample_pair(args):
    """Yield both WAVs of `snr`/`compare`, mapped read-only, and the frame length."""
    with container.open_carrier(args.original, write=False) as original, \
            container.open_carrier(args.stego, write=False) as modified:
        yield original, modified, quality.default_frame_len(original.format.sample_rate,
                                                            args.frame_ms)


def _cmd_snr(args) -> int:
    with _open_sample_pair(args) as (original, modified, frame_len):
        seg_snr_db, frames_used = quality.mean_snr(
            container.samples_16(original), container.samples_16(modified), frame_len
        )
    print(f"seg_snr_db={seg_snr_db:.6f}")
    print(f"frames_used={frames_used}")
    print(f"frame_len={frame_len}")
    return 0


def _cmd_compare(args) -> int:
    with _open_sample_pair(args) as (original, modified, frame_len):
        report = quality.report(original, modified, frame_len, args.max_lag)
    for line in report.lines():
        print(line)
    return 0


def _cmd_send(args) -> int:
    sent = transfer.send_file(args.host, args.port, args.file)
    print(f"bytes_sent={sent}")
    return 0


def _cmd_recv(args) -> int:
    receiver = transfer.FileReceiver(args.port, args.out)
    print(f"listening_port={receiver.port}")
    print(f"out_dir={args.out}")
    try:
        receiver.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        receiver.stop()
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
    p.add_argument("--out", required=True)
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
        return args.func(args)
    except StegoStreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
