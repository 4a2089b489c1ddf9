import builtins
import contextlib
import io
import json
import os
import random
import shutil
import signal
import socket
import stat
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stegostream import cli, container, stego, transfer
from stegostream.cipher import SealedPayload
from stegostream.container import parse_carrier
from stegostream.errors import StegoStreamError
from stegostream.stego import StegoMode, capacity, inspect_carrier
from stegostream.transfer import FileReceiver, encode_frame

from conftest import build_wav, mutated, pcm16_bytes, read_line, recv_child

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def carrier_wav(tmp_path):
    rng = random.Random(555)
    samples = [rng.randrange(-2000, 2000) for _ in range(4000)]
    path = tmp_path / "carrier.wav"
    path.write_bytes(build_wav(pcm16_bytes(samples)))
    return path


@pytest.fixture
def keyed_env(monkeypatch):
    monkeypatch.setenv("STEGO_TEST_KEY", "open sesame")
    return "STEGO_TEST_KEY"


def test_embed_extract_round_trip(tmp_path, carrier_wav, keyed_env, capsys):
    message = tmp_path / "note.txt"
    message.write_bytes(b"meet at the usual place\n")
    out = tmp_path / "stego.wav"
    rc = cli.run(["embed", "--carrier", str(carrier_wav), "--message", str(message),
                  "--key-env", keyed_env, "--out", str(out)])
    assert rc == 0
    assert "mode=regular" in capsys.readouterr().out  # ample space: auto-picks regular

    extract_dir = tmp_path / "recovered"
    rc = cli.run(["extract", "--carrier", str(out), "--key-env", keyed_env,
                  "--out-dir", str(extract_dir)])
    assert rc == 0
    assert (extract_dir / "stego.txt").read_bytes() == message.read_bytes()


def test_embed_binary_message_excessive(tmp_path, carrier_wav, keyed_env):
    message = tmp_path / "blob.zip"
    message.write_bytes(bytes(random.Random(9).randrange(256) for _ in range(512)))
    out = tmp_path / "s.wav"
    rc = cli.run(["embed", "--carrier", str(carrier_wav), "--message", str(message),
                  "--key-env", keyed_env, "--out", str(out), "--mode", "excessive"])
    assert rc == 0
    extract_dir = tmp_path / "r"
    assert cli.run(["extract", "--carrier", str(out), "--key-env", keyed_env,
                    "--out-dir", str(extract_dir)]) == 0
    assert (extract_dir / "s.zip").read_bytes() == message.read_bytes()


@pytest.mark.parametrize("size, flags, code, shown", [
    (32, [], 0, "mode=regular\n"),
    (33, [], 0, "mode=excessive\n"),
    (68, [], 0, "mode=excessive\n"),
    (69, [], 2, "error: message of more than 68 bytes fits neither mode: regular capacity 32 "
                "bytes, excessive capacity 68 bytes\n"),
    (33, ["--mode", "regular"], 2, "error: carrier size is not enough: regular embed of "),
], ids=["32", "33", "68", "69", "33-forced-regular"])
def test_auto_mode_falls_back_to_excessive(tmp_path, keyed_env, capsys, size, flags, code, shown):
    # a 300-byte raw carrier holds 32 bytes in regular mode and 68 in excessive
    carrier = tmp_path / "small.bin"
    carrier.write_bytes(bytes(random.Random(1).randrange(256) for _ in range(300)))
    message = tmp_path / "m.txt"
    message.write_bytes(bytes(size))
    out = tmp_path / "out.bin"
    rc = cli.run(["embed", "--carrier", str(carrier), "--message", str(message),
                  "--key-env", keyed_env, "--out", str(out), "--header-size", "0", *flags])
    captured = capsys.readouterr()
    assert rc == code
    assert (captured.out if code == 0 else captured.err).startswith(shown)
    assert out.exists() == (code == 0)


def test_embed_capacity_exhausted_prints_both_figures(tmp_path, keyed_env, capsys):
    carrier = tmp_path / "tiny.bin"
    carrier.write_bytes(bytes(100))
    message = tmp_path / "m.bin"
    message.write_bytes(bytes(64))
    rc = cli.run(["embed", "--carrier", str(carrier), "--message", str(message),
                  "--key-env", keyed_env, "--out", str(tmp_path / "x"), "--header-size", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "regular capacity" in err and "excessive capacity" in err


@pytest.mark.parametrize("size", [10, 30, 300])
def test_empty_message_fails_to_seal_on_any_carrier(tmp_path, keyed_env, capsys, size):
    # 0 bytes fit every carrier, even one smaller than both metadata blocks
    carrier = tmp_path / "c.bin"
    carrier.write_bytes(bytes(size))
    message = tmp_path / "m.bin"
    message.write_bytes(b"")
    rc = cli.run(["embed", "--carrier", str(carrier), "--message", str(message),
                  "--key-env", keyed_env, "--out", str(tmp_path / "x"), "--header-size", "0"])
    assert rc == 1
    assert capsys.readouterr().err == "error: cannot seal an empty message\n"


def test_capacity_and_inspect_need_no_key(tmp_path, carrier_wav, keyed_env, capsys):
    out = tmp_path / "s.wav"
    message = tmp_path / "m.txt"
    message.write_bytes(b"x" * 11)
    cli.run(["embed", "--carrier", str(carrier_wav), "--message", str(message),
             "--key-env", keyed_env, "--out", str(out)])
    capsys.readouterr()

    assert cli.run(["capacity", str(carrier_wav)]) == 0
    lines = capsys.readouterr().out.splitlines()
    carrier = parse_carrier(carrier_wav.read_bytes())
    assert f"regular_capacity_bytes={capacity(carrier, StegoMode.REGULAR)}" in lines
    assert f"excessive_capacity_bytes={capacity(carrier, StegoMode.EXCESSIVE)}" in lines

    assert cli.run(["inspect", str(out)]) == 0
    out_text = capsys.readouterr().out
    assert "mode=regular" in out_text
    assert "declared_size=11" in out_text
    assert "extension=txt" in out_text
    assert "plausible=yes" in out_text


def test_delete_then_extract_reports_absent(tmp_path, carrier_wav, keyed_env, capsys):
    out = tmp_path / "s.wav"
    message = tmp_path / "m.txt"
    message.write_bytes(b"short lived")
    cli.run(["embed", "--carrier", str(carrier_wav), "--message", str(message),
             "--key-env", keyed_env, "--out", str(out)])
    cleaned = tmp_path / "cleaned.wav"
    assert cli.run(["delete", "--carrier", str(out), "--out", str(cleaned)]) == 0
    mode, _, _ = inspect_carrier(parse_carrier(cleaned.read_bytes()))
    assert mode is StegoMode.EXCESSIVE  # flag cleared; leftover bits decode as noise
    assert cli.run(["extract", "--carrier", str(cleaned), "--key-env", keyed_env,
                    "--out-dir", str(tmp_path)]) == 5


def test_wrong_key_extracts_garbage_without_error(tmp_path, carrier_wav, keyed_env, monkeypatch):
    out = tmp_path / "s.wav"
    message = tmp_path / "m.txt"
    message.write_bytes(b"the real content")
    cli.run(["embed", "--carrier", str(carrier_wav), "--message", str(message),
             "--key-env", keyed_env, "--out", str(out)])
    monkeypatch.setenv("WRONG_KEY", "not the passphrase")
    rc = cli.run(["extract", "--carrier", str(out), "--key-env", "WRONG_KEY",
                  "--out-dir", str(tmp_path / "g")])
    assert rc == 0
    assert (tmp_path / "g" / "s.txt").read_bytes() != message.read_bytes()


def test_usage_errors_exit_one(capsys):
    assert cli.run([]) == 1
    assert cli.run(["embed"]) == 1
    assert cli.run(["no-such-command"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command, flag, value, bound", [
    (["capacity", "{wav}"], "--header-size", "-1", "at least 0"),
    (["compare", "--original", "{wav}", "--stego", "{wav}"], "--max-lag", "-1", "at least 0"),
    (["snr", "--original", "{wav}", "--stego", "{wav}"], "--frame-ms", "0", "at least 1"),
    (["recv", "--out", "{dir}"], "--port", "-1", "at least 0"),
    (["recv", "--out", "{dir}"], "--port", "70000", "at most 65535"),
    (["send", "--host", "127.0.0.1", "{wav}"], "--port", "0", "at least 1"),
    (["send", "--host", "127.0.0.1", "{wav}"], "--port", "65536", "at most 65535"),
], ids=["header-size", "max-lag", "frame-ms", "recv-port-low", "recv-port-high",
        "send-port-low", "send-port-high"])
def test_out_of_range_numbers_are_usage_errors(command, flag, value, bound, carrier_wav, capsys):
    argv = [arg.format(wav=carrier_wav, dir=carrier_wav.parent) for arg in command] + [flag, value]
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:")
    assert f"error: argument {flag}: must be {bound}, got {value}" in captured.err


def test_missing_env_var_exits_one(tmp_path, carrier_wav, capsys):
    message = tmp_path / "m.txt"
    message.write_bytes(b"hello")
    rc = cli.run(["embed", "--carrier", str(carrier_wav), "--message", str(message),
                  "--key-env", "UNSET_ENV_VAR_12345", "--out", str(tmp_path / "o")])
    assert rc == 1
    capsys.readouterr()


def test_bad_carrier_exits_three(tmp_path, keyed_env, capsys):
    bad = tmp_path / "junk.wav"
    bad.write_bytes(b"definitely not audio")
    assert cli.run(["capacity", str(bad)]) == 3
    capsys.readouterr()


def test_header_size_raw_round_trip(tmp_path, keyed_env, capsys):
    carrier = tmp_path / "raw.pcm"
    carrier.write_bytes(bytes(random.Random(3).randrange(256) for _ in range(2000)))
    message = tmp_path / "secret.pdf"
    message.write_bytes(b"%PDF-1.4 pretend")
    out = tmp_path / "raw-stego.pcm"
    rc = cli.run(["embed", "--carrier", str(carrier), "--message", str(message),
                  "--key-env", keyed_env, "--out", str(out), "--header-size", "32"])
    assert rc == 0
    assert out.read_bytes()[:32] == carrier.read_bytes()[:32]
    rc = cli.run(["extract", "--carrier", str(out), "--key-env", keyed_env,
                  "--out-dir", str(tmp_path / "d"), "--header-size", "32"])
    assert rc == 0
    assert (tmp_path / "d" / "raw-stego.pdf").read_bytes() == message.read_bytes()
    capsys.readouterr()


def test_prompt_used_when_no_env(tmp_path, carrier_wav, monkeypatch, capsys):
    message = tmp_path / "m.txt"
    message.write_bytes(b"prompted")
    out = tmp_path / "s.wav"
    monkeypatch.setattr("getpass.getpass", lambda prompt="": "typed-secret")
    assert cli.run(["embed", "--carrier", str(carrier_wav), "--message", str(message),
                    "--out", str(out)]) == 0
    monkeypatch.setenv("K", "typed-secret")
    assert cli.run(["extract", "--carrier", str(out), "--key-env", "K",
                    "--out-dir", str(tmp_path / "p")]) == 0
    assert (tmp_path / "p" / "s.txt").read_bytes() == b"prompted"
    capsys.readouterr()


def test_closed_stdin_at_prompt_is_empty_passphrase(tmp_path, carrier_wav, monkeypatch, capsys):
    def closed_stdin(prompt=""):
        # without a tty getpass writes its prompt to stderr, then reads EOF
        sys.stderr.write(prompt)
        raise EOFError

    monkeypatch.setattr("getpass.getpass", closed_stdin)
    assert cli.run(["extract", "--carrier", str(carrier_wav), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "passphrase: \nerror: no passphrase: standard input is closed\n")


@pytest.mark.parametrize("carrier_name, stored_name", [
    # a 255-byte carrier name whose `<stem>.txt` would be 257 bytes
    ("c" * 253 + ".w", "c" * 251 + ".txt"),
    # the stem holds a dot; the cut takes from its end, never all of it
    ("a." + "b" * 250 + ".w", "a." + "b" * 249 + ".txt"),
    # argv carries a name that is not UTF-8 as surrogate escapes
    pytest.param(os.fsdecode(b"\xff.wav"), os.fsdecode(b"\xff.txt"), marks=pytest.mark.skipif(
        sys.platform != "linux", reason="needs file names that are not UTF-8")),
], ids=["long-stem", "dotted-stem", "not-utf8"])
def test_extract_names_its_output_after_the_carrier(tmp_path, carrier_wav, keyed_env, monkeypatch,
                                                    carrier_name, stored_name):
    # print names as a process in the C locale or UTF-8 mode does
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdout", stdout)
    carrier = tmp_path / carrier_name
    carrier.write_bytes(carrier_wav.read_bytes())
    message = tmp_path / "m.txt"
    message.write_bytes(b"long names are legal\n")
    assert cli.run(["embed", "--carrier", str(carrier), "--message", str(message),
                    "--key-env", keyed_env, "--out", str(carrier)]) == 0
    out_dir = tmp_path / "recovered"
    assert cli.run(["extract", "--carrier", str(carrier), "--key-env", keyed_env,
                    "--out-dir", str(out_dir)]) == 0
    assert [path.name for path in out_dir.iterdir()] == [stored_name]
    assert (out_dir / stored_name).read_bytes() == message.read_bytes()
    stdout.flush()
    assert stdout.buffer.getvalue().endswith(b"out=" + os.fsencode(out_dir / stored_name) + b"\n")


def test_every_carrier_command_parses_through_parse_carrier(tmp_path, carrier_wav, keyed_env,
                                                            capsys, monkeypatch):
    message = tmp_path / "m.txt"
    message.write_bytes(bytes(200))
    out = tmp_path / "s.wav"
    parse_calls = []
    real_parse = container.parse_carrier

    def spy(*args, **kwargs):
        parse_calls.append(type(args[0]).__name__)  # no reference to a mapped view
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(container, "parse_carrier", spy)
    pair = ["--original", str(carrier_wav), "--stego", str(out)]
    for argv, calls in [
        (["embed", "--carrier", str(carrier_wav), "--message", str(message),
          "--key-env", keyed_env, "--out", str(out)], 1),
        (["extract", "--carrier", str(out), "--key-env", keyed_env,
          "--out-dir", str(tmp_path / "r")], 1),
        (["inspect", str(out)], 1),
        (["capacity", str(out)], 1),
        (["snr", *pair], 2),
        (["compare", *pair], 2),
        (["delete", "--carrier", str(out), "--out", str(tmp_path / "d.wav")], 1),
    ]:
        parse_calls.clear()
        assert cli.run(argv) == 0, capsys.readouterr().err
        assert len(parse_calls) == calls, argv[0]


def test_extract_never_replaces_a_file(tmp_path, carrier_wav, keyed_env, capsys):
    # a hidden .wav extracted next to its carrier stego.wav would be named stego.wav
    message = tmp_path / "song.wav"
    message.write_bytes(b"RIFF but not really")
    stego_path = tmp_path / "stego.wav"
    cli.run(["embed", "--carrier", str(carrier_wav), "--message", str(message),
             "--key-env", keyed_env, "--out", str(stego_path)])
    stego_bytes = stego_path.read_bytes()
    capsys.readouterr()
    for expected in ("stego-1.wav", "stego-2.wav"):
        assert cli.run(["extract", "--carrier", str(stego_path), "--key-env", keyed_env,
                        "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"out={tmp_path / expected}"
        assert (tmp_path / expected).read_bytes() == message.read_bytes()
    assert stego_path.read_bytes() == stego_bytes
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "carrier.wav", "song.wav", "stego-1.wav", "stego-2.wav", "stego.wav"]


def test_extract_fails_once_every_candidate_name_is_taken(tmp_path, carrier_wav, keyed_env,
                                                         capsys, monkeypatch):
    monkeypatch.setattr(transfer, "MAX_NAME_CANDIDATES", 2)
    message = tmp_path / "m.txt"
    message.write_bytes(b"extracted three times")
    stego_path, out_dir = tmp_path / "s.wav", tmp_path / "r"
    assert cli.run(["embed", "--carrier", str(carrier_wav), "--message", str(message),
                    "--key-env", keyed_env, "--out", str(stego_path)]) == 0
    for code in (0, 0, 1):
        assert cli.run(["extract", "--carrier", str(stego_path), "--key-env", keyed_env,
                        "--out-dir", str(out_dir)]) == code
    assert capsys.readouterr().err == (
        f"error: s.txt and its numbered names up to -1 are all taken in {out_dir}\n")
    assert sorted(p.name for p in out_dir.iterdir()) == ["s-1.txt", "s.txt"]


_SIZE_IMPLAUSIBLE = bytes([1] + [0] * 8 + [1] * 32 + [0] * 200)  # regular, size 2**32 - 1


@pytest.mark.parametrize("command, carrier_bytes, header, code", [
    ("embed", bytes(100), "0", 2),  # CapacityExceeded
    ("embed", b"definitely not audio", None, 3),  # UnknownFormat
    ("delete", b"definitely not audio", None, 3),
    ("delete", _SIZE_IMPLAUSIBLE, "0", 5),
], ids=["embed-capacity", "embed-format", "delete-format", "delete-size"])
@pytest.mark.parametrize("out_exists", [False, True], ids=["new-out", "old-out"])
def test_failed_patch_leaves_no_file(command, carrier_bytes, header, code, out_exists,
                                     tmp_path, keyed_env, capsys):
    carrier = tmp_path / "carrier.bin"
    carrier.write_bytes(carrier_bytes)
    message = tmp_path / "m.bin"
    message.write_bytes(bytes(64))
    out = tmp_path / "out.bin"
    if out_exists:
        out.write_bytes(b"left alone")
    before = sorted(tmp_path.iterdir())
    argv = [command, "--carrier", str(carrier), "--out", str(out), "--key-env", keyed_env]
    argv += ["--message", str(message)] if command == "embed" else []
    argv += ["--header-size", header] if header else []
    assert cli.run(argv) == code
    assert capsys.readouterr().out == ""
    assert sorted(tmp_path.iterdir()) == before
    assert carrier.read_bytes() == carrier_bytes
    if out_exists:
        assert out.read_bytes() == b"left alone"


def test_out_may_be_the_carrier(tmp_path, carrier_wav, keyed_env, capsys):
    message = tmp_path / "m.txt"
    message.write_bytes(b"written over its own carrier")
    stego_path, deleted = tmp_path / "stego.wav", tmp_path / "deleted.wav"
    for out in (stego_path, carrier_wav):
        assert cli.run(["embed", "--carrier", str(carrier_wav), "--message", str(message),
                        "--key-env", keyed_env, "--out", str(out)]) == 0
    assert carrier_wav.read_bytes() == stego_path.read_bytes()
    for out in (deleted, carrier_wav):
        assert cli.run(["delete", "--carrier", str(carrier_wav), "--out", str(out)]) == 0
    assert carrier_wav.read_bytes() == deleted.read_bytes() != stego_path.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "carrier.wav", "deleted.wav", "m.txt", "stego.wav"]
    capsys.readouterr()


def test_out_gets_a_new_files_mode(tmp_path, carrier_wav, keyed_env, capsys):
    message = tmp_path / "m.txt"
    message.write_bytes(b"mode")
    kept = tmp_path / "kept.wav"
    kept.write_bytes(b"")
    kept.chmod(0o604)
    umask = os.umask(0o027)
    try:
        for out in (tmp_path / "new.wav", kept):
            assert cli.run(["embed", "--carrier", str(carrier_wav), "--message", str(message),
                            "--key-env", keyed_env, "--out", str(out)]) == 0
            assert cli.run(["delete", "--carrier", str(out),
                            "--out", str(out.with_suffix(".d"))]) == 0
    finally:
        os.umask(umask)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"carrier.wav": modes["carrier.wav"], "m.txt": modes["m.txt"],
                     "new.wav": 0o640, "new.d": 0o640, "kept.wav": 0o604, "kept.d": 0o640}
    capsys.readouterr()


def _as_unprivileged_user(argv: list[str]) -> list[str]:
    # root ignores file modes; with every capability dropped it obeys them
    if os.geteuid() != 0:
        return argv
    setpriv = shutil.which("setpriv")
    if setpriv is None:
        pytest.skip("running as root without setpriv to drop capabilities")
    return [setpriv, "--bounding-set=-all", "--inh-caps=-all", *argv]


@pytest.mark.skipif(sys.platform != "linux", reason="drops capabilities with setpriv")
def test_read_only_out_is_patched_and_keeps_its_mode(tmp_path, carrier_wav):
    message = tmp_path / "m.txt"
    message.write_bytes(b"onto a read-only file")
    stego_path, deleted, read_only = (tmp_path / name for name in ("s.wav", "d.wav", "ro.wav"))
    read_only.write_bytes(b"old")
    read_only.chmod(0o444)

    def stegostream(*argv):
        return subprocess.run(_as_unprivileged_user([sys.executable, "-m", "stegostream", *argv]),
                              env=_child_env(), capture_output=True, timeout=60)

    for out in (stego_path, read_only):  # an existing read-only --out
        run = stegostream("embed", "--carrier", str(carrier_wav), "--message", str(message),
                          "--out", str(out), "--key-env", "CHILD_KEY")
        assert (run.returncode, run.stderr) == (0, b"")
    assert read_only.read_bytes() == stego_path.read_bytes()
    for carrier, out in ((stego_path, deleted), (read_only, read_only)):  # in place
        run = stegostream("delete", "--carrier", str(carrier), "--out", str(out))
        assert (run.returncode, run.stderr) == (0, b"")
    assert read_only.read_bytes() == deleted.read_bytes() != stego_path.read_bytes()
    assert stat.S_IMODE(read_only.stat().st_mode) == 0o444
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "carrier.wav", "d.wav", "m.txt", "ro.wav", "s.wav"]


def test_symlinked_out_is_written_through(tmp_path, carrier_wav, keyed_env, capsys):
    message = tmp_path / "m.txt"
    message.write_bytes(b"through the link")
    target, link, plain = tmp_path / "target.wav", tmp_path / "link.wav", tmp_path / "plain.wav"
    target.write_bytes(b"")
    link.symlink_to(target)
    for out in (link, plain):
        assert cli.run(["embed", "--carrier", str(carrier_wav), "--message", str(message),
                        "--key-env", keyed_env, "--out", str(out)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == plain.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("header, message", [
    (None, "not a RIFF/WAVE file; pass a raw header override to embed anyway"),
    ("0", "header override 0 leaves no body (file is 0 bytes)"),
])
@pytest.mark.parametrize("command", ["embed", "delete"])
def test_empty_carrier_is_a_format_error(command, header, message, tmp_path, keyed_env, capsys):
    carrier = tmp_path / "empty.wav"
    carrier.write_bytes(b"")
    argv = [command, "--carrier", str(carrier), "--out", str(tmp_path / "o"),
            "--key-env", keyed_env]
    argv += ["--message", str(carrier)] if command == "embed" else []
    argv += ["--header-size", header] if header else []
    assert cli.run(argv) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["empty.wav"]


def test_snr_and_compare_reports(tmp_path, carrier_wav, keyed_env, capsys):
    message = tmp_path / "m.txt"
    message.write_bytes(bytes(200))
    out = tmp_path / "s.wav"
    cli.run(["embed", "--carrier", str(carrier_wav), "--message", str(message),
             "--key-env", keyed_env, "--out", str(out)])
    capsys.readouterr()

    assert cli.run(["snr", "--original", str(carrier_wav), "--stego", str(out)]) == 0
    snr_out = capsys.readouterr().out
    assert "seg_snr_db=" in snr_out and "frames_used=" in snr_out

    assert cli.run(["compare", "--original", str(carrier_wav), "--stego", str(out),
                    "--max-lag", "16"]) == 0
    cmp_out = capsys.readouterr().out
    assert "xcorr_peak=" in cmp_out
    assert "xcorr_lag=0" in cmp_out
    assert "modified_bytes_plane1=0" in cmp_out  # regular mode never touches plane 1
    assert "modified_bytes_other_planes=0" in cmp_out


# recorded from the per-frame loop implementation of the quality metrics
_PINNED_QUALITY = {
    StegoMode.REGULAR: (
        "seg_snr_db=81.513540\nframes_used=13\nframe_len=441\n",
        "seg_snr_db=81.513540\nframes_used=13\nxcorr_peak=0.998852945\nxcorr_lag=0\n"
        "modified_bytes_plane0=1246\nmodified_bytes_plane1=0\nmodified_bytes_other_planes=0\n",
    ),
    StegoMode.EXCESSIVE: (
        "seg_snr_db=86.843430\nframes_used=13\nframe_len=441\n",
        "seg_snr_db=86.843430\nframes_used=13\nxcorr_peak=0.997026627\nxcorr_lag=0\n"
        "modified_bytes_plane0=594\nmodified_bytes_plane1=619\nmodified_bytes_other_planes=0\n",
    ),
}


@pytest.mark.parametrize("mode", list(StegoMode), ids=lambda mode: mode.value)
def test_snr_and_compare_output_is_pinned(mode, tmp_path, capsys):
    rng = random.Random(2026)
    carrier_bytes = build_wav(pcm16_bytes([rng.randrange(-3000, 3000) for _ in range(6000)]))
    message = bytes(rng.randrange(256) for _ in range(300))
    stego_carrier = stego.embed(parse_carrier(carrier_bytes),
                                SealedPayload(message, 0, len(message)), mode)
    (tmp_path / "c.wav").write_bytes(carrier_bytes)
    (tmp_path / "s.wav").write_bytes(stego_carrier.data)
    pair = ["--original", str(tmp_path / "c.wav"), "--stego", str(tmp_path / "s.wav")]
    for command, expected in zip(("snr", "compare"), _PINNED_QUALITY[mode]):
        assert cli.run([command, *pair]) == 0
        assert capsys.readouterr().out == expected


def test_snr_identical_files_hits_cap(carrier_wav, capsys):
    assert cli.run(["snr", "--original", str(carrier_wav), "--stego", str(carrier_wav)]) == 0
    assert "seg_snr_db=100.0" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["snr", "compare"])
def test_snr_and_compare_refuse_a_pair_of_two_formats(command, tmp_path, capsys):
    # the same sample bytes under two headers: only the formats differ
    data = pcm16_bytes(random.Random(31).choices(range(-3000, 3000), k=4000))
    (tmp_path / "a.wav").write_bytes(build_wav(data))
    (tmp_path / "b.wav").write_bytes(build_wav(data, sample_rate=8000, channels=2))
    assert cli.run([command, "--original", str(tmp_path / "a.wav"),
                    "--stego", str(tmp_path / "b.wav")]) == 3
    assert capsys.readouterr() == ("", "error: formats differ: 44100 Hz x 1 vs 8000 Hz x 2\n")


def _reading_commands(original, modified):
    """argv of each command that only reads carrier files."""
    return [["compare", "--original", str(original), "--stego", str(modified)],
            ["snr", "--original", str(original), "--stego", str(modified)],
            ["inspect", str(modified)], ["capacity", str(modified)]]


def test_reading_commands_map_read_only(tmp_path, carrier_wav, keyed_env, capsys, monkeypatch):
    message = tmp_path / "m.txt"
    message.write_bytes(bytes(200))
    out = tmp_path / "s.wav"
    assert cli.run(["embed", "--carrier", str(carrier_wav), "--message", str(message),
                    "--key-env", keyed_env, "--out", str(out)]) == 0
    commands = _reading_commands(carrier_wav, out)
    expected = []
    for argv in commands:
        capsys.readouterr()
        assert cli.run(argv) == 0
        expected.append(capsys.readouterr().out)
    # mode 0444 stops only non-root users, so also record how the files are opened
    modes = []

    def spy(file, mode="r", *args, **kwargs):
        modes.append(mode)
        return builtins.open(file, mode, *args, **kwargs)

    monkeypatch.setattr(container, "open", spy, raising=False)
    for path in (carrier_wav, out):
        path.chmod(0o444)
    for argv, want in zip(commands, expected):
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == want
    assert modes == ["rb"] * 6
    assert "mode=regular" in expected[2]


@pytest.mark.parametrize("cut", [0, 100], ids=["empty", "cut-in-data"])
def test_reading_commands_fail_like_parse_carrier(cut, tmp_path, carrier_wav, capsys):
    broken = tmp_path / "broken.wav"
    broken.write_bytes(carrier_wav.read_bytes()[:cut])
    with pytest.raises(StegoStreamError) as expected:
        parse_carrier(broken.read_bytes())
    assert expected.value.exit_code == 3
    for argv in _reading_commands(carrier_wav, broken) + _reading_commands(broken, carrier_wav)[:2]:
        assert cli.run(argv) == 3
        assert capsys.readouterr().err == f"error: {expected.value}\n"


def test_unequal_sample_counts_are_a_length_mismatch(tmp_path, carrier_wav, capsys):
    # the error leaves with sample views of the mapped files still referenced
    longer = tmp_path / "longer.wav"
    longer.write_bytes(build_wav(pcm16_bytes([1] * 4001)))
    for command in ("compare", "snr"):
        assert cli.run([command, "--original", str(carrier_wav), "--stego", str(longer)]) == 3
        assert capsys.readouterr().err == "error: sample counts differ: 4000 vs 4001\n"


def test_send_recv_through_cli(tmp_path, capsys):
    payload = tmp_path / "ship.wav"
    payload.write_bytes(bytes(random.Random(4).randrange(256) for _ in range(5000)))
    inbox = tmp_path / "inbox"
    with FileReceiver(0, inbox) as server:
        rc = cli.run(["send", "--host", "127.0.0.1", "--port", str(server.port),
                      str(payload)])
    assert rc == 0
    assert "bytes_sent=" in capsys.readouterr().out
    assert (inbox / "ship.wav").read_bytes() == payload.read_bytes()


@pytest.mark.skipif(sys.platform == "win32", reason="sends SIGINT")
def test_recv_child_stores_a_file_and_exits_zero_on_ctrl_c(tmp_path):
    from stegostream.transfer import send_file

    payload = tmp_path / "ship.wav"
    payload.write_bytes(random.Random(5).randbytes(70_000))
    inbox = tmp_path / "inbox"
    with recv_child(inbox) as (child, port):
        send_file("127.0.0.1", port, payload)
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=5)
    assert (child.returncode, out, err) == (0, b"out_dir=" + os.fsencode(inbox) + b"\n", b"")
    assert (inbox / "ship.wav").read_bytes() == payload.read_bytes()


@pytest.mark.skipif(sys.platform == "win32", reason="sends signals")
@pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
def test_recv_child_stops_mid_frame_and_leaves_no_temp_file(tmp_path, signame):
    # the cut frame's body sits in a .incoming- temp file until the stop
    inbox = tmp_path / "inbox"
    frame = encode_frame("cut.wav", bytes(100_000))
    with recv_child(inbox) as (child, port), \
            socket.create_connection(("127.0.0.1", port), timeout=5) as peer:
        peer.sendall(frame[:len(frame) // 2])
        deadline = time.monotonic() + 5
        while not any(inbox.iterdir()) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [path.name.startswith(".incoming-") for path in inbox.iterdir()] == [True]
        child.send_signal(getattr(signal, signame))
        out, err = child.communicate(timeout=5)
    assert (child.returncode, out, err) == (0, b"out_dir=" + os.fsencode(inbox) + b"\n", b"")
    assert list(inbox.iterdir()) == []


@pytest.mark.skipif(sys.platform == "win32", reason="selects on a pipe")
def test_recv_announces_itself_on_a_pipe_at_once(tmp_path):
    # a supervisor reads the port of --port 0 from a pipe, where stdout is
    # block-buffered unless the program flushes; recv_child reads the port line
    inbox = tmp_path / "inbox"
    with recv_child(inbox) as (child, port):
        rest = read_line(child.stdout, 5)
        child.send_signal(signal.SIGINT)
        child.communicate(timeout=5)
    assert (port > 0, rest) == (True, b"out_dir=" + os.fsencode(inbox) + b"\n")


# argv and the whole stdout of each command, in order, on the inputs of
# test_every_command_prints_exactly_its_lines
_PINNED_STDOUT = [
    (["embed", "--carrier", "{carrier}", "--message", "{note}", "--out", "{regular}",
      "--key-env", "{key}"],
     "mode=regular\nmessage_bytes=300\nout={regular}\n"),
    (["embed", "--carrier", "{carrier}", "--message", "{note}", "--out", "{excessive}",
      "--mode", "excessive", "--key-env", "{key}"],
     "mode=excessive\nmessage_bytes=300\nout={excessive}\n"),
    (["extract", "--carrier", "{excessive}", "--out-dir", "{recovered}", "--key-env", "{key}"],
     "extension=txt\nmessage_bytes=300\nout={recovered}/excessive.txt\n"),
    (["inspect", "{regular}"],
     "mode=regular\nfile_type_code=0x01\nextension=txt\ndeclared_size=300\nplausible=yes\n"),
    (["inspect", "{carrier}"],
     "mode=regular\nfile_type_code=0xd4\nextension=bin\ndeclared_size=1371400298\n"
     "plausible=no\n"),
    (["capacity", "{carrier}"],
     "regular_capacity_bytes=1494\nexcessive_capacity_bytes=2994\n"),
    (["inspect", "{raw}", "--header-size", "77"],
     "mode=excessive\nfile_type_code=0x17\nextension=bin\ndeclared_size=1456863589\n"
     "plausible=no\n"),
    (["capacity", "{raw}", "--header-size", "77"],
     "regular_capacity_bytes=610\nexcessive_capacity_bytes=1224\n"),
    (["delete", "--carrier", "{regular}", "--out", "{deleted}"],
     "out={deleted}\n"),
    (["send", "--host", "127.0.0.1", "--port", "{port}", "{regular}"],
     "bytes_sent=12073\n"),  # 4 + 2 + len("regular.wav") + 8 + 12044 + 4
]


def test_every_command_prints_exactly_its_lines(tmp_path, keyed_env, capsys):
    rng = random.Random(2718)
    (tmp_path / "carrier.wav").write_bytes(
        build_wav(pcm16_bytes([rng.randrange(-3000, 3000) for _ in range(6000)])))
    (tmp_path / "note.txt").write_bytes(rng.randbytes(300))
    (tmp_path / "raw.bin").write_bytes(rng.randbytes(5001))
    with FileReceiver(0, tmp_path / "inbox") as server:
        paths = {name: tmp_path / f"{name}.{suffix}" for name, suffix in [
            ("carrier", "wav"), ("note", "txt"), ("raw", "bin"), ("regular", "wav"),
            ("excessive", "wav"), ("deleted", "wav")]}
        paths.update(recovered=tmp_path / "recovered", key=keyed_env, port=server.port)
        for argv, expected in _PINNED_STDOUT:
            assert cli.run([arg.format(**paths) for arg in argv]) == 0
            assert capsys.readouterr() == (expected.format(**paths), "")
    assert (tmp_path / "recovered" / "excessive.txt").read_bytes() == paths["note"].read_bytes()


@st.composite
def _carrier_cases(draw):
    """(original, edited carrier, --header-size or None, message): a 16-bit
    WAV, or raw bytes with a header size that may exceed them, that may hide
    a message, and a copy of it with up to three edits."""
    body = random.Random(draw(st.integers(0, 2**32 - 1))).randbytes(draw(st.integers(0, 6000)))
    if draw(st.booleans()):
        trailer = draw(st.lists(st.tuples(st.just(b"LIST"), st.binary(max_size=9)), max_size=1))
        original = build_wav(body, sample_rate=draw(st.sampled_from([8000, 44100])),
                             post_data_chunks=trailer)
        header = None
    else:
        original = body
        header = draw(st.integers(0, len(body) + 8))
    hidden = draw(st.none() | st.binary(min_size=1, max_size=40))
    if hidden is not None:
        with contextlib.suppress(StegoStreamError):  # too small a carrier stays clean
            original = bytes(stego.embed(parse_carrier(original, header),
                                         SealedPayload(hidden, 0, len(hidden)),
                                         draw(st.sampled_from(list(StegoMode)))).data)
    return original, mutated(draw, original), header, draw(st.binary(max_size=80))


_DOCUMENTED_RUN_CODES = {0, 1, 2, 3, 5}


def test_cli_run_fails_closed_on_mutated_carriers(tmp_path, keyed_env, capsys):
    # every carrier command exits with a documented code and raises nothing;
    # a patched output differs from its input only inside [header_len, body_end)
    @settings(max_examples=40, deadline=None)
    @given(_carrier_cases())
    def check(case):
        original, edited, header, message = case
        with tempfile.TemporaryDirectory(dir=tmp_path) as work:
            work = Path(work)
            for name, blob in [("original.wav", original), ("carrier.wav", edited),
                               ("message.txt", message)]:
                (work / name).write_bytes(blob)
            carrier = str(work / "carrier.wav")
            key = ["--key-env", keyed_env]
            with_header = ["--header-size", str(header)] if header is not None else []
            for argv in [["inspect", carrier], ["capacity", carrier],
                         ["extract", "--carrier", carrier, "--out-dir", str(work / "x"), *key]]:
                assert cli.run(argv + with_header) in _DOCUMENTED_RUN_CODES
            for command in ("compare", "snr"):
                assert cli.run([command, "--original", str(work / "original.wav"),
                                "--stego", carrier]) in _DOCUMENTED_RUN_CODES
            embedded, deleted = work / "embedded.wav", work / "deleted.wav"
            for out, argv in [
                (embedded, ["embed", "--carrier", carrier, "--message", str(work / "message.txt"),
                            "--out", str(embedded), *key]),
                (deleted, ["delete", "--carrier", carrier, "--out", str(deleted)]),
            ]:
                code = cli.run(argv + with_header)
                assert code in _DOCUMENTED_RUN_CODES
                assert out.exists() == (code == 0)
                if code == 0:
                    bounds = parse_carrier(edited, header)
                    patched = out.read_bytes()
                    assert len(patched) == len(edited)
                    assert patched[: bounds.header_len] == edited[: bounds.header_len]
                    assert patched[bounds.body_end :] == edited[bounds.body_end :]
        capsys.readouterr()

    check()


def test_send_unreachable_exits_four(tmp_path, capsys):
    payload = tmp_path / "f.bin"
    payload.write_bytes(b"x")
    assert cli.run(["send", "--host", "127.0.0.1", "--port", "1", str(payload)]) == 4
    capsys.readouterr()


def test_send_dot_file_is_usage_error(tmp_path, capsys):
    # refused before connecting: nothing listens on port 1
    payload = tmp_path / ".env"
    payload.write_bytes(b"x")
    assert cli.run(["send", "--host", "127.0.0.1", "--port", "1", str(payload)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot send") and "Traceback" not in err


_DOCUMENTED_EXIT_CODES = {
    "EmptyPassphrase": 1, "EmptyMessage": 1, "InvalidTransferName": 1,
    "CapacityExceeded": 2, "MessageTooLarge": 2,
    "MalformedRiff": 3, "UnknownFormat": 3, "HeaderExceedsFile": 3, "UnsupportedDepth": 3,
    "LengthMismatch": 3, "FormatMismatch": 3, "TooShort": 3, "EmptyInput": 3,
    "ConnectFailed": 4, "RemoteRejected": 4, "TransferIoError": 4, "BindFailed": 4,
    "SizeImplausible": 5, "CarrierTooSmall": 5,
}


def _leaf_classes(cls) -> list[type]:
    subclasses = cls.__subclasses__()
    return [leaf for sub in subclasses for leaf in _leaf_classes(sub)] if subclasses else [cls]


def test_every_error_class_has_a_documented_exit_code():
    assert {error_type.__name__ for error_type in _leaf_classes(StegoStreamError)} == set(
        _DOCUMENTED_EXIT_CODES)


@pytest.mark.parametrize("error_type", _leaf_classes(StegoStreamError),
                         ids=lambda error_type: error_type.__name__)
def test_error_classes_carry_documented_exit_code(error_type, carrier_wav, monkeypatch, capsys):
    def fail(*args):
        raise error_type("boom")

    monkeypatch.setattr(stego, "capacity", fail)
    assert cli.run(["capacity", str(carrier_wav)]) == _DOCUMENTED_EXIT_CODES[error_type.__name__]
    assert "error: boom" in capsys.readouterr().err


def _child_env(**extra) -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src"), "CHILD_KEY": "key", **extra}


@pytest.mark.skipif(sys.platform != "linux", reason="needs file names that are not UTF-8")
def test_undecodable_out_name_prints_byte_for_byte(tmp_path, carrier_wav):
    # with a strict stdout the out= line used to raise after the file was written
    env = _child_env(PYTHONIOENCODING="utf-8:strict")
    message = tmp_path / "m.txt"
    message.write_bytes(b"names are bytes\n")
    stego_path = tmp_path / os.fsdecode(b"\xff.wav")
    out_dir = tmp_path / "recovered"
    for argv, out in [
        (["embed", "--carrier", str(carrier_wav), "--message", str(message),
          "--out", str(stego_path)], stego_path),
        (["extract", "--carrier", str(stego_path), "--out-dir", str(out_dir)],
         out_dir / os.fsdecode(b"\xff.txt")),
    ]:
        run = subprocess.run([sys.executable, "-m", "stegostream", *argv, "--key-env", "CHILD_KEY"],
                             env=env, capture_output=True, timeout=60)
        assert (run.returncode, run.stderr) == (0, b"")
        assert run.stdout.endswith(b"out=" + os.fsencode(out) + b"\n")
    assert (out_dir / os.fsdecode(b"\xff.txt")).read_bytes() == message.read_bytes()


def _limit_child():
    # a child that reads /dev/zero or copies it stops at these limits
    # instead of taking the machine's memory or disk
    import resource

    resource.setrlimit(resource.RLIMIT_FSIZE, (16 << 20, 16 << 20))
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.skipif(sys.platform != "linux", reason="needs mkfifo and /dev/zero")
@pytest.mark.parametrize("argv", [
    ["inspect", "{fifo}"],
    ["capacity", "{fifo}"],
    ["snr", "--original", "{fifo}", "--stego", "{wav}"],
    ["compare", "--original", "{wav}", "--stego", "{fifo}"],
    ["extract", "--carrier", "{fifo}", "--out-dir", "{out}", "--key-env", "CHILD_KEY"],
    ["extract", "--carrier", "/dev/zero", "--out-dir", "{out}", "--key-env", "CHILD_KEY"],
    ["embed", "--carrier", "{fifo}", "--message", "{message}", "--out", "{out}",
     "--key-env", "CHILD_KEY"],
    ["embed", "--carrier", "/dev/zero", "--message", "{message}", "--out", "{out}",
     "--key-env", "CHILD_KEY"],
    ["delete", "--carrier", "/dev/zero", "--out", "{out}"],
    ["embed", "--carrier", "{wav}", "--message", "{message}", "--out", "{fifo}",
     "--key-env", "CHILD_KEY"],
    ["delete", "--carrier", "{wav}", "--out", "{fifo}"],
], ids=["inspect-fifo", "capacity-fifo", "snr-fifo", "compare-fifo", "extract-fifo",
        "extract-zero", "embed-fifo", "embed-zero", "delete-zero", "embed-out-fifo",
        "delete-out-fifo"])
def test_carrier_and_wav_paths_must_be_regular_files(argv, tmp_path, carrier_wav):
    # opened, a FIFO blocks and /dev/zero never ends, so neither may be opened
    # at all; an --out FIFO would be replaced by a regular file
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    message = tmp_path / "m.txt"
    message.write_bytes(b"hello")
    paths = {"fifo": fifo, "wav": carrier_wav, "message": message, "out": tmp_path / "out"}
    argv = [arg.format(**paths) for arg in argv]
    run = subprocess.run([sys.executable, "-m", "stegostream", *argv], env=_child_env(),
                         capture_output=True, timeout=30, preexec_fn=_limit_child)
    special = str(fifo) if str(fifo) in argv else "/dev/zero"
    assert (run.returncode, run.stdout) == (1, b"")
    assert run.stderr == f"error: {special} is not a regular file\n".encode()
    assert sorted(tmp_path.iterdir()) == sorted([fifo, carrier_wav, message])
    assert stat.S_ISFIFO(fifo.stat().st_mode)


@pytest.mark.skipif(sys.platform != "linux", reason="needs /dev/zero")
@pytest.mark.parametrize("argv", [
    ["send", "--host", "127.0.0.1", "--port", "1", "/dev/zero"],
    ["embed", "--carrier", "{wav}", "--message", "/dev/zero", "--out", "{out}",
     "--key-env", "CHILD_KEY"],
], ids=["send-file", "embed-message"])
def test_refuses_a_device_before_reading_it(argv, tmp_path, carrier_wav):
    # /dev/zero used to be read until memory ran out; the child's is capped
    argv = [arg.format(wav=carrier_wav, out=tmp_path / "out") for arg in argv]
    run = subprocess.run([sys.executable, "-m", "stegostream", *argv],
                         env=_child_env(), capture_output=True, timeout=30,
                         preexec_fn=_limit_child)
    assert (run.returncode, run.stdout) == (1, b"")
    assert run.stderr == b"error: /dev/zero is not a regular file or a FIFO\n"
    assert list(tmp_path.iterdir()) == [carrier_wav]


@pytest.mark.skipif(sys.platform != "linux", reason="needs mkfifo")
def test_send_reads_a_fifo_to_its_end(tmp_path, capsys):
    fifo = tmp_path / "piped.wav"
    os.mkfifo(fifo)
    payload = random.Random(8).randbytes(3 * 1024 * 1024)  # a pipe never takes sendfile
    writer = threading.Thread(target=fifo.write_bytes, args=(payload,), daemon=True)
    writer.start()
    try:
        with FileReceiver(0, tmp_path / "inbox") as server:
            rc = cli.run(["send", "--host", "127.0.0.1", "--port", str(server.port), str(fifo)])
    finally:
        if writer.is_alive():  # the send never opened the pipe: let the writer fail
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(5)
    assert rc == 0
    assert capsys.readouterr().out == f"bytes_sent={len(encode_frame('piped.wav', payload))}\n"
    assert (tmp_path / "inbox" / "piped.wav").read_bytes() == payload


@pytest.mark.skipif(sys.platform != "linux", reason="needs mkfifo")
def test_embed_reads_a_message_fifo(tmp_path, carrier_wav, keyed_env):
    fifo = tmp_path / "piped.txt"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(b"through a pipe",), daemon=True)
    writer.start()
    try:
        rc = cli.run(["embed", "--carrier", str(carrier_wav), "--message", str(fifo),
                      "--key-env", keyed_env, "--out", str(tmp_path / "stego.wav")])
    finally:
        if writer.is_alive():  # the embed never opened the pipe: let the writer fail
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(5)
    assert rc == 0
    assert cli.run(["extract", "--carrier", str(tmp_path / "stego.wav"), "--key-env", keyed_env,
                    "--out-dir", str(tmp_path / "r")]) == 0
    assert (tmp_path / "r" / "stego.txt").read_bytes() == b"through a pipe"


@pytest.mark.skipif(sys.platform != "linux", reason="needs mkfifo")
def test_embed_stops_reading_a_message_past_the_capacity(tmp_path, carrier_wav, keyed_env,
                                                         capsys):
    # an endless FIFO would fill memory or disk: reading stops one byte past
    # the larger capacity, and closing the pipe ends the writer on EPIPE
    limit = max(capacity(parse_carrier(carrier_wav.read_bytes()), mode) for mode in StegoMode)
    fifo = tmp_path / "piped.txt"
    os.mkfifo(fifo)
    outcome = []

    def write():
        try:
            fifo.write_bytes(bytes(limit + (1 << 20)))
            outcome.append("written")
        except BrokenPipeError:
            outcome.append("broken pipe")

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        rc = cli.run(["embed", "--carrier", str(carrier_wav), "--message", str(fifo),
                      "--key-env", keyed_env, "--out", str(tmp_path / "s.wav")])
    finally:
        if writer.is_alive():  # the embed never opened the pipe: let the writer fail
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(5)
    assert not writer.is_alive() and outcome == ["broken pipe"]
    assert rc == 2
    assert f"error: message of more than {limit} bytes fits neither mode" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([carrier_wav, fifo])


@pytest.mark.parametrize("message_bytes, key_env, code, error", [
    (b"", "STEGO_TEST_KEY", 1, "cannot seal an empty message"),
    (b"x", "UNSET_TEST_KEY", 1, "environment variable UNSET_TEST_KEY is unset or empty"),
], ids=["empty-message", "unset-key"])
@pytest.mark.parametrize("out_exists", [False, True], ids=["new-out", "old-out"])
def test_failed_embed_leaves_no_copy(message_bytes, key_env, code, error, out_exists,
                                     tmp_path, carrier_wav, keyed_env, capsys):
    # the message copy next to --out is unnamed, so no failure leaves it
    # behind (test_failed_patch_leaves_no_file covers a message too large)
    message = tmp_path / "m.bin"
    message.write_bytes(message_bytes)
    out = tmp_path / "out.wav"
    if out_exists:
        out.write_bytes(b"left alone")
    before = sorted(tmp_path.iterdir())
    assert cli.run(["embed", "--carrier", str(carrier_wav), "--message", str(message),
                    "--key-env", key_env, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(f"error: {error}")
    assert sorted(tmp_path.iterdir()) == before
    if out_exists:
        assert out.read_bytes() == b"left alone"


def _peak_rss_mib(tmp_path, *command: str) -> float:
    """Peak RSS of one `python` child, started through the benchmark's
    `timed.py` so that the figure is the child's own and not inherited."""
    result = tmp_path / "timed.json"
    subprocess.run([sys.executable, "-I", "-S", str(ROOT / "perfbench" / "timed.py"), str(result),
                    "--", sys.executable, *command],
                   env=_child_env(), check=True, capture_output=True, timeout=120)
    record = json.loads(result.read_text())
    assert record["code"] == 0
    return record["maxrss_kib"] / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="pages are dropped with Linux's madvise")
def test_embed_and_delete_memory_follows_the_window_not_the_carrier(tmp_path):
    # a near-capacity message touches every page of the 16 MiB carrier
    carrier = tmp_path / "carrier.wav"
    carrier.write_bytes(build_wav(random.Random(9).randbytes(16 << 20)))
    size = capacity(parse_carrier(carrier.read_bytes()), StegoMode.REGULAR)
    message = tmp_path / "m.bin"
    message.write_bytes(random.Random(10).randbytes(size))
    floor = _peak_rss_mib(tmp_path, "-c", "import stegostream.cli")
    embed_peak = _peak_rss_mib(tmp_path, "-m", "stegostream", "embed", "--carrier", str(carrier),
                               "--message", str(message), "--out", str(tmp_path / "s.wav"),
                               "--mode", "regular", "--key-env", "CHILD_KEY")
    delete_peak = _peak_rss_mib(tmp_path, "-m", "stegostream", "delete", "--carrier",
                                str(tmp_path / "s.wav"), "--out", str(tmp_path / "d.wav"))
    assert embed_peak - floor <= 12
    assert delete_peak - floor <= 12


@pytest.mark.skipif(sys.platform != "linux", reason="pages are dropped with Linux's madvise")
def test_embed_and_extract_hold_a_large_message_at_most_twice(tmp_path):
    # a full excessive message, about 6 MiB: embed holds its ciphertext once
    # (the mapped copy drops its pages as it is sealed), extract the carrier,
    # the ciphertext and the plaintext; a copy made by the cipher library,
    # or by BytesIO.getvalue() while a view of its buffer is left, adds one
    # more message to either
    carrier = tmp_path / "carrier.wav"
    carrier.write_bytes(build_wav(random.Random(12).randbytes(24 << 20)))
    size = capacity(parse_carrier(carrier.read_bytes()), StegoMode.EXCESSIVE)
    message = tmp_path / "m.bin"
    message.write_bytes(random.Random(13).randbytes(size))
    floor = _peak_rss_mib(tmp_path, "-c", "import stegostream.cli")
    embed_peak = _peak_rss_mib(tmp_path, "-m", "stegostream", "embed", "--carrier", str(carrier),
                               "--message", str(message), "--out", str(tmp_path / "s.wav"),
                               "--mode", "excessive", "--key-env", "CHILD_KEY")
    extract_peak = _peak_rss_mib(tmp_path, "-m", "stegostream", "extract", "--carrier",
                                 str(tmp_path / "s.wav"), "--out-dir", str(tmp_path / "r"),
                                 "--key-env", "CHILD_KEY")
    assert (tmp_path / "r" / "s.bin").read_bytes() == message.read_bytes()
    message_mib, carrier_mib = size / 2**20, carrier.stat().st_size / 2**20
    assert embed_peak - floor <= message_mib + 4
    assert extract_peak - floor <= carrier_mib + 2 * message_mib + 4


@pytest.mark.skipif(sys.platform != "linux", reason="pages are dropped with Linux's madvise")
def test_compare_and_snr_memory_follows_the_block_not_the_files(tmp_path):
    # every page of both 16 MiB files is read by each quality pass
    rng = random.Random(11)
    original = rng.randbytes(16 << 20)
    modified = bytes(byte ^ rng.getrandbits(2) for byte in original[:1 << 16]) + original[1 << 16:]
    (tmp_path / "c.wav").write_bytes(build_wav(original))
    (tmp_path / "s.wav").write_bytes(build_wav(modified))
    pair = ["--original", str(tmp_path / "c.wav"), "--stego", str(tmp_path / "s.wav")]
    floor = _peak_rss_mib(tmp_path, "-c", "import stegostream.cli")
    for command in (["compare"], ["snr"], ["snr", "--frame-ms", "60000"]):
        # the last has frames of 2,646,000 samples (60 s at 44.1 kHz), longer than a block
        assert _peak_rss_mib(tmp_path, "-m", "stegostream", *command, *pair) - floor <= 12
