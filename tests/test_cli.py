import builtins
import os
import random
import stat
import sys

import pytest

from stegostream import cli, container, stego
from stegostream.cipher import SealedPayload
from stegostream.container import parse_carrier
from stegostream.errors import StegoStreamError
from stegostream.stego import StegoMode, capacity, inspect_carrier

from conftest import build_wav, pcm16_bytes


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


def test_auto_mode_falls_back_to_excessive(tmp_path, keyed_env, capsys):
    # room for excessive only: regular needs 41 + 16*ceil(m/2)
    carrier = tmp_path / "small.bin"
    carrier.write_bytes(bytes(random.Random(1).randrange(256) for _ in range(300)))
    message = tmp_path / "m.txt"
    message.write_bytes(bytes(40))
    out = tmp_path / "out.bin"
    rc = cli.run(["embed", "--carrier", str(carrier), "--message", str(message),
                  "--key-env", keyed_env, "--out", str(out), "--header-size", "0"])
    assert rc == 0
    assert "mode=excessive" in capsys.readouterr().out


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
    from stegostream.transfer import FileReceiver

    payload = tmp_path / "ship.wav"
    payload.write_bytes(bytes(random.Random(4).randrange(256) for _ in range(5000)))
    inbox = tmp_path / "inbox"
    with FileReceiver(0, inbox) as server:
        rc = cli.run(["send", "--host", "127.0.0.1", "--port", str(server.port),
                      str(payload)])
    assert rc == 0
    assert "bytes_sent=" in capsys.readouterr().out
    assert (inbox / "ship.wav").read_bytes() == payload.read_bytes()


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
    "LengthMismatch": 3, "TooShort": 3, "EmptyInput": 3,
    "ConnectFailed": 4, "RemoteRejected": 4, "TransferIoError": 4, "BindFailed": 4,
    "SizeImplausible": 5, "CarrierTooSmall": 5,
}


@pytest.mark.parametrize("error_type", StegoStreamError.__subclasses__(),
                         ids=lambda error_type: error_type.__name__)
def test_error_classes_carry_documented_exit_code(error_type, carrier_wav, monkeypatch, capsys):
    def fail(*args):
        raise error_type("boom")

    monkeypatch.setattr(stego, "capacity", fail)
    assert cli.run(["capacity", str(carrier_wav)]) == _DOCUMENTED_EXIT_CODES[error_type.__name__]
    assert "error: boom" in capsys.readouterr().err
