"""Seeded benchmark inputs: 16-bit mono 44.1 kHz WAVs of Gaussian noise and
random (incompressible) message bytes, cached on disk by (seed, size).

Generation is never timed. The same seed always gives the same bytes, so a
cached file is only an optimisation; the cache keeps the inputs of a few
seeds and evicts the oldest, because the 256 MiB carriers add up quickly.
"""

from __future__ import annotations

import os
import platform
import shutil
import struct
import sys
from pathlib import Path

import numpy as np

SAMPLE_RATE = 44100
HEADER_LEN = 44  # canonical RIFF + fmt + data chunk headers, no extra chunks
_CACHE_KEEP = 4
_CHUNK_SAMPLES = 1 << 22

# Hidden-message layouts as README.md documents them: reserved metadata
# bytes and carrier bytes per head-half message byte, for each mode.
LAYOUT = {
    "regular": {"reserved": 41, "span": 16, "size_field": (9, 41)},
    "excessive": {"reserved": 21, "span": 8, "size_field": (5, 21)},
}


def wav_header(data_len: int) -> bytes:
    fmt = struct.pack("<HHIIHH", 1, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16)
    return (b"RIFF" + struct.pack("<I", 36 + data_len) + b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", data_len))


def capacity(carrier_bytes: int, mode: str) -> int:
    """Largest message byte count a canonical WAV of this size holds."""
    layout = LAYOUT[mode]
    room = carrier_bytes - HEADER_LEN - layout["reserved"]
    return 2 * (room // layout["span"])


def _rng(seed: int, kind: str, size: int) -> np.random.Generator:
    return np.random.default_rng([seed, size, *kind.encode()])


class InputCache:
    """Seeded input files, one directory per seed, reused across runs.

    Opening the cache for a seed evicts the directories of all but the
    most recently used few other seeds.
    """

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.dir = root / f"seed-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        os.utime(self.dir)
        others = sorted((d for d in root.glob("seed-*") if d != self.dir),
                        key=lambda d: d.stat().st_mtime)
        for stale in others[: max(0, len(others) - _CACHE_KEEP + 1)]:
            shutil.rmtree(stale, ignore_errors=True)

    def carrier(self, size: int) -> Path:
        """A WAV of exactly `size` bytes holding Gaussian noise samples."""
        path = self.dir / f"carrier-{size}.wav"
        if not path.exists():
            rng = _rng(self.seed, "carrier", size)
            samples = (size - HEADER_LEN) // 2
            tmp = path.with_suffix(".part")
            with open(tmp, "wb") as out:
                out.write(wav_header(2 * samples))
                for start in range(0, samples, _CHUNK_SAMPLES):
                    count = min(_CHUNK_SAMPLES, samples - start)
                    noise = rng.standard_normal(count, dtype=np.float32) * 6000.0
                    out.write(np.clip(noise, -32768, 32767).astype("<i2").tobytes())
                os.fsync(out.fileno())
            os.replace(tmp, path)
        return path

    def message(self, size: int, index: int = 0) -> Path:
        """`size` random bytes; `index` tells apart messages of one size."""
        path = self.dir / f"message-{size}-{index}.bin"
        if not path.exists():
            tmp = path.with_suffix(".part")
            write_durably(tmp, _rng(self.seed, f"message{index}", size).bytes(size))
            os.replace(tmp, path)
        return path


def write_durably(path: Path, data: bytes):
    """Write and fsync, so the write-back of generated inputs cannot land
    inside a timed operation."""
    with open(path, "wb") as out:
        out.write(data)
        os.fsync(out.fileno())


def _filesystem_type(path: Path) -> str:
    """Type of the filesystem that holds `path`, read from /proc/mounts."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount_point = fields[1]
        inside = target == mount_point or target.startswith(mount_point.rstrip("/") + "/")
        if inside and len(mount_point) > len(best):
            best, kind = mount_point, fields[2]
    return kind


def environment(data_dir: Path) -> dict:
    """Machine facts recorded next to every result."""
    import cryptography

    fs = _filesystem_type(data_dir)
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cryptography": cryptography.__version__,
        "data_dir_fs": fs,
        "data_dir_tmpfs": fs == "tmpfs",
        "executable": sys.executable,
    }
