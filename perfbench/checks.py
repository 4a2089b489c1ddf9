"""Correctness checks on command outputs.

Each check returns None when the output is right and a one-line reason
when it is not; a wrong output counts as a failed operation and the run
goes on. Byte offsets come from the layout README.md documents, not from
the package, so a layout bug cannot hide behind the code it would check.
The plane check uses `quality.bitplane_diff`, resolved by the caller
before any tracing wrapper is installed.
"""

from __future__ import annotations

import numpy as np

from inputs import HEADER_LEN, LAYOUT


def _outside_body_unchanged(before: bytes, after: bytes) -> str | None:
    if len(before) != len(after):
        return f"length changed from {len(before)} to {len(after)}"
    if before[:HEADER_LEN] != after[:HEADER_LEN]:
        return "header bytes changed"
    return None


def embed_output(carrier: bytes, stego: bytes, stdout: str, mode: str,
                 bitplane_diff) -> str | None:
    problem = _outside_body_unchanged(carrier, stego)
    if problem:
        return f"embed: {problem}"
    if f"mode={mode}" not in stdout.split():
        return f"embed: expected mode={mode} in output"
    plane0, plane1, other = bitplane_diff(carrier, stego)
    if other:
        return f"embed: {other} bytes changed above plane 1"
    if mode == "regular" and plane1:
        return f"embed: regular layout changed {plane1} bytes in plane 1"
    if plane0 == 0:
        return "embed: no hidden bit landed in the carrier"
    return None


def delete_output(stego: bytes, deleted: bytes, mode: str, message_len: int,
                  bitplane_diff) -> str | None:
    problem = _outside_body_unchanged(stego, deleted)
    if problem:
        return f"delete: {problem}"
    _, plane1, other = bitplane_diff(stego, deleted)
    if other or plane1:
        return f"delete: changed bits above the LSB ({plane1} in plane 1, {other} higher)"
    layout = LAYOUT[mode]
    arr = np.frombuffer(deleted, dtype=np.uint8)
    size_start, size_stop = (HEADER_LEN + x for x in layout["size_field"])
    payload_start = HEADER_LEN + layout["reserved"]
    payload_stop = payload_start + layout["span"] * ((message_len + 1) // 2)
    if arr[HEADER_LEN] & 1:
        return "delete: flag bit still set"
    if np.any(arr[size_start:size_stop] & 1):
        return "delete: size field LSBs not cleared"
    if np.any(arr[payload_start:payload_stop] & 1):
        return "delete: payload span LSBs not cleared"
    return None


def extract_output(out_path, message: bytes) -> str | None:
    if out_path.suffix != ".bin":
        return f"extract: wrote {out_path.name}, expected extension bin"
    if not out_path.exists():
        return f"extract: {out_path.name} was not written"
    if out_path.read_bytes() != message:
        return "extract: recovered bytes differ from the message"
    return None


def compare_output(stdout: str) -> str | None:
    fields = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    if fields.get("modified_bytes_other_planes") != "0":
        return f"compare: modified_bytes_other_planes={fields.get('modified_bytes_other_planes')}"
    if fields.get("xcorr_lag") != "0":
        return f"compare: xcorr_lag={fields.get('xcorr_lag')}"
    return None
