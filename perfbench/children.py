"""Child processes: one `python -m stegostream ...` per CLI call, timed with
`os.wait4` for wall time and `ru_maxrss` (see timed.py), plus a long-lived
`recv` child.

Children get an explicit environment instead of the caller's, so the
parent commit and a change see identical conditions on whatever machine
runs them.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

KEY_ENV = "PERFBENCH_KEY"
PASSPHRASE = "perfbench passphrase"
_STOP_TIMEOUT_S = 30.0
_READY_TIMEOUT_S = 60.0
TIMED = Path(__file__).resolve().parent / "timed.py"


def child_env(src: Path) -> dict:
    """The whole environment a child sees."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "LANG": "C.UTF-8",
        "PYTHONPATH": str(src),
        # without it the recv child's listening_port= line sits in a pipe buffer
        "PYTHONUNBUFFERED": "1",
        # no __pycache__ in the checkout, so every run compiles the same way
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        KEY_ENV: PASSPHRASE,
    }


@dataclass
class Call:
    """One finished child: wall time, peak RSS, exit code and output."""

    wall_s: float
    rss_mib: float
    code: int
    stdout: str
    stderr: str


class Runner:
    """Runs `python -m stegostream` children with a pinned environment."""

    def __init__(self, src: Path, work: Path):
        self.src = src
        self.work = work
        self.env = child_env(src)

    def timed(self, command: list[str], result: Path, cpu: int | None = None) -> list[str]:
        """argv that runs `command` under timed.py, which writes `result`."""
        pin = ["--cpu", str(cpu)] if cpu is not None else []
        return [sys.executable, "-I", "-S", str(TIMED), str(result), *pin, "--", *command]

    def cli(self, *args: str, env: dict | None = None) -> Call:
        """Run one CLI command to completion and time it."""
        return self.python("-m", "stegostream", *args, env=env)

    def python(self, *args: str, env: dict | None = None) -> Call:
        result = self.work / "child.json"
        with open(self.work / "child.stdout", "w+b") as out, \
                open(self.work / "child.stderr", "w+b") as err:
            subprocess.run(self.timed([sys.executable, *args], result), env=env or self.env,
                           stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                           cwd=self.work, check=True)
            record = json.loads(result.read_text())
            out.seek(0)
            err.seek(0)
            return Call(record["wall_s"], record["maxrss_kib"] / 1024.0, record["code"],
                        out.read().decode("utf-8", "replace"),
                        err.read().decode("utf-8", "replace"))

    def package_file(self) -> str:
        """Where the children import `stegostream` from."""
        call = self.python("-c", "import stegostream; print(stegostream.__file__)")
        if call.code != 0:
            raise RuntimeError(f"cannot import stegostream from {self.src}: {call.stderr.strip()}")
        return call.stdout.strip()

    def import_seconds(self) -> float:
        """Time for a fresh interpreter to import the CLI module, measured inside it."""
        call = self.python("-c", "import time; t = time.perf_counter(); "
                                 "import stegostream.cli; print(time.perf_counter() - t)")
        if call.code != 0:
            raise RuntimeError(f"importing stegostream.cli failed: {call.stderr.strip()}")
        return float(call.stdout.strip())


class Receiver:
    """A `stegostream recv --port 0` child, ready once it prints its port.

    Readiness comes from the `listening_port=` line: a probe connection
    would be logged by the receiver as a bad-magic drop. `setup_s` runs
    from the spawn to that line.
    """

    def __init__(self, runner: Runner, inbox: Path, cpu: int | None):
        inbox.mkdir(parents=True, exist_ok=True)
        self.result = runner.work / "recv.json"
        self.result.unlink(missing_ok=True)
        self._stderr = open(runner.work / "recv.stderr", "wb")
        command = [sys.executable, "-m", "stegostream", "recv", "--port", "0",
                   "--out", str(inbox)]
        self.proc = subprocess.Popen(runner.timed(command, self.result, cpu), env=runner.env,
                                     stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                     stderr=self._stderr, cwd=runner.work)
        self.rss_mib = 0.0
        self.cpu_s = 0.0
        self.code = None
        try:
            self.port = self._await_port()
            ready = time.perf_counter()
            spawned = self._spawn_record()
        except BaseException:
            self.stop()
            raise
        self.pid = spawned["pid"]
        self.setup_s = ready - spawned["start"]

    def _spawn_record(self) -> dict:
        deadline = time.monotonic() + _READY_TIMEOUT_S
        while not self.result.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("timed.py did not record the recv child")
            time.sleep(0.001)
        return json.loads(self.result.read_text())

    def _await_port(self) -> int:
        deadline = time.monotonic() + _READY_TIMEOUT_S
        pending = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                continue
            piece = os.read(fd, 4096)
            if not piece:
                break
            pending += piece
            for line in pending.split(b"\n")[:-1]:
                if line.startswith(b"listening_port="):
                    return int(line.split(b"=", 1)[1])
        raise RuntimeError("recv child did not report a listening port")

    def cpu_so_far(self) -> float:
        """User plus system CPU seconds the live recv child has used."""
        try:
            stat = Path(f"/proc/{self.pid}/stat").read_text()
        except OSError:
            return 0.0
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> "Receiver":
        """Interrupt the child, reap it and keep its rusage."""
        if self.proc.returncode is not None:
            return self
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.terminate()  # passed on to the child as well
            try:
                self.proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                if getattr(self, "pid", None):
                    os.kill(self.pid, signal.SIGKILL)
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        try:
            record = json.loads(self.result.read_text())
        except (OSError, ValueError):
            record = {}
        self.code = record.get("code", -1)
        self.rss_mib = record.get("maxrss_kib", 0) / 1024.0
        self.cpu_s = record.get("cpu_s", 0.0)
        return self
