#!/usr/bin/env python3
"""stegostream benchmark: CLI-level and per-module metrics on seeded inputs.

    python3 perfbench/run.py --workload hide-full --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. Every CLI command is a fresh
`python -m stegostream ...` child that imports the package from this
checkout's `src/`; transfers call `transfer.send_file` from this process
against a `stegostream recv --port 0` child. Everything runs one operation
at a time.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; with `--trace 1` the same operations run
in-process under a tracer and the object holds per-layer metrics. The
line before it records the seed, the sizes, the machine and the failure
counts. `--smoke` shrinks every input so all workloads finish in seconds;
`--inject-fault` makes one operation per run go wrong on purpose, which
must show up as a failed operation and not as a crash.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / ".perfbench"
MIB = 1 << 20

import checks  # noqa: E402
import inputs  # noqa: E402
from children import KEY_ENV, PASSPHRASE, Call, Receiver, Runner  # noqa: E402
from tracer import Tracer  # noqa: E402


@dataclass(frozen=True)
class Sizes:
    """Input sizes in bytes and operation counts; `SMOKE` shrinks them."""

    full_carrier: int = 32 * MIB
    full_fill: float = 0.95
    sparse_carrier: int = 128 * MIB
    sparse_message: int = 16 * 1024
    small_file: int = 64 * 1024
    small_pool: int = 16
    large_file: int = 32 * MIB
    large_message: int = 64 * 1024
    warmup_small: int = 25
    block_small: int = 100
    tail_blocks: int = 12
    trace_large: int = 4
    probe_carrier: int = 4 * MIB
    probe_message: int = 16 * 1024
    probe_reps: int = 10
    setup_reps: int = 7


SMOKE = Sizes(full_carrier=256 * 1024, sparse_carrier=1 * MIB, sparse_message=1024,
              small_file=4096, small_pool=4, large_file=256 * 1024, large_message=1024,
              warmup_small=4, trace_large=2, probe_carrier=64 * 1024,
              probe_message=1024, probe_reps=1, setup_reps=2)

WORKLOADS = ("hide-full", "hide-sparse", "ship")

END_TO_END = {
    "setup_s": "s",
    "embed_s": "s", "extract_s": "s", "delete_s": "s", "compare_s": "s",
    "embed_peak_rss_mib": "MiB", "extract_peak_rss_mib": "MiB",
    "delete_peak_rss_mib": "MiB", "compare_peak_rss_mib": "MiB",
    "ship_small_p50_ms": "ms", "ship_small_p90_ms": "ms",
    "ship_goodput_mib_s": "MiB/s", "recv_peak_rss_mib": "MiB",
}

LAYOUTS = ("regular", "excessive")
PER_LAYER = {
    "container.parse_carrier.self_s": "s",
    "container.parse_carrier.alloc_peak_x": "x",
    "container.samples_16.self_s": "s",
    "cipher.seal.self_s": "s", "cipher.seal.mib_s": "MiB/s",
    "cipher.unseal.self_s": "s", "cipher.unseal.mib_s": "MiB/s",
    **{f"stego.{op}.{layout}.{stat}": unit
       for op in ("embed", "extract") for layout in LAYOUTS
       for stat, unit in (("self_s", "s"), ("alloc_peak_x", "x"), ("hidden_bits", "count"))},
    "stego.delete_message.self_s": "s",
    "stego.inspect_carrier.self_s": "s",
    "quality.frame_snrs.self_s": "s",
    "quality.waveform_compare.self_s": "s",
    "quality.waveform_compare.alloc_peak_x": "x",
    "quality.bitplane_diff.self_s": "s",
    "transfer.encode_frame.self_s": "s",
    "transfer.send_file.self_s": "s",
    "transfer.send_file.alloc_peak_x": "x",
    "transfer.send_file.acks_ok": "count",
    "transfer.send_file.acks_rejected": "count",
    "transfer.send_file.io_errors": "count",
    "transfer.recv.cpu_s_per_mib": "s/MiB",
    "cli.run.self_s": "s",
    "cli.run.alloc_peak_x": "x",
    "cli.startup_s": "s",
    "trace_overhead_ratio": "ratio",
}


@dataclass
class Message:
    """One message of a workload's op mix and the layout it must land in."""

    mode_arg: str | None  # passed as --mode; None lets the CLI choose
    layout: str
    path: Path
    data: bytes


class Bench:
    """One run of one workload: inputs, operations, checks and tallies."""

    def __init__(self, workload: str, seed: int, seconds: float, sizes: Sizes,
                 inject_fault: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.inject_fault = inject_fault
        self.work = DATA / "work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.inputs = inputs.InputCache(DATA / "inputs", seed)
        self.runner = Runner(SRC, self.work)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: dict[str, list[tuple[str, float]]] = defaultdict(list)  # (layout, s)
        self.rss: dict[str, float] = defaultdict(float)
        self.small_s: list[list[float]] = []  # one list per block
        self.large_s: list[float] = []
        self.large_bytes = 0
        self.received_bytes = 0
        self.acks = {"acks_ok": 0, "acks_rejected": 0, "io_errors": 0}
        self.recv_rss_mib = 0.0
        self.recv_cpu_s = 0.0
        self.setup_s: list[float] = []
        self.pkg = _import_package()
        # resolved now, before any tracing wrapper replaces it
        self.bitplane_diff = self.pkg.quality.bitplane_diff
        self._executor = self._child
        self._sends = 0

    # -- bookkeeping ----------------------------------------------------------

    def record(self, problem: str | None):
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(problem)

    def _fault_now(self, site: str) -> bool:
        """True exactly once per run, at the site this workload injects at.

        hide-* extract once with a wrong passphrase; ship corrupts one byte
        of one file on its way out.
        """
        wanted = "send" if self.workload == "ship" else "extract"
        if self.inject_fault and site == wanted:
            self.inject_fault = False
            return True
        return False

    # -- executing CLI commands -----------------------------------------------

    def _child(self, args: list[str], env: dict | None) -> Call:
        return self.runner.cli(*args, env=env)

    def _in_process(self, args: list[str], env: dict | None) -> Call:
        os.environ[KEY_ENV] = (env or self.runner.env)[KEY_ENV]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pkg.cli.run(args)
        return Call(time.perf_counter() - start, 0.0, code, out.getvalue(), err.getvalue())

    def command(self, op: str, args: list[str], check, env: dict | None = None,
                layout: str = "") -> Call:
        """Run one CLI command, then its correctness check; count the op."""
        call = self._executor([str(a) for a in args], env)
        self.walls[op].append((layout, call.wall_s))
        self.rss[op] = max(self.rss[op], call.rss_mib)
        if call.code != 0:
            tail = call.stderr.strip().splitlines()[-1:] or [""]
            self.record(f"{op}: exit {call.code}: {tail[0]}")
            return call
        try:
            self.record(check(call))
        except (OSError, ValueError) as exc:
            self.record(f"{op}: check failed: {exc}")
        return call

    # -- inputs -----------------------------------------------------------------

    def hide_inputs(self) -> tuple[Path, list[Message]]:
        s = self.sizes
        if self.workload == "hide-full":
            carrier = self.inputs.carrier(s.full_carrier)
            messages = []
            for index, layout in enumerate(LAYOUTS):
                size = int(s.full_fill * inputs.capacity(s.full_carrier, layout))
                path = self.inputs.message(size, index)
                messages.append(Message(layout, layout, path, path.read_bytes()))
            return carrier, messages
        carrier = self.inputs.carrier(s.sparse_carrier)
        path = self.inputs.message(s.sparse_message)
        return carrier, [Message(None, "regular", path, path.read_bytes())]

    def make_stego(self, carrier: Path, message: bytes, out: Path) -> Path:
        """Embed in-process, untimed: inputs for probes and shipping."""
        pkg = self.pkg
        parsed = pkg.container.parse_carrier(carrier.read_bytes())
        payload = pkg.cipher.seal(message, 0, PASSPHRASE)
        stego = pkg.stego.embed(parsed, payload, pkg.stego.StegoMode.REGULAR)
        inputs.write_durably(out, stego.data)
        return out

    def probe_inputs(self) -> tuple[Path, Message]:
        carrier = self.inputs.carrier(self.sizes.probe_carrier)
        path = self.inputs.message(self.sizes.probe_message, 7)
        return carrier, Message(None, "regular", path, path.read_bytes())

    # -- the hide pipeline ------------------------------------------------------

    def hide_message(self, carrier: Path, carrier_bytes: bytes, msg: Message,
                     compare: bool):
        """embed -> extract -> delete [-> compare] for one message, all checked."""
        stego = self.work / "stego.wav"
        deleted = self.work / "deleted.wav"
        out_dir = self.work / "extracted"
        stego_bytes = b""
        bd = self.bitplane_diff

        def check_embed(call):
            nonlocal stego_bytes
            stego_bytes = stego.read_bytes()
            return checks.embed_output(carrier_bytes, stego_bytes, call.stdout, msg.layout, bd)

        args = ["embed", "--carrier", carrier, "--message", msg.path, "--out", stego,
                "--key-env", KEY_ENV]
        if msg.mode_arg:
            args += ["--mode", msg.mode_arg]
        self.command("embed", args, check_embed, layout=msg.layout)

        env = None
        if self._fault_now("extract"):
            env = dict(self.runner.env, **{KEY_ENV: "not the " + PASSPHRASE})

        def check_extract(call):
            fields = dict(ln.split("=", 1) for ln in call.stdout.splitlines() if "=" in ln)
            if "out" not in fields:
                return "extract: no out= line"
            out = Path(fields["out"])
            problem = checks.extract_output(out, msg.data)
            out.unlink(missing_ok=True)
            return problem

        self.command("extract", ["extract", "--carrier", stego, "--out-dir", out_dir,
                                 "--key-env", KEY_ENV], check_extract, env, msg.layout)
        self.command("delete", ["delete", "--carrier", stego, "--out", deleted],
                     lambda call: checks.delete_output(stego_bytes, deleted.read_bytes(),
                                                       msg.layout, len(msg.data), bd),
                     layout=msg.layout)
        if compare:
            self.command("compare", ["compare", "--original", carrier, "--stego", stego,
                                     "--max-lag", "100"],
                         lambda call: checks.compare_output(call.stdout), layout=msg.layout)
        deleted.unlink(missing_ok=True)
        stego.unlink(missing_ok=True)

    def measure_help(self):
        """setup_s for hide-*: interpreter start plus import of every module."""
        for _ in range(self.sizes.setup_reps):
            call = self.runner.cli("--help")
            self.setup_s.append(call.wall_s)
            self.record(None if call.code == 0 and "usage:" in call.stdout
                        else f"--help: exit {call.code}")

    def run_hide(self):
        s = self.sizes
        carrier, messages = self.hide_inputs()
        carrier_bytes = carrier.read_bytes()  # also warms the page cache
        full = self.workload == "hide-full"
        large = self.large_files()
        if not full:
            probe_carrier, probe_msg = self.probe_inputs()
            probe_stego = self.make_stego(probe_carrier, probe_msg.data,
                                          self.work / "probe-stego.wav")
        self.measure_help()
        start = time.perf_counter()
        # what this workload's mix lacks, on small fixed inputs, first: the
        # main mix leaves carrier-sized writes in the page cache
        self.ship_session(large, blocks=s.tail_blocks)
        if not full:
            for _ in range(s.probe_reps):
                self.command("compare", ["compare", "--original", probe_carrier, "--stego",
                                         probe_stego, "--max-lag", "100"],
                             lambda call: checks.compare_output(call.stdout))
        deadline = start + self.seconds
        while True:
            cycle_start = time.perf_counter()
            for msg in messages:
                self.hide_message(carrier, carrier_bytes, msg, compare=full)
            cycle_s = time.perf_counter() - cycle_start
            if time.perf_counter() + cycle_s / 2 > deadline:
                break

    # -- shipping ---------------------------------------------------------------

    def small_files(self) -> list[tuple[Path, bytes]]:
        pool = []
        for i in range(self.sizes.small_pool):
            path = self.inputs.message(self.sizes.small_file, 100 + i)
            pool.append((path, path.read_bytes()))
        return pool

    def large_files(self) -> list[tuple[Path, bytes]]:
        carrier = self.inputs.carrier(self.sizes.large_file)
        message = self.inputs.message(self.sizes.large_message, 200).read_bytes()
        stego = self.make_stego(carrier, message, self.work / "large-stego.wav")
        return [(stego, stego.read_bytes())]

    def send(self, port: int, source: Path, expected: bytes, inbox: Path) -> float:
        """Ship one file under a name never used before; verify it arrived intact."""
        self._sends += 1
        name = f"{source.stem}-{self.seed}-{self._sends:07d}{source.suffix}"
        outgoing = self.work / "outbox" / name
        if self._fault_now("send"):
            corrupted = bytearray(expected)
            corrupted[len(corrupted) // 2] ^= 0x01
            outgoing.write_bytes(corrupted)
        else:
            os.link(source, outgoing)
        transfer, errors = self.pkg.transfer, self.pkg.errors
        problem = None
        start = time.perf_counter()
        try:
            transfer.send_file("127.0.0.1", port, outgoing)
        except errors.RemoteRejected as exc:
            self.acks["acks_rejected"] += 1
            problem = f"send: {exc}"
        except (errors.TransferIoError, errors.ConnectFailed) as exc:
            self.acks["io_errors"] += 1
            problem = f"send: {exc}"
        latency = time.perf_counter() - start
        outgoing.unlink()
        if problem is None:
            self.acks["acks_ok"] += 1
            received = inbox / name
            if not received.exists():
                problem = f"send: {name} acknowledged but not stored"
            elif received.read_bytes() != expected:
                problem = f"send: {name} stored with different bytes"
            else:
                self.received_bytes += len(expected)
            received.unlink(missing_ok=True)
        self.record(problem)
        return latency

    def ship_session(self, large: list[tuple[Path, bytes]], until: float | None = None,
                     blocks: int = 1, measure_setup: bool = False):
        """Start a receiver and ship to it in a closed loop, one file at a time.

        A warm-up of `warmup_small` small files goes first, checked but not
        timed. Then blocks of `block_small` small files and each large file
        once, until `until`, or `blocks` of them without it.

        Sender and receiver share one core. Split across the two cores of a
        virtual machine, every send waits on a cross-CPU wake-up, which
        tripled the 64 KiB latency and made its p90 swing 5x between runs.
        """
        cpus = sorted(os.sched_getaffinity(0))
        sender_cpu = recv_cpu = cpus[0]
        inbox = self.work / "inbox"
        (self.work / "outbox").mkdir(exist_ok=True)
        pool = self.small_files()
        if measure_setup:
            for _ in range(self.sizes.setup_reps - 1):
                receiver = Receiver(self.runner, inbox, recv_cpu)
                self.setup_s.append(receiver.setup_s)
                self.record(None if receiver.stop().code == 0 else "recv: bad exit")
        receiver = Receiver(self.runner, inbox, recv_cpu)
        if measure_setup:
            self.setup_s.append(receiver.setup_s)
        cpu_at_ready = receiver.cpu_so_far()
        self.received_bytes = 0
        try:
            os.sched_setaffinity(0, {sender_cpu})
            for i in range(self.sizes.warmup_small):
                path, data = pool[i % len(pool)]
                self.send(receiver.port, path, data, inbox)
            done = 0
            while True:
                block = []
                for i in range(self.sizes.block_small):
                    path, data = pool[i % len(pool)]
                    block.append(self.send(receiver.port, path, data, inbox))
                self.small_s.append(block)
                for path, data in large:
                    self.large_s.append(self.send(receiver.port, path, data, inbox))
                    self.large_bytes += len(data)
                done += 1
                if until is None and done >= blocks:
                    break
                if until is not None and time.perf_counter() >= until:
                    break
        finally:
            os.sched_setaffinity(0, set(cpus))
            receiver.stop()
        self.recv_rss_mib = max(self.recv_rss_mib, receiver.rss_mib)
        self.recv_cpu_s += receiver.cpu_s - cpu_at_ready
        self.record(None if receiver.code == 0 else f"recv: exit {receiver.code}")

    def run_ship(self):
        s = self.sizes
        large = self.large_files()
        probe_carrier, probe_msg = self.probe_inputs()
        probe_bytes = probe_carrier.read_bytes()
        start = time.perf_counter()
        # the CLI commands this workload's mix lacks, on small fixed inputs
        for _ in range(s.probe_reps):
            self.hide_message(probe_carrier, probe_bytes, probe_msg, compare=True)
        self.ship_session(large, until=start + self.seconds, measure_setup=True)

    # -- traced run ---------------------------------------------------------------

    def traced_ops(self, port: int | None):
        """The workload's main op mix, once; no probes and no shipping tail."""
        if self.workload == "ship":
            large = self.large_files()
            pool = self.small_files()

            def ops(tracer):
                files = [pool[i % len(pool)] for i in range(self.sizes.block_small)]
                files += large * self.sizes.trace_large
                for path, data in files:
                    latency = self.send(port, path, data, self.work / "inbox")
                    self.walls["send"].append(("", latency))
            return ops

        carrier, messages = self.hide_inputs()
        carrier_bytes = carrier.read_bytes()

        def ops(tracer):
            for msg in messages:
                if tracer is not None:
                    tracer.tag = msg.layout
                self.hide_message(carrier, carrier_bytes, msg,
                                  compare=self.workload == "hide-full")
        return ops

    def run_traced(self) -> dict:
        ship = self.workload == "ship"
        receiver = None
        cpus = sorted(os.sched_getaffinity(0))
        if ship:  # one shared core, as in ship_session
            receiver = Receiver(self.runner, self.work / "inbox", cpus[0])
            os.sched_setaffinity(0, {cpus[0]})
            (self.work / "outbox").mkdir(exist_ok=True)
            cpu_at_ready = receiver.cpu_so_far()
            self.received_bytes = 0
        else:
            self._executor = self._in_process
        passes = {}
        try:
            ops = self.traced_ops(receiver.port if receiver else None)
            for name, tracer in (("plain", None), ("spans", Tracer()),
                                 ("alloc", Tracer(measure_alloc=True))):
                self.walls.clear()
                if tracer is not None:
                    tracer.install()
                try:
                    ops(tracer)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                op_walls = [w for walls in self.walls.values() for _, w in walls]
                passes[name] = (tracer, sum(op_walls))
        finally:
            self._executor = self._child
            if receiver is not None:
                os.sched_setaffinity(0, set(cpus))
                receiver.stop()
        if ship:
            self.recv_cpu_s = receiver.cpu_s - cpu_at_ready
        trace_path = DATA / "trace" / f"{self.workload}-seed{self.seed}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.unlink(missing_ok=True)
        for pass_name in ("spans", "alloc"):
            passes[pass_name][0].write(trace_path, pass_name)
        return self.per_layer(passes)

    def per_layer(self, passes) -> dict:
        spans_tracer, traced_s = passes["spans"]
        alloc_tracer = passes["alloc"][0]
        plain_s = passes["plain"][1]
        self_of = spans_tracer.self_times()
        self._check_self_times(spans_tracer, self_of)

        def spans(tracer, name, tag):
            return [sp for sp in tracer.spans
                    if sp.name == name and (tag is None or sp.tag == tag)]

        values = {}
        for metric in PER_LAYER:
            parts = metric.split(".")
            stat = parts[-1]
            name = ".".join(parts[:2])
            tag = parts[2] if len(parts) == 4 else None
            timed = spans(spans_tracer, name, tag)
            if stat == "self_s":
                value = sum(self_of[sp.id] for sp in timed) / len(timed) if timed else 0.0
            elif stat == "mib_s":
                busy = sum(sp.end - sp.start for sp in timed)
                value = sum(sp.bytes_in for sp in timed) / MIB / busy if busy else 0.0
            elif stat == "hidden_bits":
                value = sum(sp.hidden_bits for sp in timed) / len(timed) if timed else 0
            elif stat == "alloc_peak_x":
                ratios = [sp.peak_bytes / sp.bytes_in
                          for sp in spans(alloc_tracer, name, tag) if sp.bytes_in]
                value = max(ratios, default=0.0)
            elif metric.startswith("transfer.send_file."):
                value = self.acks[stat]
            elif metric == "transfer.recv.cpu_s_per_mib":
                mib = self.received_bytes / MIB
                value = self.recv_cpu_s / mib if mib else 0.0
            elif metric == "cli.startup_s":
                value = statistics.median(self.runner.import_seconds()
                                          for _ in range(self.sizes.setup_reps))
            elif metric == "trace_overhead_ratio":
                value = traced_s / plain_s
            else:
                raise KeyError(metric)
            values[metric] = value
        return values

    def _check_self_times(self, tracer: Tracer, self_of: dict[int, float]):
        """Self times under each operation must add up to its traced time."""
        owner = tracer.root_of()
        total: dict[int, float] = defaultdict(float)
        for span in tracer.spans:
            total[owner[span.id]] += self_of[span.id]
        for root in tracer.roots():
            duration = root.end - root.start
            if abs(total[root.id] - duration) > 1e-6 * max(1.0, duration):
                self.record(f"trace: self times of {root.name} sum to {total[root.id]:.6f} s, "
                            f"span is {duration:.6f} s")

    # -- end-to-end results -----------------------------------------------------

    def end_to_end(self) -> dict:
        walls, rss = self.walls, self.rss
        values = {"setup_s": statistics.median(self.setup_s)}
        for op in ("embed", "extract", "delete", "compare"):
            # the median of each layout, averaged: a median over the mix would
            # flip between the layouts' clusters from run to run
            by_layout = defaultdict(list)
            for layout, wall in walls[op]:
                by_layout[layout].append(wall)
            values[f"{op}_s"] = statistics.fmean(statistics.median(w) for w in by_layout.values())
            values[f"{op}_peak_rss_mib"] = rss[op]
        # per block of 100 sends, so that one burst of host noise moves one
        # block's figures and not the run's
        blocks_ms = [[1000.0 * t for t in block] for block in self.small_s]
        values["ship_small_p50_ms"] = statistics.median(
            statistics.median(block) for block in blocks_ms)
        values["ship_small_p90_ms"] = statistics.median(
            statistics.quantiles(block, n=10)[8] for block in blocks_ms)
        values["ship_goodput_mib_s"] = self.large_bytes / MIB / sum(self.large_s)
        values["recv_peak_rss_mib"] = self.recv_rss_mib
        return values

    def info(self, trace: int) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": trace,
            "sizes": asdict(self.sizes),
            "environment": inputs.environment(DATA),
            "package_file": self.pkg.__file__,
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_op_ratio": self.failed / self.attempted if self.attempted else 0.0,
            "samples": {**{op: len(w) for op, w in self.walls.items()},
                        "setup": len(self.setup_s),
                        "ship_small": sum(len(block) for block in self.small_s),
                        "ship_large": len(self.large_s)},
            "acks": self.acks,
            "problems": self.problems[:20],
        }


def _import_package():
    """Import stegostream from this checkout's src/, never an installed copy."""
    if not (SRC / "stegostream" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no stegostream package under {SRC}")
    sys.path.insert(0, str(SRC))
    import stegostream
    from stegostream import cipher, cli, container, errors, quality, stego, transfer  # noqa: F401

    if not Path(stegostream.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported stegostream from {stegostream.__file__}")
    return stegostream


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    parser.add_argument("--inject-fault", action="store_true",
                        help="make one operation fail on purpose")
    args = parser.parse_args(argv)

    bench = Bench(args.workload, args.seed, args.seconds, SMOKE if args.smoke else Sizes(),
                  args.inject_fault)
    child_file = Path(bench.runner.package_file()).resolve()
    if not child_file.is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: children import stegostream from {child_file}")

    if args.trace:
        values = bench.run_traced()
        units = PER_LAYER
    else:
        if args.workload == "ship":
            bench.run_ship()
        else:
            bench.run_hide()
        values = bench.end_to_end()
        units = END_TO_END
    shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps({"info": bench.info(args.trace)}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
