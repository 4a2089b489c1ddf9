"""In-process tracing of the package's public functions, from outside it.

`Tracer.install()` replaces every public function of the six modules with
a wrapper, in every package module that holds a reference to it (so
`from .cipher import seal` in `cli` is covered too), and `uninstall()`
puts the originals back. Nothing under `src/` changes.

Each call becomes a span: id, parent id, name, start, end, bytes in, and
the layout tag the benchmark set for the current operation. Spans stay in
memory and are written out once, at the end of the run. In the
allocation pass the wrapper also records the tracemalloc peak reached
inside the call, above the traced memory at entry; that pass is separate
because tracemalloc slows every allocation and would distort self times.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

PACKAGE = "stegostream"
MODULES = ("container", "cipher", "stego", "quality", "transfer", "cli")


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float = 0.0
    bytes_in: int = 0
    tag: str = ""
    peak_bytes: int = 0
    hidden_bits: int = 0


def _bytes_of(value) -> int:
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, np.ndarray):
        return value.nbytes
    data = getattr(value, "data", None)  # AudioCarrier
    if isinstance(data, bytes):
        return len(data)
    text = getattr(value, "ciphertext", None)  # SealedPayload
    if isinstance(text, bytes):
        return len(text)
    if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
        return os.path.getsize(value)
    if isinstance(value, list):
        return sum(_bytes_of(item) for item in value)
    return 0


def _hidden_bits(name: str, args, result) -> int:
    """Bits written or read in the carrier: 41 metadata bits plus the payload."""
    if name == "stego.embed":
        return 41 + 8 * args[1].declared_size
    if name == "stego.extract":
        return 41 + 8 * len(result[0])
    return 0


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self, measure_alloc: bool = False):
        self.measure_alloc = measure_alloc
        self.spans: list[Span] = []
        self.tag = ""
        self._stack: list[Span] = []
        self._running_peak: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        holders = [importlib.import_module(PACKAGE), *modules.values()]
        for short, module in modules.items():
            for attr, func in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(func):
                    continue
                if func.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", func)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is func:
                            self._patches.append((holder, name, func))
                            setattr(holder, name, wrapper)
        if self.measure_alloc:
            tracemalloc.start()

    def uninstall(self):
        if self.measure_alloc:
            tracemalloc.stop()
        for holder, name, func in reversed(self._patches):
            setattr(holder, name, func)
        self._patches.clear()

    def _wrap(self, name: str, func):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._enter(name, args, kwargs)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer._exit(span, args, result)

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        return traced

    # -- span bookkeeping -----------------------------------------------------

    def _enter(self, name, args, kwargs) -> Span:
        parent = self._stack[-1].id if self._stack else 0
        bytes_in = sum(_bytes_of(a) for a in args) + sum(_bytes_of(v) for v in kwargs.values())
        span = Span(len(self.spans) + 1, parent, name, 0.0, bytes_in=bytes_in, tag=self.tag)
        self.spans.append(span)
        if self.measure_alloc:
            current, peak = tracemalloc.get_traced_memory()
            if self._running_peak:
                self._running_peak[-1] = max(self._running_peak[-1], peak)
            tracemalloc.reset_peak()
            span.peak_bytes = -current  # becomes peak minus entry level on exit
            self._running_peak.append(current)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span, args, result):
        span.end = time.perf_counter()
        self._stack.pop()
        if result is not None:
            span.hidden_bits = _hidden_bits(span.name, args, result)
        if self.measure_alloc:
            peak = max(self._running_peak.pop(), tracemalloc.get_traced_memory()[1])
            span.peak_bytes += peak
            tracemalloc.reset_peak()
            if self._running_peak:
                self._running_peak[-1] = max(self._running_peak[-1], peak)

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            child_time[span.parent] += span.end - span.start
        return {s.id: (s.end - s.start) - child_time[s.id] for s in self.spans}

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent == 0]

    def root_of(self) -> dict[int, int]:
        """Span id -> id of the root span (the operation) it belongs to."""
        owner: dict[int, int] = {}
        for span in self.spans:  # parents are recorded before their children
            owner[span.id] = owner[span.parent] if span.parent else span.id
        return owner

    def write(self, path, pass_name: str):
        """Append this pass's spans to a JSON-lines file."""
        with open(path, "a", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({"pass": pass_name, "id": s.id, "parent": s.parent,
                                      "name": s.name, "tag": s.tag, "start": s.start,
                                      "end": s.end, "bytes_in": s.bytes_in,
                                      "peak_bytes": s.peak_bytes}) + "\n")
