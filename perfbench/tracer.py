"""In-memory spans around storeplan's public functions, installed from outside.

The tracer replaces each traced function with a wrapper, in every storeplan
module that holds a reference to it (`from .rng import stream` copies the name
into the importing module), and each traced method on its class. A wrapper
records one span per call: name, start, end, self time and the span that
called it. Hooks add counts measured at the same boundary, such as the outage
hours a trace contains. Spans stay in flat arrays until `summary` reduces
them and `dump` writes them out, so the program itself carries no tracing code.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.counts: Counter = Counter()
        self.current_pass = 0
        self._stack: list[list] = []  # [span index, time covered by children]
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> list:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.pass_id.append(self.current_pass)
        self.start.append(0.0)
        self.end.append(0.0)
        self.self_s.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        idx, children = frame
        dur = t1 - t0
        self.start[idx] = t0
        self.end[idx] = t1
        self.self_s[idx] = dur - children
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        frame = self._open(self._id(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, t0, time.perf_counter())

    def wrap(self, name: str, fn, hook=None):
        """`fn` recording a span per call; `hook(counts, args, result)` after."""
        nid = self._id(name)
        open_, close, clock, counts = self._open, self._close, time.perf_counter, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = open_(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, t0, clock())
            if hook is not None:
                hook(counts, args, result)
            return result
        return traced

    def install(self, targets) -> None:
        """Wrap each (owner, attribute, span name, hook) target.

        An owner that is a module has the function replaced in every loaded
        storeplan module that refers to it; a class has its method replaced.
        """
        modules = [m for n, m in sys.modules.items()
                   if n == "storeplan" or n.startswith("storeplan.")]
        for owner, attr, name, hook in targets:
            original = vars(owner)[attr]
            traced = self.wrap(name, original, hook)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, traced)

    def uninstall(self) -> None:
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, p50/p99 per call in µs."""
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        self_s = np.frombuffer(self.self_s, dtype=np.float64)
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            if not mask.any():
                continue
            d = dur[mask]
            out[name] = {"calls": int(mask.sum()), "total_s": float(d.sum()),
                         "self_s": float(self_s[mask].sum()),
                         "p50_us": float(np.percentile(d, 50)) * 1e6,
                         "p99_us": float(np.percentile(d, 99)) * 1e6}
        return out

    def dump(self, directory: Path) -> None:
        """Write the spans (spans.npz) and their reduction (trace.json)."""
        directory.mkdir(parents=True, exist_ok=True)
        np.savez(directory / "spans.npz",
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 pass_id=np.frombuffer(self.pass_id, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 self_s=np.frombuffer(self.self_s, dtype=np.float64))
        doc = {"names": self.names, "counts": dict(self.counts),
               "spans": self.summary()}
        (directory / "trace.json").write_text(json.dumps(doc, indent=2) + "\n")
