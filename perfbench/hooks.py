"""Span recording, import-site wrappers and the host-speed probe.

Everything the benchmark observes inside the program goes through one
:class:`Recorder`.  It does three jobs:

* **Wrappers.**  :meth:`Recorder.wrap` replaces a public callable at the
  import site its caller uses (``repro.scheduling.builder.greedy_coloring``,
  ``repro.scenarios.runner.repair_tree``, a class attribute such as
  ``Schedule.validate``...) with a wrapper that records a span and,
  optionally, hands the call to an observer that reads counters off the
  arguments or the return value.  :meth:`Recorder.untrace` removes the
  span-only wrappers again, so one process can alternate traced and
  untraced rounds.
* **Spans.**  A span is ``(id, name, start, end, parent)``; spans are
  kept in memory and summarised once the run ends.  A layer's self time
  is its span's duration minus its child spans' durations.
* **Host-speed probes.**  The speed of a shared machine drifts by tens of
  percent within seconds, and CPU time drifts with wall time, so raw
  seconds from two runs are not comparable.  :meth:`Recorder.probe`
  times a fixed reference kernel (benchmark code, never library code)
  next to the work; :meth:`Recorder.normalise` rescales a wall-clock
  interval to the reference host speed ``REF_S`` using the probes that
  bracket it, and excludes probe time from the interval.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Duration of one reference-kernel probe at the nominal host speed
#: (the median on the 2-vCPU Xeon host the bounds were tuned on).
#: Normalised seconds are raw seconds times ``REF_S / probe``.
REF_S = 0.012

_PROBE_MATRIX = np.random.default_rng(20180702).random((40, 40))

#: Time to start a fresh interpreter that imports numpy and a few stdlib
#: packages, at the nominal host speed.  Set-up and worker boot are
#: import-bound, a different mix from the in-process probe, so they are
#: normalised by this reference interpreter instead.
REF_SPAWN_S = 0.17
_SPAWN_CODE = "import numpy, json, argparse, decimal, email.parser; print('ready', flush=True)"


def reference_kernel() -> int:
    """Fixed work mixing the interpreter loop, dict traffic and small
    numpy calls -- the same mix as the library's hot paths."""
    acc: Dict[int, int] = {}
    total = 0
    for i in range(28000):
        key = i & 511
        acc[key] = acc.get(key, 0) + i
        total += i * i
    for _ in range(6):
        total += int(np.linalg.eigvals(_PROBE_MATRIX).real.sum())
    return total


def spawn_until_ready(argv, cwd: str) -> float:
    """Seconds from starting ``argv`` to its first output line ``ready``;
    waits for the process to exit before returning."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=cwd)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} did not start (exit {proc.returncode})")
    return seconds


def reference_spawn(cwd: str) -> float:
    """Seconds to start the reference interpreter (see ``REF_SPAWN_S``)."""
    return spawn_until_ready([sys.executable, "-c", _SPAWN_CODE], cwd)


class Recorder:
    """Spans, counters, probes and the wrappers that feed them."""

    def __init__(self) -> None:
        self.tracing = False
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.probes: List[Tuple[float, float]] = []
        self.counters: Dict[str, float] = {}
        #: Key of the operation (cell, build, epoch) currently running;
        #: observers attribute what they see to it.
        self.current: Optional[str] = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._traced: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def maybe_span(self, name: str) -> Any:
        """A span named ``name`` while tracing, otherwise a no-op context."""
        return _Span(self, name) if self.tracing else contextlib.nullcontext()

    def reset(self) -> None:
        """Forget spans, probes and counters (start of a round)."""
        self.spans = []
        self.probes = []
        self.counters = {}
        self.current = None

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    # ------------------------------------------------------------------
    # host-speed probes
    # ------------------------------------------------------------------
    def probe(self) -> float:
        """Time the reference kernel once; recorded as a span when tracing
        so that layer self times exclude it."""
        with self.maybe_span("bench.probe"):
            start = time.perf_counter()
            reference_kernel()
            end = time.perf_counter()
        self.probes.append((start, end - start))
        return end - start

    def normalise(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` at the reference host speed.

        The interval is cut at every probe inside it; probe time is
        dropped and each piece is scaled by ``REF_S`` over the mean of
        the two probes that bracket it.
        """
        return normalise(self.probes, start, end)

    def host_factor(self) -> float:
        """``REF_S`` over the mean probe of the round (1.0 without probes)."""
        if not self.probes:
            return 1.0
        return REF_S / statistics.fmean(d for _, d in self.probes)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Optional[str],
        observe: Optional[Callable[..., Any]] = None,
        *,
        traced: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name`` is the span name (``None``: no span).  ``observe``, when
        given, is called as ``observe(fn, args, kwargs)`` in place of
        ``fn(*args, **kwargs)`` and must return its result.  Wrappers
        installed with ``traced=True`` are removed by :meth:`untrace`.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if name is None or not recorder.tracing:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(fn, args, kwargs)
            with _Span(recorder, name):
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(fn, args, kwargs)

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        if traced:
            self._traced.append((owner, attr, raw))

    def untrace(self) -> None:
        """Restore every wrapper installed with ``traced=True``."""
        for owner, attr, raw in reversed(self._traced):
            setattr(owner, attr, raw)
        self._traced = []

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        return summarise(self.spans)


class _Span:
    __slots__ = ("recorder", "name", "sid", "parent", "start")

    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> "_Span":
        stack = self.recorder._stack()
        self.parent = stack[-1]
        self.sid = next(self.recorder._ids)
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        end = time.perf_counter()
        self.recorder._stack().pop()
        with self.recorder._lock:
            self.recorder.spans.append(
                (self.sid, self.name, self.start, end, self.parent)
            )


def summarise(spans: List[Tuple[int, str, float, float, int]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s`` (span minus
    children)."""
    child_time: Dict[int, float] = {}
    for _sid, _name, start, end, parent in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: Dict[str, Dict[str, float]] = {}
    for sid, name, start, end, parent in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - child_time.get(sid, 0.0)
    return out


def merge_summaries(parts: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for name, row in part.items():
            slot = out.setdefault(name, dict.fromkeys(row, 0.0))
            for key, value in row.items():
                slot[key] = slot.get(key, 0.0) + value
    return out


def normalise(probes: List[Tuple[float, float]], start: float, end: float) -> float:
    """See :meth:`Recorder.normalise`; ``probes`` is ``[(start, seconds)]``."""
    if not probes:
        return end - start
    ordered = sorted(probes)
    before = [d for t, d in ordered if t + d <= start]
    after = [d for t, d in ordered if t >= end]
    prev = before[-1] if before else None
    nxt = after[0] if after else None
    total = 0.0
    cursor = start
    for t, d in ordered:
        if start <= t < end:
            total += (t - cursor) * REF_S / _mean(prev, d)
            cursor = min(t + d, end)
            prev = d
    total += (end - cursor) * REF_S / _mean(prev, nxt)
    return total


def _mean(a: Optional[float], b: Optional[float]) -> float:
    values = [v for v in (a, b) if v is not None]
    return statistics.fmean(values) if values else REF_S
