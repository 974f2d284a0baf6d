"""In-memory span recorder for the traced benchmark run.

Each public hipllm function of interest is wrapped at the place its caller
looks it up (for example `hipllm.inference.beta_cdf`, the name
`subdomain_marginal_cdf` resolves at call time), so the program itself is
not edited.  A span records its name, start, end, parent span, thread and
run id.  Spans stay in memory until `write` dumps them as JSON lines.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.  Spans that start on a pool worker thread with no
open span of their own take as parent the innermost span open on the main
thread, which is the call that owns the pool.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

# (module where the caller looks the name up, attribute).  One function can
# have several lookup places; every call goes through exactly one of them.
WRAP_POINTS = (
    ("hipllm.cli", "main"),
    ("hipllm.cli", "parse_config"),
    ("hipllm.cli", "infer"),
    ("hipllm.cli", "emit_csv"),
    ("hipllm.cli", "emit_json"),
    ("hipllm.cli", "emit_svg"),
    ("hipllm.config", "parse_config"),
    ("hipllm.config", "validate"),
    ("hipllm.inference", "validate"),
    ("hipllm.inference", "generate_configs"),
    ("hipllm.inference", "log_marginal_likelihood_grid"),
    ("hipllm.inference", "hyper_posterior"),
    ("hipllm.inference", "subdomain_marginal_cdf"),
    ("hipllm.inference", "beta_cdf"),
    ("hipllm.inference", "sample_domain"),
    ("hipllm.inference", "sample_categorical"),
    ("hipllm.inference", "empirical_cdf"),
    ("hipllm.inference", "generate_pairings"),
    ("hipllm.inference", "sample_system"),
    ("hipllm.inference", "envelope"),
    ("hipllm.inference", "expected_reliability"),
    ("hipllm.inference", "system_sample_arrays"),
    ("hipllm.harness", "run_rq5"),
    ("hipllm.harness", "system_sample_arrays"),
    ("hipllm.harness", "bb_system_samples"),
)


def _bytes_of_paths(result) -> int:
    paths = result.values() if isinstance(result, dict) else [result]
    return sum(Path(p).stat().st_size for p in paths)


# Operation counts taken at the layer boundary, keyed by layer name:
# (count name, function of (args, kwargs, result)).
COUNTERS = {
    "numerics.beta_cdf": ("evals", lambda a, k, r: np.size(r)),
    "inference.subdomain_marginal_cdf": ("grid_evals", lambda a, k, r: a[2].mu.size * np.size(a[3])),
    "hyperposterior.hyper_posterior": ("cells", lambda a, k, r: r.weights.size),
    "inference.sample_domain": ("draws", lambda a, k, r: r.theta.size),
    "numerics.sample_categorical": ("draws", lambda a, k, r: np.size(r)),
    "inference.expected_reliability": ("elems", lambda a, k, r: np.size(a[0])),
    "inference.generate_pairings": ("pairings", lambda a, k, r: len(r)),
    "report.emit_csv": ("bytes", lambda a, k, r: _bytes_of_paths(r)),
    "report.emit_json": ("bytes", lambda a, k, r: _bytes_of_paths(r)),
    "report.emit_svg": ("bytes", lambda a, k, r: _bytes_of_paths(r)),
    "inference.infer": ("live_array_bytes", lambda a, k, r: r.live_array_bytes),
}


def layer_name(fn) -> str:
    """`<module>.<function>` with the `hipllm.` package prefix dropped."""
    module = fn.__module__.rsplit(".", 1)[-1]
    return f"{module}.{fn.__qualname__}"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    run: str


class Tracer:
    """Records spans of one traced pass.  Create it on the main thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.wrapped: set[str] = set()
        self.missing: list[str] = []
        self.unavailable: set[str] = set()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[int, list[int], Optional[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, stack, parent

    def _close(self, sid, stack, parent, name, start, end) -> None:
        stack.pop()
        self.spans.append(
            Span(sid, name, start, end, parent, threading.get_ident(), self.run_id)
        )

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around benchmark-side work."""
        state = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(*state, name, start, time.perf_counter())

    def _wrap(self, fn):
        name = layer_name(fn)
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(*state, name, start, time.perf_counter())
            if counter is not None:
                key, count = counter
                try:
                    n = int(count(args, kwargs, result))
                except (AttributeError, IndexError, TypeError, OSError):
                    # The layer's signature changed: report the count absent.
                    tracer.unavailable.add(f"{name}.{key}")
                else:
                    with tracer._lock:
                        tracer.counts[f"{name}.{key}"] += n
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr in WRAP_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None or not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            self.wrapped.add(layer_name(fn))
            setattr(module, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = (s.end - s.start) - covered
        return out

    def layers(self) -> dict[str, dict[str, float]]:
        """Per layer name: calls, total_s and self_s, plus its counts."""
        selfs = self.self_times()
        table: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.wrapped
        }
        for s in self.spans:
            row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += selfs[s.id]
        for key, n in self.counts.items():
            layer, count = key.rsplit(".", 1)
            table.setdefault(layer, {})[count] = n
        for key in self.unavailable:
            layer, count = key.rsplit(".", 1)
            table.setdefault(layer, {})[count] = None
        return table

    def pool_utilization(self, workers: int) -> Optional[float]:
        """Busy time of pool worker threads over (workers x the wall time of
        the calls that own the pools); None when no pool ran."""
        main = threading.main_thread().ident
        on_main = {s.id: s for s in self.spans if s.thread == main}
        pooled = [s for s in self.spans if s.thread != main and s.parent in on_main]
        if not pooled:
            return None
        busy = sum(s.end - s.start for s in pooled)
        wall = sum(on_main[o].end - on_main[o].start for o in {s.parent for s in pooled})
        return busy / (workers * wall)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
