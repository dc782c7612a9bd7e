"""In-memory spans around securebeam's layer functions, recorded from outside.

`instrument` re-binds each traced function in every securebeam module that
holds it (its own module, for calls made inside it, and each module that
imported it), so no source file changes. Spans stay in a list until
`dump` writes them out.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator

# (module, function) pairs traced at their layer boundary; each becomes the
# span name "<module>.<function>"
TRACED = (
    ("cli", "main"),
    ("experiments", "spec_from_values"),
    ("experiments", "run_experiment"),
    ("channel", "build_subcarrier_plan"),
    ("channel", "steering_vector"),
    ("beamformers", "synthesize"),
    ("beamformers", "min_tp_beamformer"),
    ("beamformers", "min_rtp_beamformer"),
    ("search", "grid_search_gamma"),
    ("metrics", "secrecy_rate"),
    ("metrics", "sinr_surface"),
    ("metrics", "ber_monte_carlo"),
)

# computed work counts, taken from a call's bound arguments or its result at
# the same boundary: span name -> (count name, counting function)
COUNTED: dict[str, tuple[str, Callable[[dict, object], int]]] = {
    "metrics.sinr_surface": ("points", lambda args, result: len(result)),
    "metrics.ber_monte_carlo": ("symbols", lambda args, result: int(args["num_symbols"])),
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    count: int | None = None  # computed work count, for names in COUNTED


class Recorder:
    """Keeps spans in memory, each with the id of the span open when it began."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn: Callable) -> Callable:
        counted = COUNTED.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._open[-1] if self._open else None
            self._open.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
            count = None
            if counted is not None:
                count = counted[1](signature.bind(*args, **kwargs).arguments, result)
            self.spans.append(Span(span_id, name, start, end, parent, count))
            return result

        return traced

    def dump(self, path: Path, header: dict) -> None:
        doc = dict(header, spans=[asdict(s) for s in self.spans])
        path.write_text(json.dumps(doc) + "\n")


@contextlib.contextmanager
def instrument(recorder: Recorder) -> Iterator[None]:
    """Trace every TRACED function while the block runs; restore them after."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "securebeam"]
    restore = []
    try:
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"securebeam.{mod_name}"], fn_name)
            wrapper = recorder.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)
                    restore.append((module, fn_name, original))
        yield
    finally:
        for module, fn_name, original in restore:
            setattr(module, fn_name, original)


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s (duration minus the time its children
    cover) and, for names in COUNTED, the summed count under its count name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (s.end - s.start) - _covered(s.start, s.end, children[s.id])
        if s.count is not None:
            key = COUNTED[s.name][0]
            row[key] = row.get(key, 0) + s.count
    return out
