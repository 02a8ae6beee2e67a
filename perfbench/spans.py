"""In-memory span tracer that wraps acckit's public functions from outside.

Each wrapped call records a span: id, parent id, request id, name, start,
end and the counts read off its arguments or result.  Spans stay in memory
until the run ends; `Tracer.dump` writes them out.  Wrapping happens only
while a `Tracer.installed()` block is open, so an untraced pass runs the
library unmodified.

acckit binds many names with ``from .families import ...``, so a function
is looked up through several module attributes.  `installed` replaces every
attribute of every loaded ``acckit`` module that *is* the original object,
then restores each one on exit.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    request: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _units(result, args, kwargs) -> dict:
    return {"units": result.checked}


def _trials(result, args, kwargs) -> dict:
    return {"trials": result.trials}


def _trace_counts(result, args, kwargs) -> dict:
    return {"candidates": len(result.candidates),
            "users": len(result.users or ())}


def _bytes_written(result, args, kwargs) -> dict:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (module, attribute, counter).  A class is traced through its __init__.
TARGETS = [
    ("acckit.gf", "GF", None),
    ("acckit.arrays", "build_U", None),
    ("acckit.arrays", "build_W", None),
    ("acckit.arrays", "min_distance", None),
    ("acckit.cwcodes", "greedy_lexicode", None),
    ("acckit.cwcodes", "import_code", None),
    ("acckit.families", "is_k_udf", _units),
    ("acckit.families", "is_k_cff", _units),
    ("acckit.families", "is_k_ud_code", _units),
    ("acckit.families", "sample_udf", _trials),
    ("acckit.families", "sample_cff", _trials),
    ("acckit.accs", "build_h0", None),
    ("acckit.accs", "acc_to_family", None),
    ("acckit.accs", "build_theorem1_acc", None),
    ("acckit.accs", "build_theorem2_acc", None),
    ("acckit.accs", "save_acc", _bytes_written),
    ("acckit.accs", "save_certificate", _bytes_written),
    ("acckit.collusion", "and_attack", None),
    ("acckit.collusion", "trace", _trace_counts),
    ("acckit.presets", "run_preset", None),
    ("acckit.cli", "main", None),
]


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('acckit.')}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._request: int | None = None
        self._next_request = 0

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._request, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def request(self, name: str):
        """Root span of one benchmark operation; library spans opened
        inside it share its request id."""
        self._request = self._next_request
        self._next_request += 1
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            self._request = None

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                span.counts = counter(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        patches = []  # (owner, attribute, original)
        try:
            for module, attr, counter in TARGETS:
                original = getattr(sys.modules[module], attr)
                name = span_name(module, attr)
                if isinstance(original, type):
                    init = original.__init__
                    patches.append((original, "__init__", init))
                    setattr(original, "__init__", self.wrap(name, init, counter))
                    continue
                wrapper = self.wrap(name, original, counter)
                for mod_name, mod in list(sys.modules.items()):
                    if not (mod_name == "acckit" or mod_name.startswith("acckit.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it covered by children."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children[s.id], key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = s.duration - covered
        return out

    def totals(self) -> dict[str, dict]:
        """Per span name: inclusive seconds (outermost calls only, so a
        recursive call is not counted twice), self seconds, call count and
        summed counts."""
        by_id = {s.id: s for s in self.spans}
        selfs = self.self_times()
        agg: dict[str, dict] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0,
                     "counts": defaultdict(int)})
        for s in self.spans:
            a = agg[s.name]
            a["calls"] += 1
            a["self_s"] += selfs[s.id]
            for k, v in s.counts.items():
                a["counts"][k] += v
            p, nested = s.parent, False
            while p is not None:
                if by_id[p].name == s.name:
                    nested = True
                    break
                p = by_id[p].parent
            if not nested:
                a["s"] += s.duration
        return agg

    def dump(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": [asdict(s) for s in self.spans]},
                      fh)
            fh.write("\n")
