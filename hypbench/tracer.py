"""Spans around hypflow's public functions, for the traced run.

``Tracer.install`` replaces every public function of each hypflow module by
a wrapper, at every module attribute that holds it, so calls made through
names imported elsewhere (``robustness.classify`` is ``inertia.classify``)
are seen too.  Each item is a root span; every wrapped call inside it is a
child span of the innermost open span, and all spans of an item share its
id.  Self time is a span's duration minus the time its children cover.
Spans are kept in memory and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

import hypflow
from hypflow import cli, densemat, flow, inertia, matching, robustness, spectral

LAYERS = (densemat, spectral, matching, inertia, robustness, flow, cli)
_MODULES = (hypflow,) + LAYERS


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


# Counters read from a call's result, beyond calls and self time.
_EXTRA = {
    "robustness.margin": ("evals", lambda res: res.iterations),
    "robustness.perturb_campaign": ("samples", lambda res: res.samples),
    "spectral.sigma_min_many": ("matrices", len),
}


class Tracer:
    """Records spans while installed; aggregates them per function."""

    def __init__(self):
        self.spans = []          # (item, name, start, end, parent, child time[, counter])
        self._stack = []         # [span index, child time]
        self._item = None
        self._originals = []     # (module, attribute, original function)

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for module in LAYERS:
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(f"{_layer(module)}.{attr}", fn)
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if extra is not None:
                self.spans[index] += (extra[1](result),)
            return result

        return wrapper

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((self._item, name, time.perf_counter(), None, parent))
        index = len(self.spans) - 1
        self._stack.append([index, 0.0])
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        _, child_time = self._stack.pop()
        item, name, start, _, parent = self.spans[index]
        self.spans[index] = (item, name, start, end, parent, child_time)
        if self._stack:
            self._stack[-1][1] += end - start

    def run_item(self, item_id, fn, *args):
        """Run ``fn(*args)`` as the root span of item ``item_id``."""
        self._item = item_id
        index = self._open("item")
        try:
            return fn(*args)
        finally:
            self._close(index)
            self._item = None

    # -- aggregation ------------------------------------------------------

    def aggregate(self, scale) -> dict:
        """Per-function calls, self seconds (each item's spans multiplied by
        ``scale[item]``, its host correction) and extra counters, plus the
        margin retries: margin calls beyond the first within an item."""
        totals = defaultdict(float)
        margin_calls = defaultdict(int)
        for span in self.spans:
            item, name, start, end, _, child_time = span[:6]
            if name == "item":
                continue
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += (end - start - child_time) * scale[item]
            if len(span) > 6:
                totals[f"{name}.{_EXTRA[name][0]}"] += span[6]
            if name == "robustness.margin":
                margin_calls[item] += 1
        totals["robustness.margin.retries"] = sum(
            max(0, n - 1) for n in margin_calls.values())
        return dict(totals)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                item, name, start, end, parent = span[:5]
                fh.write(json.dumps({"id": i, "item": item, "name": name,
                                     "start": start - t0, "end": end - t0,
                                     "parent": parent}) + "\n")
