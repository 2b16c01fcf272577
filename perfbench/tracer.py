"""In-memory span tracer that times calls into the gfcpc package from outside it.

The package is not instrumented. Instead, :meth:`Tracer.install` replaces a
public function by a timing wrapper under *every* module-level name that is
bound to it: ``min_length_dcode``, for example, is bound separately in
``gfcpc.solver``, ``gfcpc.codec``, ``gfcpc.bounds``, ``gfcpc.cli`` and the
package root, and a call through any of them must be seen. Spans hold a
name, start, end and parent index; self time is derived when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# A hook sees (args, kwargs, result) of a traced call and returns a small
# dict of counts that is stored on the span.
Hook = Callable[[tuple, dict, Any], dict]


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, counts dict or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn: Callable, hook: Hook | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                self.spans[idx][4] = hook(args, kwargs, result)
            return result

        return traced

    def install(self, targets: list[tuple[str, str, str, Hook | None]]) -> None:
        """Wrap each (defining module, function, span name, hook) at every binding.

        Every loaded ``gfcpc`` module is searched for names bound to the
        original function object, so the package's internal calls go through
        the wrapper as well as the benchmark's own.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gfcpc" or n.startswith("gfcpc."))]
        for mod_name, fn_name, span_name, hook in targets:
            original = getattr(importlib.import_module(mod_name), fn_name)
            wrapper = self._wrap(span_name, original, hook)
            bound = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{mod_name}.{fn_name} is bound nowhere")

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def write_jsonl(self, path) -> None:
        selfs = self.self_times()
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                rec = {"id": i, "name": name, "parent": parent,
                       "start_s": round(start - t0, 9), "end_s": round(end - t0, 9),
                       "self_s": round(selfs[i], 9)}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec) + "\n")
