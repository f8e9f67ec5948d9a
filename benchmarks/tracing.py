"""
Span tracing installed from outside the library.

``Tracer.install`` replaces every public function of the klrim modules with
a wrapper, in every klrim module namespace that refers to it, so calls
between modules are traced too.  Each call becomes a span (name, start,
end, parent span, item id); a generator function gets one span per value
the consumer pulls, so its time is charged to whoever pulls.  Self time is
a span's duration minus the time of its child spans, accumulated while
running; spans are kept in memory and written out by ``write_spans``.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter_ns
from types import ModuleType
from typing import Callable, Iterable

LAYERS = ("compositions", "permutations", "diagrams", "paths", "rims", "cli")

# spans beyond this many are counted and timed but not stored
SPAN_CAP = 3_000_000


class Tracer:
    def __init__(self, watch: Iterable[tuple[str, str]] = (), keep_results: Iterable[str] = ()):
        """
        ``watch`` lists (callee, ancestor) pairs whose calls made under the
        ancestor are counted as ``callee@ancestor``; ``keep_results`` names
        functions whose (args, result) pairs are kept for derived counts.
        """
        self.calls: Counter[str] = Counter()
        self.yielded: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.nested: Counter[str] = Counter()
        self.kept: dict[str, list] = {name: [] for name in keep_results}
        self._watch: dict[str, list[str]] = {}
        for callee, ancestor in watch:
            self._watch.setdefault(callee, []).append(ancestor)
        self._active: Counter[str] = Counter()
        self._stack: list[list] = []  # [span id, child ns, start ns]
        self._names: list[str] = []
        self._code: dict[str, int] = {}
        self._span_name = array("l")
        self._span_parent = array("q")
        self._span_item = array("q")
        self._span_start = array("q")
        self._span_end = array("q")
        self._originals: list[tuple[ModuleType, str, Callable]] = []
        self.item = -1
        self.origin_ns = perf_counter_ns()

    # --- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        code = self._code.get(name)
        if code is None:
            code = self._code[name] = len(self._names)
            self._names.append(name)
        self._active[name] += 1
        for ancestor in self._watch.get(name, ()):
            if self._active[ancestor]:
                self.nested[f"{name}@{ancestor}"] += 1
        sid = len(self._span_start)
        start = perf_counter_ns()
        if sid < SPAN_CAP:
            self._span_name.append(code)
            self._span_parent.append(self._stack[-1][0] if self._stack else -1)
            self._span_item.append(self.item)
            self._span_start.append(start)
            self._span_end.append(0)
        else:
            sid = -1
        frame = [sid, 0, start]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self._active[name] -= 1
        duration = end - frame[2]
        self.self_ns[name] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        if frame[0] >= 0:
            self._span_end[frame[0]] = end

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        keep = self.kept.get(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def pulls(*args, **kwargs):
                tracer.calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    frame = tracer._open(name)
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(name, frame)
                    tracer.yielded[name] += 1
                    yield value

            return pulls

        @functools.wraps(fn)
        def call(*args, **kwargs):
            tracer.calls[name] += 1
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, frame)
            if keep is not None:
                keep.append((args, result))
            return result

        return call

    # --- installation ------------------------------------------------------

    def install(self, package: str = "klrim") -> None:
        """Wrap the public functions of every layer, in every klrim namespace."""
        modules = [m for key, m in sys.modules.items()
                   if key == package or key.startswith(package + ".")]
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._originals.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._originals):
            setattr(module, attr, obj)
        self._originals.clear()

    # --- output ------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._span_start)

    def write_spans(self, path) -> None:
        """One tab-separated line per span, times in ns from tracer creation."""
        origin = self.origin_ns
        names = self._names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\titem\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self._span_start)):
                out.write(
                    f"{sid}\t{self._span_parent[sid]}\t{self._span_item[sid]}\t"
                    f"{names[self._span_name[sid]]}\t{self._span_start[sid] - origin}\t"
                    f"{self._span_end[sid] - origin}\n"
                )
