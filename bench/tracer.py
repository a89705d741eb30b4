"""Outside-in tracer: spans around the public functions of a package's modules.

The tracer wraps named functions of a package from the outside and rebinds
every module-level name in the package that refers to an original, so calls
through ``from x import f`` bindings are seen as well. Each call records a
span (name, start, end, parent index) in memory. Self time is derived from
the spans afterwards: a span's duration minus the durations of its direct
children. Calls within one thread are strictly nested, so the direct
children cover disjoint parts of their parent's interval.

Besides spans the tracer counts, per wrapped function, how many distinct
inputs it saw within the current invocation (for waste ratios), the summed
``nbytes`` of the arrays it returned (computed work of rank-4 producers),
and, per module, the exceptions that left the module through a wrapped
function.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter
from typing import Callable

import numpy as np

ROOT_SPAN = "invocation"


def fingerprint(value):
    """Hashable digest of a call argument: arrays by content, dataclasses by fields."""
    if isinstance(value, np.ndarray):
        return (value.shape, value.dtype.str, hash(value.tobytes()))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return tuple(fingerprint(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(fingerprint(v) for v in value)
    return value


def result_nbytes(value) -> int:
    """Summed ``nbytes`` of the arrays a call returned (``QuadCov`` through ``.arr``)."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    arr = getattr(value, "arr", None)
    if isinstance(arr, np.ndarray):
        return arr.nbytes
    if isinstance(value, (tuple, list)):
        return sum(result_nbytes(v) for v in value)
    return 0


class Tracer:
    """Context manager that wraps ``targets`` = {module name: [function names]}.

    Module names are relative to ``package``; a span is named
    ``<module>.<function>``. ``unique`` and ``out_bytes`` name the spans whose
    distinct inputs and returned bytes are counted. ``clock`` lets a test
    substitute a deterministic time source.
    """

    def __init__(self, package: str, targets: dict[str, list[str]], *,
                 unique: frozenset[str] = frozenset(), out_bytes: frozenset[str] = frozenset(),
                 clock: Callable[[], float] = time.perf_counter):
        self.package = package
        self.targets = targets
        self.unique = unique
        self.out_bytes_names = out_bytes
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.raised: Counter[str] = Counter()
        self.distinct: Counter[str] = Counter()
        self.out_bytes: Counter[str] = Counter()
        self._seen: dict[str, set] = {name: set() for name in unique}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def run_invocation(self, fn: Callable, *args):
        """Call ``fn`` under a root span; distinct-input sets restart per invocation."""
        for seen in self._seen.values():
            seen.clear()
        index = self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(index)

    # -- wrapping ------------------------------------------------------------

    def _module_of(self, span_index: int) -> str:
        return self.spans[span_index][0].split(".", 1)[0]

    def _wrap(self, module: str, name: str, original: Callable) -> Callable:
        span_name = f"{module}.{name}"
        count_unique = span_name in self.unique
        count_bytes = span_name in self.out_bytes_names

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if count_unique:
                key = (fingerprint(args), fingerprint(sorted(kwargs.items())))
                seen = self._seen[span_name]
                if key not in seen:
                    seen.add(key)
                    self.distinct[span_name] += 1
            index = self._open(span_name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                parent = self.spans[index][3]
                if parent < 0 or self._module_of(parent) != module:
                    self.raised[module] += 1
                raise
            finally:
                self._close(index)
            if count_bytes:
                self.out_bytes[span_name] += result_nbytes(result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == self.package or key.startswith(self.package + ".")]
        try:
            for module, names in self.targets.items():
                home = sys.modules[f"{self.package}.{module}"]
                for name in names:
                    original = getattr(home, name)
                    wrapper = self._wrap(module, name, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._restore.append((mod, attr, original))
                                setattr(mod, attr, wrapper)
        except BaseException:
            self._unbind()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._unbind()

    def _unbind(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()


def span_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total duration and self time.

    Self time is the span's duration minus the summed durations of its
    direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for (name, start, end, _), children in zip(spans, child_time):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - children
    return stats
