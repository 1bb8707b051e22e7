"""In-memory span tracer that instruments ``mdcrt`` from outside the package.

The package imports functions by name (``from .lattice import reduce_mod``),
so patching the defining module alone would miss most call sites. ``install``
therefore rebinds every reference held by a loaded ``mdcrt.*`` module, and
``uninstall`` puts the originals back. Methods are patched on their class.

A span records (name, start, end, parent, root, ok). Exceptions such as
``Inconsistent`` pass through unchanged and close the span with ``ok = 0``.
Self time is a span's duration minus the durations of its direct children;
the tracer is single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


@dataclass(frozen=True)
class Probe:
    """One instrumentation point.

    ``module`` and ``attr`` locate the object: ``attr`` is a function name
    or ``Class.method``. ``name`` is the metric prefix. A ``span`` probe
    records a span per call; otherwise only calls are counted (used for
    constructors that run tens of thousands of times per sweep).
    ``points`` maps ``(args, result)`` to a count added to ``<name>.points``.
    """

    module: str
    attr: str
    name: str
    span: bool = True
    points: Callable | None = None


class Tracer:
    """Records spans and call counts for the probes it installs.

    ``clock`` is injectable so tests can drive exact timings.
    """

    def __init__(self, probes: Iterable[Probe], clock: Callable[[], float] = time.perf_counter):
        self.probes = tuple(probes)
        self.clock = clock
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_root = array("q")
        self.span_ok = array("b")
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def _traced(self, fn: Callable, probe: Probe) -> Callable:
        name_id = self._name_id(probe.name)
        calls_key = probe.name + ".calls"
        points_key = probe.name + ".points"
        stack = self._stack

        if not probe.span:

            def counted(*args, **kwargs):
                self._count(calls_key)
                return fn(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            self._count(calls_key)
            idx = len(self.span_name)
            parent = stack[-1] if stack else -1
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_root.append(self.span_root[parent] if parent >= 0 else idx)
            self.span_end.append(0.0)
            self.span_ok.append(0)
            stack.append(idx)
            self.span_start.append(self.clock())
            try:
                result = fn(*args, **kwargs)
                self.span_ok[idx] = 1
            finally:
                self.span_end[idx] = self.clock()
                stack.pop()
            if probe.points is not None:
                self._count(points_key, probe.points(args, result))
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every probe; probes naming an attribute that does not exist
        are listed in ``missing`` and report zero calls."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "mdcrt" or n.startswith("mdcrt.")]
        for probe in self.probes:
            self.counts.setdefault(probe.name + ".calls", 0)
            if probe.points is not None:
                self.counts.setdefault(probe.name + ".points", 0)
            home = sys.modules.get(probe.module)
            owner_name, _, method = probe.attr.partition(".")
            owner = getattr(home, owner_name, None) if home is not None else None
            if owner is None or (method and method not in vars(owner)):
                self.missing.append(probe.name)
                continue
            if method:
                original = vars(owner)[method]
                self._restore.append((owner, method, original))
                setattr(owner, method, self._traced(original, probe))
                continue
            wrapper = self._traced(owner, probe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is owner:
                        self._restore.append((mod, attr, owner))
                        setattr(mod, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        own = self_times(self.span_start, self.span_end, self.span_parent)
        out = {name: 0.0 for name in self.names}
        for n, t in zip(self.span_name, own):
            out[self.names[n]] += t
        return out

    def ok_count(self, name: str) -> int:
        n_id = self._name_index.get(name)
        return sum(ok for n, ok in zip(self.span_name, self.span_ok) if n == n_id)

    def write(self, path: str) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\troot\tok\n")
            rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent, self.span_root, self.span_ok)
            for i, (n, s, e, p, r, ok) in enumerate(rows):
                fh.write(f"{i}\t{self.names[n]}\t{s!r}\t{e!r}\t{p}\t{r}\t{ok}\n")


def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own
