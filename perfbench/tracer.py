"""Span recorder installed around effport's public functions from outside.

:class:`Tracer` wraps every public function of the traced modules and puts
each wrapper at every name that refers to the function, so a function
imported by name into another module (``symmetric_inverse`` in ``marketdata``
and ``effsize``, ``build_joint`` in ``kelly``) is timed where the caller looks
it up. Nothing under ``src/`` changes. Spans stay in memory; the traced run
writes them out once at the end.

A span is ``[name, start_ns, end_ns, parent_index, failed, counts]``. A
layer's self time is its span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import math
import os
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

TRACED_MODULES = ("cli", "marketdata", "corrmat", "effsize", "kelly", "binmodel")

#: Called once per formatted number; a wrapper would cost more than the work
#: it times. Its time stays in the caller's self time.
UNTRACED = {"marketdata.fmt_float"}


def _path_size(obj) -> int:
    return os.path.getsize(obj) if isinstance(obj, (str, os.PathLike)) else 0


#: Work counts recorded at a function's boundary: fn(args, result) -> dict.
COUNTERS = {
    "marketdata.load_prices": lambda a, r: {"rows": r.n_dates, "bytes": _path_size(a[0])},
    "marketdata.write_prices_csv": lambda a, r: {"bytes": _path_size(a[1])},
    "marketdata.subset_curve": lambda a, r: {
        "draws": a[1].draws * len(a[1].sizes),
        "skipped": sum(pt.skipped for pt in r),
    },
    "marketdata.sliding_window_effsize": lambda a, r: {
        "windows": len(r),
        "nan_windows": sum(math.isnan(pt.m_ef) for pt in r),
    },
    "corrmat.correlation_values": lambda a, r: {"bytes_in": np.asarray(a[0]).nbytes},
    "binmodel.build_joint": lambda a, r: {
        "table_bytes": r.outcomes.nbytes + r.log_probabilities.nbytes
    },
}

#: Reported per-layer statistics, per function, with units.
LAYER_STATS = {
    "cli.main": {"self_s": "s"},
    "marketdata.load_prices": {
        "calls": "count", "busy_s": "s", "rows": "count", "bytes": "bytes", "mb_per_s": "MB/s",
    },
    "marketdata.compute_returns": {"busy_s": "s"},
    "marketdata.write_prices_csv": {"busy_s": "s", "bytes": "bytes"},
    "marketdata.subset_curve": {
        "self_s": "s", "draws": "count", "skipped": "count", "evaluated_ratio": "ratio",
    },
    "marketdata.sliding_window_effsize": {
        "self_s": "s", "windows": "count", "nan_windows": "count",
    },
    "corrmat.correlation_values": {"calls": "count", "busy_s": "s", "bytes_in": "bytes"},
    "corrmat.symmetric_inverse": {
        "calls": "count", "busy_s": "s", "p50_us": "us", "p99_us": "us", "refused": "count",
    },
    "corrmat.estimate_matrix": {"self_s": "s"},
    "effsize.m_ef_sector": {"calls": "count", "self_s": "s"},
    "effsize.reduce_to_sectors": {"busy_s": "s"},
    "effsize.m_ef_even": {"calls": "count", "busy_s": "s"},
    "effsize.effsize_report": {"self_s": "s"},
    "effsize.m_ef_variance_ratio": {"busy_s": "s"},
    "kelly.maximize_growth_symmetric": {"calls": "count", "self_s": "s"},
    "kelly.uncorrelated_total_curve": {"busy_s": "s"},
    "kelly.invert_total_curve": {"calls": "count"},
    "kelly.growth_rate": {"calls": "count", "busy_s": "s"},
    "kelly.misestimation_experiment": {"self_s": "s"},
    "binmodel.build_joint": {"calls": "count", "busy_s": "s", "table_bytes": "bytes"},
}

TIME_UNITS = {"s", "us", "MB/s"}


def layer_metrics() -> dict[str, str]:
    """Every per-function metric name with its unit, ``cli.import_s`` first."""
    out = {"cli.import_s": "s"}
    for fn, stats in LAYER_STATS.items():
        out.update({f"{fn}.{stat}": unit for stat, unit in stats.items()})
    return out


class Tracer:
    """Records nested spans around wrapped functions while :meth:`active`."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[types.ModuleType, str, object, object]] = []

    def _open(self, name: str) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, False, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span: list, failed: bool) -> None:
        span[2] = time.perf_counter_ns()
        span[4] = failed
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        except BaseException:
            self._close(span, True)
            raise
        self._close(span, False)

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, True)
                raise
            self._close(span, False)
            if count is not None:
                span[5] = count(args, result)
            return result

        return wrapper

    def install(self, package: types.ModuleType) -> dict[str, list[str]]:
        """Prepare wrappers for the public functions of the traced modules.

        Returns, per function, every ``module.attr`` site that will hold its
        wrapper. :meth:`active` puts them in place.
        """
        modules = {short: getattr(package, short) for short in TRACED_MODULES}
        wrappers: dict[int, tuple[object, str]] = {}
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    wrappers[id(value)] = (self.wrap(name, value), name)
        sites: dict[str, list[str]] = {}
        for short, mod in {"effport": package, **modules}.items():
            for attr, value in vars(mod).items():
                found = wrappers.get(id(value)) if isinstance(value, types.FunctionType) else None
                if found is not None:
                    self._patches.append((mod, attr, value, found[0]))
                    sites.setdefault(found[1], []).append(f"{short}.{attr}")
        return sites

    @contextmanager
    def active(self, name: str):
        """Put the wrappers in place and record one root span around the block."""
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            with self.span(name):
                yield
        finally:
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)


def summarize(spans: list[list], first: int, last: int) -> dict[str, float]:
    """Per-layer metrics over ``spans[first:last]`` (one pass)."""
    child_ns: dict[int, int] = defaultdict(int)
    for span in spans[first:last]:
        child_ns[span[3]] += span[2] - span[1]
    durations: dict[str, list[int]] = defaultdict(list)
    self_ns: dict[str, int] = defaultdict(int)
    failed: Counter = Counter()
    counts: dict[str, Counter] = defaultdict(Counter)
    for i in range(first, last):
        name, start, end, _, fail, extra = spans[i]
        durations[name].append(end - start)
        self_ns[name] += end - start - child_ns[i]
        failed[name] += fail
        counts[name].update(extra or {})

    out: dict[str, float] = {}
    for fn, stats in LAYER_STATS.items():
        d, c = durations[fn], counts[fn]
        busy_s = sum(d) / 1e9
        values = {
            "calls": len(d),
            "busy_s": busy_s,
            "self_s": self_ns[fn] / 1e9,
            "refused": failed[fn],
            "p50_us": float(np.percentile(d, 50)) / 1e3 if d else 0.0,
            "p99_us": float(np.percentile(d, 99)) / 1e3 if d else 0.0,
            "mb_per_s": c["bytes"] / busy_s / 1e6 if busy_s else 0.0,
            "evaluated_ratio": (c["draws"] - c["skipped"]) / c["draws"] if c["draws"] else 0.0,
            **c,
        }
        for stat in stats:
            out[f"{fn}.{stat}"] = values.get(stat, 0)
    return out


def coverage(spans: list[list], first: int, last: int) -> float:
    """Share of one step's root call covered by its direct child spans.

    ``spans[first]`` is the step span and ``spans[first:last]`` its subtree.
    The root call is ``cli.main`` for a CLI step and the step span itself
    otherwise. A wrapper missing at some lookup site shows as lost coverage.
    """
    root = first
    if last > first + 1 and spans[first + 1][0] == "cli.main":
        root = first + 1
    covered = sum(s[2] - s[1] for s in spans[root + 1 : last] if s[3] == root)
    total = spans[root][2] - spans[root][1]
    return covered / total if total else 0.0
