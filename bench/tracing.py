"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces public functions of the symns modules with
timing wrappers and restores them afterwards.  Several modules bind
functions at import time (``from .tridiag import solve_tridiagonal``), so
a wrapper is installed under every module-level name that refers to the
original function, not only in the defining module.  Names that ``run``
imports at call time (``record_step``, ``build_initial``) are then found
wrapped in their defining modules.

Spans nest on a stack.  Each completed span adds its duration to its
bucket's total and its duration minus the time covered by its child spans
to the bucket's self time, so the self times of every bucket entered
under one root span add up to that root span's duration.  Buckets are
keyed by phase (setup, run, write) so that a function called in more
than one phase is accounted separately.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# Whole modules whose public functions (``__all__``) are each wrapped into
# one bucket named after the module.
_MODULE_BUCKETS = ("operators", "constitutive")

# Single functions with a bucket of their own, "<module>.<function>".
_FUNCTION_BUCKETS = (
    ("stepper", "run"), ("stepper", "cfl_dt"), ("stepper", "step_continuity"),
    ("stepper", "step_momentum"), ("stepper", "step_temperature"),
    ("diagnostics", "record_step"), ("grid", "weighted_integral"),
    ("config", "parse_config"), ("config", "build_initial"),
    ("initdata", "load_initial_csv"), ("initdata", "solve_initial_velocity"),
    ("io", "write_trajectory"), ("io", "write_snapshot"),
    ("io", "write_diagnostics_csv"),
)

# Buckets of solve_tridiagonal, split by its ``context`` argument.
TRIDIAG_BUCKETS = ("tridiag.momentum", "tridiag.temperature", "tridiag.init",
                   "tridiag.other")


def _tridiag_bucket(context: str) -> str:
    if "momentum" in context:
        return "tridiag.momentum"
    if "temperature" in context:
        return "tridiag.temperature"
    if "initial velocity" in context:
        return "tridiag.init"
    return "tridiag.other"


class Tracer:
    """Span accounting for the symns package; see the module docstring."""

    def __init__(self, package_modules: dict):
        self._modules = package_modules   # short name -> module object
        self._patches = []                # (module, attribute, original)
        self._stack = []                  # open spans: [bucket, child time]
        self.phase = "run"
        self.calls = defaultdict(int)     # (phase, bucket) -> count
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)    # (phase, counter) -> count

    # -- span bookkeeping -------------------------------------------------

    def _span(self, bucket, fn, args, kwargs):
        frame = [(self.phase, bucket), 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            key = frame[0]
            self.calls[key] += 1
            self.total_s[key] += dur
            self.self_s[key] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur

    def _wrap(self, bucket, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(bucket, fn, args, kwargs)
        return wrapper

    def _wrap_solve(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            diag = bound.arguments["diag"]
            bucket = _tridiag_bucket(bound.arguments["context"])
            rows = len(diag)
            self.counts[(self.phase, "tridiag.rows")] += rows
            # four diagonals read, one solution written
            self.counts[(self.phase, "tridiag.bytes")] += \
                5 * rows * getattr(diag, "itemsize", 8)
            return self._span(bucket, fn, args, kwargs)
        return wrapper

    def _wrap_temperature(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self._span("stepper.step_temperature", fn, args, kwargs)
            self.counts[(self.phase, "stepper.picard_sweeps")] += out[2]
            return out
        return wrapper

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(original function, wrapper) pairs for every traced function."""
        mods = self._modules
        out = []
        for short in _MODULE_BUCKETS:
            mod = mods[short]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn):
                    out.append((fn, self._wrap(short, fn)))
        for short, name in _FUNCTION_BUCKETS:
            fn = getattr(mods[short], name)
            if (short, name) == ("stepper", "step_temperature"):
                out.append((fn, self._wrap_temperature(fn)))
            else:
                out.append((fn, self._wrap(f"{short}.{name}", fn)))
        solve = mods["tridiag"].solve_tridiagonal
        out.append((solve, self._wrap_solve(solve)))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for original, wrapper in self._targets():
            for mod in self._modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
