"""Span tracing of jumat from outside the package.

The tracer replaces public functions and methods with timing wrappers,
patching module attributes where callers look them up: a function is
replaced in every ``jumat`` module that imported it by name, and a method
on its class.  Nothing in the package is edited.

Each call becomes a span with a parent span; a span's self time is its
duration minus the time its child spans cover.  The scalar methods and
``canon`` run hundreds of thousands of times per traced run, so they are
aggregated instead of stored: scalar calls are timed (so their parents'
self time excludes them) and ``canon`` calls are only counted.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
from collections import defaultdict

FUNCTION_LAYERS = ("linalg", "group", "factor", "io")
METHODS = {
    "scalars": {
        "GaussianRational": (
            "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__eq__",
            "conjugate", "abs2",
        ),
    },
    "poly": {
        "MatrixPolynomial": (
            "__init__", "__mul__", "__add__", "__sub__", "__call__", "__eq__",
            "scale", "star", "metric_left", "metric_right", "coefficient",
            "coefficients", "leading",
        ),
        "ScalarPoly": ("__add__", "__sub__", "__mul__", "scale", "star", "__call__"),
        "VectorPoly": ("__add__", "scale", "hermitian_product"),
    },
    "factor": {
        "FactorizationResult": ("matrix",),
        "ConstantJUnitary": ("__init__",),
    },
}
AGGREGATED_LAYERS = ("scalars",)


class Tracer:
    """Holds the spans of one traced phase and the patches that feed it."""

    def __init__(self):
        self.spans = []  # (span id, parent id, name, start, end, self seconds)
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.counts = defaultdict(int)
        self._stack = []  # open frames: [child seconds, span id]
        self._ids = itertools.count(1)
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, record=True, before=None, after=None):
        stack = self._stack
        spans = self.spans
        agg = self.totals[name]
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else None
            if before is not None:
                t = clock()
                before(args)
                if parent is not None:
                    parent[0] += clock() - t
            frame = [0.0, next(ids) if record else parent_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if record:
                    spans.append((frame[1], parent_id, name, start, end,
                                  duration - frame[0]))
            if after is not None:
                t = clock()
                after(result)
                if parent is not None:
                    parent[0] += clock() - t
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    # -- hooks recording sizes -------------------------------------------

    def _matpoly_operands(self, args):
        a, b = args
        if not a or not b:
            return
        counts = self.counts
        counts["core.matpoly_mul.term_products"] += (
            len(a) * len(b) * len(a[0]) * len(b[0]) * len(b[0][0])
        )
        bits = max(
            max(p.bit_length(), q.bit_length(), r.bit_length())
            for poly in (a, b)
            for mat in poly
            for row in mat
            for (p, q, r) in row
        )
        if bits > counts["core.matpoly_mul.max_bits"]:
            counts["core.matpoly_mul.max_bits"] = bits

    def _parse_bytes(self, args):
        data = args[0]
        if isinstance(data, (str, bytes)):
            self.counts["io.parse.bytes"] += len(data)

    def _dump_bytes(self, text):
        self.counts["io.dump.bytes"] += len(text)

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "jumat" or n.startswith("jumat.")]

        def replace_everywhere(fn, wrapped):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapped)

        core = sys.modules["jumat._core"]
        replace_everywhere(core.matpoly_mul, self._wrap(
            "core.matpoly_mul", core.matpoly_mul, before=self._matpoly_operands))
        canon = core.canon
        replace_everywhere(canon, self._counted("core.canon", canon))

        hooks = {
            "io.parse_document": dict(before=self._parse_bytes),
            "io.dumps": dict(after=self._dump_bytes),
        }
        for layer in FUNCTION_LAYERS:
            module = sys.modules[f"jumat.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                replace_everywhere(fn, self._wrap(name, fn, **hooks.get(name, {})))

        for layer, classes in METHODS.items():
            module = sys.modules[f"jumat.{layer}"]
            for cls_name, methods in classes.items():
                cls = getattr(module, cls_name)
                for method in methods:
                    fn = vars(cls)[method]
                    self._set(cls, method, self._wrap(
                        f"{layer}.{cls_name}.{method}", fn,
                        record=layer not in AGGREGATED_LAYERS))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- queries ----------------------------------------------------------

    def calls(self, prefix):
        return sum(v[0] for k, v in self.totals.items() if k.startswith(prefix))

    def self_s(self, prefix):
        return sum(v[2] for k, v in self.totals.items() if k.startswith(prefix))

    def total_s(self, name):
        return self.totals[name][1] if name in self.totals else 0.0

    def child_total_s(self, names, parent_name):
        """Inclusive seconds of spans named in ``names`` whose parent is a
        ``parent_name`` span."""
        parents = {s[0] for s in self.spans if s[2] == parent_name}
        return sum(s[4] - s[3] for s in self.spans
                   if s[2] in names and s[1] in parents)
