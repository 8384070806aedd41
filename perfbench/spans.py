"""Spans around roofkit's layer boundaries, installed from outside the package.

Installing a Tracer replaces, in every roofkit module and in the module-level
dicts that dispatch to them, each public function with a wrapper that records
a span for the module that defines it.  The roof module's `np` becomes a view
of numpy whose `einsum` and `linalg.eigh/eigvalsh/svd` are timed and counted,
so kernel spans cover exactly the calls the roof layer makes.  A span's self
time is its duration minus the durations of the spans directly inside it.
Spans stay in memory; `summary` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import inspect
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("roof", "additivity", "channels", "entropy", "core", "serialize", "cli")
LINALG = ("eigh", "eigvalsh", "svd")
KERNELS = LINALG + ("einsum",)
CHECKS = ("superadditivity_margin", "chi_subadditivity_margin", "corollary_bound_check",
          "min_output_margin")


def _batch(shape) -> int:
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


def _linalg_flops(kernel: str, a: np.ndarray) -> float:
    """Textbook operation counts (Golub & Van Loan), times 4 for complex arithmetic."""
    m, n = a.shape[-2], a.shape[-1]
    scale = 4.0 if np.iscomplexobj(a) else 1.0
    if kernel == "eigvalsh":
        per = 4.0 / 3.0 * n**3
    elif kernel == "eigh":
        per = 9.0 * n**3
    else:
        k = min(m, n)
        per = 6.0 * max(m, n) * k**2 + 11.0 * k**3
    return scale * per * _batch(a.shape)


def _einsum_flops(subscripts, operands) -> float:
    """2 flops (8 when complex) per point of the full index space, per contraction."""
    spec = subscripts.split("->")[0].split(",")
    sizes = {}
    for labels, op in zip(spec, operands):
        for label, extent in zip(labels, np.shape(op)):
            sizes[label] = extent
    scale = 8.0 if any(np.iscomplexobj(op) for op in operands) else 2.0
    return scale * math.prod(sizes.values()) * max(len(operands) - 1, 1)


class _View:
    """Attribute access falls through to `base` except for the overrides."""

    def __init__(self, base, overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


class Tracer:
    def __init__(self):
        self.stack = []                     # [layer, child seconds] per open span
        self.depth = Counter()
        self.calls = Counter()
        self.time = defaultdict(float)      # outermost spans of each layer
        self.self_time = defaultdict(float)
        self.names = Counter()
        self.matrices = 0
        self.flops = 0.0
        self.results = []                   # (iterations, converged) of each roof result
        self.check_roof_calls = 0
        self.refined = 0
        self.bytes = 0
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _span(self, layer, fn, args, kwargs):
        frame = [layer, 0.0]
        self.stack.append(frame)
        self.depth[layer] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.stack.pop()
            self.depth[layer] -= 1
            self.calls[layer] += 1
            self.self_time[layer] += elapsed - frame[1]
            if self.depth[layer] == 0:
                self.time[layer] += elapsed
            if self.stack:
                self.stack[-1][1] += elapsed

    def _function(self, layer, fn):
        name = fn.__name__

        def wrapper(*args, **kwargs):
            self.names[f"{layer}.{name}"] += 1
            if name == "ccooe" and self.depth["check"]:
                self.check_roof_calls += 1
            if name in CHECKS:
                self.depth["check"] += 1
            try:
                out = self._span(layer, fn, args, kwargs)
            finally:
                if name in CHECKS:
                    self.depth["check"] -= 1
            if name == "ccooe":
                self.results.append((out.iterations, out.converged))
            elif name in CHECKS and out.refined:
                self.refined += 1
            elif name in ("dumps", "csv_text"):
                self.bytes += len(out.encode("utf-8"))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel(self, kernel, fn):
        cost = {}                           # (shapes, complex) -> (matrices, flops)

        def wrapper(*args, **kwargs):
            ops = args[1:] if kernel == "einsum" else args[:1]
            key = (args[0] if kernel == "einsum" else None,
                   tuple(np.shape(op) for op in ops), any(np.iscomplexobj(op) for op in ops))
            if key not in cost:
                cost[key] = ((0, _einsum_flops(args[0], ops)) if kernel == "einsum"
                             else (_batch(key[1][0]), _linalg_flops(kernel, args[0])))
            matrices, flops = cost[key]
            self.matrices += matrices
            self.flops += flops
            return self._span("kernel." + kernel, fn, args, kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def _set(self, container, key, value):
        if isinstance(container, dict):
            self._patches.append((container, key, container[key]))
            container[key] = value
        else:
            self._patches.append((container, key, getattr(container, key)))
            setattr(container, key, value)

    def install(self, rk) -> None:
        modules = [rk] + [sys.modules[f"roofkit.{layer}"] for layer in LAYERS]
        wrapped = {}
        for layer, source in zip(LAYERS, modules[1:]):
            for name, fn in vars(source).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == source.__name__):
                    wrapped[fn] = self._function(layer, fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(module, key, wrapped[value])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and v in wrapped:
                            self._set(value, k, wrapped[v])
        linalg = _View(np.linalg, {k: self._kernel(k, getattr(np.linalg, k)) for k in LINALG})
        self._set(rk.roof, "np", _View(np, {"linalg": linalg,
                                           "einsum": self._kernel("einsum", np.einsum)}))

    def uninstall(self) -> None:
        for container, key, value in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------------

    def summary(self, rounds: int) -> dict:
        """Per-round counts and seconds; counts are exact when rounds repeat."""

        def per(x):
            return x / rounds

        kcalls = {k: self.calls["kernel." + k] for k in KERNELS}
        checks = sum(self.names["additivity." + c] for c in CHECKS)
        iters = [r[0] for r in self.results]
        out = {
            "roof.calls": (per(self.calls["roof"]), "count"),
            "roof.time_s": (per(self.time["roof"]), "s"),
            "roof.self_s": (per(self.self_time["roof"]), "s"),
        }
        for k in KERNELS:
            out[f"roof.{k}_calls"] = (per(kcalls[k]), "count")
        for k in KERNELS:
            out[f"roof.{k}_s"] = (per(self.time["kernel." + k]), "s")
        out.update({
            "roof.linalg_matrices": (per(self.matrices), "count"),
            "roof.linalg_flops_est": (per(self.flops), "flop"),
            "roof.evals_per_grad": (kcalls["eigvalsh"] / max(kcalls["eigh"], 1), "ratio"),
            "roof.iterations_p50": (statistics.median(iters) if iters else 0.0, "count"),
            "roof.converged_ratio": (
                sum(r[1] for r in self.results) / len(self.results) if self.results else 0.0,
                "ratio",
            ),
            "roof.chi_direct_calls": (per(self.names["roof.chi_direct"]), "count"),
            "roof.min_output_calls": (per(self.names["roof.min_output_entropy"]), "count"),
            "additivity.calls": (per(self.calls["additivity"]), "count"),
            "additivity.checks": (per(checks), "count"),
            "additivity.roof_calls_per_check": (
                self.check_roof_calls / checks if checks else 0.0, "ratio"),
            "additivity.refined_checks": (per(self.refined), "count"),
        })
        for layer in ("channels", "entropy", "core"):
            out[f"{layer}.calls"] = (per(self.calls[layer]), "count")
            out[f"{layer}.time_s"] = (per(self.time[layer]), "s")
        out.update({
            "serialize.calls": (per(self.calls["serialize"]), "count"),
            "serialize.bytes": (per(self.bytes), "bytes"),
            "cli.invocations": (per(self.names["cli.main"]), "count"),
        })
        return out
