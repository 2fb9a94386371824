"""Spans around switchstab's public functions, installed from outside.

:meth:`Tracer.install` replaces each traced function with a wrapper at
every place the package binds it (``linalg.spectrum`` is also bound as
``radius.spectrum``, ``radius.p_radius`` as ``lyapunov.p_radius`` and as
``switchstab.p_radius``), and wraps the methods of the distribution
classes. A name the package no longer has is reported absent and counts
zero; nothing fails. Spans record calls, total time and self time (total
minus the part covered by nested spans), and a few counts computed from
arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "switchstab"
MODULES = ("models", "linalg", "radius", "lyapunov", "mcsim", "cli")

#: traced functions per module; ``Class.method`` entries are wrapped on
#: every class of the module that defines the method itself
FUNCTIONS = {
    "models": ("load_problem", "Class.expected_kron_power", "Class.expected_sandwich",
               "lift_distribution", "compute_cone_flags"),
    "linalg": ("spectrum", "kron_power", "dominant_left_eigenvector"),
    "radius": ("p_radius", "check_mean_stability", "markov_tp", "markov_stability",
               "markov_tp_spectral_radius", "jsr_bounds", "limit_sequence"),
    "lyapunov": ("synthesize_cone_norm", "synthesize_quadratic", "synthesize_degree_p",
                 "validate_certificate"),
    "mcsim": ("sample_matrix", "simulate_iid", "simulate_markov", "check_q_recursion",
              "write_moment_csv", "estimate_decay_rate"),
    "cli": ("main",),
}

#: validate_certificate is reported per mode
SPLIT_BY_MODE = {"lyapunov.validate_certificate": ("exact", "mc")}

#: counts computed at span boundaries, with their units
COUNTERS = {
    "models.lift_entries": "count",
    "models.lift_peak_bytes": "B",
    "linalg.spectrum.n_cubed": "count",
    "linalg.spectrum.max_n": "count",
    "radius.jsr_products": "count",
    "radius.truncations": "count",
    "lyapunov.quad_iters": "count",
    "lyapunov.mc_evals": "count",
    "mcsim.draws": "count",
    "mcsim.path_steps": "count",
    "mcsim.csv_bytes": "B",
    "cli.import_s": "s",
    "cli.stdout_bytes": "B",
}
#: spans whose counts read the call's arguments; binding them costs
#: microseconds, so the hot calls (expected_sandwich) skip it
READS_ARGUMENTS = ("models.lift_distribution", "linalg.spectrum", "radius.jsr_bounds",
                   "lyapunov.validate_certificate", "mcsim.sample_matrix", "mcsim.simulate_iid",
                   "mcsim.simulate_markov", "mcsim.write_moment_csv")
#: counters that keep their maximum; the others add up
PEAKS = ("models.lift_peak_bytes", "linalg.spectrum.max_n")


def span_names() -> list[str]:
    names = []
    for module, funcs in FUNCTIONS.items():
        for func in funcs:
            name = f"{module}.{func.removeprefix('Class.')}"
            if name in SPLIT_BY_MODE:
                names.extend(f"{name}.{mode}" for mode in SPLIT_BY_MODE[name])
            else:
                names.append(name)
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in span_names():
        units.update({f"{name}.calls": "count", f"{name}.total_s": "s", f"{name}.self_s": "s"})
    units.update(COUNTERS)
    units.update({f"{m}.errors": "count" for m in MODULES})
    return units


class _Span:
    __slots__ = ("name", "start", "parent", "foreign", "children", "nested", "overlapping")

    def __init__(self, name, start, parent, foreign):
        self.name, self.start, self.parent = name, start, parent
        self.foreign = foreign  # opened by another thread than its parent's
        self.children: list[tuple[float, float]] = []
        self.nested = 0.0  # total time of the children, exact while they do not overlap
        self.overlapping = False


def _covered(intervals, start, end) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.errors = defaultdict(int)
        self.absent: list[str] = []
        self.enabled = True
        self.query_self = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[_Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._error_type = None

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every traced name wherever the loaded package binds it."""
        importlib.import_module(PACKAGE)
        for module_name in (*MODULES, "errors"):
            try:
                importlib.import_module(f"{PACKAGE}.{module_name}")
            except ModuleNotFoundError:
                pass  # its names are reported absent below
        errors = sys.modules.get(f"{PACKAGE}.errors")
        self._error_type = getattr(errors, "SwitchstabError", None)
        loaded = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, funcs in FUNCTIONS.items():
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            for func in funcs:
                name = f"{module_name}.{func.removeprefix('Class.')}"
                if module is None:
                    self.absent.append(name)
                elif func.startswith("Class."):
                    self._wrap_methods(module, func.removeprefix("Class."), name)
                else:
                    self._wrap_function(module, func, name, loaded)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap_function(self, module, attr, name, loaded) -> None:
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = self._wrapper(original, name)
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _wrap_methods(self, module, attr, name) -> None:
        found = False
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__ and inspect.isfunction(cls.__dict__.get(attr)):
                original = cls.__dict__[attr]
                self._patched.append((cls, attr, original))
                setattr(cls, attr, self._wrapper(original, name))
                found = True
        if not found:
            self.absent.append(name)

    def _wrapper(self, original, name):
        signature = None
        if name in READS_ARGUMENTS:
            try:
                signature = inspect.signature(original)
            except (TypeError, ValueError):
                pass
        modes = SPLIT_BY_MODE.get(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            bound = _bind(signature, args, kwargs)
            span_name = name
            if modes:
                mode = bound.get("mode") if bound else None
                span_name = f"{name}.{mode}" if mode in modes else name
            span = tracer._enter(span_name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(span)
                tracer._count_error(exc, name)
                raise
            tracer._exit(span)
            tracer._count(span, bound, result)
            return result

        return wrapper

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list[_Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name) -> _Span:
        stack = self._stack()
        # spans opened by pool threads belong to the span the main thread has open
        foreign = not stack and stack is not self._main_stack and bool(self._main_stack)
        parent = self._main_stack[-1] if foreign else (stack[-1] if stack else None)
        span = _Span(name, time.perf_counter(), parent, foreign)
        stack.append(span)
        return span

    def _exit(self, span: _Span) -> None:
        end = time.perf_counter()
        self._stack().pop()
        duration = end - span.start
        with self._lock:
            covered = _covered(span.children, span.start, end) if span.overlapping else span.nested
            own = duration - covered
            self.calls[span.name] += 1
            self.total[span.name] += duration
            self.self_time[span.name] += own
            self.query_self += own
            parent = span.parent
            if parent is not None:
                parent.children.append((span.start, end))
                parent.nested += duration
                parent.overlapping |= span.foreign

    def _count_error(self, exc, name) -> None:
        if self._error_type is None or not isinstance(exc, self._error_type):
            return
        if getattr(exc, "_bench_counted", False):
            return
        exc._bench_counted = True
        with self._lock:
            self.errors[name.split(".")[0]] += 1

    def _add(self, key, value) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value) if key in PEAKS else self.counts[key] + value

    def _count(self, span: _Span, bound, result) -> None:
        name = span.name
        try:
            if name in ("models.expected_kron_power", "models.lift_distribution", "radius.markov_tp"):
                nested = span.parent is not None and span.parent.name == name
                unchanged = result is (bound or {}).get("dist")  # lift_distribution at power 1
                lift = getattr(result, "atoms", result) if name == "models.lift_distribution" else result
                if not nested and not unchanged and hasattr(lift, "nbytes"):
                    self._add("models.lift_entries", lift.size)
                    self._add("models.lift_peak_bytes", lift.nbytes)
            elif name == "linalg.spectrum":
                n = bound["m"].shape[0]
                self._add("linalg.spectrum.n_cubed", n**3)
                self._add("linalg.spectrum.max_n", n)
            elif name == "radius.jsr_bounds":
                m = len(bound["atoms"])
                self._add("radius.jsr_products", sum(m**k for k in range(1, result.depth + 1)))
                self._add("radius.truncations", int(bool(result.truncated)))
            elif name == "radius.limit_sequence":
                self._add("radius.truncations", int(bool(result.truncated)))
            elif name == "models.expected_sandwich":
                if _inside(span, "lyapunov.synthesize_quadratic"):
                    self._add("lyapunov.quad_iters", 1)
            elif name == "lyapunov.validate_certificate.mc":
                self._add("lyapunov.mc_evals", bound["n_samples"] * result.n_vectors)
            elif name == "mcsim.sample_matrix":
                size = bound.get("size")
                self._add("mcsim.draws", 1 if size is None else int(size))
            elif name in ("mcsim.simulate_iid", "mcsim.simulate_markov"):
                plan = bound["plan"]
                self._add("mcsim.path_steps", plan.paths * plan.horizon)
            elif name == "mcsim.write_moment_csv":
                self._add("mcsim.csv_bytes", os.path.getsize(bound["path"]))
        except (AttributeError, KeyError, TypeError, ValueError, OSError):
            # a refactored signature or return type loses the count, not the run
            pass

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "errors": dict(self.errors),
            "absent": sorted(set(self.absent)),
        }


def _bind(signature, args, kwargs) -> dict | None:
    if signature is None:
        return None
    try:
        bound = signature.bind(*args, **kwargs)
    except TypeError:
        return None
    bound.apply_defaults()
    return bound.arguments


def _inside(span: _Span, name: str) -> bool:
    node = span.parent
    while node is not None:
        if node.name == name:
            return True
        node = node.parent
    return False


def merge(snapshots: list[dict]) -> dict:
    """Sum of several snapshots; peaks take the maximum."""
    out = {"calls": defaultdict(int), "total": defaultdict(float), "self": defaultdict(float),
           "counts": defaultdict(float), "errors": defaultdict(int), "absent": set()}
    for snap in snapshots:
        for key in ("calls", "total", "self", "errors"):
            for name, value in snap[key].items():
                out[key][name] += value
        for name, value in snap["counts"].items():
            peak = name in PEAKS
            out["counts"][name] = max(out["counts"][name], value) if peak else out["counts"][name] + value
        out["absent"].update(snap["absent"])
    return {k: (sorted(v) if k == "absent" else dict(v)) for k, v in out.items()}


def layer_metrics(snap: dict, rounds: int = 1) -> dict[str, float]:
    """Per-layer metric values of a (merged) snapshot, per round of the
    query list (peaks as they are); absent names read 0."""
    values = {}
    for name in span_names():
        values[f"{name}.calls"] = snap["calls"].get(name, 0) / rounds
        values[f"{name}.total_s"] = snap["total"].get(name, 0.0) / rounds
        values[f"{name}.self_s"] = snap["self"].get(name, 0.0) / rounds
    for name in COUNTERS:
        values[name] = snap["counts"].get(name, 0.0) / (1 if name in PEAKS else rounds)
    for module in MODULES:
        values[f"{module}.errors"] = snap["errors"].get(module, 0) / rounds
    return values
