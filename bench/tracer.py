"""Span tracer that instruments ``crcalc`` from outside, at run time.

The traced pass replaces the public functions of each ``crcalc``
module, wherever a ``crcalc`` module namespace refers to them, with a
wrapper that records a span: call count, inclusive time and self time
(inclusive time minus the time of its direct child spans).  Nothing
under ``src/`` is edited; :meth:`Tracer.uninstall` puts every original
back.

Spans are keyed ``<layer>.<name>``, where the layer is the ``crcalc``
module that defines the function.  Each thread keeps its own span
stack, so calls made on the library's thread pool are root spans of
their own thread, and the span that waits on the pool keeps the wait
in its self time.  Statistics go into the dict that
:attr:`Tracer.stats` points at, so the caller can file them per op
kind by switching that dict between ops.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "problems", "optim", "lsq", "hessian", "wirtinger", "coords", "lms")

#: Private functions that carry a named per-layer metric.
PRIVATE_SPANS = {"cli": ("_write_lms_trace", "_write_optimize_trace")}

#: Methods whose calls are layer work: field evaluations and the
#: least-squares problem build with its weight check.
METHOD_SPANS = {
    "wirtinger": (("ScalarField", "__call__"), ("VectorField", "__call__")),
    "lsq": (("LsqProblem", "__init__"),),
}


def new_stats() -> dict:
    """Per-key counters: ``calls``, ``incl`` and ``self`` seconds."""
    return {
        "spans": defaultdict(lambda: [0, 0.0, 0.0]),
        "edges": defaultdict(lambda: [0, 0.0]),
        "counters": defaultdict(float),
    }


class Tracer:
    """Installs span wrappers on the ``crcalc`` modules."""

    def __init__(self, crcalc_pkg):
        self.pkg = crcalc_pkg
        self.stats = new_stats()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self._mods = [crcalc_pkg] + [getattr(crcalc_pkg, name) for name in LAYERS]

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [[None, 0.0]]
        return stack

    def _close(self, key, frame, dt, stack) -> None:
        parent = stack[-1]
        parent[1] += dt
        stats = self.stats
        with self._lock:
            span = stats["spans"][key]
            span[0] += 1
            span[1] += dt
            span[2] += dt - frame[1]
            edge = stats["edges"][(parent[0], key)]
            edge[0] += 1
            edge[1] += dt

    def root(self, fn):
        """Run ``fn`` as the root span ``op``; returns (result, exception)."""
        stack = self._stack()
        frame = ["op", 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(), None
        except Exception as exc:  # the op failed; the caller counts it
            return None, exc
        finally:
            stack.pop()
            self._close("op", frame, time.perf_counter() - t0, stack)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.stats["counters"][name] += amount

    def _wrap(self, fn, key, classify=None, on_return=None, peak=False):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            k = classify(key, args) if classify is not None else key
            stack = tracer._stack()
            frame = [k, 0.0]
            stack.append(frame)
            tracing_mem = peak and not tracemalloc.is_tracing()
            if tracing_mem:
                tracemalloc.start()
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if tracing_mem:
                    _, top = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
                    with tracer._lock:
                        peaks = tracer.stats["counters"]
                        peaks[k + ".peak_bytes"] = max(peaks[k + ".peak_bytes"], top)
                stack.pop()
                tracer._close(k, frame, dt, stack)
            if on_return is not None:
                on_return(tracer, out)
            return out

        return wrapper

    # -- installation -----------------------------------------------------
    def _replace_everywhere(self, original, replacement) -> None:
        for mod in self._mods:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, replacement)

    def install(self) -> None:
        pkg = self.pkg
        wirtinger = pkg.wirtinger
        hooks = {
            # Jacobians of vector maps are the least-squares model Jacobians.
            "wirtinger.cogradients": dict(
                classify=lambda key, a: key + ":jacobian"
                if isinstance(a[0], wirtinger.VectorField)
                else key
            ),
            "hessian.hessian_quad": dict(
                classify=lambda key, a: key if a[0].hessian_fn is not None else key + ":fd"
            ),
            "optim.minimize": dict(
                on_return=lambda t, out: t.count("optim.iterations", out.iterations)
            ),
            "lms.simulate": dict(on_return=lambda t, out: t.count("lms.steps", out.steps)),
            "lsq.LsqProblem.__init__": dict(peak=True),
        }
        for layer in LAYERS:
            mod = getattr(pkg, layer)
            prefix = mod.__name__
            names = [
                name
                for name, value in vars(mod).items()
                if not name.startswith("_")
                and callable(value)
                and getattr(value, "__module__", None) == prefix
                and not isinstance(value, type)
            ]
            names += [name for name in PRIVATE_SPANS.get(layer, ()) if hasattr(mod, name)]
            for name in names:
                fn = getattr(mod, name)
                key = f"{layer}.{name}"
                self._replace_everywhere(fn, self._wrap(fn, key, **hooks.get(key, {})))
            for cls_name, meth in METHOD_SPANS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                key = f"{layer}.{cls_name}.{meth}"
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, key, **hooks.get(key, {})))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()
