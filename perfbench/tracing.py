"""
Tracing for the benchmark, installed from outside the package.

Every traced entry point of ``bhl`` is replaced by a wrapper that keeps a
stack of active calls, so each call's self time (its duration minus the time
of the traced calls nested in it) is charged to its layer. Coarse calls (one
per w, per suite, per table fill) also record a span: name, layer, start,
end, parent span and round. Hot polynomial kernels are only aggregated as
call count plus time, because one span per call would cost more than the
kernel itself.

``install`` patches the package and returns an undo function; the patched
names are the ones the package itself looks up at call time, so nested calls
inside ``bhl`` are seen too.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("coxeter", "demazure", "hecke", "rpoly", "polyring", "sigma", "verify")


def plain_call(name, layer, fn, *args, **kwargs):
    """The untraced counterpart of ``Tracer.span``."""
    return fn(*args, **kwargs)


class Tracer:
    """Spans, per-function aggregates and per-layer self time of one round,
    kept in memory."""

    def __init__(self, round_id: int = 0):
        # name -> [calls, inclusive seconds]; wrapped functions never
        # re-enter themselves, so inclusive time is not double counted
        self.calls: dict = defaultdict(lambda: [0, 0.0])
        self.layer_self: dict = defaultdict(float)
        self.extra: dict = defaultdict(int)  # counters noted by observers
        self.theta_keys: set = set()
        self.spans: list = []
        self.round = round_id
        self._stack: list = []  # [child seconds, span id or None] per call

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def wrap(self, fn, name: str, layer: str, span: bool = False, observe=None):
        """A wrapper that charges ``fn``'s calls to ``name`` and ``layer``."""
        stat = self.calls[name]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span_id = None
            if span:
                span_id = len(tracer.spans)
                tracer.spans.append(None)  # reserved; filled on exit
            frame = [0.0, span_id]
            parent = tracer._parent_span() if span else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt
                tracer.layer_self[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if span:
                    tracer.spans[span_id] = {
                        "id": span_id,
                        "parent": parent,
                        "round": tracer.round,
                        "name": name,
                        "layer": layer,
                        "start": t0,
                        "end": t1,
                        "self": dt - frame[0],
                    }
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a recorded span; used around the benchmark's
        own calls into a layer (group build, report rendering, suites)."""
        return self.wrap(fn, name, layer, span=True)(*args, **kwargs)

    def seconds(self, name: str) -> float:
        return self.calls[name][1] if name in self.calls else 0.0

    def count(self, name: str) -> int:
        return self.calls[name][0] if name in self.calls else 0


def _observe_divide(tracer, args, result):
    if result is not None:
        tracer.extra["divide_hits"] += 1


def _observe_mul(tracer, args, result):
    tracer.extra["mul_term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _observe_eq(tracer, args, result):
    if result is True:
        tracer.extra["rf_eq_true"] += 1


def _observe_theta(tracer, args, result):
    tracer.theta_keys.add(args[1:4])


def install(tracer: Tracer):
    """Patch the traced entry points; returns a function that undoes it."""
    from bhl import hecke, polyring, rpoly, sigma, verify

    targets = [
        # owner, attribute, metric name, layer, span, observer
        (polyring, "binomial_divide", "polyring.divide", "polyring", False, _observe_divide),
        (polyring.LaurentPoly, "__mul__", "polyring.mul", "polyring", False, _observe_mul),
        (polyring.RationalFn, "__add__", "polyring.rf_add", "polyring", False, None),
        (polyring.RationalFn, "__eq__", "polyring.rf_eq", "polyring", False, _observe_eq),
        (sigma.SigmaEngine, "sigma_idx", "sigma.sigma", "sigma", False, None),
        (sigma.SigmaEngine, "_xi", "sigma.xi", "sigma", False, None),
        (sigma.SigmaEngine, "gk_factor", "sigma.gk_factor", "sigma", False, None),
        (sigma.SigmaEngine, "classify_for_w", "sigma.classify_for_w", "sigma", True, None),
        (sigma, "v_min_idx", "demazure.vmin", "demazure", False, None),
        (verify, "v_min_idx", "demazure.vmin", "demazure", False, None),
        (hecke.ThetaTable, "theta_idx", "hecke.theta", "hecke", False, _observe_theta),
        (hecke.ThetaTable, "product", "hecke.products", "hecke", False, None),
        (rpoly.RPolyTable, "prefill", "rpoly.fill", "rpoly", True, None),
    ]
    saved = []
    for owner, attr, name, layer, span, observe in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, layer, span, observe))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall
