"""In-memory span tracer for billiardflow's layers, installed from outside.

No source file of the package is edited.  Each layer function is replaced by
a timing wrapper under every name its callers look it up by (the package
attribute for calls from the benchmark, the importing module's attribute for
calls between modules).  Spans carry the thread id and their parent, so the
self time of a layer is its span time minus the union of its children's
intervals, which also holds for the find_orbit spans that ``sweep``'s thread
pool runs in parallel under one sweep span.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict, namedtuple

#: layer -> "module:attribute" names under which callers look the layer up
SITES = {
    "geometry.make_boundary": ["billiardflow:make_boundary",
                               "billiardflow.finder:make_boundary"],
    "geometry.convexity_margin": ["billiardflow:convexity_margin",
                                  "billiardflow.finder:convexity_margin"],
    "geometry.check_equivariance": ["billiardflow:check_equivariance",
                                    "billiardflow.finder:check_equivariance",
                                    "billiardflow.geometry:check_equivariance"],
    "geometry.reparametrize_constant_speed": [
        "billiardflow.finder:reparametrize_constant_speed"],
    # the gradient kernel: the flow's right-hand side, and gradient_field's
    # own call into it (Newton polish, Hessian residual check)
    "lagrangian.gradient": ["billiardflow.flow:_gradient_coords",
                            "billiardflow.lagrangian:_gradient_coords"],
    "lagrangian.periodic_action": ["billiardflow.finder:periodic_action",
                                   "billiardflow.flow:periodic_action"],
    "flow.integrate": ["billiardflow.finder:integrate"],
    "spectral.hessian": ["billiardflow.finder:hessian"],
    "sequences.expand_constraints": ["billiardflow.finder:expand_constraints"],
    "sequences.spatiotemporal_group": ["billiardflow.finder:spatiotemporal_group"],
    "sequences.is_birkhoff": ["billiardflow.finder:is_birkhoff"],
    "sequences.minimal_period": ["billiardflow.finder:minimal_period"],
    "sequences.intersection_index": ["billiardflow.finder:intersection_index",
                                     "billiardflow.flow:intersection_index"],
    "spectral.kappa_chord": ["billiardflow:kappa_chord",
                             "billiardflow.finder:kappa_chord"],
    "spectral.criterion": ["billiardflow:criterion",
                           "billiardflow.finder:criterion"],
    "finder.find_orbit": ["billiardflow:find_orbit",
                          "billiardflow.finder:find_orbit"],
    "finder.sweep": ["billiardflow:sweep"],
}

#: the integrator's accepted-step count, read off its return value
STEPS_LAYER = "flow.integrate"
KERNEL_LAYER = "lagrangian.gradient"

Span = namedtuple("Span", "id parent layer thread start end steps")


class Tracer:
    """Wraps the layer sites while installed; records spans while recording."""

    def __init__(self, sites: dict = SITES):
        self.sites = sites
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.recording = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: list = []
        self._saved: list = []

    def __enter__(self):
        for layer, names in self.sites.items():
            for name in names:
                module_name, attr = name.split(":")
                try:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.missing.append(name)
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        self.recording = False

    def missing_layers(self) -> list[str]:
        """Layers none of whose call sites exist any more."""
        return [layer for layer, names in self.sites.items()
                if all(name in self.missing for name in names)]

    def start(self) -> None:
        """Record spans from now on; spans opened in threads with no open
        span of their own get the calling thread's innermost span as parent."""
        self._root = self._stack()
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn):
        tracer = self
        keep_steps = layer == STEPS_LAYER

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = tracer._root[-1]
                except IndexError:
                    parent = 0
            sid = next(tracer._ids)
            stack.append(sid)
            out = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                steps = getattr(out, "n_steps", None) if keep_steps else None
                tracer.spans.append(Span(sid, parent, layer, threading.get_ident(),
                                         start, end, steps))

        return traced


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans) -> dict:
    """Per-layer totals: self time, span time, calls; plus the flow counts.

    ``kernel_in_flow`` counts kernel spans that have an integrate span among
    their ancestors, which is the number of right-hand-side evaluations.
    """
    children = defaultdict(list)
    by_id = {}
    for s in spans:
        children[s.parent].append(s)
        by_id[s.id] = s
    self_s, span_s, calls = Counter(), Counter(), Counter()
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        self_s[s.layer] += (s.end - s.start) - _covered(i for i in clipped if i[1] > i[0])
        span_s[s.layer] += s.end - s.start
        calls[s.layer] += 1
    kernel_in_flow = 0
    for s in spans:
        if s.layer != KERNEL_LAYER:
            continue
        up = by_id.get(s.parent)
        while up is not None and up.layer != STEPS_LAYER:
            up = by_id.get(up.parent)
        kernel_in_flow += up is not None
    steps = sum(s.steps or 0 for s in spans if s.layer == STEPS_LAYER)
    return {"self_s": self_s, "span_s": span_s, "calls": calls,
            "steps_accepted": steps, "kernel_in_flow": kernel_in_flow}
