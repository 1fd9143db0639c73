"""Outside-in spans around calls into the engine's public functions.

The engine's modules bind each other's functions with ``from .x import y``,
so a call from ``resonance`` into ``full_matrix`` goes through the name
``resonance.full_matrix``.  A span is recorded by replacing that name in the
calling module for the length of a traced call and restoring it afterwards;
no engine file changes.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter_ns

PACKAGE = "dirac_double_barrier"

#: Calling module -> names it imported from another layer.  Each call
#: through one of these names becomes a span ``<module>.<name>``.
WRAPPED = {
    "cli": ("transmission_rows", "write_curve_csv", "render_curve_svg",
            "zone_report", "write_json", "run_sweep", "run_verification"),
    "emit": ("scatter", "transmission_rows", "write_curve_csv", "write_json",
             "zone_report", "find_resonances", "find_above_barrier",
             "attach_widths"),
    "resonance": ("full_matrix", "scatter", "brentq"),
    "verify": ("full_matrix", "solve_amplitudes", "sample_energies"),
}


def layer_of(fn) -> str:
    """Module that defines fn, as the layer name (``scipy`` for brentq)."""
    module = fn.__module__
    if module.startswith(PACKAGE + "."):
        return module.rsplit(".", 1)[1]
    return module.split(".", 1)[0]


class Recorder:
    """Spans ``(name, layer, parent, t0_ns, t1_ns)``; parent is an index or -1."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, layer: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[index] = (name, layer, parent, t0, t1)

        return traced

    @contextmanager
    def installed(self):
        """Route every name in WRAPPED through a span while the block runs."""
        saved = []
        try:
            for module_name, names in WRAPPED.items():
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                for name in names:
                    original = getattr(module, name)
                    saved.append((module, name, original))
                    setattr(module, name, self.wrap(
                        f"{module_name}.{name}", layer_of(original), original))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def total_s(self, *names: str) -> float:
        return sum(s[4] - s[3] for s in self.spans if s[0] in names) / 1e9

    def count(self, *names: str) -> int:
        return sum(1 for s in self.spans if s[0] in names)

    def self_s(self) -> dict[str, float]:
        """Per layer: span time not covered by the span's child spans."""
        child_ns = [0] * len(self.spans)
        for name, layer, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[str, float] = {}
        for (name, layer, parent, t0, t1), inner in zip(self.spans, child_ns):
            out[layer] = out.get(layer, 0.0) + (t1 - t0 - inner) / 1e9
        return out
