"""Per-layer spans recorded from outside the program.

The traced run wraps, for each caller module, the names it imports from
the layer below, and puts the originals back when it finishes:

* the benchmark -> ``homology``, ``theta``, ``harness`` (the entry points
  the workloads call, patched on their home module so calls inside that
  module, such as ``homology_from_boundaries`` -> ``smith_normal_form``,
  are seen too; ``theta.w_hom_rows`` is wrapped the same way);
* ``harness`` -> ``config``, ``theta``, ``homology``;
* ``homology`` -> ``theta``;
* ``config`` -> ``theta``;
* ``theta`` -> ``simplex``.

A span is one call of a wrapped name.  Each name gets inclusive seconds
(outermost calls only, so recursion is not counted twice) and a call
count; each layer gets self seconds, its spans' time minus the time of
the spans they directly enclose.  Spans are folded into these totals as
they close rather than stored, since a sample opens hundreds of
thousands of them.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from thetaran import config, harness, homology, simplex, theta

LAYERS = {
    "thetaran.simplex": "simplex",
    "thetaran.theta": "theta",
    "thetaran.config": "config",
    "thetaran.homology": "homology",
    "thetaran.harness": "harness",
}

# caller module -> modules whose imported names it may have wrapped
_IMPORT_EDGES = (
    (harness, (config, theta, homology)),
    (homology, (theta,)),
    (config, (theta,)),
    (theta, (simplex,)),
)

# names the workloads call directly, wrapped where they are defined, plus
# the two the layer's own hot paths call (Smith form, leaf-row hom-sets)
_ENTRY_POINTS = (
    (homology, ("build_category", "nerve_chain_complex",
                "homology_from_boundaries", "smith_normal_form")),
    (homology.FiniteCategoryView, ("validate",)),
    (theta, ("verify_initiality_by_rows", "w_hom_rows")),
    (harness, ("run_suite",)),
)

# everything a Tracer may patch; the worker checks each is unchanged after
TRACED_OWNERS = (simplex, theta, config, homology, harness,
                 homology.FiniteCategoryView)


class Tracer:
    """Installs the wrappers, accumulates span totals, restores on exit."""

    def __init__(self) -> None:
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self._stack: list[list] = []  # [layer, child seconds] per open span
        self._depth: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, metric: str, layer: str):
        stack = self._stack
        depth = self._depth
        seconds = self.seconds
        calls = self.calls
        self_seconds = self.self_seconds
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            depth[metric] += 1
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                depth[metric] -= 1
                calls[metric] += 1
                if not depth[metric]:
                    seconds[metric] += elapsed
                self_seconds[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def _patch(self, owner, name: str, layer: str) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, self._wrap(original, f"{layer}.{name}", layer))

    def __enter__(self) -> Tracer:
        try:
            for owner, names in _ENTRY_POINTS:
                layer = LAYERS[owner.__module__ if isinstance(owner, type)
                               else owner.__name__]
                for name in names:
                    self._patch(owner, name, layer)
            for caller, callees in _IMPORT_EDGES:
                modules = {m.__name__ for m in callees}
                for name, value in sorted(vars(caller).items()):
                    if (
                        callable(value)
                        and not isinstance(value, type)
                        and getattr(value, "__module__", None) in modules
                    ):
                        self._patch(caller, name, LAYERS[value.__module__])
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every wrapped name, last wrapped first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for metric, n in self.calls.items():
            out[f"{metric}_calls"] = n
            out[f"{metric}_s"] = self.seconds[metric]
        for layer in LAYERS.values():
            out[f"{layer}.self_s"] = self.self_seconds[layer]
        return out

