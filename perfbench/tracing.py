"""Per-layer tracing of hyperspin from outside the program.

``Tracer.install`` replaces each public function named in ``LAYERS`` by a
span-recording wrapper, in every loaded ``hyperspin.*`` module that holds
that very function object, so callers in the same module and callers that
imported the name are both traced.  A listed name that no longer exists
raises, so a rename cannot read as a layer doing no work.

Each span records its function, start, end and parent span.  Spans stay in
memory and are written once, by ``save_spans``.  A layer's self time is the
duration of its spans minus the part covered by their child spans; a call
into a layer counts once however deeply the layer then calls itself (the
``class_index`` -> ``reduce_to_canonical`` hop is one normalform call).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# layer -> (module under hyperspin, public functions timed as that layer)
LAYERS = {
    "braid": ("braid", ("apply_generator", "apply_word")),
    "normalform": ("normalform", ("reduce_to_canonical", "class_index", "stabilizer_form")),
    "orbits.keys": ("orbits", ("apply_generator_keys", "twist_keys", "arf_keys")),
    "orbits.bfs": ("orbits", ("enumerate_orbits", "sp_transvection_orbits")),
    "orbits.census": ("orbits", ("census", "verify_isotropy", "fixed_matrices")),
    "cli.verify": ("cli", ("main",)),
}

KEY_BYTES = 8  # computed traffic per key: one uint32 read, one uint32 written

# Counts that must repeat exactly across traced runs with the same seed.
COUNT_METRICS = (
    "braid.calls",
    "braid.letters",
    "normalform.calls",
    "normalform.steps",
    "normalform.letters",
    "orbits.keys.calls",
    "orbits.keys.keys",
    "orbits.bfs.calls",
    "orbits.bfs.states",
    "orbits.bfs.edges",
    "orbits.census.calls",
)


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Span recorder for one traced pass; install, run, uninstall, read."""

    def __init__(self) -> None:
        self.layer_names = list(LAYERS)
        self.fn_names: list[str] = []
        self.fn_layer: list[int] = []
        self.fn = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_s = [0.0] * len(self.layer_names)
        self.calls = [0] * len(self.layer_names)
        self.counts = dict.fromkeys(
            ("braid.letters", "normalform.steps", "normalform.letters",
             "orbits.keys.keys", "orbits.bfs.states", "orbits.bfs.edges"),
            0,
        )
        self._stack: list[list] = []  # [layer id, child seconds, span index]
        self._installed: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        if self._installed:
            raise RuntimeError("tracer already installed")
        loaded = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "hyperspin" or name.startswith("hyperspin.")
        ]
        for layer_id, (layer, (module_name, functions)) in enumerate(LAYERS.items()):
            module = importlib.import_module(f"hyperspin.{module_name}")
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if not callable(original):
                    self.uninstall()
                    raise RuntimeError(
                        f"layer {layer}: hyperspin.{module_name}.{fn_name} is missing"
                    )
                wrapper = self._wrap(len(self.fn_names), layer_id, fn_name, original)
                self.fn_names.append(f"{module_name}.{fn_name}")
                self.fn_layer.append(layer_id)
                for holder in loaded:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._installed.append((holder, attr, original))
        return self

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, fn_id: int, layer_id: int, fn_name: str, func):
        stack = self._stack
        clock = time.perf_counter
        count = self._counter(fn_name)
        bfs_id = self.layer_names.index("orbits.bfs")

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if fn_name == "apply_word":
                word = _arg(args, kwargs, 1, "word")
                if not isinstance(word, (tuple, list)):
                    # measure an iterator without consuming it
                    if len(args) > 1:
                        args = (args[0], tuple(word))
                    else:
                        kwargs = {**kwargs, "word": tuple(word)}
            index = len(self.start)
            self.fn.append(fn_id)
            self.parent.append(stack[-1][2] if stack else -1)
            self.end.append(0.0)
            in_bfs = any(frame[0] == bfs_id for frame in stack)
            frame = [layer_id, 0.0, index]
            stack.append(frame)
            start = clock()
            self.start.append(start)
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.end[index] = end
                duration = end - start
                self.self_s[layer_id] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if not stack or stack[-1][0] != layer_id:
                    self.calls[layer_id] += 1
            count(args, kwargs, result, in_bfs)
            return result

        return wrapper

    def _counter(self, fn_name: str):
        counts = self.counts

        def none(args, kwargs, result, in_bfs):
            pass

        def generator(args, kwargs, result, in_bfs):
            counts["braid.letters"] += 1

        def word(args, kwargs, result, in_bfs):
            counts["braid.letters"] += len(_arg(args, kwargs, 1, "word"))

        def reduction(args, kwargs, result, in_bfs):
            counts["normalform.steps"] += len(result.steps)
            counts["normalform.letters"] += len(result.total_word)

        def step_keys(args, kwargs, result, in_bfs):
            size = _arg(args, kwargs, 2, "keys").size
            counts["orbits.keys.keys"] += size
            if in_bfs:
                counts["orbits.bfs.edges"] += size

        def arf_keys(args, kwargs, result, in_bfs):
            counts["orbits.keys.keys"] += _arg(args, kwargs, 1, "keys").size

        def partition(args, kwargs, result, in_bfs):
            counts["orbits.bfs.states"] += result.labels.size

        return {
            "apply_generator": generator,
            "apply_word": word,
            "reduce_to_canonical": reduction,
            "apply_generator_keys": step_keys,
            "twist_keys": step_keys,
            "arf_keys": arf_keys,
            "enumerate_orbits": partition,
            "sp_transvection_orbits": partition,
        }.get(fn_name, none)

    # -- results -----------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        c = self.counts
        calls = dict(zip(self.layer_names, self.calls))
        self_s = dict(zip(self.layer_names, self.self_s))
        keys = c["orbits.keys.keys"]
        edges = c["orbits.bfs.edges"]
        return {
            "braid.calls": (calls["braid"], "count"),
            "braid.letters": (c["braid.letters"], "count"),
            "braid.self_s": (self_s["braid"], "s"),
            "normalform.calls": (calls["normalform"], "count"),
            "normalform.self_s": (self_s["normalform"], "s"),
            "normalform.us_per_call": (
                1e6 * self_s["normalform"] / calls["normalform"] if calls["normalform"] else 0.0,
                "us",
            ),
            "normalform.steps": (c["normalform.steps"], "count"),
            "normalform.letters": (c["normalform.letters"], "count"),
            "orbits.keys.calls": (calls["orbits.keys"], "count"),
            "orbits.keys.keys": (keys, "count"),
            "orbits.keys.ns_per_key": (1e9 * self_s["orbits.keys"] / keys if keys else 0.0, "ns"),
            "orbits.keys.bytes": (KEY_BYTES * keys, "B_computed"),
            "orbits.keys.self_s": (self_s["orbits.keys"], "s"),
            "orbits.bfs.calls": (calls["orbits.bfs"], "count"),
            "orbits.bfs.states": (c["orbits.bfs.states"], "count"),
            "orbits.bfs.edges": (edges, "count"),
            "orbits.bfs.states_per_edge": (
                c["orbits.bfs.states"] / edges if edges else 0.0,
                "ratio",
            ),
            "orbits.bfs.self_s": (self_s["orbits.bfs"], "s"),
            "orbits.census.calls": (calls["orbits.census"], "count"),
            "orbits.census.self_s": (self_s["orbits.census"], "s"),
            "cli.verify.self_s": (self_s["cli.verify"], "s"),
            "bench.self_s": (traced_wall - sum(self.self_s), "s"),
            "trace.wall_s": (traced_wall, "s"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        }

    def save_spans(self, path) -> None:
        """Write every span once, as arrays in a compressed ``.npz``."""
        import numpy as np

        t0 = self.start[0] if self.start else 0.0
        np.savez_compressed(
            path,
            layers=np.array(self.layer_names),
            functions=np.array(self.fn_names),
            function_layer=np.array(self.fn_layer, dtype=np.uint16),
            fn=np.frombuffer(self.fn, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_s=np.frombuffer(self.start, dtype=np.float64) - t0,
            end_s=np.frombuffer(self.end, dtype=np.float64) - t0,
        )

