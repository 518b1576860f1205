"""Span tracer for the glyphsdf package, installed from outside it.

``Tracer.install()`` replaces every public function of the layer modules
with a timing wrapper, at every name it is looked up by: the defining
module, each glyphsdf module that imported the name directly (such as
``training.sample_glyph`` or ``render.kernel``) and module-level dicts
that hold it (the CLI's command table).  ``uninstall()`` puts the
originals back.  Nothing under ``src/`` changes.

Each call becomes one span ``[id, parent_id, layer, name, start, end]``
kept in memory; ``dump()`` writes them out at the end of a run.  A span's
self time is its duration minus the durations of its child spans.  Some
wrappers also add work counts (rows, pixels, cells) to ``counters``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "glyphs", "geometry", "field", "templates", "sampling",
          "autodecoder", "training", "render", "metrics")


def _macs(config):
    return sum(fan_in * fan_out for fan_in, fan_out in config.layer_dims())


def _count_forward(c, args, kwargs, result):
    config, X = args[0], args[2]
    c["autodecoder.rows"] += len(X)
    c["autodecoder.macs"] += len(X) * _macs(config)


def _count_backward(c, args, kwargs, result):
    config, cache = args[0], args[2]
    need = kwargs.get("need_param_grads", args[4] if len(args) > 4 else True)
    c["autodecoder.macs"] += len(cache[0]) * _macs(config) * (2 if need else 1)


def _count_sdf_grid(c, args, kwargs, result):
    c["geometry.sdf_px"] += result.size


def _count_nearest(c, args, kwargs, result):
    c["geometry.segment_points"] += len(result[0])


def _count_sample(c, args, kwargs, result):
    c["sampling.rebuilds"] += 1
    c["sampling.rows"] += len(result)


def _count_field_grid(c, args, kwargs, result):
    c["render.field_points"] += result.shape[1] * result.shape[2]


def _count_implicit(c, args, kwargs, result):
    c["render.implicit_px"] += result.size
    c["render.band_px"] += int(((result > 0.0) & (result < 1.0)).sum())


def _count_zero_level(c, args, kwargs, result):
    h, w = args[0].shape
    c["render.zero_level_cells"] += max(h - 1, 0) * max(w - 1, 0)


def _count_total_loss(c, args, kwargs, result):
    c["training.steps"] += 1


COUNTS = {
    ("autodecoder", "forward"): _count_forward,
    ("autodecoder", "backward"): _count_backward,
    ("geometry", "sdf_grid"): _count_sdf_grid,
    ("geometry", "nearest_on_segment"): _count_nearest,
    ("sampling", "sample_glyph"): _count_sample,
    ("render", "field_grid"): _count_field_grid,
    ("render", "render_implicit"): _count_implicit,
    ("render", "extract_zero_level"): _count_zero_level,
    ("training", "total_loss"): _count_total_loss,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {
            name: 0 for name in (
                "autodecoder.rows", "autodecoder.macs", "geometry.sdf_px",
                "geometry.segment_points", "sampling.rebuilds", "sampling.rows",
                "render.field_points", "render.implicit_px", "render.band_px",
                "render.zero_level_cells", "training.steps",
            )
        }
        self.enabled = True
        self._stack = []
        self._undo = []

    def _wrap(self, layer, name, fn):
        count = COUNTS.get((layer, name))
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [len(spans), stack[-1] if stack else -1, layer, name,
                   time.perf_counter(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = {layer: importlib.import_module(f"glyphsdf.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(layer, name, fn)
        lookups = [m for n, m in sorted(sys.modules.items())
                   if n == "glyphsdf" or n.startswith("glyphsdf.")]
        for mod in lookups:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._undo.append((vars(mod), attr, value))
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._undo.append((value, key, item))
                            value[key] = wrappers[id(item)]
        return self

    def uninstall(self):
        for namespace, key, original in reversed(self._undo):
            namespace[key] = original
        self._undo.clear()

    def summary(self):
        """Inclusive and self seconds per (layer, name), self seconds per
        layer, and per layer the time spent entering it from elsewhere."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, self_time, layer_self, layer_entry = {}, {}, {}, {}
        for sid, parent, layer, name, start, end in self.spans:
            dur = end - start
            key = f"{layer}.{name}"
            inclusive[key] = inclusive.get(key, 0.0) + dur
            self_time[key] = self_time.get(key, 0.0) + dur - child[sid]
            layer_self[layer] = layer_self.get(layer, 0.0) + dur - child[sid]
            if parent < 0 or self.spans[parent][2] != layer:
                layer_entry[layer] = layer_entry.get(layer, 0.0) + dur
        return {"inclusive": inclusive, "self": self_time,
                "layer_self": layer_self, "layer_entry": layer_entry}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "layer", "name", "start", "end"],
                       "spans": self.spans, "counters": self.counters}, fh)
