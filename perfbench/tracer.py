"""Spans and counts around calls into parsfm's public functions.

The tracer wraps functions from outside the program: for every traced
function it replaces the attribute in each ``parsfm`` module that holds the
original object, so a function imported by name into several modules
(``solve_bundle`` in ``geometry``, ``geometry.ba``, ``engine.incremental`` and
``engine.reconstruction``) is wrapped at each of them. Nothing in ``src/`` is
edited.

Spans live in memory per process. A pool worker forked after installation
inherits the wrappers; it drops the parent's spans it inherited and appends
its own to ``<trace_dir>/spans-<pid>.jsonl`` whenever its outermost span ends,
so the measuring process can gather them once the pool has shut down.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

# (layer, function name, extra metrics): the public functions whose calls
# are recorded. Every function reports .s (inclusive), .self_s (minus child
# spans) and .calls; .fails is kept where a call can raise as part of normal
# operation, .max_s where one call can dominate a stage.
TRACED = [
    ("matchgraph", "read_dataset", ()),
    ("matchgraph", "build_match_graph", ()),
    ("matchgraph", "build_vocabulary", ()),
    ("matchgraph", "retrieve_pairs", ()),
    ("matchgraph", "verify_matches", ()),
    ("graphalgo", "extract_wcds", ()),
    ("graphalgo", "normalized_cut", ()),
    ("engine", "incremental_reconstruct", ("fails", "max_s")),
    ("engine", "select_seed_pair", ("fails",)),
    ("engine", "bundle_adjust", ("max_s",)),
    ("geometry", "solve_bundle", ("max_s",)),
    ("geometry", "resect_camera", ("fails",)),
    ("geometry", "triangulate", ("fails",)),
    ("geometry", "estimate_relative_pose", ("fails",)),
    ("geometry", "umeyama_similarity", ("fails",)),
    ("merge", "merge_all", ()),
    ("merge", "build_correspondence_graph", ()),
    ("merge", "find_common_points", ()),
    ("merge", "strategy_match_counts", ()),
    ("merge", "ransac_similarity", ("fails",)),
]


def _original(layer, name):
    """The function object as defined in its own module of the layer."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith(f"parsfm.{layer}"):
            continue
        fn = mod.__dict__.get(name)
        if callable(fn) and getattr(fn, "__module__", None) == mod_name:
            return fn
    raise LookupError(f"parsfm.{layer} defines no loaded function {name}")


def _counts(name, args, kwargs, result):
    """Per-call counts read from arguments and return values."""
    if name == "solve_bundle":
        cameras = args[0] if args else kwargs["cameras"]
        return {"iterations": result.iterations, "cameras": len(cameras)}
    if name == "verify_matches":
        candidates = args[0] if args else kwargs["candidates"]
        return {"pairs_in": len(candidates), "pairs_kept": len(result)}
    if name == "extract_wcds":
        return {"skeleton_images": len(result.selected_vertices)}
    if name == "normalized_cut":
        return {"clusters": sum(1 for c in result.clusters if len(c) >= 2)}
    if name == "merge_all":
        steps = result[1].steps
        return {
            "on_demand": sum(s.loaded_match_counts["on_demand"] for s in steps),
            "all_dataset": sum(s.loaded_match_counts["all_dataset"] for s in steps),
        }
    return None


class Tracer:
    """Records one span per wrapped call: name, process, start, end, the
    span that caused it, time not covered by child spans, and counts."""

    def __init__(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self.owner_pid = os.getpid()
        self._pid = self.owner_pid
        self.spans = []
        self._stack = []  # [span id, child seconds]
        self._next_id = 0
        self._installed = []  # (module, name, original)

    def _own_process(self):
        pid = os.getpid()
        if pid != self._pid:  # forked worker: forget the parent's spans
            self._pid = pid
            self.spans = []
            self._stack = []
            self._next_id = 0
        return pid

    def wrap(self, layer, name, fn):
        label = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pid = self._own_process()
            span_id = f"{pid}:{self._next_id}"
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append([span_id, 0.0])
            failed = False
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                end = time.perf_counter()
                _, child = self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append(
                    {
                        "id": span_id,
                        "parent": parent,
                        "name": label,
                        "pid": pid,
                        "start": start,
                        "end": end,
                        "self": end - start - child,
                        "failed": failed,
                        "counts": None if failed else _counts(name, args, kwargs, result),
                    }
                )
                if not self._stack and pid != self.owner_pid:
                    self.flush()

        return traced

    def install(self):
        """Wrap every traced function in every parsfm module that holds it.

        Returns the number of module attributes replaced.
        """
        for layer, name, _ in TRACED:
            original = _original(layer, name)
            wrapper = self.wrap(layer, name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("parsfm"):
                    continue
                if mod.__dict__.get(name) is original:
                    setattr(mod, name, wrapper)
                    self._installed.append((mod, name, original))
        return len(self._installed)

    def uninstall(self):
        """Put every original function back."""
        for mod, name, original in reversed(self._installed):
            setattr(mod, name, original)
        self._installed = []

    def flush(self):
        """Append this process's finished spans to its own file."""
        if not self.spans:
            return
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        with open(self.trace_dir / f"spans-{os.getpid()}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def gather(self):
        """Every span of this process and of the workers that flushed."""
        self.flush()
        spans = []
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh)
        return spans


def layer_metrics(spans, workers):
    """Per-layer metrics from gathered spans, every name always present."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def group(name):
        return by_name.get(name, [])

    def seconds(name):
        return sum(s["end"] - s["start"] for s in group(name))

    def count_sum(name, key):
        return sum(s["counts"][key] for s in group(name) if s["counts"])

    m = {}

    def put(key, value, unit):
        m[key] = {"value": value, "unit": unit}

    for layer, name, extras in TRACED:
        label = f"{layer}.{name}"
        spans_of = group(label)
        put(f"{label}.s", seconds(label), "s")
        put(f"{label}.self_s", sum(s["self"] for s in spans_of), "s")
        put(f"{label}.calls", len(spans_of), "count")
        if "fails" in extras:
            put(f"{label}.fails", sum(1 for s in spans_of if s["failed"]), "count")
        if "max_s" in extras:
            put(
                f"{label}.max_s",
                max((s["end"] - s["start"] for s in spans_of), default=0.0),
                "s",
            )
    put("matchgraph.verify_matches.pairs_in",
        count_sum("matchgraph.verify_matches", "pairs_in"), "count")
    put("matchgraph.verify_matches.pairs_kept",
        count_sum("matchgraph.verify_matches", "pairs_kept"), "count")
    put("graphalgo.skeleton_images",
        count_sum("graphalgo.extract_wcds", "skeleton_images"), "count")
    # the skeleton plus every cluster of two or more images
    n_cut = len(group("graphalgo.normalized_cut"))
    put("graphalgo.subsets",
        n_cut + count_sum("graphalgo.normalized_cut", "clusters"), "count")
    put("geometry.solve_bundle.iterations",
        count_sum("geometry.solve_bundle", "iterations"), "count")
    put("geometry.solve_bundle.max_cameras",
        max((s["counts"]["cameras"] for s in group("geometry.solve_bundle")
             if s["counts"]), default=0), "count")
    put("merge.loaded_pairs_on_demand",
        count_sum("merge.merge_all", "on_demand"), "count")
    put("merge.loaded_pairs_all_dataset",
        count_sum("merge.merge_all", "all_dataset"), "count")

    subsets = group("engine.incremental_reconstruct")
    if subsets:
        span = max(s["end"] for s in subsets) - min(s["start"] for s in subsets)
        busy = sum(s["end"] - s["start"] for s in subsets)
        ratio = busy / (workers * span) if span > 0 else 0.0
    else:
        span, ratio = 0.0, 0.0
    put("pipeline.reconstruct_span_s", span, "s")
    put("pipeline.pool_busy_ratio", ratio, "ratio")
    return m
