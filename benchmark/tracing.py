"""Spans around calls into rootmatch, recorded from outside the package.

``Tracer.install`` replaces each listed public function with a wrapper
in every ``rootmatch`` module namespace that binds it, so calls by an
imported name (``modelgeom.build_matrix``, ``framematrix.exact_rank``)
are caught as well as calls through the package.  A span is (name,
start, end, parent); spans live in flat arrays until ``write``.  Counts
are taken from each call's own return value (or, for a greedy failure,
from the trace the exception carries).
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, function) pairs; the span name is "module.function".
TRACED = (
    ("rootdata", "catalogue"),
    ("exact", "exact_rank"),
    ("framematrix", "random_frames"),
    ("framematrix", "parse_frame_vectors"),
    ("framematrix", "make_frame"),
    ("framematrix", "build_matrix"),
    ("framematrix", "verify_properties"),
    ("matcher", "greedy_match"),
    ("matcher", "oracle_match"),
    ("chamber", "verify_codim_bounds"),
    ("modelgeom", "snap_to_singular"),
    ("modelgeom", "sample_ratio"),
    ("modelgeom", "pipeline_flat"),
    ("modelgeom", "pipeline_perturbed"),
    ("modelgeom", "random_perturbation_case"),
    ("modelgeom", "min_bracket_gain"),
    ("cli", "main"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.snaps: list[tuple] = []  # (input, radius, output) per snap call

    def _wrap(self, name, fn, on_result):
        name_id = self._name_ids[name] = len(self.names)
        self.names.append(name)
        stack, name_of, start, end, parent = (
            self._stack, self.name_of, self.start, self.end, self.parent,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = perf_counter()
                stack.pop()
                on_result(None, exc, args, kwargs)
                raise
            end[idx] = perf_counter()
            stack.pop()
            on_result(result, None, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "rootmatch" or k.startswith("rootmatch.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"rootmatch.{mod_name}"], fn_name)
            hook = getattr(self, f"_on_{fn_name}", _ignore)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    # Count hooks, named after the function they observe.

    def _on_random_frames(self, result, exc, args, kwargs):
        if exc is None:
            self.counts["framematrix.random_frames.frames"] += len(result)

    def _on_build_matrix(self, result, exc, args, kwargs):
        if exc is None:
            self.counts["framematrix.build_matrix.cells"] += result.rows * result.cols

    def _on_greedy_match(self, result, exc, args, kwargs):
        trace = result[1] if exc is None else getattr(exc, "trace", None)
        if exc is not None:
            self.counts["matcher.greedy_match.failed"] += 1
        if trace is not None:
            self.counts["matcher.greedy_match.stages"] += len(trace.stages)
            for repair in trace.repairs:
                self.counts[f"matcher.repairs.{repair.kind}"] += 1

    def _on_oracle_match(self, result, exc, args, kwargs):
        if exc is None and result is not None:
            self.counts["matcher.oracle_match.found"] += 1

    def _on_verify_codim_bounds(self, result, exc, args, kwargs):
        if exc is None:
            self.counts["chamber.faces"] += len(result.entries)

    def _on_sample_ratio(self, result, exc, args, kwargs):
        if exc is None:
            self.counts["modelgeom.sample_ratio.samples"] += result.samples
            self.counts["modelgeom.sample_ratio.zero_denominators"] += result.zero_denominator_count

    def _on_snap_to_singular(self, result, exc, args, kwargs):
        if exc is None:
            model, w_hat = args[0], args[1]
            eps0 = args[2] if len(args) > 2 else kwargs.get("eps0")
            radius = model.epsilon_zero if eps0 is None else eps0
            self.snaps.append((tuple(float(x) for x in w_hat), radius, tuple(float(x) for x in result)))

    # Summaries.

    def layer_metrics(self) -> dict[str, float]:
        """Self time and calls per span name, plus the hook counts."""
        n = len(self.start)
        self_time = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_time[p] -= self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.s"] = 0.0
            out[f"{name}.calls"] = 0
        rank_tests = 0
        frames_id = self._name_ids.get("framematrix.random_frames", -2)
        rank_id = self._name_ids.get("exact.exact_rank", -2)
        for i in range(n):
            name = self.names[self.name_of[i]]
            out[f"{name}.s"] += self_time[i]
            out[f"{name}.calls"] += 1
            p = self.parent[i]
            if self.name_of[i] == rank_id and p >= 0 and self.name_of[p] == frames_id:
                rank_tests += 1
        out.update(self.counts)
        frames = self.counts["framematrix.random_frames.frames"]
        out["framematrix.random_frames.accept_ratio"] = frames / rank_tests if rank_tests else 0.0
        out["trace.spans"] = n
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_of[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]}\n"
                )


def _ignore(result, exc, args, kwargs):
    pass
