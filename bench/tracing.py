"""Span tracing of mimodet's public functions, installed from outside the library.

``Tracer.install`` replaces each traced function with a wrapper in every
mimodet module namespace that binds it (``from .decomp import
punctured_decompose`` makes a second binding in ``simharness``), and on
the class for methods.  Each wrapper records one span: name, start and
end in ns, the index of the enclosing span and the round it ran in.
Spans stay in memory; ``per_layer`` reduces them to self time, calls and
candidates per trial, where self time is a span's duration minus the
durations of its direct children (calls are synchronous, so children
never overlap).
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# (module, attribute path, per-call candidate count or None, metrics kept)
TRACED = (
    ("simharness", "run_sweep", None, ("self",)),
    ("simharness", "detect_instance", None, ("self",)),
    ("simharness", "generate_channel", None, ("self",)),
    ("rng", "trial_rng", None, ("self", "calls")),
    ("constellation", "Constellation.bits_of_points", None, ("self", "calls")),
    ("decomp", "punctured_decompose", None, ("self", "calls")),
    ("decomp", "transform_observation", None, ("self",)),
    ("detcore", "detect_one_sided", lambda out: len(out), ("self", "candidates")),
    ("detcore", "build_slicer_table", None, ("self", "calls")),
    ("detcore", "rescore_candidates", None, ("self",)),
    ("llrpost", "combine_lists", None, ("self",)),
    ("llrpost", "llr_two_sided", None, ("self",)),
    ("simharness", "uncoded_ver_point", None, ("self",)),
    ("simharness", "draw_uncoded_chunk", None, ("self",)),
    ("simharness", "ml_hard_batch", None, ("self",)),
    ("simharness", "wld_hard_batch", None, ("self",)),
    ("decomp", "punctured_decompose_batch", None, ("self",)),
    ("detcore", "detect_one_sided_batch", lambda out: out[1].size, ("self", "candidates")),
    ("simharness", "mu_classification_rates", None, ("self",)),
    ("mumimo", "MuScenario.create", None, ("self",)),
    ("mumimo", "classify_interferer", None, ("self",)),
    ("constellation", "make_constellation", None, ("self", "calls")),
    ("decomp", "ql_decompose", None, ("self", "calls")),
)

METRIC_UNITS = {
    "self": ("self_us_per_trial", "us/trial"),
    "calls": ("calls_per_trial", "calls/trial"),
    "candidates": ("candidates_per_trial", "cand/trial"),
}


def metric_names():
    """Every per-layer metric name with its unit, in table order."""
    return [
        (f"{module}.{path}.{METRIC_UNITS[kind][0]}", METRIC_UNITS[kind][1])
        for module, path, _, kinds in TRACED
        for kind in kinds
    ]


class Tracer:
    def __init__(self):
        self.names = [f"{module}.{path}" for module, path, _, _ in TRACED]
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.round = array("i")
        self.candidates = array("q")
        self.current_round = 0
        self._stack = []
        self._undo = []

    def _wrap(self, nid, fn, count):
        name_id, start, end = self.name_id, self.start, self.end
        parent, rounds, candidates = self.parent, self.round, self.candidates
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            rounds.append(self.current_round)
            start.append(0)
            end.append(0)
            candidates.append(0)
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if count is not None:
                candidates[i] = count(out)
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if (name == "mimodet" or name.startswith("mimodet.")) and m is not None]
        for nid, (module, path, count, _) in enumerate(TRACED):
            owner = sys.modules[f"mimodet.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(nid, raw.__func__, count))
                self._patch(owner, attr, raw, wrapped)
                continue
            wrapped = self._wrap(nid, raw, count)
            self._patch(owner, attr, raw, wrapped)
            if cls_path:
                continue
            for mod in modules:
                if mod is not owner and mod.__dict__.get(attr) is raw:
                    self._patch(mod, attr, raw, wrapped)

    def _patch(self, owner, attr, raw, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def per_layer(self, trials: int) -> dict[str, dict]:
        """Self time, calls and candidates per trial for every traced function."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        par = np.frombuffer(self.parent, dtype=np.int32)
        cand = np.frombuffer(self.candidates, dtype=np.int64)
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        k = len(self.names)
        self_ns = np.bincount(nid, weights=dur - child, minlength=k)
        calls = np.bincount(nid, minlength=k)
        cands = np.bincount(nid, weights=cand, minlength=k)
        per_kind = {"self": self_ns / 1e3, "calls": calls, "candidates": cands}
        out = {}
        for i, (module, path, _, kinds) in enumerate(TRACED):
            for kind in kinds:
                name, unit = METRIC_UNITS[kind]
                out[f"{module}.{path}.{name}"] = {
                    "value": float(per_kind[kind][i]) / trials, "unit": unit,
                }
        return out

    def spans(self) -> dict[str, list]:
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "round": self.round.tolist(),
            "candidates": self.candidates.tolist(),
        }
