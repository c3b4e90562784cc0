"""Span tracing of sublex layers from outside the package.

:class:`Tracer` replaces the public functions of the traced modules (and
the two ``frame_scores`` scorer methods) by wrappers that record one
span per call: its name, its parent span, its start and end.  Names
imported into other modules (``decoder.viterbi``,
``pronunciation.force_align``, ``hmm.em_reestimate`` ...) are patched too,
so every call path is seen.  Spans stay in memory in flat arrays; self
time (a span minus the part its child spans cover) is computed at the
end by :func:`self_times`.  Work counters (frames scored, trellis cells)
are taken from the arguments at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "sublex"
TRACED_MODULES = ("acoustic", "mlp", "hmm", "pronunciation", "decoder",
                  "pipeline", "corpus")

# scorer methods traced under the name of their module
TRACED_METHODS = (("acoustic", "AcousticModelSet", "frame_scores"),
                  ("mlp", "PosteriorScorer", "frame_scores"))


def _frames(features):
    return np.shape(features)[0]


def _count_frame_scores(self, features, *args, **kwargs):
    return {"frames": _frames(features)}


def _count_joint_viterbi2(u1, u2, scorer, *args, **kwargs):
    columns = getattr(u1, "n_columns", None)
    if columns is None:
        columns = _frames(u1)
    return {"cells": columns * _frames(u2) * scorer.n_units}


def _count_viterbi(graph, features, scorer, frame_scores=None):
    frames = _frames(features if frame_scores is None else frame_scores)
    return {"cells": frames * graph.n_nodes}


COUNTERS = {
    "acoustic.frame_scores": _count_frame_scores,
    "mlp.frame_scores": _count_frame_scores,
    "pronunciation.joint_viterbi2": _count_joint_viterbi2,
    "hmm.viterbi": _count_viterbi,
}


def self_times(parents, starts, ends) -> np.ndarray:
    """Per span: its duration minus the durations of its direct children.

    ``parents[i]`` is the index of span i's parent, or -1 for a top-level
    span.  Spans of one thread nest, so the children of a span cover
    disjoint parts of it.
    """
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=np.float64) - np.asarray(starts,
                                                          dtype=np.float64)
    child = np.zeros_like(dur)
    nested = parents >= 0
    np.add.at(child, parents[nested], dur[nested])
    return dur - child


def span_problems(parents, starts, ends, wall_start, wall_end,
                  tol: float = 1e-6) -> list[str]:
    """What is wrong with a set of spans, as messages (empty when sound).

    Sound spans of one thread nest: each ends no earlier than it starts,
    lies inside its parent (top-level spans inside the traced wall
    ``[wall_start, wall_end]``) and does not overlap the spans that
    share its parent.  Then every self time and the untraced remainder
    are >= 0.  ``tol`` allows for the resolution of the clock.
    """
    parents = np.asarray(parents, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    problems = []

    def report(what, bad):
        idx = np.flatnonzero(bad)
        if idx.size:
            problems.append(f"{idx.size} span(s) {what}, e.g. span "
                            f"{int(idx[0])}")

    report("end before they start", ends < starts - tol)
    nested = parents >= 0
    outer_start = np.where(nested, starts[np.maximum(parents, 0)], wall_start)
    outer_end = np.where(nested, ends[np.maximum(parents, 0)], wall_end)
    report("lie outside their parent",
           (starts < outer_start - tol) | (ends > outer_end + tol))
    # spans are numbered in start order; group them by parent
    order = np.argsort(parents, kind="stable")
    same = parents[order][1:] == parents[order][:-1]
    report("overlap an earlier sibling",
           same & (starts[order][1:] < ends[order][:-1] - tol))
    report("have a negative self time",
           self_times(parents, starts, ends) < -tol)
    remainder = (wall_end - wall_start) - float(
        np.sum(ends[~nested] - starts[~nested]))
    if remainder < -tol:
        problems.append(f"untraced remainder {remainder!r} s < 0")
    return problems


class Tracer:
    """Records spans around the traced sublex functions while installed.

    Use as a context manager: ``with Tracer() as tr: ...``; the original
    functions are restored on exit.  Single-threaded by design (the
    benchmark trains with ``threads=1``).
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.failed: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self.wall_start = self.wall_end = 0.0

    # -- span recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, counter=None):
        """A wrapper of ``fn`` that records a span named ``name``."""
        nid = self._name_id(name)
        stack = self._stack
        span_names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        counts, failed = self.counts, self.failed
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                for key, value in counter(*args, **kwargs).items():
                    counts[f"{name}.{key}"] += value
            idx = len(starts)
            span_names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                failed[name] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(name, owner, attribute, original) for every traced callable."""
        for short in TRACED_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    yield f"{short}.{attr}", mod, attr, value
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            yield f"{short}.{meth}", cls, meth, vars(cls)[meth]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        __import__(PACKAGE, fromlist=list(TRACED_MODULES))
        wrappers = {}
        for name, owner, attr, original in self._targets():
            wrapper = self.wrap(name, original, COUNTERS.get(name))
            wrappers[id(original)] = (original, wrapper)
            self._patch(owner, attr, wrapper)
        # re-bound names: `from .hmm import viterbi` and package re-exports
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        self.wall_start = time.perf_counter()

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        self.wall_end = time.perf_counter()
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries ----------------------------------------------------------

    @property
    def n_spans(self) -> int:
        return len(self.span_start)

    def spans(self):
        """Copies of the span arrays: (name id, parent, start, end)."""
        if self._stack:
            raise RuntimeError("spans still open")
        return (np.array(self.span_name, dtype=np.int64),
                np.array(self.span_parent, dtype=np.int64),
                np.array(self.span_start, dtype=np.float64),
                np.array(self.span_end, dtype=np.float64))

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, failed calls, total and self seconds."""
        ids, parents, starts, ends = self.spans()
        selfs = self_times(parents, starts, ends)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=ends - starts, minlength=k)
        self_s = np.bincount(ids, weights=selfs, minlength=k)
        return {name: {"calls": int(calls[i]), "failed": self.failed[name],
                       "total_s": float(total[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def wall_split(self) -> tuple[float, float, float]:
        """(wall seconds installed, summed self time, untraced remainder).

        The remainder is the wall time that no span covers: the wall
        minus the summed self time, which :meth:`problems` checks to be
        >= 0."""
        wall = self.wall_end - self.wall_start
        _, parents, starts, ends = self.spans()
        self_total = float(np.sum(self_times(parents, starts, ends)))
        return wall, self_total, wall - self_total

    def problems(self) -> list[str]:
        """:func:`span_problems` of the recorded spans."""
        _, parents, starts, ends = self.spans()
        return span_problems(parents, starts, ends, self.wall_start,
                             self.wall_end)

    def save(self, path) -> None:
        """Write the raw spans (names, parents, start, end) as ``.npz``."""
        name, parent, start, end = self.spans()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)


def span_cost(n: int = 20000) -> float:
    """Seconds one traced call adds over a direct call (calibration)."""
    def noop(x):
        return x

    probe = Tracer()
    traced = probe.wrap("probe", noop)
    clock = time.perf_counter
    t0 = clock()
    for i in range(n):
        noop(i)
    t1 = clock()
    for i in range(n):
        traced(i)
    t2 = clock()
    return max((t2 - t1) - (t1 - t0), 0.0) / n
