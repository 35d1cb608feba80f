"""Traced run of the lagflow CLI, and the reduction of its spans to layer figures.

As a program it wraps every public function of every ``lagflow`` module,
``ForcingPath.at``, the pipeline's stage functions and the numpy/scipy
n-dimensional FFTs, runs the CLI, and writes the spans when the run ends:

    python3 perfbench/tracer.py TRACE.npz <lagflow cli arguments...>

A span is (name, start, end, parent).  Modules bind names such as
``gradient`` or ``integrate_flow`` with ``from .x import y``, so each wrapper
replaces the function under every name that refers to it in any lagflow
module, not only in the module that defines it.  Nothing inside lagflow is
changed: the wrappers are installed from here, after import.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import warnings
from collections import Counter

import numpy as np

FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn")


class Tracer:
    """Spans and counters of one process, kept in memory until ``save``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()

    def wrap(self, name: str, fn, count=None):
        """fn recorded as span `name`; count(counters, args, kwargs, result)
        adds to the counters after each call that returns."""
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        ids, parents, starts, ends, stack = (self.ids, self.parents, self.starts,
                                             self.ends, self._stack)
        clock = time.perf_counter
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(ids)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def save(self, path, warning_counts: Counter) -> None:
        np.savez(path, names=np.array(self.names or [""]),
                 ids=np.array(self.ids, dtype=np.int64),
                 parents=np.array(self.parents, dtype=np.int64),
                 starts=np.array(self.starts), ends=np.array(self.ends),
                 counters=np.array(json.dumps(dict(self.counters))),
                 warnings=np.array(json.dumps(dict(warning_counts))))


# ---------------------------------------------------------------------------
# counters, computed from arguments and results

def _arguments(fn):
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return get


def _count_points(name):
    def count(c, args, kwargs, result):
        c[name] += result.shape[0]
    return count


def _count_fft(c, args, kwargs, result):
    c["fields.fft.elements"] += max(np.size(args[0]), np.size(result))


def _count_particle_steps(fn):
    get = _arguments(fn)

    def count(c, args, kwargs, result):
        a = get(args, kwargs)
        c["flow.particle_steps"] += result.count * max(1, int(round(a["T"] / a["dt"])))
    return count


def _count_pairs(fn, only_when_fitting: bool):
    get = _arguments(fn)

    def count(c, args, kwargs, result):
        a = get(args, kwargs)
        if not only_when_fitting or a["c_fit"] is None:
            c["weights.pairs"] += a["pair_count"]
    return count


def _count_candidates(c, args, kwargs, result):
    c["uniqueness.candidates"] += len(result["candidates"]) + len(result["failed"])
    c["uniqueness.candidates_failed"] += len(result["failed"])


def _count_bytes(c, args, kwargs, result):
    c["io.bytes_written"] += os.path.getsize(args[0] if args else kwargs["path"])


def _counter_for(name: str, fn):
    if name in ("fields.sample_trilinear", "fields.sample_spectral"):
        return _count_points(f"{name}.points")
    if name == "flow.integrate_flow":
        return _count_particle_steps(fn)
    if name == "weights.asymmetric_weight":
        return _count_pairs(fn, only_when_fitting=True)
    if name == "weights.verify_asymmetric":
        return _count_pairs(fn, only_when_fitting=False)
    if name == "uniqueness.multi_scheme_solutions":
        return _count_candidates
    if name.startswith("io.write_"):
        return _count_bytes
    return None


def install(tracer: Tracer) -> None:
    """Wrap lagflow's public functions, ForcingPath.at, the stages and the FFTs."""
    import scipy.fft

    import lagflow.cli
    import lagflow.pipeline
    from lagflow.forcing import ForcingPath

    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("lagflow.") and m is not None]
    wrappers = {}   # id(original) -> wrapper
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                name = f"{short}.{attr}"
                wrappers[id(obj)] = tracer.wrap(name, obj, _counter_for(name, obj))
    for lib in (np.fft, scipy.fft):
        for attr in FFT_NAMES:
            obj = getattr(lib, attr)
            wrappers[id(obj)] = tracer.wrap("fields.fft", obj, _count_fft)
            setattr(lib, attr, wrappers[id(obj)])
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
    ForcingPath.at = tracer.wrap("forcing.at", ForcingPath.at)
    stages = lagflow.pipeline._STAGES
    for stage, fn in list(stages.items()):
        stages[stage] = tracer.wrap(f"pipeline.stage.{stage}", fn)


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import lagflow.cli

    warning_counts: Counter = Counter()

    def record(message, category, filename, lineno, file=None, line=None):
        where = filename.split(os.sep + "src" + os.sep, 1)[-1]
        warning_counts[f"{where}:{lineno} {category.__name__}"] += 1

    warnings.simplefilter("always")
    warnings.showwarning = record
    try:
        return lagflow.cli.main(cli_args)
    finally:
        tracer.save(trace_path, warning_counts)


# ---------------------------------------------------------------------------
# reduction, run in the benchmark process after the traced child has exited

def summarize(path) -> dict:
    """Per-name calls/self/total seconds, counters, stage coverage and the
    Picard reference split, from a saved trace."""
    with np.load(path) as data:
        names = [str(s) for s in data["names"]]
        ids, parents = data["ids"], data["parents"]
        dur = data["ends"] - data["starts"]
        counters = json.loads(str(data["counters"]))
        warning_counts = json.loads(str(data["warnings"]))
    N, K = ids.size, len(names)
    inner = parents >= 0
    child = np.bincount(parents[inner], weights=dur[inner], minlength=N)
    self_t = dur - child
    by_name = {names[k]: {"calls": int(c), "self_s": float(s), "total_s": float(t)}
               for k, (c, s, t) in enumerate(zip(np.bincount(ids, minlength=K),
                                                   np.bincount(ids, self_t, minlength=K),
                                                   np.bincount(ids, dur, minlength=K)))}

    # each span's stage (parents precede children in span order)
    stage_of = np.full(N, -1, dtype=np.int64)
    is_stage = np.array([names[k].startswith("pipeline.stage.") for k in ids], dtype=bool)
    for i in range(N):
        stage_of[i] = i if is_stage[i] else (stage_of[parents[i]] if parents[i] >= 0 else -1)
    stages = {}
    for i in np.nonzero(is_stage)[0]:
        stage = names[ids[i]].rsplit(".", 1)[1]
        within = stage_of == i
        within[i] = False
        top_self = Counter()
        calls = Counter()
        for k, s in zip(ids[within], self_t[within]):
            top_self[names[k]] += float(s)
            calls[names[k]] += 1
        stages[stage] = {"seconds": float(dur[i]), "covered_s": float(child[i]),
                         "calls": dict(calls), "top_self": top_self.most_common(4)}

    # RK4 reference inside picard_iterate, and the part no caller reads: the
    # uniqueness candidates take only the last iterate
    ids_of = {n: k for k, n in enumerate(names)}
    ref = discarded = 0.0
    picard_id = ids_of.get("picard.picard_iterate", -1)
    multi_id = ids_of.get("uniqueness.multi_scheme_solutions", -1)
    for i in np.nonzero(ids == ids_of.get("flow.integrate_flow", -1))[0]:
        p = parents[i]
        if p < 0 or ids[p] != picard_id:
            continue
        ref += dur[i]
        while p >= 0 and ids[p] != multi_id:
            p = parents[p]
        if p >= 0:
            discarded += dur[i]
    return {"by_name": by_name, "counters": counters, "warnings": warning_counts,
            "stages": stages, "picard_reference_s": float(ref),
            "picard_discarded_reference_s": float(discarded), "spans": int(N)}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
