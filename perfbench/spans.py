"""Spans around the calls one library module makes into another.

The modules bind names at import (``from .x import y``), so a wrapper is
installed in the consumer's namespace, e.g. ``lp_witness.wht``.  Each span
records its id, parent, op id, layer, name, start and end (integer
nanoseconds).  Spans are kept in memory, in per-thread arrays, until the run
ends.  A layer's self time is its spans' durations minus the time their
child spans cover.

Work the benchmark cannot reach from outside stays in the caller's self
time: ``codes._pair_counts`` calls ``cube_fourier._butterfly`` directly, and
``CubeFunction`` construction is not wrapped.
"""

from __future__ import annotations

import gzip
import itertools
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cube_fourier", "codes", "ball_spectra", "bounds", "lp_witness")

# (consumer module, attribute, layer of the callee)
CROSS_CALLS = (
    ("lp_witness", "lambda_ball_exact", "ball_spectra"),
    ("lp_witness", "lambda_for_radius_recurrence", "ball_spectra"),
    ("lp_witness", "subset_top_eigenpair", "ball_spectra"),
    ("lp_witness", "ball_size", "bounds"),
    ("lp_witness", "autocorrelation", "codes"),
    ("lp_witness", "dual_distance", "codes"),
    ("lp_witness", "min_distance", "codes"),
    ("lp_witness", "random_code", "codes"),
    ("lp_witness", "convolve", "cube_fourier"),
    ("lp_witness", "essential_support_size", "cube_fourier"),
    ("lp_witness", "inverse_wht", "cube_fourier"),
    ("lp_witness", "wht", "cube_fourier"),
    ("lp_witness", "sweep_dimension_cap", "cube_fourier"),
    ("codes", "int_wht", "cube_fourier"),
    ("codes", "hamming_weights", "cube_fourier"),
    ("ball_spectra", "hamming_weights", "cube_fourier"),
    ("bounds", "lambda_ball_exact", "ball_spectra"),
    ("bounds", "lambda_for_radius_recurrence", "ball_spectra"),
    ("bounds", "min_radius_for_lambda", "ball_spectra"),
    # Calls inside one module, wrapped for their counts and times.
    ("ball_spectra", "eigen_recurrence", "ball_spectra"),
    ("bounds", "ball_size", "bounds"),
    # The entry points the workloads call.
    ("lp_witness", "exhaustive_verify", "lp_witness"),
    ("lp_witness", "check_prop_ineq", "lp_witness"),
    ("lp_witness", "check_covering", "lp_witness"),
    ("bounds", "finite_code_bound", "bounds"),
)
# Generator functions: one span per item produced.
GENERATORS = (("lp_witness", "enumerate_linear_codes", "codes"),)
# (module, class, method, layer): methods called from another module.
METHODS = (
    ("codes", "LinearCode", "expand", "codes"),
    ("codes", "Code", "indicator", "codes"),
    ("codes", "Code", "int_indicator", "codes"),
    ("ball_spectra", "BallEigenWitness", "lift", "ball_spectra"),
)
# Butterflies per call of each transform, each over all 2^n entries.
BUTTERFLIES = {"wht": 1, "inverse_wht": 1, "int_wht": 1, "convolve": 3}


class Tracer:
    """Span recorder; install() wraps the library, uninstall() restores it."""

    FIELDS = ("sid", "parent", "op", "name", "start_ns", "end_ns", "n")

    def __init__(self):
        self.names: list[tuple[str, str]] = []  # name index -> (layer, name)
        self.op = -1
        self._root = 0  # top span of the current op: parent for pool threads
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._buffers: list[tuple] = []  # one set of column arrays per thread
        self._undo: list[tuple] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self._root = 0
        self._local.stack = []

    def _name_index(self, layer: str, name: str) -> int:
        self.names.append((layer, name))
        return len(self.names) - 1

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
        if not hasattr(local, "cols"):
            local.cols = tuple(array("q") for _ in self.FIELDS)
            self._buffers.append(local.cols)
        return local.stack, local.cols

    def _timed(self, idx: int, sized: bool):
        next_id = self._ids.__next__
        local = self._local
        clock = time.perf_counter_ns
        main = self._main
        tracer = self

        def call(fn, args, kwargs):
            try:
                stack, cols = local.stack, local.cols
            except AttributeError:
                stack, cols = tracer._thread_state()
            sid = next_id()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() == main:
                parent = 0
                tracer._root = sid
            else:
                parent = tracer._root
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                for col, value in zip(cols, (sid, parent, tracer.op, idx, t0, t1,
                                             args[0].n if sized else 0)):
                    col.append(value)

        return call

    def wrap(self, fn, layer: str, name: str):
        call = self._timed(self._name_index(layer, name), name in BUTTERFLIES)

        def wrapper(*args, **kwargs):
            return call(fn, args, kwargs)

        return wrapper

    def wrap_generator(self, fn, layer: str, name: str):
        call = self._timed(self._name_index(layer, name), False)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = call(next, (it,), {})
                except StopIteration:
                    return
                yield item

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, modules: dict) -> list[str]:
        """Wrap every listed name that exists; return the ones missing."""
        missing = []
        for consumer, attr, layer in CROSS_CALLS:
            mod = modules[consumer]
            if hasattr(mod, attr):
                self._patch(mod, attr, self.wrap(getattr(mod, attr), layer, attr))
            else:
                missing.append(f"{consumer}.{attr}")
        for consumer, attr, layer in GENERATORS:
            mod = modules[consumer]
            if hasattr(mod, attr):
                self._patch(mod, attr, self.wrap_generator(getattr(mod, attr), layer, attr))
            else:
                missing.append(f"{consumer}.{attr}")
        for home, cls_name, attr, layer in METHODS:
            cls = getattr(modules[home], cls_name, None)
            if cls is not None and attr in vars(cls):
                self._patch(cls, attr, self.wrap(vars(cls)[attr], layer, f"{cls_name}.{attr}"))
            else:
                missing.append(f"{home}.{cls_name}.{attr}")
        return missing

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def table(self) -> dict:
        """All spans as int64 columns keyed by FIELDS."""
        return {
            field: np.concatenate([np.frombuffer(cols[k], dtype=np.int64)
                                   for cols in self._buffers] or [np.zeros(0, np.int64)])
            for k, field in enumerate(self.FIELDS)
        }

    def write(self, path) -> None:
        t = self.table()
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("sid,parent,op,layer,name,start_ns,end_ns\n")
            for sid, parent, op, idx, t0, t1 in zip(
                    *(t[f].tolist() for f in self.FIELDS[:6])):
                layer, name = self.names[idx]
                fh.write(f"{sid},{parent},{op},{layer},{name},{t0},{t1}\n")


def self_times(sid, parent, start, end) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Integer-nanosecond int64 arrays; parent 0 means none.  Children are
    clipped to their parent, and children from pool threads may overlap each
    other, so the covered time is the length of their union.
    """
    sid, parent, start, end = (np.asarray(a, dtype=np.int64) for a in (sid, parent, start, end))
    out = end - start
    if not len(sid):
        return out
    by_sid = np.argsort(sid)
    pos = np.searchsorted(sid[by_sid], parent).clip(0, len(sid) - 1)
    child = np.nonzero((parent != 0) & (sid[by_sid][pos] == parent))[0]
    if not len(child):
        return out
    prow = by_sid[pos[child]]
    s = np.maximum(start[child], start[prow])
    e = np.maximum(np.minimum(end[child], end[prow]), s)
    order = np.lexsort((s, prow))
    s, e, prow = s[order], e[order], prow[order]
    # Running maximum of the ends within each parent's group: shift each group
    # above the previous one so one global accumulate restarts per group.
    first = np.ones(len(prow), dtype=bool)
    first[1:] = prow[1:] != prow[:-1]
    group = np.cumsum(first) - 1
    base = int(s.min())
    width = int(e.max()) - base + 1
    shifted = e - base + group * width
    reach = np.maximum.accumulate(shifted) - group * width + base
    prev = np.empty_like(reach)
    prev[1:] = reach[:-1]
    prev[first] = s[first]
    covered = np.maximum(e - np.maximum(s, prev), 0)
    out -= np.bincount(prow, weights=covered, minlength=len(sid)).astype(np.int64)
    return out


def layer_metrics(tracer: Tracer, skip_ops=frozenset(), keep_ops=None) -> dict:
    """Per-layer self time, call counts and the cube_fourier work counts.

    Spans of the ops in skip_ops are left out; with keep_ops, only those
    ops' spans are counted.
    """
    t = tracer.table()
    mask = ~np.isin(t["op"], list(skip_ops))
    if keep_ops is not None:
        mask &= np.isin(t["op"], list(keep_ops))
    t = {k: v[mask] for k, v in t.items()}
    selfs = self_times(t["sid"], t["parent"], t["start_ns"], t["end_ns"])
    durations = t["end_ns"] - t["start_ns"]
    count = len(tracer.names)
    name_self = np.bincount(t["name"], weights=selfs, minlength=count) / 1e9
    name_incl = np.bincount(t["name"], weights=durations, minlength=count) / 1e9
    name_calls = np.bincount(t["name"], minlength=count)
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    by_name_s: dict = defaultdict(float)
    by_name_calls: dict = defaultdict(int)
    for idx, (layer, name) in enumerate(tracer.names):
        self_s[layer] += float(name_self[idx])
        calls[layer] += int(name_calls[idx])
        by_name_s[name] += float(name_incl[idx])
        by_name_calls[name] += int(name_calls[idx])
    points = bytes_computed = 0
    transform_ns = 0
    for idx, (_layer, name) in enumerate(tracer.names):
        passes = BUTTERFLIES.get(name)
        if passes:
            sizes = t["n"][t["name"] == idx]
            points += passes * int(np.sum(np.left_shift(1, sizes)))
            bytes_computed += passes * 16 * int(np.sum(sizes * np.left_shift(1, sizes)))
            transform_ns += int(selfs[t["name"] == idx].sum())
    total = sum(self_s.values())
    return {
        "self_s": self_s,
        "calls": calls,
        "self_share": {k: (v / total if total else 0.0) for k, v in self_s.items()},
        "by_name_s": dict(by_name_s),
        "by_name_calls": dict(by_name_calls),
        "points": points,
        "bytes_computed": bytes_computed,
        "ns_per_point": transform_ns / points if points else 0.0,
    }
