"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions and methods of each simulator
layer (the ``LAYERS`` table below) from outside the program: nothing in
``src/`` knows it exists, and a wrapper only reads the clock around the
call it forwards, so traced runs must produce the same bytes as untraced
ones (``run.py`` checks this on every traced op).

Spans are kept in memory.  Per layer name the tracer accumulates calls,
inclusive time and self time, where self time is a span's duration minus
the time its child spans cover (a per-thread stack charges each finished
span to its parent).  Individual spans are also kept for the Perfetto
trace, all of them for coarse layers and the first ``HOT_EVENT_CAP`` per
name for the per-instruction layers, which run hundreds of thousands of
times per op.  Each process writes one JSON file into the trace
directory when it ends; forked pool workers write theirs from a
``multiprocessing`` finalizer, since they leave through ``os._exit``.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import multiprocessing.util
import os
import threading
import time

#: Layer name -> (module, attribute paths).  A path ``Class.method`` wraps
#: the method on that class; a plain name wraps a module-level function.
#: ``Sub<-Base.method`` installs the wrapped base method on a subclass
#: only, to tell apart two users of one inherited method.
LAYERS: dict[str, list[tuple[str, tuple[str, ...]]]] = {
    "registry.build_workload": [
        ("repro.registry.workloads", ("build_workload",)),
        ("repro.registry", ("build_workload",)),
    ],
    "tracecache.get_trace": [("repro.workloads.tracecache", ("get_trace",))],
    "tracecache.content_key": [
        ("repro.workloads.tracecache", ("workload_content_key",)),
    ],
    "backends.resolve": [("repro.backends", ("resolve_backend",))],
    "backends.numpy.run": [
        ("repro.backends.numpy_backend", ("NumpyBackend.run",)),
    ],
    "core.init": [("repro.core.core", ("SuperscalarCore.__init__",))],
    "core.run": [("repro.core.core", ("SuperscalarCore.run",))],
    "core.process": [("repro.core.core", ("SuperscalarCore._process",))],
    "core.stages.fetch": [
        ("repro.core.stages.fetch", (
            "FetchStage.fetch", "FetchStage.predict_branch",
            "FetchStage.btb_redirect", "FetchStage.predict_jump_target",
        )),
    ],
    "core.stages.dispatch": [
        ("repro.core.stages.dispatch", ("DispatchStage.dispatch",)),
    ],
    "core.stages.execute": [
        ("repro.core.stages.execute", ("ExecuteStage.execute",)),
    ],
    "core.stages.retire": [
        ("repro.core.stages.retire", ("RetireStage.retire",)),
    ],
    "frontend.predictor": [
        ("repro.frontend.tagescl", (
            "TageSCL.predict", "TageSCL.update", "TageSCL.on_taken_control",
        )),
    ],
    "memory.hierarchy": [
        ("repro.memory.hierarchy", (
            "MemoryHierarchy.data_access", "MemoryHierarchy.inst_access",
            "MemoryHierarchy.prefetch_into_l1d",
            "MemoryHierarchy.prefetch_into_l2",
        )),
    ],
    "pfm.fetch_port": [
        ("repro.pfm.tenancy", (
            "PartitionedFST<-_PartitionedTable.lookup", "FabricSlot.on_fetch",
        )),
        ("repro.pfm.fabric", (
            "PFMFabric.predict_hit", "PFMFabric._on_fetch_multi",
        )),
    ],
    "pfm.retire_port": [
        ("repro.pfm.tenancy", (
            "PartitionedRST<-_PartitionedTable.lookup",
            "FabricSlot.on_core_squash",
        )),
        ("repro.pfm.fabric", (
            "PFMFabric._on_retire_single", "PFMFabric._on_retire_multi",
            "PFMFabric.on_core_squash",
        )),
    ],
    "pfm.load_agent": [
        ("repro.pfm.load_agent", ("LoadAgent.tick", "LoadAgent.next_event_time")),
    ],
    "archstate.observe": [("repro.core.archstate", ("ArchDigest.observe",))],
    "archstate.finalize": [("repro.core.archstate", ("ArchDigest.finalize",))],
    "pool.run": [("repro.experiments.pool", ("SweepPool.run",))],
    "pool.execute": [("repro.experiments.pool", ("SweepPool._execute",))],
    "pool.run_point": [("repro.experiments.pool", ("run_point",))],
    "store.get": [("repro.store.resultstore", ("ResultStore.get",))],
    "store.put": [("repro.store.resultstore", ("ResultStore.put",))],
    "service.run": [("repro.service.executor", ("ServiceBackend.run_job",))],
}

#: Layers called per simulated instruction: their spans are aggregated,
#: and only the first ``HOT_EVENT_CAP`` per process go into the trace file.
HOT = frozenset({
    "core.process", "core.stages.fetch", "core.stages.dispatch",
    "core.stages.execute", "core.stages.retire", "frontend.predictor",
    "memory.hierarchy", "pfm.fetch_port", "pfm.retire_port",
    "pfm.load_agent", "archstate.observe",
})
HOT_EVENT_CAP = 200


class Tracer:
    """In-memory spans and per-layer totals for one process."""

    def __init__(self, out_dir: str, role: str):
        self.out_dir = out_dir
        self.role = role
        #: name -> [calls, inclusive ns, self ns]; the lists are updated in
        #: place so wrappers can hold them across a fork-time reset.
        self.totals: dict[str, list[int]] = {}
        #: (name, thread id, start ns, duration ns, parent name)
        self.events: list[tuple[str, int, int, int, str | None]] = []
        self.counters: dict[str, int] = {}
        self._stacks: dict[int, list[list]] = {}
        self._kept: dict[str, int] = {}
        self._pid = os.getpid()
        self._started = time.perf_counter_ns()
        self._trace_stats_base: dict[str, int] = {}

    # -- recording ----------------------------------------------------- #

    def wrap(self, fn, name: str, post=None):
        """*fn* wrapped in a span named *name*; ``post(tracer, result,
        args, ns)`` runs after each call to update counters."""
        record = self.totals.setdefault(name, [0, 0, 0])
        stacks = self._stacks
        events = self.events
        kept = self._kept
        cap = HOT_EVENT_CAP if name in HOT else None
        clock = time.perf_counter_ns
        ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
            frame = [0, name]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if parent is not None:
                    parent[0] += duration
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[0]
                if cap is None or kept.get(name, 0) < cap:
                    kept[name] = kept.get(name, 0) + 1
                    events.append((
                        name, tid, start, duration,
                        parent[1] if parent is not None else None,
                    ))
            if post is not None:
                post(self, result, args, duration)
            return result

        return wrapper

    def add_span(self, name: str, start: int, duration: int) -> None:
        """Record a span timed by the caller (the benchmark's own calls,
        such as the import of the CLI module before wrappers exist)."""
        record = self.totals.setdefault(name, [0, 0, 0])
        record[0] += 1
        record[1] += duration
        record[2] += duration
        self.events.append(
            (name, threading.get_ident(), start, duration, None)
        )

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- process lifetime ---------------------------------------------- #

    def _reset_after_fork(self) -> None:
        for record in self.totals.values():
            record[0] = record[1] = record[2] = 0
        self.events.clear()
        self.counters.clear()
        self._stacks.clear()
        self._kept.clear()
        self._pid = os.getpid()
        self._started = time.perf_counter_ns()
        self.role = "worker"
        self._snapshot_trace_stats()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def _snapshot_trace_stats(self) -> None:
        from repro.workloads import tracecache

        self._trace_stats_base = dict(tracecache.STATS)

    def dump(self) -> None:
        """Write this process's spans; called once when the process ends."""
        from repro.workloads import tracecache

        for key, value in tracecache.STATS.items():
            delta = value - self._trace_stats_base.get(key, 0)
            if delta:
                self.count(f"tracecache.{key}", delta)
        payload = {
            "pid": self._pid,
            "role": self.role,
            "start_ns": self._started,
            "end_ns": time.perf_counter_ns(),
            "totals": self.totals,
            "counters": self.counters,
            "events": self.events,
        }
        path = os.path.join(self.out_dir, f"{self.role}-{self._pid}.json")
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    owner_path, _, attr = path.rpartition(".")
    if "<-" in owner_path:
        target_name, _, source_name = owner_path.partition("<-")
        source = getattr(module, source_name)
        return getattr(module, target_name), source.__dict__[attr], attr
    if owner_path:
        owner = getattr(module, owner_path)
        return owner, owner.__dict__[attr], attr
    return module, getattr(module, attr), attr


def _core_run_post(tracer: Tracer, stats, args, duration: int) -> None:
    tracer.count("core.instructions", stats.instructions)
    tracer.count("backends.fallbacks", stats.backend_fallbacks)


def _store_get_post(tracer: Tracer, stats, args, duration: int) -> None:
    tracer.count("store.hits" if stats is not None else "store.misses")


def _pool_run_post(tracer: Tracer, result, args, duration: int) -> None:
    # args[0] is the SweepPool: its capacity is wall time x workers.
    tracer.count("pool.capacity_ns", duration * args[0].jobs)


#: Counters updated after a layer's call returns.
POSTS = {
    "core.run": _core_run_post,
    "store.get": _store_get_post,
    "pool.run": _pool_run_post,
}


def install(out_dir: str, role: str) -> Tracer:
    """Wrap every layer in ``LAYERS`` and arrange for the spans to be
    written to *out_dir* when this process (or a forked child) ends."""
    tracer = Tracer(out_dir, role)
    wrapped: dict[tuple[int, str], object] = {}
    for name, targets in LAYERS.items():
        post = POSTS.get(name)
        for module_name, paths in targets:
            for path in paths:
                owner, fn, attr = _resolve(module_name, path)
                # One function re-exported under two names gets one wrapper.
                key = (id(fn), name)
                wrapper = wrapped.get(key)
                if wrapper is None:
                    wrapper = wrapped[key] = tracer.wrap(fn, name, post)
                setattr(owner, attr, wrapper)
    tracer._snapshot_trace_stats()
    multiprocessing.util.register_after_fork(tracer, Tracer._reset_after_fork)
    atexit.register(tracer.dump)
    return tracer
