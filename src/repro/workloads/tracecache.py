"""Compiled-trace replay cache: execute each workload once, replay forever.

Every ``simulate()`` call is trace-driven: the functional executor
re-derives the workload's correct-path :class:`~repro.workloads.trace.DynInst`
stream, and the cycle engine assigns timing to it.  The stream, however,
depends only on the workload's *architectural* content (program, initial
memory, initial registers, entry point) — never on the core or PFM
configuration, because PFM components only hint (the paper's Sections
2.1–2.3 safety argument, pinned by ``SimStats.arch_digest``).  Sweep and
fault campaigns therefore replay the exact same stream dozens of times
per workload.

This module compiles the stream once into an immutable
:class:`CompiledTrace` — parallel per-instruction columns (pcs, op-class
codes, memory addresses, values, taken flags) over interned mnemonic /
register / source-tuple tables — and replays it through a zero-copy
:class:`TraceCursor`: the cursor indexes the shared columns directly,
re-applies each store to the live memory image (so Load-Agent-injected
loads observe exactly the state they would under functional execution)
and rebuilds the architectural register file as it advances, so the
:class:`~repro.core.archstate.ArchDigest` of a replayed run is
byte-identical to an executed one.

Cache identity is a *content* digest of the built workload (program text,
labels, initial memory words, initial registers, entry), not of the
builder arguments — a builder code change that alters the kernel
invalidates the cache automatically, and distinct override spellings that
build identical workloads share one compilation.  Traces persist under
``<cache-dir>/traces/`` (``$REPRO_CACHE_DIR`` or ``.repro-cache``) and
are memoized in-process so every SweepPool worker compiles each workload
at most once.  Corrupt, stale, or version-skewed files are silently
recompiled, never trusted.

Escape hatch: ``REPRO_NO_TRACE_CACHE=1`` disables the subsystem entirely
(every run functionally executes, the pre-cache behavior).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.isa.instructions import OpClass
from repro.workloads.trace import DynInst

if TYPE_CHECKING:
    from repro.workloads.base import Workload
    from repro.workloads.mem import ImageRendering

#: Environment override for the on-disk cache location (shared with the
#: sweep engine's baseline cache; traces live in a ``traces/`` subdir).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default on-disk cache directory (relative to the invocation cwd).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Set to disable compiled-trace replay entirely (functional execution).
NO_TRACE_CACHE_ENV = "REPRO_NO_TRACE_CACHE"

#: Campaign windows reuse one compilation: requests at or above
#: :data:`FLOOR_THRESHOLD` compile to at least ``$REPRO_TRACE_FLOOR``
#: (default 40k, the CLI default window) so one cold compile serves every
#: later window of a sweep.  Tiny test windows compile exactly.
TRACE_FLOOR_ENV = "REPRO_TRACE_FLOOR"
DEFAULT_TRACE_FLOOR = 40_000
FLOOR_THRESHOLD = 10_000

#: Windows beyond this never compile (the columns would not fit memory
#: comfortably); such runs fall back to streaming functional execution.
TRACE_MAX_ENV = "REPRO_TRACE_MAX"
DEFAULT_TRACE_MAX = 2_000_000

#: Payload format version; bump on any layout change to shed stale files.
TRACE_VERSION = 1

_OPCLASSES: tuple[OpClass, ...] = tuple(OpClass)
_OPCODE_OF: dict[OpClass, int] = {op: i for i, op in enumerate(_OPCLASSES)}

#: In-process memoization: content key -> compiled trace.  Shared by all
#: simulate() calls in this process (SweepPool points, baseline cache
#: fills, benchmarks, and every worker thread of the resident service
#: daemon), so each process compiles a workload at most once.
_MEMO: dict[str, "CompiledTrace"] = {}

#: Serializes the compile-or-load slow path.  The service daemon runs
#: jobs on event-loop-owned worker threads over this one shared memo;
#: without the lock two concurrent first requests for the same workload
#: would both pay the functional-execution compile.  Memo *hits* stay
#: lock-free (single dict read under the GIL).
_COMPILE_LOCK = threading.Lock()

#: (registry name, canonical-overrides digest) -> (content key, pristine
#: memory rendering), so repeated builds of one sweep point render and
#: hash the workload content once.
_KEY_MEMO: dict[tuple[str, str], tuple[str, ImageRendering]] = {}

#: Subsystem accounting, exposed for tests and the ``cache`` CLI.
STATS = {
    "compiles": 0,
    "memo_hits": 0,
    "disk_hits": 0,
    "replays": 0,
    "recoveries": 0,
}


def canonical_bytes(obj: Any) -> bytes:
    """Deterministic byte encoding of a declarative spec.

    JSON with sorted keys covers plain values; dataclasses flatten to
    dicts; anything else (e.g. a prebuilt graph passed as a builder
    override) falls back to a pickle digest — deterministic for the
    list/dataclass payloads the workload builders accept.
    """

    def _default(value: Any) -> Any:
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return dataclasses.asdict(value)
        return {
            "__pickle_sha256__": hashlib.sha256(
                pickle.dumps(value, protocol=4)
            ).hexdigest()
        }

    return json.dumps(obj, sort_keys=True, default=_default).encode()


# --------------------------------------------------------------------- #
# cache identity
# --------------------------------------------------------------------- #


def workload_content_key(workload: "Workload") -> str:
    """Content digest of everything that determines the dynamic stream.

    Program instructions (with comments — they ride into the trace),
    label map, entry point, initial registers, and the initial memory
    words.  Bitstream and core/PFM configuration are deliberately
    excluded: hints never change the correct-path stream, so one trace
    serves baseline, PFM, and fault-injected runs alike.  The memory
    words are hashed as the image's rendered lines without the final
    newline; for an annotated workload those come from its pristine
    rendering, so no word is formatted again.
    """
    h = hashlib.sha256()
    program = workload.program
    h.update(
        f"v{TRACE_VERSION};base={program.base_pc};entry={workload.entry}\n".encode()
    )
    lines = [
        f"{i.pc};{i.mnemonic};{i.dst};{i.srcs};{i.imm};{i.target};{i.comment}"
        for i in program.instructions
    ]
    h.update("\n".join(lines).encode())
    h.update(b"\n=labels=\n")
    for name in sorted(program.labels):
        h.update(f"{name}={program.labels[name]}\n".encode())
    h.update(b"=regs=\n")
    regs = workload.initial_regs
    for name in sorted(regs):
        h.update(f"{name}={regs[name]!r}\n".encode())
    h.update(b"=mem=\n")
    last = b""
    for chunk in workload.memory.rendered():
        h.update(last)
        last = chunk
    h.update(last[:-1])
    return h.hexdigest()[:20]


def annotate(workload: "Workload", name: str, overrides: dict) -> None:
    """Stamp a registry-built workload with its trace-cache identity.

    Called by :func:`repro.registry.workloads.build_workload`.  The
    built memory image is snapshotted (:meth:`MemoryImage.snapshot`), so
    the run's digest re-renders only the blocks it writes.  The pristine
    rendering and the content key are memoized per ``(name,
    canonical-overrides)``: sweep campaigns that rebuild the same point
    render and hash the workload content once per process, and later
    builds reuse the rendering.  Builders are seeded, so a rebuild has
    the same image; one whose word count differs is rendered afresh.
    """
    workload.build_ref = (name, dict(overrides))
    memory = workload.memory
    try:
        overrides_digest = hashlib.sha256(
            canonical_bytes({"name": name, "overrides": overrides})
        ).hexdigest()
    except Exception:
        # Unpicklable override: still cacheable, just never memoized.
        memory.snapshot()
        workload.trace_key = workload_content_key(workload)
        return
    memo_key = (name, overrides_digest)
    memo = _KEY_MEMO.get(memo_key)
    if memo is None or memo[1].nwords != memory.touched_words():
        rendering = memory.snapshot()
        memo = _KEY_MEMO[memo_key] = (workload_content_key(workload), rendering)
    else:
        memory.snapshot(memo[1])
    workload.trace_key = memo[0]


# --------------------------------------------------------------------- #
# the compiled form
# --------------------------------------------------------------------- #


class CompiledTrace:
    """Immutable compiled correct-path stream of one workload.

    Parallel per-instruction columns plus interned tables.  ``length`` is
    the number of compiled instructions; ``halted`` records whether the
    program halted at that point (a halted trace serves *any* window).
    """

    __slots__ = (
        "name", "key", "length", "halted",
        "pcs", "next_pcs", "op_codes", "mnemonic_idx", "dst_idx",
        "srcs_idx", "comment_idx", "mem_addrs", "store_values",
        "dst_values", "taken",
        "mnemonics", "registers", "src_tuples", "comments",
        "_cols", "_nd",
    )

    def __init__(self, name: str, key: str) -> None:
        self.name = name
        self.key = key
        self.length = 0
        self.halted = False
        self.pcs: list[int] = []
        self.next_pcs: list[int] = []
        self.op_codes: list[int] = []
        self.mnemonic_idx: list[int] = []
        self.dst_idx: list[int] = []
        self.srcs_idx: list[int] = []
        self.comment_idx: list[int] = []
        self.mem_addrs: list[int | None] = []
        self.store_values: list[float | None] = []
        self.dst_values: list[float | None] = []
        self.taken: list[bool | None] = []
        self.mnemonics: list[str] = []
        self.registers: list[str] = []
        self.src_tuples: list[tuple[str, ...]] = []
        self.comments: list[str] = []
        self._cols: tuple | None = None
        self._nd: dict[str, Any] | None = None

    # ------------------------------------------------------------------ #

    @classmethod
    def compile(
        cls, workload: "Workload", length: int, key: str, name: str
    ) -> "CompiledTrace":
        """Functionally execute a *fresh* workload into the compiled form.

        The workload's memory image is consumed (mutated to the
        ``length``-instruction state); callers must pass a dedicated
        fresh build, never one that will be simulated afterwards.
        """
        trace = cls(name, key)
        mn_table: dict[str, int] = {}
        reg_table: dict[str, int] = {}
        srcs_table: dict[tuple[str, ...], int] = {}
        cm_table: dict[str, int] = {}

        def intern(table: dict, value: Any) -> int:
            idx = table.get(value)
            if idx is None:
                idx = len(table)
                table[value] = idx
            return idx

        executor = workload.executor()
        pcs = trace.pcs
        next_pcs = trace.next_pcs
        op_codes = trace.op_codes
        mnemonic_idx = trace.mnemonic_idx
        dst_idx = trace.dst_idx
        srcs_idx = trace.srcs_idx
        comment_idx = trace.comment_idx
        mem_addrs = trace.mem_addrs
        store_values = trace.store_values
        dst_values = trace.dst_values
        taken = trace.taken
        opcode_of = _OPCODE_OF
        for dyn in executor.run(length):
            pcs.append(dyn.pc)
            next_pcs.append(dyn.next_pc)
            op_codes.append(opcode_of[dyn.op_class])
            mnemonic_idx.append(intern(mn_table, dyn.mnemonic))
            dst_idx.append(-1 if dyn.dst is None else intern(reg_table, dyn.dst))
            srcs_idx.append(intern(srcs_table, dyn.srcs))
            comment_idx.append(intern(cm_table, dyn.comment))
            mem_addrs.append(dyn.mem_addr)
            store_values.append(dyn.store_value)
            dst_values.append(dyn.dst_value)
            taken.append(dyn.taken)

        trace.length = len(pcs)
        trace.halted = executor.halted
        trace.mnemonics = list(mn_table)
        trace.registers = list(reg_table)
        trace.src_tuples = list(srcs_table)
        trace.comments = list(cm_table)
        return trace

    # ------------------------------------------------------------------ #

    def check_columns(self) -> None:
        """Validate column lengths against the header count.

        ``from_payload`` performs this check on every disk load, but a
        trace truncated *after* decode (a torn in-memory copy, a buggy
        builder mutating columns, or a hand-constructed trace in tests)
        used to replay silently with short columns and crash — or worse,
        wrap — deep inside the cursor.  Every replay entry point calls
        this instead, raising the same corruption error as the loader.
        """
        columns = (
            self.pcs, self.next_pcs, self.op_codes, self.mnemonic_idx,
            self.dst_idx, self.srcs_idx, self.comment_idx,
            self.mem_addrs, self.store_values, self.dst_values,
            self.taken,
        )
        if any(len(col) != self.length for col in columns):
            raise ValueError("trace column lengths disagree with header")

    def columns(self) -> tuple:
        """Decoded per-instruction columns (shared, built once).

        Interned index columns expand to columns of shared object
        references so the replay loop pays a single list index per field.
        """
        cols = self._cols
        if cols is None:
            self.check_columns()
            mnemonics = self.mnemonics
            registers = self.registers
            src_tuples = self.src_tuples
            comments = self.comments
            opclasses = _OPCLASSES
            cols = (
                self.pcs,
                [mnemonics[i] for i in self.mnemonic_idx],
                [opclasses[c] for c in self.op_codes],
                [None if i < 0 else registers[i] for i in self.dst_idx],
                [src_tuples[i] for i in self.srcs_idx],
                self.mem_addrs,
                self.store_values,
                self.dst_values,
                self.taken,
                self.next_pcs,
                [comments[i] for i in self.comment_idx],
            )
            self._cols = cols
        return cols

    def cursor(
        self, memory: Any, initial_regs: dict[str, float] | None
    ) -> "TraceCursor":
        """Zero-copy replay cursor over this trace for one simulation."""
        self.check_columns()
        STATS["replays"] += 1
        return TraceCursor(self, memory, initial_regs)

    def ndarrays(self) -> "dict[str, Any] | None":
        """Numeric columns as NumPy arrays (shared, built once).

        Feeds the vectorized backend's per-trace profile: op codes,
        dst-register indices, taken flags, next-pcs, and the iline column
        as dense integer arrays; store addresses/values as float arrays
        with NaN holes (``mem_addrs``/``store_values`` are None except on
        memory ops, and stores never carry NaN payloads in practice —
        the backend only consumes these where the op-code mask says a
        store exists, so the NaN encoding is a representation detail).
        Returns None when numpy is unavailable.
        """
        if self._nd is not None:
            return self._nd
        # Validate before the availability gate: a torn trace is corrupt
        # whether or not numpy is importable.
        self.check_columns()
        try:
            import numpy as np
        except ImportError:  # pragma: no cover - numpy baked into the image
            return None
        self._nd = {
            "op_codes": np.asarray(self.op_codes, dtype=np.int8),
            "dst_idx": np.asarray(self.dst_idx, dtype=np.int32),
            "srcs_idx": np.asarray(self.srcs_idx, dtype=np.int32),
            "pcs": np.asarray(self.pcs, dtype=np.int64),
            "next_pcs": np.asarray(self.next_pcs, dtype=np.int64),
            "taken": np.asarray(
                [bool(t) for t in self.taken], dtype=np.bool_
            ),
            "mem_addrs": np.asarray(
                [-1 if a is None else a for a in self.mem_addrs],
                dtype=np.int64,
            ),
        }
        return self._nd

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def to_payload(self) -> dict:
        return {
            "version": TRACE_VERSION,
            "name": self.name,
            "key": self.key,
            "length": self.length,
            "halted": self.halted,
            "pcs": self.pcs,
            "next_pcs": self.next_pcs,
            "op_codes": self.op_codes,
            "mnemonic_idx": self.mnemonic_idx,
            "dst_idx": self.dst_idx,
            "srcs_idx": self.srcs_idx,
            "comment_idx": self.comment_idx,
            "mem_addrs": self.mem_addrs,
            "store_values": self.store_values,
            "dst_values": self.dst_values,
            "taken": self.taken,
            "mnemonics": self.mnemonics,
            "registers": self.registers,
            "src_tuples": self.src_tuples,
            "comments": self.comments,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CompiledTrace":
        if payload["version"] != TRACE_VERSION:
            raise ValueError(f"trace version {payload['version']} != {TRACE_VERSION}")
        trace = cls(payload["name"], payload["key"])
        trace.length = payload["length"]
        trace.halted = payload["halted"]
        for field in (
            "pcs", "next_pcs", "op_codes", "mnemonic_idx", "dst_idx",
            "srcs_idx", "comment_idx", "mem_addrs", "store_values",
            "dst_values", "taken", "mnemonics", "registers", "src_tuples",
            "comments",
        ):
            setattr(trace, field, payload[field])
        columns = (
            trace.pcs, trace.next_pcs, trace.op_codes, trace.mnemonic_idx,
            trace.dst_idx, trace.srcs_idx, trace.comment_idx,
            trace.mem_addrs, trace.store_values, trace.dst_values,
            trace.taken,
        )
        if any(len(col) != trace.length for col in columns):
            raise ValueError("trace column lengths disagree with header")
        return trace


class TraceCursor:
    """Replays a :class:`CompiledTrace` as a functional-executor stand-in.

    Quacks like :class:`~repro.workloads.trace.FunctionalExecutor` for
    the cycle engine: ``run(limit)`` yields :class:`DynInst` records in
    program order, ``regs`` accumulates the architectural register file,
    and ``memory`` is the live image, updated store-by-store exactly when
    functional execution would have updated it (Load-Agent-injected loads
    from custom components read it mid-run).
    """

    __slots__ = ("trace", "memory", "regs", "halted")

    def __init__(
        self,
        trace: CompiledTrace,
        memory: Any,
        initial_regs: dict[str, float] | None,
    ) -> None:
        self.trace = trace
        self.memory = memory
        self.regs: dict[str, float] = dict(initial_regs or {})
        self.halted = False

    def run(self, max_instructions: int) -> Iterator[DynInst]:
        """Yield up to *max_instructions* replayed dynamic instructions."""
        trace = self.trace
        n = trace.length if max_instructions > trace.length else max_instructions
        (
            pcs, mnemonics, ops, dsts, srcs, addrs, svals, dvals, takens,
            npcs, comments,
        ) = trace.columns()
        regs = self.regs
        store = self.memory.store
        make = DynInst
        store_op = OpClass.STORE
        for i in range(n):
            op = ops[i]
            dst = dsts[i]
            addr = addrs[i]
            sval = svals[i]
            dval = dvals[i]
            dyn = make(
                i, pcs[i], mnemonics[i], op, dst, srcs[i], addr, sval,
                dval, takens[i], npcs[i], comments[i],
            )
            if op is store_op:
                store(addr, sval)
            if dst is not None and dst != "zero":
                regs[dst] = dval
            yield dyn
        if n == trace.length and trace.halted:
            self.halted = True


# --------------------------------------------------------------------- #
# the store
# --------------------------------------------------------------------- #


def enabled() -> bool:
    return not os.environ.get(NO_TRACE_CACHE_ENV)


def trace_dir(base: str | os.PathLike | None = None) -> Path:
    """The on-disk trace directory under the shared cache layout."""
    if base is None:
        base = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
    return Path(base) / "traces"


def _trace_path(name: str, key: str) -> Path:
    return trace_dir() / f"{name}--{key}.trace.pkl"


def _compile_length(need: int) -> int:
    floor = int(os.environ.get(TRACE_FLOOR_ENV, DEFAULT_TRACE_FLOOR))
    return max(need, floor) if need >= FLOOR_THRESHOLD else need


def _load_trace(path: Path, key: str) -> CompiledTrace | None:
    """Load and validate one trace file; None (never a raise) on any defect."""
    try:
        payload = pickle.loads(path.read_bytes())
        trace = CompiledTrace.from_payload(payload)
    except FileNotFoundError:
        return None
    except Exception:
        # Torn write, disk corruption, stale format: recompile below.
        STATS["recoveries"] += 1
        return None
    if trace.key != key:
        return None
    return trace


def _persist(path: Path, trace: CompiledTrace) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(pickle.dumps(trace.to_payload(), protocol=4))
        tmp.replace(path)  # atomic: concurrent workers agree on content
    except OSError:
        pass  # read-only cache dir: stay in-memory only


def _rebuild(workload: "Workload") -> "Workload | None":
    ref = workload.build_ref
    if ref is None:
        return None
    # Imported lazily: the registry autoloads workload modules, which
    # import this module's decorators' neighbors.
    from repro.registry.workloads import WORKLOADS

    try:
        return WORKLOADS.get(ref[0])(**ref[1])
    except Exception:
        return None


def get_trace(workload: "Workload", window: int) -> CompiledTrace | None:
    """Compiled trace covering *window* instructions, or None.

    None means "functionally execute": the cache is disabled, the
    workload was not registry-built (no identity), the window is beyond
    the compile ceiling, or a fresh rebuild failed verification.
    """
    key = getattr(workload, "trace_key", None)
    if key is None or window <= 0 or not enabled():
        return None
    if window > int(os.environ.get(TRACE_MAX_ENV, DEFAULT_TRACE_MAX)):
        return None

    memo = _MEMO.get(key)
    if memo is not None and (memo.halted or memo.length >= window):
        STATS["memo_hits"] += 1
        return memo

    with _COMPILE_LOCK:
        # Re-check under the lock: a sibling worker thread may have
        # compiled (or disk-loaded) this workload while we waited.
        memo = _MEMO.get(key)
        if memo is not None and (memo.halted or memo.length >= window):
            STATS["memo_hits"] += 1
            return memo

        ref = workload.build_ref
        name = ref[0] if ref is not None else workload.name
        path = _trace_path(name, key)
        disk = _load_trace(path, key)
        if disk is not None and (disk.halted or disk.length >= window):
            STATS["disk_hits"] += 1
            _MEMO[key] = disk
            return disk

        # Compile (or extend a too-short trace to the new high-water mark).
        have = max(
            memo.length if memo is not None else 0,
            disk.length if disk is not None else 0,
        )
        fresh = _rebuild(workload)
        if fresh is None:
            return None
        if workload_content_key(fresh) != key:
            # Nondeterministic builder: replay would diverge; refuse to cache.
            return None
        trace = CompiledTrace.compile(
            fresh, _compile_length(max(window, have)), key=key, name=name
        )
        STATS["compiles"] += 1
        _MEMO[key] = trace
        _persist(path, trace)
        return trace


#: Callbacks fired by :func:`reset_memory_cache` so sibling caches keyed
#: on compiled traces (the numpy backend's per-trace replay profiles)
#: flush in lockstep with the trace memo.  Content-addressed caches stay
#: *correct* without this; the hook exists for benchmark/test hygiene.
_RESET_HOOKS: list = []


def register_reset_hook(hook) -> None:
    """Register *hook* () -> None to run on every reset_memory_cache()."""
    if hook not in _RESET_HOOKS:
        _RESET_HOOKS.append(hook)


def reset_memory_cache() -> None:
    """Drop all in-process state (tests and cold-path benchmarks)."""
    _MEMO.clear()
    _KEY_MEMO.clear()
    for counter in STATS:
        STATS[counter] = 0
    for hook in _RESET_HOOKS:
        hook()


# --------------------------------------------------------------------- #
# inspection (the ``cache`` CLI subcommand)
# --------------------------------------------------------------------- #


def trace_files(base: str | os.PathLike | None = None) -> list[dict]:
    """Metadata of every on-disk trace, sorted by filename.

    Each entry: path, size_bytes, valid, and (when loadable) workload
    name, key, length, halted.
    """
    directory = trace_dir(base)
    entries: list[dict] = []
    if not directory.is_dir():
        return entries
    for path in sorted(directory.glob("*.trace.pkl")):
        info: dict[str, Any] = {
            "path": path,
            "size_bytes": path.stat().st_size,
            "valid": False,
        }
        try:
            trace = CompiledTrace.from_payload(pickle.loads(path.read_bytes()))
        except Exception:
            entries.append(info)
            continue
        info.update(
            valid=True,
            workload=trace.name,
            key=trace.key,
            length=trace.length,
            halted=trace.halted,
        )
        entries.append(info)
    return entries


def clear_traces(base: str | os.PathLike | None = None) -> tuple[int, int]:
    """Delete every on-disk trace; return (files removed, bytes freed)."""
    removed = 0
    freed = 0
    directory = trace_dir(base)
    if not directory.is_dir():
        return removed, freed
    for pattern in ("*.trace.pkl", "*.tmp"):
        for path in directory.glob(pattern):
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size
    return removed, freed
