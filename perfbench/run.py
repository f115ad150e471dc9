"""The repository benchmark: end-to-end host time of the PFM simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 40 --trace 0

Workloads (why each exists is in BENCHMARK.json and README.md):

* ``sweep``   -- the 27-point sweep matrix at window 15000 through a
  two-worker SweepPool into a fresh result store.
* ``service`` -- one closed-loop client submitting ``simulate`` requests
  to a resident daemon; four in five are answered from its caches.

Every run uses a private cache directory under ``.bench_tmp/`` (removed
at the end), compiles traces during set-up, and checks every output:
sweep JSON and service result bytes against ``references.json`` when the
seed has references, every PFM point's ``arch_digest`` against its
baseline's, and repeated points against their first answer.  With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` the run repeats its ops under the span tracer, checks the
traced outputs are byte-identical, reports per-layer metrics and writes a
Perfetto trace to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import plan  # noqa: E402

CHILD = str(HERE / "child.py")
SETUPS = 3  # set-ups per run; setup_s is their median
OP_TIMEOUT = 120.0
#: Service status polling: back to back for the first 25 ms, then 10 ms.
POLL_FAST = 0.0
POLL_SLOW = 0.01
FAST_POLLING_NS = 25_000_000
#: The service daemon's memory grows with every point it answers, so its
#: peak RSS is read after this many cycles: a run that completes more
#: requests must not read as using more memory.
RSS_CYCLES = 10
#: Stop starting new ops past this point so a run ends well within 180 s.
RUN_DEADLINE = 140.0
#: Sweeps per untraced sweep run, at least.
SWEEPS = 2


class CheckFailed(Exception):
    """An op's output did not match its reference or invariant."""


class Bench:
    """One run: private directories, child processes, op records."""

    def __init__(self, args):
        self.args = args
        self.seed = args.seed
        self.trace = bool(args.trace)
        self.started = time.monotonic()
        self.tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
        self.tmp.mkdir(parents=True)
        self._dirs = 0
        self.daemons: list[subprocess.Popen] = []
        refs = json.loads((HERE / "references.json").read_text())
        self.refs = refs["seeds"].get(str(self.seed))
        #: Wall seconds of each op, and the simulated instructions of the
        #: points they computed.
        self.walls: list[float] = []
        self.instructions = 0
        #: Latency samples in seconds: one per op, or on ``sweep`` one per
        #: point (the op's launch until the point's result is stored).
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_times: list[float] = []
        self.layers: dict[str, float] = {}
        #: Peak RSS in KiB: of finished children, and of the daemon.
        self.children_kb = 0
        self.daemon_kb = 0

    # -- plumbing ------------------------------------------------------ #

    def new_dir(self, name: str) -> Path:
        self._dirs += 1
        path = self.tmp / f"{self._dirs:03d}-{name}"
        path.mkdir()
        return path

    def env(self, cache: Path) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["REPRO_CACHE_DIR"] = str(cache)
        return env

    def run(self, argv: list[str], cache: Path) -> tuple[str, float]:
        """Run a child to completion; returns (stdout, wall seconds)."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=self.env(cache),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=OP_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise CheckFailed(f"{argv[1]} timed out after {OP_TIMEOUT}s")
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            last = (err.strip().splitlines() or [""])[-1]
            raise CheckFailed(
                f"{' '.join(argv[1:3])} exited {proc.returncode}: {last}"
            )
        return out, wall

    def start_daemon(self, cache: Path, trace_dir: Path | None) -> subprocess.Popen:
        from repro.service.client import ServiceClient, wait_for_endpoint

        if trace_dir is None:
            argv = ["-m", "repro.service", "serve", "--cache-dir", str(cache)]
        else:
            argv = [CHILD, "serve", "--trace", str(trace_dir)]
        with open(cache / "daemon.log", "w") as log:
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env(cache),
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )
        self.daemons.append(proc)
        host, port = wait_for_endpoint(cache, timeout=60.0)
        ServiceClient(host, port).health()
        return proc

    @staticmethod
    def stop_daemon(proc: subprocess.Popen) -> None:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    def close(self) -> None:
        # Read before the daemons are reaped (see RSS_CYCLES).
        self.children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        for proc in self.daemons:
            self.stop_daemon(proc)
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    def rounds(self, seconds: float, least: int = 1):
        """Count rounds of whole ops: at least *least*, then another only
        if, at the mean round time so far, it ends within *seconds*."""
        start = time.monotonic()
        done = 0
        while True:
            yield done
            done += 1
            now = time.monotonic()
            elapsed = now - start
            if done >= least and (elapsed + elapsed / done > seconds
                                  or now - self.started > RUN_DEADLINE):
                return

    def op(self, fn, *args):
        """Run one op, counting it; an op that raises or fails a check is
        a failed op, and the run goes on with the next one."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - reported as a failed op
            self.failed += 1
            self.errors.append(
                str(exc) if isinstance(exc, CheckFailed)
                else f"{type(exc).__name__}: {exc}"
            )
            return None

    def setup(self, fn):
        """Set up ``SETUPS`` times from cold; returns the last set-up."""
        result = None
        for _ in range(SETUPS if not self.trace else 1):
            start = time.perf_counter()
            result = fn()
            self.setup_times.append(time.perf_counter() - start)
        return result

    # -- checks -------------------------------------------------------- #

    def expect(self, what: str, got, want) -> None:
        if got != want:
            raise CheckFailed(f"{what}: got {got!r}, want {want!r}")

    def reference(self, section: str, point: str):
        if self.refs is None:
            return None
        return self.refs[section].get(point)


# ---------------------------------------------------------------------- #
# sweep
# ---------------------------------------------------------------------- #


def sweep(b: Bench) -> None:
    def setup() -> Path:
        cache = b.new_dir("cache")
        b.run([CHILD, "warm", "--seed", str(b.seed)], cache)
        return cache

    cache = b.setup(setup)
    first: list[str] = []

    def one(trace_dir):
        out = b.new_dir("sweep") / "sweep.json"
        argv = [CHILD, "sweep", "--seed", str(b.seed), "--store",
                str(out.parent / "store"), "--out", str(out)]
        if trace_dir is not None:
            argv += ["--trace", str(trace_dir)]
        launched = time.monotonic_ns()
        stdout, wall = b.run(argv, cache)
        landed = json.loads(stdout.splitlines()[-1])["landed_ns"]
        text = out.read_text()
        shutil.rmtree(out.parent)
        if first:
            b.expect("sweep JSON vs the run's first sweep", text, first[0])
        else:
            first.append(text)
        payload = json.loads(text)
        baselines = {
            entry["workload"]: entry["stats"]["arch_digest"]
            for label, entry in payload["points"].items()
            if label.startswith("baseline:")
        }
        instructions = 0
        for label, entry in payload["points"].items():
            stats = entry["stats"]
            b.expect(f"{label} instructions", stats["instructions"],
                     plan.SWEEP_WINDOW)
            b.expect(f"{label} arch_digest vs baseline", stats["arch_digest"],
                     baselines[entry["workload"]])
            instructions += stats["instructions"]
        ref = b.reference("sweep", "sha256")
        if ref is not None:
            b.expect("sweep JSON sha256",
                     hashlib.sha256(text.encode()).hexdigest(), ref)
        b.expect("points stored", len(landed), len(payload["points"]))
        return wall, instructions, [(t - launched) / 1e9 for t in landed]

    ops = 0
    # An untraced run makes at least SWEEPS sweeps, so that a slow host
    # does not halve its samples; a traced run makes one.
    for _ in b.rounds(0, 1) if b.trace else b.rounds(b.args.seconds, SWEEPS):
        ops += 1
        done = b.op(one, None)
        if done is not None:
            b.walls.append(done[0])
            b.instructions += done[1]
            b.latencies += done[2]
    if b.trace:
        trace_dir = b.new_dir("trace")
        traced_wall = 0.0
        for _ in range(ops):
            done = b.op(one, trace_dir)
            if done is not None:
                traced_wall += done[0]
        b.layers = layer_metrics(
            trace_dir, ops, traced_wall, sum(b.walls), "sweep"
        )


# ---------------------------------------------------------------------- #
# service
# ---------------------------------------------------------------------- #


def service(b: Bench) -> None:
    from repro.service.client import (
        ServiceClient,
        ServiceError,
        discover_endpoint,
    )

    def setup(trace_dir=None):
        cache = b.new_dir("cache")
        out, _ = b.run([CHILD, "publish", "--seed", str(b.seed)], cache)
        published = [json.loads(line) for line in out.splitlines()]
        proc = b.start_daemon(cache, trace_dir)
        return cache, proc, published

    setups = []
    b.setup(lambda: setups.append(setup()))
    for _, proc, _ in setups[:-1]:
        b.stop_daemon(proc)
    cache, proc, published = setups[-1]

    answers: dict[str, bytes] = {}
    digests: dict[str, str] = {}
    for entry in published:
        ref = b.reference("service", entry["point"])
        if ref is not None:
            b.expect(f"published {entry['point']}", entry["sha256"],
                     ref["sha256"])
        digests[entry["point"]] = entry["arch_digest"]

    requests = plan.service_requests(b.seed)
    client_spans: list[tuple] = []

    def one(client, workload, label, record):
        name = plan.point_name(workload, label)
        wire = {
            "workload": workload,
            "window": plan.SERVICE_WINDOW,
            "config": label,
            "overrides": plan.overrides(workload, b.seed),
        }
        try:
            start = time.perf_counter_ns()
            job = client.submit("simulate", wire)["job_id"]
            submitted = time.perf_counter_ns()
            while True:
                status = client.status(job)
                if status["state"] in ("done", "failed", "cancelled"):
                    break
                waited = time.perf_counter_ns() - start
                if waited > OP_TIMEOUT * 1e9:
                    raise CheckFailed(f"{name}: still {status['state']}"
                                      f" after {OP_TIMEOUT}s")
                # Poll back to back while a cache hit may still land, so
                # its latency is not rounded up to a sleep; then gently,
                # so polls do not slow the simulation they wait for.
                time.sleep(POLL_FAST if waited < FAST_POLLING_NS else POLL_SLOW)
            fetch = time.perf_counter_ns()
            if status["state"] != "done":
                raise CheckFailed(f"{name}: job {status['state']}"
                                  f" ({status.get('error')})")
            data = client.result(job)
            end = time.perf_counter_ns()
        except ServiceError as exc:
            raise CheckFailed(f"{name}: {exc}") from None
        if record is not None:
            record.append((start, submitted, fetch, end))
        if name in answers:
            b.expect(f"{name} bytes vs its first answer", data, answers[name])
        answers.setdefault(name, data)
        payload = json.loads(data)
        stats = payload["stats"]
        b.expect(f"{name} instructions", stats["instructions"],
                 plan.SERVICE_WINDOW)
        ref = b.reference("service", name)
        if ref is not None:
            b.expect(f"{name} sha256", hashlib.sha256(data).hexdigest(),
                     ref["sha256"])
        digests[name] = stats["arch_digest"]
        return (end - start) / 1e9, stats["instructions"]

    client = ServiceClient(*discover_endpoint(cache))
    count = 0
    for _ in b.rounds(b.args.seconds / 2 if b.trace else b.args.seconds):
        if count == len(requests):
            break
        for index in range(count, count + plan.CYCLE):
            done = b.op(one, client, *requests[index], None)
            if done is not None:
                b.walls.append(done[0])
                b.latencies.append(done[0])
                if index % plan.CYCLE == 0:  # the cycle's new point
                    b.instructions += done[1]
        count += plan.CYCLE
        if count == RSS_CYCLES * plan.CYCLE:
            b.daemon_kb = peak_rss_kb(proc.pid)
    if not b.daemon_kb:
        b.daemon_kb = peak_rss_kb(proc.pid)
    computed = client.stats()["cache"]["pool"]["computed"]
    if computed != count // plan.CYCLE:
        b.failed += 1
        b.errors.append(f"daemon computed {computed} points, expected"
                        f" {count // plan.CYCLE}")
    # Components only hint.  Baselines come from the references or, for
    # a seed without references, from requests after the timed ones.
    for workload in plan.SERVICE_WORKLOADS:
        ref = b.reference("service", workload)
        if ref is not None:
            digests[workload] = ref["arch_digest"]
        else:
            b.op(one, client, workload, None, None)
    for name, digest in digests.items():
        workload = name.split(" [")[0]
        if workload in digests and digest != digests[workload]:
            b.failed += 1
            b.errors.append(f"{name} arch_digest differs from its baseline")

    if b.trace:
        trace_dir = b.new_dir("trace")
        t_cache, t_proc, _ = setup(trace_dir)
        t_client = ServiceClient(*discover_endpoint(t_cache))
        for index in range(count):
            b.op(one, t_client, *requests[index], client_spans)
        warm_rate = t_client.stats()["cache"]["pool_warm_rate"]
        b.stop_daemon(t_proc)
        traced_wall = sum((end - start) / 1e9 for start, _, _, end in client_spans)
        b.layers = layer_metrics(
            trace_dir, count, traced_wall, sum(b.walls), "service",
            client_spans=client_spans, warm_rate=warm_rate,
        )


# ---------------------------------------------------------------------- #
# per-layer metrics from the traced pass
# ---------------------------------------------------------------------- #

#: Per-layer metric -> unit, in BENCHMARK.json order.  ``.s`` metrics are
#: inclusive seconds per op, ``.self_s`` self seconds per op, ``.calls``
#: and counts per op; an op is one sweep or one request.
PER_LAYER = {
    "import.s": "s/op",
    "registry.build_workload.s": "s/op",
    "registry.build_workload.calls": "calls/op",
    "tracecache.get_trace.s": "s/op",
    "tracecache.content_key.s": "s/op",
    "tracecache.hit_ratio": "ratio",
    "tracecache.compiles": "count/op",
    "backends.resolve.s": "s/op",
    "core.init.s": "s/op",
    "archstate.finalize.s": "s/op",
    "core.run.s": "s/op",
    "core.host_us_per_inst": "us/inst",
    "core.stages.fetch.self_s": "s/op",
    "core.stages.dispatch.self_s": "s/op",
    "core.stages.execute.self_s": "s/op",
    "core.stages.retire.self_s": "s/op",
    "core.process.self_s": "s/op",
    "frontend.predictor.self_s": "s/op",
    "frontend.predictor.calls": "calls/op",
    "memory.hierarchy.self_s": "s/op",
    "memory.hierarchy.calls": "calls/op",
    "pfm.fetch_port.self_s": "s/op",
    "pfm.retire_port.self_s": "s/op",
    "pfm.load_agent.self_s": "s/op",
    "archstate.observe.self_s": "s/op",
    "backends.numpy.run.s": "s/op",
    "backends.numpy.runs": "count/op",
    "backends.fallbacks": "count/op",
    "pool.run.s": "s/op",
    "pool.run_point.s": "s/op",
    "pool.utilization": "ratio",
    "pool.wait_s": "s/op",
    "store.get.s": "s/op",
    "store.get.calls": "calls/op",
    "store.put.s": "s/op",
    "store.put.calls": "calls/op",
    "store.hit_ratio": "ratio",
    "service.submit_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.run_ms": "ms",
    "service.result_ms": "ms",
    "service.pool_warm_rate": "ratio",
    "trace.overhead_frac": "ratio",
    "other.self_s": "s/op",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace_dir: Path, ops: int, traced_wall: float,
                  untraced_wall: float, root_role: str,
                  client_spans=None, warm_rate=0.0) -> dict[str, float]:
    dumps = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
    totals: dict[str, list[int]] = {}
    counters: dict[str, int] = {}
    for dump in dumps:
        for name, (calls, incl, self_ns) in dump["totals"].items():
            acc = totals.setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_ns
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def calls(name):
        return totals.get(name, [0, 0, 0])[0] / ops

    def incl(name):
        return totals.get(name, [0, 0, 0])[1] / 1e9 / ops

    def self_s(name):
        return totals.get(name, [0, 0, 0])[2] / 1e9 / ops

    trace_hits = counters.get("tracecache.memo_hits", 0) + counters.get(
        "tracecache.disk_hits", 0)
    compiles = counters.get("tracecache.compiles", 0)
    store_hits = counters.get("store.hits", 0)
    m = {
        "import.s": incl("import"),
        "registry.build_workload.s": incl("registry.build_workload"),
        "registry.build_workload.calls": calls("registry.build_workload"),
        "tracecache.get_trace.s": incl("tracecache.get_trace"),
        "tracecache.content_key.s": incl("tracecache.content_key"),
        "tracecache.hit_ratio": _ratio(trace_hits, trace_hits + compiles),
        "tracecache.compiles": compiles / ops,
        "backends.resolve.s": incl("backends.resolve"),
        "core.init.s": incl("core.init"),
        "archstate.finalize.s": incl("archstate.finalize"),
        "core.run.s": incl("core.run"),
        "core.host_us_per_inst": _ratio(
            totals.get("core.run", [0, 0, 0])[1] / 1e3,
            counters.get("core.instructions", 0)),
    }
    for stage in ("fetch", "dispatch", "execute", "retire"):
        m[f"core.stages.{stage}.self_s"] = self_s(f"core.stages.{stage}")
    m["core.process.self_s"] = self_s("core.process")
    for layer in ("frontend.predictor", "memory.hierarchy"):
        m[f"{layer}.self_s"] = self_s(layer)
        m[f"{layer}.calls"] = calls(layer)
    for layer in ("pfm.fetch_port", "pfm.retire_port", "pfm.load_agent",
                  "archstate.observe"):
        m[f"{layer}.self_s"] = self_s(layer)
    m["backends.numpy.run.s"] = incl("backends.numpy.run")
    m["backends.numpy.runs"] = calls("backends.numpy.run")
    m["backends.fallbacks"] = counters.get("backends.fallbacks", 0) / ops

    events = [
        (name, start, duration, dump["role"])
        for dump in dumps
        for name, _, start, duration, _ in dump["events"]
    ]
    executes = sorted(start for name, start, _, _ in events if name == "pool.execute")
    wait_ns = 0
    for name, start, _, _ in events:
        if name == "pool.run_point" and executes:
            began = max((s for s in executes if s <= start), default=start)
            wait_ns += start - began
    m["pool.run.s"] = incl("pool.run")
    m["pool.run_point.s"] = incl("pool.run_point")
    m["pool.utilization"] = _ratio(
        totals.get("pool.run_point", [0, 0, 0])[1],
        counters.get("pool.capacity_ns", 0))
    m["pool.wait_s"] = wait_ns / 1e9 / ops
    m["store.get.s"] = incl("store.get")
    m["store.get.calls"] = calls("store.get")
    m["store.put.s"] = incl("store.put")
    m["store.put.calls"] = calls("store.put")
    m["store.hit_ratio"] = _ratio(
        store_hits, store_hits + counters.get("store.misses", 0))

    for key in ("service.submit_ms", "service.queue_wait_ms",
                "service.run_ms", "service.result_ms"):
        m[key] = 0.0
    m["service.pool_warm_rate"] = warm_rate
    root_ns = sum(
        duration for dump in dumps if dump["role"] == root_role
        for _, _, _, duration, parent in dump["events"] if parent is None
    )
    if client_spans:
        # One job span per request: the client waits for each answer.
        runs = sorted((start, duration) for name, start, duration, _ in events
                      if name == "service.run")
        ms = 1e-6
        m["service.submit_ms"] = statistics.median(
            (sub - start) * ms for start, sub, _, _ in client_spans)
        m["service.queue_wait_ms"] = statistics.median(
            (run_start - start) * ms
            for (start, _, _, _), (run_start, _) in zip(client_spans, runs))
        m["service.run_ms"] = statistics.median(d * ms for _, d in runs)
        m["service.result_ms"] = statistics.median(
            (end - fetch) * ms for _, _, fetch, end in client_spans)
        # Covered: the client's submit and fetch, and the daemon's job run;
        # left over: queueing, journaling and status polling.
        root_ns = sum((sub - start) + (end - fetch)
                      for start, sub, fetch, end in client_spans)
        root_ns += sum(duration for _, duration in runs)
    m["trace.overhead_frac"] = _ratio(traced_wall, untraced_wall) - 1.0
    m["other.self_s"] = (traced_wall - root_ns / 1e9) / ops
    write_perfetto(dumps, root_role)
    return m


def write_perfetto(dumps: list[dict], label: str) -> Path:
    """Trace-event JSON (loads in Perfetto / chrome://tracing)."""
    events = []
    for dump in dumps:
        pid = dump["pid"]
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": f"{dump['role']} {pid}"}})
        for name, tid, start, duration, parent in dump["events"]:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": start / 1e3, "dur": duration / 1e3,
                "pid": pid, "tid": tid, "args": {"parent": parent},
            })
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{label}.json"
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
    return path


# ---------------------------------------------------------------------- #
# reporting
# ---------------------------------------------------------------------- #

WORKLOADS = {"sweep": sweep, "service": service}


def environment() -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy"], capture_output=True)
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = rev.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy_imports": probe.returncode == 0,
        "commit": commit,
    }


def peak_rss_kb(pid: int) -> int:
    """A live process's peak resident set size so far, in KiB (0 when
    the process is gone: its peak then counts once it is reaped)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=plan.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "service":
        sys.path.insert(0, str(SRC))

    bench = Bench(args)
    try:
        WORKLOADS[args.workload](bench)
    finally:
        bench.close()
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  bench.children_kb, bench.daemon_kb)

    if args.trace:
        metrics = {name: {"value": bench.layers.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": percentile(bench.setup_times, 50),
                        "unit": "s"},
            "sim_kips": {"value": _ratio(bench.instructions / 1e3,
                                         sum(bench.walls)),
                         "unit": "kinst/s"},
            "req_p50_ms": {"value": percentile(bench.latencies, 50) * 1e3,
                           "unit": "ms"},
            "req_p90_ms": {"value": percentile(bench.latencies, 90) * 1e3,
                           "unit": "ms"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    failed_frac = _ratio(bench.failed, bench.attempted)
    print(f"# perfbench {args.workload} seed {args.seed}"
          f" references {'yes' if bench.refs else 'none'}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    # Other metrics, per-layer ones too, have one sample per op.
    samples = {"setup_s": len(bench.setup_times), "peak_rss_mb": 1,
               "req_p50_ms": len(bench.latencies),
               "req_p90_ms": len(bench.latencies)}
    for name, metric in metrics.items():
        count = samples.get(name, len(bench.walls))
        print(f"# {name:32s} {metric['value']:14.6g} {metric['unit']:9s}"
              f" n={count}")
    print(f"# {'failed_frac':32s} {failed_frac:14.6g} {'ratio':9s}"
          f" n={bench.attempted}")
    for error in bench.errors:
        print(f"# FAILED {error}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
