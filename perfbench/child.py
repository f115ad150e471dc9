"""Child-process entry point: the simulator's public calls, optionally traced.

``run.py`` starts one of these per sweep, so every sweep pays what a
user's fresh process pays.  With ``--trace DIR`` the child wraps the
layers (``tracer.install``) right after importing the CLI module and then
makes exactly the same calls, so a traced op must print the same bytes as
an untraced one.

Subcommands::

    warm     build the sweep's workloads and compile their traces (set-up)
    sweep    the sweep matrix through a SweepPool into a fresh store; prints
             when each point's result landed in the store
    publish  compute the service's published points into the store (set-up)
    serve    the resident daemon, as ``python -m repro.service serve``

The trace cache and result store live under ``$REPRO_CACHE_DIR``, which
``run.py`` points at a private directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import plan  # noqa: E402


def _start(args):
    """Import the CLI module (timed as ``import``), then install the
    tracer when asked; returns the tracer or None."""
    start = time.perf_counter_ns()
    import repro.sim  # noqa: F401

    duration = time.perf_counter_ns() - start
    if not args.trace:
        return None
    import tracer

    installed = tracer.install(args.trace, args.command)
    installed.add_span("import", start, duration)
    return installed


def cmd_warm(args) -> int:
    from repro.experiments.sweep import sweep_points
    from repro.registry import build_workload
    from repro.workloads import tracecache

    names = [point.workload for point in sweep_points(plan.SWEEP_WINDOW)]
    for name in dict.fromkeys(names):
        built = build_workload(name, **plan.overrides(name, args.seed))
        if tracecache.get_trace(built, plan.SWEEP_WINDOW) is None:
            print(f"no compiled trace for {name}", file=sys.stderr)
            return 1
    return 0


def cmd_sweep(args) -> int:
    _start(args)
    from repro.experiments.pool import SweepPool, stats_to_dict
    from repro.experiments.sweep import payload_json, sweep_points
    from repro.store import ResultStore

    class TimedStore(ResultStore):
        """Notes when each point's result lands in the store.  The clock
        is CLOCK_MONOTONIC, which all processes on the host share, so
        ``run.py`` measures from the moment it launched this process."""

        def __init__(self, directory):
            super().__init__(directory)
            self.landed: list[int] = []

        def put(self, key, stats, meta=None):
            super().put(key, stats, meta)
            self.landed.append(time.monotonic_ns())

    points = [
        dataclasses.replace(
            point, overrides=plan.overrides(point.workload, args.seed)
        )
        for point in sweep_points(plan.SWEEP_WINDOW)
    ]
    store = TimedStore(args.store)
    stats = SweepPool(jobs=plan.SWEEP_JOBS, store=store).run(points)
    # ``run_sweep`` builds its points without builder overrides, so the
    # seeded points are run here and written as ``run_sweep`` writes each
    # entry; the speedups it adds derive from these stats and are left out.
    payload = {
        "window": plan.SWEEP_WINDOW,
        "seed": args.seed,
        "points": {
            point.label: {
                "workload": point.workload,
                "key": point.key(),
                "ipc": stats[point.label].ipc,
                "stats": stats_to_dict(stats[point.label]),
            }
            for point in points
        },
    }
    with open(args.out, "w") as handle:
        handle.write(payload_json(payload))
    print(json.dumps({"landed_ns": store.landed}))
    return 0


def service_point(workload: str, label: str | None, seed: int, pool) -> dict:
    """Compute one ``simulate`` request's point through *pool*, as the
    daemon does; returns the sha256 of the result bytes the daemon serves
    for it and the point's ``arch_digest``."""
    from repro.service.handlers import SimulateHandler, simulate_result_json
    from repro.service.models import SimulateRequest

    request = SimulateRequest(
        workload=workload,
        window=plan.SERVICE_WINDOW,
        config=label,
        overrides=plan.overrides(workload, seed),
    )
    (point,) = SimulateHandler.points(request)
    stats = pool.run([point])[point.label]
    text = simulate_result_json(point, stats)
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "arch_digest": stats.arch_digest,
    }


def cmd_publish(args) -> int:
    from repro.experiments.pool import SweepPool

    pool = SweepPool(jobs=1, cache_dir=os.environ["REPRO_CACHE_DIR"])
    for workload, label in plan.PUBLISHED:
        print(json.dumps({
            "point": plan.point_name(workload, label),
            **service_point(workload, label, args.seed, pool),
        }, sort_keys=True))
    return 0


def cmd_serve(args) -> int:
    _start(args)
    from repro.service.cli import main as service_main

    return service_main(["serve", "--cache-dir", os.environ["REPRO_CACHE_DIR"]])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "warm": cmd_warm, "sweep": cmd_sweep,
        "publish": cmd_publish, "serve": cmd_serve,
    }
    for name in commands:
        cmd = sub.add_parser(name)
        if name != "serve":
            cmd.add_argument("--seed", type=int, default=plan.DEFAULT_SEED)
        if name in ("sweep", "serve"):
            cmd.add_argument("--trace", metavar="DIR", default=None)
    sub.choices["sweep"].add_argument("--store", required=True)
    sub.choices["sweep"].add_argument("--out", required=True)
    args = parser.parse_args(argv)
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
