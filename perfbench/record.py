"""Record the benchmark's reference outputs into ``references.json``.

Usage (from the repository root; takes several minutes per seed)::

    python3 perfbench/record.py --seeds 0-11,7919

For each seed it records what ``run.py`` checks: the sha256 of the
``sweep`` JSON, and the sha256 and ``arch_digest`` of the ``service``
result bytes of every point the run can request: the baselines, the
published points and the unique points.  Every point is
computed through the same calls the benchmark makes, and the recorder
refuses to write a seed on which a PFM point's ``arch_digest`` differs
from its baseline's.  Seeds are recorded in parallel, one per CPU.

References pin the simulator's outputs: re-record only when a change is
meant to change simulated results, and say so.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import plan  # noqa: E402

REFERENCES = HERE / "references.json"


def _child(argv: list[str], cache: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=cache)
    return subprocess.run(
        [sys.executable, str(HERE / "child.py"), *argv], cwd=ROOT, env=env,
        check=True, capture_output=True, text=True,
    ).stdout


def _check_hint(points: dict[str, str]) -> None:
    """Components only hint: PFM digests equal their baseline's."""
    for name, digest in points.items():
        workload = name.split(" [")[0]
        if digest != points[workload]:
            raise SystemExit(f"{name}: arch_digest differs from baseline")


def record_seed(seed: int) -> dict:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as cache:
        out = Path(cache) / "sweep.json"
        _child(["sweep", "--seed", str(seed), "--store",
                 str(Path(cache) / "sweep-store"), "--out", str(out)], cache)
        sweep = hashlib.sha256(out.read_bytes()).hexdigest()

        sys.path.insert(0, str(SRC))
        os.environ["REPRO_CACHE_DIR"] = cache
        from child import service_point
        from repro.experiments.pool import SweepPool

        pool = SweepPool(jobs=1)
        baselines = [(workload, None) for workload in plan.SERVICE_WORKLOADS]
        service = {
            plan.point_name(workload, label):
                service_point(workload, label, seed, pool)
            for workload, label in (
                baselines + list(plan.PUBLISHED) + plan.unique_points(seed)
            )
        }
        _check_hint({name: ref["arch_digest"] for name, ref in service.items()})
    return {"sweep": {"sha256": sweep}, "service": service}


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/record.py")
    parser.add_argument("--seeds", required=True, help="e.g. 0-11,7919")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    context = multiprocessing.get_context("spawn")
    with context.Pool(min(len(seeds), os.cpu_count() or 1)) as pool:
        recorded = dict(zip(seeds, pool.map(record_seed, seeds)))
    refs = json.loads(REFERENCES.read_text())
    for seed, entry in recorded.items():
        refs["seeds"][str(seed)] = entry
    refs["seeds"] = dict(sorted(refs["seeds"].items(), key=lambda kv: int(kv[0])))
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    try:
        (ROOT / ".bench_tmp").rmdir()
    except OSError:
        pass  # a benchmark run is using it
    print(f"recorded seeds {seeds} into {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
