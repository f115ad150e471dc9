"""What each benchmark workload runs, derived from the benchmark seed.

Shared by ``run.py``, ``child.py`` and ``record.py``, so the three
agree on every input; it imports nothing from the simulator.  The seed reaches
the simulator only as workload-builder overrides: seed 0 keeps every
builder's defaults (the inputs the CLI and the figures use), any other
seed changes the generator inputs of the kernels that have one.
"""

from __future__ import annotations

import random

#: Default seed: builder defaults, byte-identical to the plain CLI.
DEFAULT_SEED = 0

# -- sweep --------------------------------------------------------------- #

SWEEP_WINDOW = 15_000
SWEEP_JOBS = 2

# -- service ------------------------------------------------------------- #

SERVICE_WINDOW = 10_000  # >= FLOOR_THRESHOLD: computes reuse the set-up traces
#: Each service workload's PFM label.  Unique points vary only its queue
#: size, which moves host time far less than clock ratio, width or delay
#: do, so the cost of a run's new points does not hang on the seed.
SERVICE_LABELS = {
    "astar": "clk4_w4, delay4, queue{}, portLS1",
    "bfs-roads": "clk4_w4, delay4, queue{}, portLS1",
    "libquantum": "clk4_w1, delay0, queue{}",
}
SERVICE_WORKLOADS = tuple(SERVICE_LABELS)
PUBLISHED_QUEUE = 32
#: Points computed and published to the result store during set-up.
PUBLISHED = tuple(
    (workload, label.format(PUBLISHED_QUEUE))
    for workload, label in SERVICE_LABELS.items()
)
#: Requests per cycle: one unique PFM point (a store write) followed by
#: repeats and published points (memo hits and store reads).
CYCLE = 5
#: Unique points a run may use, every queue size of every workload; the
#: run stops early if it exhausts them.
SERVICE_CYCLES = 84

#: bfs sources are drawn below the smaller graph's node count (YouTube).
_BFS_NODES = 20_000


def overrides(workload: str, seed: int) -> dict:
    """Builder overrides carrying *seed* into *workload*'s generator."""
    if seed == DEFAULT_SEED:
        return {}
    if workload == "astar":
        return {"seed": 1 + seed}  # builder default 1
    if workload == "libquantum":
        return {"seed": 3 + seed}  # builder default 3
    if workload.startswith("bfs-"):
        return {"source": seed * 7919 % _BFS_NODES}  # builder default 0
    return {}


def point_name(workload: str, label: str | None) -> str:
    return workload if label is None else f"{workload} [{label}]"


def unique_points(seed: int, count: int = SERVICE_CYCLES) -> list[tuple[str, str]]:
    """The run's unique PFM points, in request order: the workloads in
    turn, each with queue sizes drawn without repeats."""
    rng = random.Random(seed)
    queues = [q for q in range(8, 65, 2) if q != PUBLISHED_QUEUE]
    drawn = {w: rng.sample(queues, len(queues)) for w in SERVICE_WORKLOADS}
    points = []
    for i in range(count):
        workload = SERVICE_WORKLOADS[i % len(SERVICE_WORKLOADS)]
        queue = drawn[workload][i // len(SERVICE_WORKLOADS)]
        points.append((workload, SERVICE_LABELS[workload].format(queue)))
    return points


def service_requests(seed: int) -> list[tuple[str, str | None]]:
    """The closed-loop request sequence: ``SERVICE_CYCLES`` cycles of
    ``CYCLE`` requests.  Each cycle opens with a new unique point; the
    rest repeat a point already answered in this run or a published one."""
    rng = random.Random(seed + 1)
    served: list[tuple[str, str | None]] = []
    cached_pool: list[tuple[str, str | None]] = list(PUBLISHED)
    requests = []
    for point in unique_points(seed):
        requests.append(point)
        served.append(point)
        for _ in range(CYCLE - 1):
            requests.append(rng.choice(cached_pool + served))
    return requests
