"""The workload registry: benchmark name -> fresh-workload builder.

Builders are registered by :func:`register_workload` decorators in the
``repro.workloads`` modules (the ``autoload`` list below); each call to
:func:`build_workload` constructs a *fresh* workload — graphs and grids
are seeded, so repeated builds have identical initial state, and the
memory image is mutated by execution, so runs must never share one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.registry.base import Registry

if TYPE_CHECKING:
    from repro.workloads.base import Workload

WorkloadBuilder = Callable[..., "Workload"]

#: Registration order here fixes the enumeration order everywhere
#: (sweep grids, golden-test ids, the CLI ``list`` output).
WORKLOADS: Registry[WorkloadBuilder] = Registry(
    "workload",
    autoload=(
        "repro.workloads.astar",
        "repro.workloads.bfs",
        "repro.workloads.libquantum",
        "repro.workloads.bwaves",
        "repro.workloads.lbm",
        "repro.workloads.milc",
        "repro.workloads.leslie",
    ),
)


def register_workload(name: str) -> Callable[[WorkloadBuilder], WorkloadBuilder]:
    """Decorator: register a workload builder under *name*."""
    return WORKLOADS.register(name)


def build_workload(name: str, **overrides: object) -> "Workload":
    """Fresh workload by benchmark name (builder kwargs as overrides).

    The built workload is stamped with its compiled-trace identity
    (:func:`repro.workloads.tracecache.annotate`) so ``simulate()`` can
    replay a cached correct-path stream instead of re-executing it, and
    its memory image is snapshotted so the run's arch digest re-renders
    only the memory the run writes.
    """
    from repro.workloads.tracecache import annotate

    workload = WORKLOADS.get(name)(**overrides)
    annotate(workload, name, dict(overrides))
    return workload


def workload_names() -> tuple[str, ...]:
    """All registered benchmark names, in registration order."""
    return WORKLOADS.names()
