"""The arch digest's spliced memory rendering, checked on real runs.

A registry-built workload's memory image carries a pristine rendering,
and :meth:`ArchDigest.finalize` re-renders only the blocks the run wrote.
For every registered workload, baseline and PFM, the digest must equal
the one computed from the same final image with no rendering attached,
i.e. with every materialized word rendered from the live image.
"""

from __future__ import annotations

import pytest

from repro.core import SimConfig, simulate
from repro.core.archstate import ArchDigest
from repro.experiments.runner import parse_config_label
from repro.registry import build_workload, workload_names

WINDOW = 2_000
PFM_CONFIG = "clk4_w4, delay4, queue32, portLS1"

CASES = [
    (workload, variant)
    for workload in workload_names()
    for variant in ("baseline", "pfm")
]


@pytest.mark.parametrize(
    "workload,variant", CASES, ids=[f"{w}-{v}" for w, v in CASES]
)
def test_spliced_digest_equals_unrendered_digest(workload, variant, monkeypatch):
    finalize = ArchDigest.finalize
    checked = []

    def finalize_both(self, regs, memory):
        rendering = memory.rendering
        assert rendering is not None  # registry builds are snapshotted
        self._flush()
        plain = ArchDigest()
        plain._hash = self._hash.copy()
        memory.rendering = None
        try:
            expected = finalize(plain, regs, memory)
        finally:
            memory.rendering = rendering
        digest = finalize(self, regs, memory)
        checked.append(digest == expected)
        return digest

    monkeypatch.setattr(ArchDigest, "finalize", finalize_both)
    pfm = None if variant == "baseline" else parse_config_label(PFM_CONFIG)
    stats = simulate(
        build_workload(workload), SimConfig(max_instructions=WINDOW, pfm=pfm)
    )
    assert stats.instructions == WINDOW
    assert checked == [True]
