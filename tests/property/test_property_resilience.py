"""Property: a seeded kill-and-recover run is bit-identical to serial.

For any seed-derived fault plan (victim rank, refresh epoch, phase),
a 4-rank Jacobi run that loses a rank mid-flight must recover and
produce, on the covered subdomain, exactly the bytes of an unfailed
serial run — resumed from a checkpoint, re-partitioned, and replayed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.annotation import Platform
from repro.apps import JacobiSGrid
from repro.resilience import FaultPlan, ResiliencePolicy


def _init(x, y):
    return 0.07 * x - 0.03 * y + 0.9


CONFIG = dict(region=16, block_size=4, page_elements=8, loops=4, init=_init)


@pytest.fixture(scope="module")
def serial_reference():
    run = Platform.builder().mpi(1).mmat().build().run(JacobiSGrid, config=dict(CONFIG))
    return np.asarray(run.result)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_seeded_kill_recovers_bit_identical(serial_reference, seed):
    plan = FaultPlan.seeded(seed, ranks=4, epochs=CONFIG["loops"], spare_rank0=True)
    platform = (
        Platform.builder()
        .mpi(4, backend="threads")
        .mmat()
        .resilience(ResiliencePolicy(fault_plan=plan))
        .comm_timeout(20.0)
        .build()
    )
    run = platform.run(JacobiSGrid, config=dict(CONFIG))
    assert run.restarts >= 1
    result = np.asarray(run.result)
    mask = ~np.isnan(result)
    assert mask.any()
    np.testing.assert_array_equal(result[mask], serial_reference[mask])
