#!/usr/bin/env python
"""Bucketed particle simulation in a box of fixed wall particles.

Demonstrates the particle-method DSL: movable particles repel each other
and the wall particles that the DSL's Arithmetic Block synthesises
outside the domain.  The example runs serially and with the OpenMP
aspect module, verifies both give the same trajectories, and prints a
coarse density map before and after.

Run with::

    python examples/particle_box.py
"""

from __future__ import annotations

import numpy as np

from repro import Platform
from repro.apps import ParticleSimulation

CONFIG = dict(
    particles=512,
    bucket_capacity=16,
    block_buckets=4,
    page_elements=4,
    bucket_size=1.0,
    dt=2e-3,
    loops=3,
    stiffness=8.0,
)


def density_map(rows: np.ndarray, grid: int, bucket_size: float) -> np.ndarray:
    """Count particles per bucket column for a quick textual picture."""
    counts = np.zeros((grid, grid), dtype=int)
    for row in rows:
        x = min(int(row[1] / bucket_size), grid - 1)
        y = min(int(row[2] / bucket_size), grid - 1)
        counts[x, y] += 1
    return counts


def render(counts: np.ndarray) -> str:
    chars = " .:-=+*#%@"
    peak = max(counts.max(), 1)
    lines = []
    for y in range(counts.shape[1]):
        line = "".join(chars[min(9, counts[x, y] * 9 // peak)] for x in range(counts.shape[0]))
        lines.append(line)
    return "\n".join(lines)


def main() -> None:
    serial = Platform(mmat=True).run(ParticleSimulation, config=CONFIG)
    parallel = Platform.preset("omp", threads=4, mmat=True).run(
        ParticleSimulation, config=CONFIG
    )

    # Both configurations integrate identical trajectories.
    by_id = {row[0]: row for row in serial.result}
    for row in parallel.result:
        assert np.allclose(row, by_id[row[0]], atol=1e-10)

    app = serial.app
    grid = app.bucket_grid
    print(f"{CONFIG['particles']} particles in a {grid}x{grid} bucket box, "
          f"{CONFIG['loops']} steps of dt={CONFIG['dt']}\n")

    speeds = np.linalg.norm(serial.result[:, 4:7], axis=1)
    print(f"mean speed after run : {speeds.mean():.5f}")
    print(f"max speed after run  : {speeds.max():.5f}")
    print(f"tasks in OpenMP run  : {len(parallel.counters)}")
    print(f"updates per task     : {[c.updates for c in parallel.counters.values()]}")

    print("\nfinal particle density (one character per bucket column):")
    print(render(density_map(serial.result, grid, CONFIG["bucket_size"])))


if __name__ == "__main__":
    main()
