"""DSL processing system for the particle method ("Particle").

Three-dimensional bucketed particle simulation with a single layer of
buckets along the z axis (§V-B3).  The element of this DSL is a
*bucket*: a fixed-capacity container of particles; one Block packs
``bucket_grid × bucket_grid × 1`` buckets.  Out-of-domain neighbour
buckets are served by an :class:`~repro.memory.block.ArithmeticBlock`
that generates buckets of fixed dummy "wall" particles.

Bucket record layout (one element = one bucket, ``components`` floats):

``[count, (id, px, py, pz, vx, vy, vz, ax, ay, az) × capacity]``

The paper's prototype does not implement particle movement between
buckets, and neither does this DSL: time steps are kept small enough
that particles stay inside their bucket (a guard raises if one would
escape, so the limitation is explicit rather than silent).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..memory.block import ArithmeticBlock, DataBlock
from ..memory.env import Env
from .base import BlockSpec, DslTarget

__all__ = ["ParticleTarget", "BucketView", "PARTICLE_FIELDS"]

#: Per-particle scalar fields stored inside a bucket record.
PARTICLE_FIELDS = ("id", "px", "py", "pz", "vx", "vy", "vz", "ax", "ay", "az")
_FIELDS_PER_PARTICLE = len(PARTICLE_FIELDS)


class BucketView:
    """Structured view over one bucket record (a single Env element)."""

    __slots__ = ("raw", "capacity")

    def __init__(self, raw: np.ndarray, capacity: int) -> None:
        self.raw = np.asarray(raw, dtype=np.float64).reshape(-1)
        self.capacity = capacity

    @property
    def count(self) -> int:
        return int(self.raw[0])

    def particle(self, index: int) -> np.ndarray:
        """Return the 10-float record of particle ``index`` (id, pos, vel, acc)."""
        start = 1 + index * _FIELDS_PER_PARTICLE
        return self.raw[start : start + _FIELDS_PER_PARTICLE]

    def positions(self) -> np.ndarray:
        """Return an ``(count, 3)`` array of particle positions."""
        count = self.count
        out = np.empty((count, 3), dtype=np.float64)
        for i in range(count):
            rec = self.particle(i)
            out[i] = rec[1:4]
        return out

    @staticmethod
    def empty(capacity: int) -> np.ndarray:
        return np.zeros(1 + capacity * _FIELDS_PER_PARTICLE, dtype=np.float64)

    @staticmethod
    def pack(particles: List[np.ndarray], capacity: int) -> np.ndarray:
        """Pack particle records into one bucket record array."""
        if len(particles) > capacity:
            raise ValueError(
                f"bucket overflow: {len(particles)} particles, capacity {capacity}"
            )
        raw = BucketView.empty(capacity)
        raw[0] = len(particles)
        for i, record in enumerate(particles):
            start = 1 + i * _FIELDS_PER_PARTICLE
            raw[start : start + _FIELDS_PER_PARTICLE] = record
        return raw


class ParticleTarget(DslTarget):
    """DSL target for bucketed particle simulations.

    Configuration keys:

    ``particles``
        Total number of movable particles (default 1024).  Particles are
        placed uniformly over the interior buckets at initialisation.
    ``bucket_capacity``
        Maximum particles per bucket (default 16, as in the paper).
    ``block_buckets``
        Buckets per Block edge (default 8, i.e. 8×8×1 buckets per Block).
    ``page_elements``
        Bucket records per page (default 8; paper uses 2^3).
    ``bucket_size``
        Physical edge length of a bucket (default 1.0).
    ``dt``
        Time-step length (default 1e-3).
    ``loops``
        Number of steps (default 2 — the paper also keeps this small
        because particles must not leave their bucket).
    """

    ACCESS_PATTERN = "bucketed"
    #: One kernel ``set`` updates a whole bucket; report its true compute load
    #: (every particle against its ~9-bucket neighbourhood) to the cost model
    #: in units of the reference grid-point update.
    BYTES_PER_UPDATE = 48  # bytes streamed per pair interaction
    WORK_PER_UPDATE = 1    # recomputed per instance from the bucket capacity

    def __init__(self, config: Optional[dict] = None) -> None:
        super().__init__(config)
        self.particles: int = int(self.config.get("particles", 1024))
        self.bucket_capacity: int = int(self.config.get("bucket_capacity", 16))
        self.block_buckets: int = int(self.config.get("block_buckets", 8))
        self.page_elements: int = int(self.config.get("page_elements", 8))
        self.bucket_size: float = float(self.config.get("bucket_size", 1.0))
        self.dt: float = float(self.config.get("dt", 1e-3))
        self.components = 1 + self.bucket_capacity * _FIELDS_PER_PARTICLE
        # A bucket update interacts each of its particles with the particles
        # of the 3x3 bucket neighbourhood; one pair interaction costs roughly
        # half a reference grid-point update (a few flops plus a sqrt share).
        self.WORK_PER_UPDATE = max(1, self.bucket_capacity * self.bucket_capacity * 9 // 2)
        # Choose a square bucket grid able to hold every particle at half
        # occupancy (room to breathe inside each bucket).
        density = self.bucket_capacity // 2
        buckets_needed = max(1, -(-self.particles // density))
        grid = 1
        while grid * grid < buckets_needed:
            grid *= 2
        self.bucket_grid: int = max(grid, self.block_buckets)
        if self.bucket_grid % self.block_buckets != 0:
            raise ValueError(
                f"bucket grid {self.bucket_grid} not divisible by block_buckets "
                f"{self.block_buckets}"
            )

    # ------------------------------------------------------------------
    # Env construction
    # ------------------------------------------------------------------
    def block_specs(self) -> List[BlockSpec]:
        nb = self.bucket_grid // self.block_buckets
        specs = []
        for by in range(nb):
            for bx in range(nb):
                origin = (bx * self.block_buckets, by * self.block_buckets, 0)
                specs.append(
                    BlockSpec(
                        origin=origin,
                        shape=(self.block_buckets, self.block_buckets, 1),
                        logical_key=("particle", bx, by),
                        grid_coords=(bx, by),
                    )
                )
        return specs

    def build_env(self) -> Env:
        env = self.make_env(name=f"particle{self.particles}")
        blocks = self.materialize_blocks(
            env,
            self.block_specs(),
            components=self.components,
            page_elements=self.page_elements,
        )
        self._attach_wall(env)
        self._initialise_particles(blocks)
        return env

    def _attach_wall(self, env: Env) -> None:
        """Arithmetic Block returning buckets of fixed wall particles."""
        capacity = self.bucket_capacity
        size = self.bucket_size

        def wall_bucket(addr) -> np.ndarray:
            bx, by, _bz = addr
            # A regular 4x4 grid of stationary wall particles inside the bucket.
            per_edge = min(4, int(np.sqrt(capacity)))
            records = []
            for j in range(per_edge):
                for i in range(per_edge):
                    if len(records) >= capacity:
                        break
                    px = (bx + (i + 0.5) / per_edge) * size
                    py = (by + (j + 0.5) / per_edge) * size
                    records.append(
                        np.array(
                            [-1.0, px, py, 0.5 * size, 0, 0, 0, 0, 0, 0],
                            dtype=np.float64,
                        )
                    )
            return BucketView.pack(records, capacity)

        n = self.bucket_grid
        wall = ArithmeticBlock(
            (-1, -1, 0),
            (n + 2, n + 2, 1),
            wall_bucket,
            components=self.components,
            name="wall-buckets",
        )
        env.add_boundary_block(wall)

    def _initialise_particles(self, blocks: List[DataBlock]) -> None:
        """Place movable particles uniformly over the interior buckets."""
        n = self.bucket_grid
        total_buckets = n * n
        per_bucket = -(-self.particles // total_buckets)
        if per_bucket > self.bucket_capacity:
            raise ValueError(
                f"{self.particles} particles need {per_bucket} per bucket, "
                f"exceeding capacity {self.bucket_capacity}"
            )
        size = self.bucket_size

        def bucket_record(bx: int, by: int) -> np.ndarray:
            # Particle ids are a pure function of bucket position and slot so
            # that serial and parallel runs produce identical particle sets.
            bucket_linear = bx + by * n
            records = []
            remaining_here = min(
                per_bucket, max(0, self.particles - bucket_linear * per_bucket)
            )
            per_edge = max(1, int(np.ceil(np.sqrt(remaining_here))))
            for index in range(remaining_here):
                gx = index % per_edge
                gy = index // per_edge
                px = (bx + (gx + 0.5) / per_edge) * size
                py = (by + (gy + 0.5) / per_edge) * size
                particle_id = float(bucket_linear * self.bucket_capacity + index)
                records.append(
                    np.array(
                        [particle_id, px, py, 0.5 * size, 0, 0, 0, 0, 0, 0],
                        dtype=np.float64,
                    )
                )
            return BucketView.pack(records, self.bucket_capacity)

        for block in blocks:
            if block.kind != "data":
                continue
            x0, y0, _ = block.origin
            sx, sy, _ = block.shape
            dense = np.zeros((block.element_count, self.components), dtype=np.float64)
            for j in range(sy):
                for i in range(sx):
                    linear = (i * sy + j) * 1  # z extent is 1
                    dense[linear] = bucket_record(x0 + i, y0 + j)
            for buf in block.buffer.buffers:
                buf.load_dense(dense)

    # ------------------------------------------------------------------
    # kernel-side sugar
    # ------------------------------------------------------------------
    def bucket_view(self, raw) -> BucketView:
        return BucketView(raw, self.bucket_capacity)

    # ------------------------------------------------------------------
    def local_particles(self) -> np.ndarray:
        """Gather (id, px, py, pz, vx, vy, vz) rows for locally-owned particles."""
        assert self.env is not None
        rows = []
        for block in self.env.data_blocks():
            for element in self.env.dense_read(block):
                view = BucketView(element, self.bucket_capacity)
                for p in range(view.count):
                    rec = view.particle(p)
                    if rec[0] >= 0:
                        rows.append(rec[:7].copy())
        if not rows:
            return np.empty((0, 7))
        return np.array(sorted(rows, key=lambda r: r[0]))

    def finalize(self) -> None:
        self.result = self.local_particles()
