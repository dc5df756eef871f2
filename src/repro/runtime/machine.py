"""Machine model: the hardware the cost model 'runs' the platform on.

The paper's evaluation machine is Oakbridge-CX (dual Xeon Platinum 8280
nodes, Intel Omni-Path at 12.5 GB/s).  Because this reproduction cannot
run on a cluster, the scaling figures are produced by executing the
platform on the simulated runtime (which yields exact per-task work and
traffic counts) and converting those counts to time on a parametric
machine description defined here.

All rates are deliberately order-of-magnitude realistic rather than
tuned per figure; a single :class:`MachineSpec` instance is shared by
every scaling benchmark (README.md, *The page exchange*, says which
traffic the scaling figures charge to it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MachineModelError

__all__ = ["MachineSpec", "OAKBRIDGE_CX_LIKE"]


@dataclass(frozen=True)
class MachineSpec:
    """Parametric description of a cluster node and its interconnect."""

    name: str = "generic-cluster"
    #: Cost of one element update of the reference kernel, in seconds.
    #: This is the only workload-dependent rate; the DSL layers report
    #: work in "element updates" and the model multiplies by this.
    seconds_per_update: float = 6.0e-9
    #: Sustained memory bandwidth available to one node (bytes/s).
    memory_bandwidth: float = 140e9
    #: Last-level cache per socket (bytes) — drives the cache-thrash term.
    llc_bytes: int = 38 * 1024 * 1024
    #: Cores per node usable by the shared-memory layer.
    cores_per_node: int = 56
    #: Network latency per message (seconds) and bandwidth (bytes/s).
    network_latency: float = 2.0e-6
    network_bandwidth: float = 12.5e9
    #: Cost of one barrier / collective entry per participating task.
    barrier_cost: float = 3.0e-6
    #: Overhead of spawning / joining a shared-memory thread team once.
    thread_spawn_cost: float = 15.0e-6
    #: Overhead of initialising / finalising the distributed runtime once.
    mpi_init_cost: float = 50.0e-3
    #: Multiplier applied to per-update cost when the access pattern has no
    #: spatial locality (Assumption III violated, e.g. USGrid CaseR).
    random_access_penalty: float = 2.5
    #: Fraction of per-update time that turns into extra cost per additional
    #: shared-memory thread when threads stream *contiguous* data
    #: simultaneously (cache-thrash term of Fig. 10).
    cache_thrash_factor: float = 0.018
    #: Fraction of per-update time added per additional thread for
    #: non-contiguous access (smaller: random access already misses cache).
    random_thrash_factor: float = 0.006

    def __post_init__(self) -> None:
        for attr in (
            "seconds_per_update",
            "memory_bandwidth",
            "network_latency",
            "network_bandwidth",
            "barrier_cost",
        ):
            if getattr(self, attr) <= 0:
                raise MachineModelError(f"{attr} must be positive")
        if self.cores_per_node < 1:
            raise MachineModelError("cores_per_node must be >= 1")

    # ------------------------------------------------------------------
    def update_cost(self, access_pattern: str) -> float:
        """Per-element-update cost for a given qualitative access pattern."""
        if access_pattern == "random":
            return self.seconds_per_update * self.random_access_penalty
        return self.seconds_per_update

    def thrash_factor(self, access_pattern: str) -> float:
        if access_pattern == "random":
            return self.random_thrash_factor
        return self.cache_thrash_factor


#: Default machine description loosely shaped after the paper's testbed.
OAKBRIDGE_CX_LIKE = MachineSpec(name="oakbridge-cx-like")
