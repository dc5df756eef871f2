"""repro — Reproduction of the AOP-based DSL-constructing platform for HPC.

Reproduces Ishimura & Yoshimoto, "Aspect-Oriented Programming based
building block platform to construct Domain-Specific Language for HPC
application" (IPPS 2022, arXiv:2203.13431) as a pure-Python library.

Top-level layout (README.md, *Layer map of ``src/repro/``*, has the table):

* :mod:`repro.aop` — the weaving engine (JoinPoint Model);
* :mod:`repro.memory` — Memory Library (pools, pages, Blocks, Env, MMAT);
* :mod:`repro.runtime` — simulated MPI / OpenMP layers, machine & cost model;
* :mod:`repro.annotation` — Annotation Library and the Platform driver;
* :mod:`repro.aspects` — Aspect Module Library (MPI / OpenMP layer modules);
* :mod:`repro.dsl` — sample DSL processing systems (SGrid / USGrid / Particle);
* :mod:`repro.obs` — observability (span tracing, metrics, Perfetto export);
* :mod:`repro.apps` — end-user applications and handwritten baselines;
* :mod:`repro.analysis` — memory / code-size / LoC measurement utilities;
* :mod:`repro.bench` — benchmark harness shared by the ``benchmarks/`` suite.
"""

from .annotation import Platform, PlatformBuilder, PlatformRun, TargetApplication
from .aop import Aspect, Weaver, parse_pointcut
from .aspects import DistributedMemoryAspect, SharedMemoryAspect
from .memory import Env
from .obs import (
    MonitoringAspect,
    global_metrics,
    global_tracer,
    phase_report,
)
from .runtime import (
    CostModel,
    MachineSpec,
    OAKBRIDGE_CX_LIKE,
    available_backends,
    get_backend,
    register_backend,
)

__version__ = "0.1.0"

__all__ = [
    "Platform",
    "PlatformBuilder",
    "PlatformRun",
    "TargetApplication",
    "Aspect",
    "Weaver",
    "parse_pointcut",
    "Env",
    "DistributedMemoryAspect",
    "SharedMemoryAspect",
    "MonitoringAspect",
    "global_tracer",
    "global_metrics",
    "phase_report",
    "CostModel",
    "MachineSpec",
    "OAKBRIDGE_CX_LIKE",
    "available_backends",
    "get_backend",
    "register_backend",
    "__version__",
]
