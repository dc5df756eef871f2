"""Independent NumPy oracles for the end-to-end benchmark.

Nothing here imports ``repro``: the oracles recompute every workload's
answer from the generated problem alone, so a platform change that alters
the result cannot also alter the reference.  Both solvers keep the
application's association order, ``alpha*e + beta*(((e_e + e_w) + e_s) +
e_n)``, which is what makes the comparison *bit-identical* rather than a
tolerance check.

``solve`` also times its own steps: the median is ``ref.numpy_step_s``,
the vectorised single-thread baseline of the same problem on the same
machine (the Fig. 6 denominator; the ``Handwritten*`` apps are
per-element Python loops and would flatter the platform ~100x).
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Optional, Tuple

import numpy as np

ALPHA = 0.2
BETA = 0.2


def initial_field(seed: int, region: int) -> Tuple[Callable[[int, int], float], np.ndarray]:
    """The seeded initial field, as the per-point callable the platform
    takes and as the dense ``(x, y)`` array the oracle starts from.

    Both evaluate ``a*x + b*y + c*((x*y) % 17)`` left to right in
    float64, so they agree to the last bit.
    """
    a, b, c = (float(v) for v in np.random.default_rng(seed).uniform(0.5, 1.5, 3))

    def init(x: int, y: int) -> float:
        return a * x + b * y + c * ((x * y) % 17)

    xs, ys = np.meshgrid(np.arange(region), np.arange(region), indexing="ij")
    return init, a * xs + b * ys + c * ((xs * ys) % 17)


def _timed_steps(step: Callable[[], None], steps: int) -> float:
    samples = []
    for _ in range(steps):
        start = time.perf_counter()
        step()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def solve_sgrid(field: np.ndarray, steps: int) -> Tuple[np.ndarray, float]:
    """Five-point Jacobi with a zero Dirichlet ring; returns (field, step_s)."""
    n = field.shape[0]
    cur = np.zeros((n + 2, n + 2))
    nxt = np.zeros((n + 2, n + 2))
    cur[1:-1, 1:-1] = field
    acc = np.empty((n, n))
    state = [cur, nxt]

    def step() -> None:
        cur, nxt = state
        np.add(cur[2:, 1:-1], cur[:-2, 1:-1], out=acc)   # e_e + e_w
        np.add(acc, cur[1:-1, 2:], out=acc)              # + e_s
        np.add(acc, cur[1:-1, :-2], out=acc)             # + e_n
        np.multiply(acc, BETA, out=acc)
        out = nxt[1:-1, 1:-1]
        np.multiply(cur[1:-1, 1:-1], ALPHA, out=out)
        np.add(out, acc, out=out)
        state.reverse()

    step_s = _timed_steps(step, steps)
    return state[0][1:-1, 1:-1].copy(), step_s


def solve_usgrid(
    field: np.ndarray, steps: int, case: str, layout_seed: int
) -> Tuple[np.ndarray, float]:
    """Neighbour-table gather Jacobi on the CaseC / CaseR cell layout.

    Cells live in a 1-D index space (row-major for CaseC, a seeded
    permutation of it for CaseR); every cell stores the indices of its
    west/east/north/south neighbours, out-of-domain neighbours pointing
    at one extra slot that holds the boundary value 0.
    """
    n = field.shape[0]
    count = n * n
    index_map = np.arange(count, dtype=np.int64).reshape(n, n)
    if case == "R":
        index_map = np.random.default_rng(layout_seed).permutation(count)[index_map]
    padded = np.full((n + 2, n + 2), count, dtype=np.int64)
    padded[1:-1, 1:-1] = index_map
    cells = index_map.reshape(-1)
    table = np.empty((count, 4), dtype=np.int64)
    table[cells, 0] = padded[:-2, 1:-1].reshape(-1)   # west  (x-1, y)
    table[cells, 1] = padded[2:, 1:-1].reshape(-1)    # east  (x+1, y)
    table[cells, 2] = padded[1:-1, :-2].reshape(-1)   # north (x, y-1)
    table[cells, 3] = padded[1:-1, 2:].reshape(-1)    # south (x, y+1)
    values = np.zeros(count + 1)
    values[cells] = field.reshape(-1)

    def step() -> None:
        neigh = values[table]
        new = ALPHA * values[:count] + BETA * (
            neigh[:, 1] + neigh[:, 0] + neigh[:, 3] + neigh[:, 2]
        )
        values[:count] = new

    step_s = _timed_steps(step, steps)
    return values[index_map], step_s


def solve(problem: dict) -> Tuple[np.ndarray, float]:
    """Oracle result and per-step time for a generated ``problem``."""
    _, field = initial_field(problem["seed"], problem["sizes"]["region"])
    if problem["kind"] == "sgrid":
        return solve_sgrid(field, problem["steps"])
    return solve_usgrid(field, problem["steps"], problem["case"], problem["seed"])


def mismatch(result, oracle: np.ndarray, ranks: int) -> Optional[str]:
    """Why ``result`` fails the oracle check, or None when it passes.

    ``result`` is rank 0's part of the field (NaN on sites other ranks
    own); its finite sites must equal the oracle exactly and cover at
    least ``1/ranks`` of the domain.
    """
    if not isinstance(result, np.ndarray) or result.shape != oracle.shape:
        return f"result is {type(result).__name__} of shape {getattr(result, 'shape', None)}"
    owned = np.isfinite(result)
    if owned.sum() * ranks < oracle.size:
        return f"only {int(owned.sum())} of {oracle.size} sites are finite"
    if not np.array_equal(result[owned], oracle[owned]):
        diff = np.abs(result[owned] - oracle[owned])
        return f"{int((diff != 0).sum())} sites differ, max-abs-diff {diff.max():.3e}"
    return None
