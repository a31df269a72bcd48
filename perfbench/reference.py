"""Fixed reference kernels that put the host's speed of the moment in the times.

The host the benchmark runs on is shared, and its speed drifts by up to
threefold between phases that last from minutes to an hour. The measuring process therefore
runs a fixed reference kernel right before each timed call, and reports a
time as

    median wall time of the calls * NOMINAL_S / median wall time of the kernel

that is, in seconds of a host that runs the kernel in ``NOMINAL_S``. The
kernels and their inputs are fixed (they depend on neither the seed nor the
library), so the scale cancels in every comparison between runs and commits.
Medians over the whole run, rather than the kernels next to each call, keep
a slice of the CPU lost by one short kernel run out of the figure.

There are two kernels, one per kind of work, because contention does not
slow all work alike. Loading a dataset allocates and fills hundreds of
megabytes of fresh Python objects: while another process copied large
arrays, it slowed by 12 to 25%, and the library's fits and
generalized-network passes over already built objects did not slow at all.

- ``load`` writes fixed TSV text, splits it into rows of string fields,
  maps the ids to ordinals, and builds per-instance edge sets and sorted
  edge tuples, as ``data.load_database`` does, then frees them. It runs
  before each set-up.
- ``compute`` counts fixed edge keys in a dict, as
  ``data.build_generalized_network`` does, and runs the SVD and symmetric
  eigensolve of a spectral fit on a fixed matrix, 20 times. It runs before
  each job.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

_M, _N = 200, 3000
_LOAD_ROWS = 400_000
_COMPUTE_ROWS = 100_000
_PASSES = 8
_FITS = 20

# nominal kernel times, close to their medians in the fast phases of a
# 2-vCPU Xeon VM with one BLAS thread; they only set the scale
LOAD_NOMINAL_S = 0.6
COMPUTE_NOMINAL_S = 0.18


def _inputs():
    rng = np.random.default_rng(20240611)
    rows = np.stack([
        rng.integers(_M, size=_LOAD_ROWS),
        rng.integers(_N, size=_LOAD_ROWS),
        rng.integers(_N, size=_LOAD_ROWS),
    ], axis=1).astype(np.int32)
    u, v = rows[:_COMPUTE_ROWS, 1], rows[:_COMPUTE_ROWS, 2]
    keys = (np.minimum(u, v) * _N + np.maximum(u, v)).astype(np.int64)
    return rows, keys, rng.standard_normal((300, 160))


# compact arrays; the Python objects the kernels work on are made and freed
# inside each run, so that the kernels add nothing to the peak memory of the
# calls they run before
_ROWS, _KEYS, _MATRIX = _inputs()


def _load() -> None:
    text = "".join(f"i{i:05d}\tn{p:05d}\tn{q:05d}\n" for i, p, q in _ROWS.tolist())
    rows = [line.split("\t") for line in text.splitlines()]
    instances: dict[str, int] = {}
    nodes: dict[str, int] = {}
    lists: list[list[tuple[int, int]]] = [[] for _ in range(_M)]
    seen: list[set[tuple[int, int]]] = [set() for _ in range(_M)]
    for inst, node_u, node_v in rows:
        i = instances.setdefault(inst, len(instances))
        p = nodes.setdefault(node_u, len(nodes))
        q = nodes.setdefault(node_v, len(nodes))
        key = (p, q) if p < q else (q, p)
        seen[i].add(key)
        lists[i].append(key)
    edges = tuple(tuple(sorted(e)) for e in lists)
    del text, rows, lists, seen, edges


def _compute() -> None:
    for _ in range(_PASSES):
        counts: dict[int, int] = {}
        for key in _KEYS.tolist():
            counts[key] = counts.get(key, 0) + 1
    for _ in range(_FITS):
        np.linalg.svd(_MATRIX, full_matrices=False)
        np.linalg.eigh(_MATRIX.T @ _MATRIX)


KERNELS = {"load": (_load, LOAD_NOMINAL_S), "compute": (_compute, COMPUTE_NOMINAL_S)}


class Scaled:
    """Times calls, each right after a run of one kernel, and scales them.

    The kernel runs before a call and not after it, so that it never runs
    beside what the call returned: the set-up's database would otherwise
    set the process's peak memory together with the kernel's objects.
    """

    def __init__(self, kernel: str):
        self.kernel, self.nominal = KERNELS[kernel]
        self.walls: list[float] = []
        self.kernels: list[float] = []

    def _run_kernel(self) -> None:
        # with the collector off the kernel's time does not depend on how
        # many objects the process holds; its objects form no cycles
        gc.disable()
        try:
            start = time.perf_counter()
            self.kernel()
            self.kernels.append(time.perf_counter() - start)
        finally:
            gc.enable()

    def call(self, fn, *args):
        """A kernel run, then fn(*args), whose wall time joins ``walls``."""
        self._run_kernel()
        start = time.perf_counter()
        out = fn(*args)
        self.walls.append(time.perf_counter() - start)
        return out

    def seconds(self, wall: float | None = None) -> float:
        """The median wall time of the calls, or ``wall``, in nominal seconds."""
        if wall is None:
            wall = statistics.median(self.walls)
        return wall * self.nominal / statistics.median(self.kernels)
