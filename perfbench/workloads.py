"""Workload table shared by run.py, the generator and the measuring process.

Stdlib only: run.py imports it and needs no numerical library.

Each workload names the synthetic dataset it runs on and its job. The sizes
are chosen so that, in the fast phases of a shared 2-core host with one BLAS
thread, one job takes 1.3 to 3 s and loading the dataset 1 to 2.7 s; the
layer mix of each job is described in README.md.
"""

ALPHA_GRID = (0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.5)

WORKLOADS = {
    # nested CV on the desk dataset: many small fits
    "desk-nested": {
        "data": {"n": 300, "m": 200, "planted": 20, "edges_per_node": 20},
        "job": "evaluate",
        "folds": 4,
    },
    # few nodes, many instances: the m x m kNN dominates
    "tall-sweep": {
        "data": {"n": 100, "m": 500, "planted": 10, "edges_per_node": 16},
        "job": "sweep",
        "folds": 10,
    },
    # many nodes and edges, few instances: per-instance edge handling dominates
    "wide-mine": {
        "data": {"n": 4000, "m": 50, "planted": 80, "edges_per_node": 7},
        "job": "mine",
        "top_c": 50,
    },
}

# model settings shared by every job (the library defaults)
K = 10
ENERGY = 0.95
