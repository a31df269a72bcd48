"""Small builders shared across the test modules."""

from __future__ import annotations

import numpy as np

from subnetmine.data import NetworkDatabase, NetworkInstance, NodeIndex, StateMatrix
from subnetmine.metagraph import ConstraintMatrix, LaplacianSet, _cosine_matrix, _nearest
from subnetmine.solver import (
    SpectralModel,
    TruncatedBasis,
    _check_dims,
    _top_eigenpairs,
    _whitening,
)


def build_db(values, labels, edge_lists, valid=None, node_ids=None) -> NetworkDatabase:
    """Assemble a database from plain arrays.

    values is n x m (column per instance), labels has length m, and
    edge_lists holds one iterable of (p, q) pairs per instance.  Pairs are
    canonicalized (p < q, deduplicated, sorted) the same way the loader
    does it.
    """
    values = np.asarray(values, dtype=np.float64)
    n, m = values.shape
    if valid is None:
        valid = np.ones((n, m), dtype=bool)
    else:
        valid = np.asarray(valid, dtype=bool)
    if node_ids is None:
        node_ids = [f"g{p}" for p in range(n)]
    nodes = tuple(NodeIndex(id=node_ids[p], ordinal=p) for p in range(n))
    instances = tuple(
        NetworkInstance(
            instance_id=f"s{i}",
            valid=valid[:, i].copy(),
            values=np.where(valid[:, i], values[:, i], 0.0),
            global_state=int(labels[i]),
        )
        for i in range(m)
    )
    edges = tuple(
        tuple(sorted({(min(p, q), max(p, q)) for p, q in pairs}))
        for pairs in edge_lists
    )
    return NetworkDatabase(nodes=nodes, instances=instances, instance_edges=edges)


def template_db(rng, n=8, m=16, edge_prob=0.35) -> NetworkDatabase:
    """Two positive class templates, raised by 7 on opposite node halves.

    Every pairwise cosine stays positive (so affinity row sums do too)
    while the class split contributes a second strong singular direction,
    which a two-column model needs.
    """
    labels = np.tile([0, 1], m // 2 + 1)[:m]
    labels = labels[rng.permutation(m)]
    half = n // 2
    templates = 1.0 + rng.random((n, 2))
    templates[:half, 0] += 7.0
    templates[half:, 1] += 7.0
    values = templates[:, labels] + rng.normal(0.0, 0.4, size=(n, m))
    edge_lists = []
    for i in range(m):
        pairs = [
            (p, q)
            for p in range(n)
            for q in range(p + 1, n)
            if rng.random() < edge_prob
        ]
        edge_lists.append(pairs)
    return build_db(values, labels, edge_lists)


def random_db(rng, n=6, m=10, edge_prob=0.4, null_prob=0.15, value_loc=0.0) -> NetworkDatabase:
    """Random balanced two-class database with null nodes and random edges.

    A positive value_loc pushes all values above zero, which keeps every
    pairwise cosine (and hence every affinity row sum) positive.
    """
    values = rng.normal(loc=value_loc, size=(n, m))
    labels = np.zeros(m, dtype=int)
    labels[m // 2 :] = 1
    labels = labels[rng.permutation(m)]
    valid = rng.random((n, m)) > null_prob
    valid[int(rng.integers(n)), :] = True  # at least one node valid everywhere
    edge_lists = []
    for i in range(m):
        pairs = []
        for p in range(n):
            for q in range(p + 1, n):
                if valid[p, i] and valid[q, i] and rng.random() < edge_prob:
                    pairs.append((p, q))
        edge_lists.append(pairs)
    return build_db(values, labels, edge_lists, valid=valid)


def restrict_instances(db, indices) -> NetworkDatabase:
    """Database over a subset of instances (same node index, given order):
    the oracle for fits that must see training instances only."""
    indices = [int(i) for i in indices]
    return NetworkDatabase(
        nodes=db.nodes,
        instances=tuple(db.instances[i] for i in indices),
        instance_edges=tuple(db.instance_edges[i] for i in indices),
    )


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two vectors; 0 if either norm is 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"vector shapes differ: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def knn_neighborhoods(v_matrix: StateMatrix, k: int) -> list[frozenset[int]]:
    """The k instances the library's kNN step links to each instance."""
    return [frozenset(row) for row in _nearest(_cosine_matrix(v_matrix), k).tolist()]


def assemble_objective_matrix(
    v: StateMatrix, lap: LaplacianSet, c: ConstraintMatrix, alpha: float
) -> np.ndarray:
    """A = V Ltilde V' - alpha C, symmetrized to kill roundoff.

    ``alpha`` is the absolute weight in the units of the node values; this
    dense n x n form is the reference that ``ReducedProblem`` is checked
    against.
    """
    _check_dims(v, lap, c)
    mat = v.matrix @ (lap.l_tilde @ v.matrix.T)
    if alpha != 0.0:
        mat = mat - alpha * c.c.toarray()
    return (mat + mat.T) / 2.0


def solve_spectral(
    a: np.ndarray, basis: TruncatedBasis, d: int, alpha: float = 0.0
) -> SpectralModel:
    """Top-d eigenpairs of the whitened dense objective ``a``, mapped back
    to node space: the oracle for ``ReducedProblem.model``.

    Eigenvalues come out in descending order; each returned column u
    satisfies u' (V D+ V') u = 1 on the retained subspace and has its
    largest-magnitude entry made positive.  ``alpha`` is only recorded on
    the model; it must match the absolute weight used to assemble ``a``.
    """
    q = _whitening(basis)
    reduced = q.T @ (a @ q)
    return _top_eigenpairs((reduced + reduced.T) / 2.0, basis, d, alpha)
