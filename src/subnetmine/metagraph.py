"""Instance-level neighborhood graphs and node-level topology constraint.

Two m x m affinity matrices are built over the instances: one linking
cosine k-nearest-neighbor pairs that share a global state, one linking
neighbor pairs whose states differ.  Their Laplacians drive the spectral
objective.  The n x n constraint matrix is the Laplacian of the generalized
network and penalizes projection vectors that vary across strongly shared
edges.

Cosine values are kept raw (negative entries are not clamped), so row sums
of the affinities are not guaranteed nonnegative in pathological inputs;
downstream whitening checks for that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .data import GeneralizedNetwork, StateMatrix
from .errors import AsymmetricInput


@dataclass(frozen=True, eq=False)
class AffinityPair:
    """Symmetric zero-diagonal affinities: same-state and cross-state."""

    a_plus: sparse.csr_array
    a_minus: sparse.csr_array


@dataclass(frozen=True, eq=False)
class LaplacianSet:
    """What the solver needs of the affinity pair's Laplacians.

    ``d_plus`` stores the diagonal entries of D+ (row sums of A+);
    ``l_tilde`` is L- minus L+.
    """

    d_plus: np.ndarray
    l_tilde: sparse.csr_array


@dataclass(frozen=True, eq=False)
class ConstraintMatrix:
    """Laplacian of the generalized network (n x n, PSD)."""

    c: sparse.csr_array


def _cosine_matrix(v_matrix: StateMatrix) -> np.ndarray:
    """Exactly symmetric m x m cosine similarity matrix of the columns.

    Zero-norm columns get similarity 0 with everything.
    """
    v = v_matrix.matrix
    norms = np.linalg.norm(v, axis=0)
    scale = np.where(norms > 0.0, norms, 1.0)
    unit = v / scale
    unit[:, norms == 0.0] = 0.0
    sims = unit.T @ unit
    sims = (sims + sims.T) / 2.0
    np.fill_diagonal(sims, 0.0)
    return sims


def _nearest(sims: np.ndarray, k: int) -> np.ndarray:
    """m x k: row i holds the k instances most similar to i, by descending
    similarity with ties broken by the lower instance index."""
    key = -sims
    np.fill_diagonal(key, np.inf)
    return np.argsort(key, axis=1, kind="stable")[:, :k]


def _affinity_pair(sims: np.ndarray, labels, k: int) -> AffinityPair:
    """Split the symmetric kNN relation of the cosine matrix ``sims`` by
    label agreement.

    Entry (i, j) carries the raw cosine similarity when j is in kNN(i) or
    i is in kNN(j); it lands in A+ when the global states agree and in A-
    otherwise.  Entries are stored explicitly even when the cosine happens
    to be exactly 0, so the sparsity pattern equals the kNN relation.
    """
    m = sims.shape[0]
    member = np.zeros((m, m), dtype=bool)
    member[np.arange(m)[:, np.newaxis], _nearest(sims, k)] = True
    linked = member | member.T
    labels = np.asarray(labels)
    same = labels[:, np.newaxis] == labels[np.newaxis, :]

    def as_csr(pair_mask):
        rows, cols = np.nonzero(np.triu(pair_mask, 1))
        vals = sims[rows, cols]
        # mirrored entries; explicit zeros survive the coo -> csr conversion
        return sparse.csr_array(
            sparse.coo_array(
                (
                    np.concatenate([vals, vals]),
                    (np.concatenate([rows, cols]), np.concatenate([cols, rows])),
                ),
                shape=(m, m),
            )
        )

    return AffinityPair(a_plus=as_csr(linked & same), a_minus=as_csr(linked & ~same))


def laplacian(a: sparse.csr_array) -> tuple[np.ndarray, sparse.csr_array]:
    """Degree diagonal and Laplacian L = D - A of a symmetric affinity."""
    a = sparse.csr_array(a)
    diff = (a - a.T).tocoo()
    if diff.nnz and np.max(np.abs(diff.data)) != 0.0:
        raise AsymmetricInput("affinity matrix is not symmetric")
    if np.any(a.diagonal() != 0.0):
        raise ValueError("affinity matrix must have a zero diagonal")
    degrees = np.asarray(a.sum(axis=1)).ravel()
    lap = sparse.csr_array(sparse.diags_array(degrees) - a)
    return degrees, lap


def build_laplacian_set(aff: AffinityPair) -> LaplacianSet:
    d_plus, l_plus = laplacian(aff.a_plus)
    _, l_minus = laplacian(aff.a_minus)
    return LaplacianSet(d_plus=d_plus, l_tilde=sparse.csr_array(l_minus - l_plus))


def build_constraint_matrix(g: GeneralizedNetwork) -> ConstraintMatrix:
    """Laplacian of the generalized network: diagonal holds weighted degrees,
    off-diagonal entries are minus the shared-edge weights."""
    (p, q), w = g.edges.T, g.weights
    # per edge: (p, q) and (q, p) at -w, then w onto both degrees
    rows = np.column_stack((p, q, p, q)).ravel()
    cols = np.column_stack((q, p, p, q)).ravel()
    vals = np.column_stack((-w, -w, w, w)).ravel()
    c = sparse.csr_array(sparse.coo_array((vals, (rows, cols)), shape=(g.n, g.n)))
    return ConstraintMatrix(c=c)
