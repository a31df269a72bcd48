"""Instance-level neighborhood graphs and node-level topology constraint.

Two m x m affinities over the instances come from one cosine kNN relation:
A+ links neighbor pairs that share a global state, A- pairs whose states
differ.  A pair is linked when either instance is among the other's k
nearest, by descending cosine with ties to the lower instance index; one
partition per row finds them, with no sort.  The solver needs only D+ (the
row sums of A+) and L~ = L- - L+, so both are built straight from the
linked pairs; neither affinity is formed.  The n x n constraint matrix is
the Laplacian of the generalized network, returned as a plain CSR array; it
penalizes projection vectors that vary across strongly shared edges.

Cosine values are kept raw (negative entries are not clamped), so row sums
of the affinities are not guaranteed nonnegative in pathological inputs;
downstream whitening checks for that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .data import GeneralizedNetwork, StateMatrix


@dataclass(frozen=True, eq=False)
class LaplacianSet:
    """What the solver needs of the two meta-graphs' Laplacians.

    ``d_plus`` stores the diagonal entries of D+ (row sums of A+);
    ``l_tilde`` is L- minus L+, with an entry stored for every linked pair
    (explicit zeros included) and for every diagonal position.
    """

    d_plus: np.ndarray
    l_tilde: sparse.csr_array


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


def _row_sums(rows: np.ndarray, vals: np.ndarray, m: int) -> np.ndarray:
    """Per-row sums of entries given in CSR order, added as scipy's
    ``csr.sum(axis=1)`` adds them, so the result is bit-equal to it."""
    counts = np.bincount(rows, minlength=m)
    sums = np.zeros(m)
    nonempty = counts > 0
    sums[nonempty] = np.add.reduceat(vals, (np.cumsum(counts) - counts)[nonempty])
    return sums


def build_laplacian_set(sims: np.ndarray, labels, k: int) -> LaplacianSet:
    """D+ and L~ of the kNN relation of the m x m similarity ``sims``,
    split by agreement of ``labels``; 1 <= k < m.

    Row i's k nearest are found without a sort: a partition gives the k-th
    largest similarity, every larger one is taken, and of the entries equal
    to it only the lowest-index ones up to k.  Pair (i, j), i < j, carries
    sims[i, j] in both directions, so L~ is symmetric by construction.
    """
    m = sims.shape[0]
    key = np.negative(sims)
    np.fill_diagonal(key, np.inf)
    key.partition(k - 1, axis=1)
    bound = -key[:, k - 1, np.newaxis]  # each row's k-th largest similarity
    del key
    member = sims >= bound
    np.fill_diagonal(member, False)
    over = np.flatnonzero(np.count_nonzero(member, axis=1) > k)
    if over.size:  # ties at the bound: keep the lowest indices up to k
        block = member[over]
        ties = block & (sims[over] == bound[over])
        short = k - (np.count_nonzero(block, axis=1) - np.count_nonzero(ties, axis=1))
        block &= ~ties | (np.cumsum(ties, axis=1) <= short[:, np.newaxis])
        member[over] = block
    rows, cols = np.nonzero(member | member.T)  # CSR order
    del member
    vals = sims[np.minimum(rows, cols), np.maximum(rows, cols)]
    labels = np.asarray(labels)
    same = labels[rows] == labels[cols]
    d_plus = _row_sums(rows[same], vals[same], m)
    d_minus = _row_sums(rows[~same], vals[~same], m)
    # L~ = (D- - D+) - A- + A+; the coo -> csr conversion keeps explicit zeros
    diag = np.arange(m)
    l_tilde = sparse.csr_array(
        sparse.coo_array(
            (
                np.concatenate([np.where(same, vals, -vals), d_minus - d_plus]),
                (np.concatenate([rows, diag]), np.concatenate([cols, diag])),
            ),
            shape=(m, m),
        )
    )
    return LaplacianSet(d_plus=d_plus, l_tilde=l_tilde)


def build_constraint_matrix(g: GeneralizedNetwork) -> sparse.csr_array:
    """Laplacian of the generalized network, n x n CSR and PSD: the diagonal
    holds weighted degrees, off-diagonal entries are minus the shared-edge
    weights."""
    (p, q), w = g.edges.T, g.weights
    # per edge: (p, q) and (q, p) at -w, then w onto both degrees
    rows = np.column_stack((p, q, p, q)).ravel()
    cols = np.column_stack((q, p, p, q)).ravel()
    vals = np.column_stack((-w, -w, w, w)).ravel()
    return sparse.csr_array(sparse.coo_array((vals, (rows, cols)), shape=(g.n, g.n)))
