"""Instance-level neighborhood graphs: the kNN Laplacians of the data term.

Two m x m affinities over the instances come from one cosine kNN relation:
A+ links neighbor pairs that share a global state, A- pairs whose states
differ.  A pair is linked when either instance is among the other's k
nearest, by descending cosine with ties to the lower instance index; one
partition per row finds them, with no sort.  The solver needs only D+ (the
row sums of A+) and L~ = L- - L+, so ``build_laplacian_set`` writes both
straight from the linked pairs, listed in CSR order by one scan, with
``np.bincount`` degrees; neither affinity is formed.  The node-level
topology term comes from the generalized network in
``solver.topology_term``.

Cosine values are kept raw (negative entries are not clamped), so row sums
of the affinities are not guaranteed nonnegative in pathological inputs;
downstream whitening checks for that.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .data import StateMatrix


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


def build_laplacian_set(
    sims: np.ndarray, labels, k: int
) -> tuple[np.ndarray, sparse.csr_array]:
    """(d_plus, l_tilde) of the kNN relation of the m x m similarity
    ``sims``, split by agreement of ``labels``; 1 <= k < m.  ``d_plus``
    holds the diagonal of D+ (row sums of A+); ``l_tilde`` is L- minus L+,
    with an entry stored for every linked pair (explicit zeros included) and
    for every diagonal position.

    Row i's k nearest are found without a sort: a partition gives the k-th
    largest similarity, every larger one is taken, and of the entries equal
    to it only the lowest-index ones up to k.  Pair (i, j), i < j, carries
    sims[i, j] in both directions, so L~ is symmetric by construction.  One
    scan lists L~'s entries in CSR order; ``np.bincount`` adds them into D+
    and D- row by row in that order.
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
    member |= member.T
    np.fill_diagonal(member, True)
    rows, cols = np.nonzero(member)  # CSR order, one diagonal entry per row
    del member
    vals = sims[np.minimum(rows, cols), np.maximum(rows, cols)]
    labels = np.asarray(labels)
    same = labels[rows] == labels[cols]
    diag = rows == cols
    plus = same & ~diag
    d_plus = np.bincount(rows[plus], vals[plus], minlength=m)
    d_minus = np.bincount(rows[~same], vals[~same], minlength=m)
    # L~ = (D- - D+) - A- + A+
    data = np.where(same, vals, -vals)
    data[diag] = d_minus - d_plus
    indptr = np.searchsorted(rows, np.arange(m + 1))
    return d_plus, sparse.csr_array((data, cols, indptr), shape=(m, m))

