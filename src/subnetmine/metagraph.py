"""Instance-level neighborhood graphs: the kNN Laplacians of the data term.

Two m x m affinities over the instances come from one cosine kNN relation:
A+ links neighbor pairs that share a global state, A- pairs whose states
differ.  A pair is linked when either instance is among the other's k
nearest, by descending cosine with ties to the lower instance index.

The relation is read in two steps.  ``neighbour_table`` ranks each
instance's first t others once, with one partition per row and a sort of
only those t.  ``laplacians`` reads any training subset's relation from
that table: it drops the entries outside the subset and keeps each row's
first k, so one ranking of the database's cosine serves every training
set of a cross validation, and a training set's cosine is a slice of the
database's.  The solver needs only D+ (the row sums of A+) and
L~ = L- - L+, so both are written straight from the linked pairs, listed
in CSR order, with ``np.bincount`` degrees; neither affinity is formed, and
no step after the table holds an m x m array; a fit on every instance
reads a table of k columns.  The node-level topology term comes from the
generalized network in ``solver.topology_term``.

Cosines, V'V scaled by inverse column norms, are kept raw (negative
entries are not clamped), so row sums of the affinities are not guaranteed
nonnegative in pathological inputs; downstream whitening checks for that.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .data import StateMatrix


def _cosine_matrix(v_matrix: StateMatrix) -> np.ndarray:
    """Exactly symmetric m x m cosine similarity matrix of the columns.

    Zero-norm columns get similarity 0 with everything.  Each entry of V'V
    is scaled by one product of inverse norms: in place, 256 rows at a time,
    unless ``v_matrix`` carries its V'V, which is kept.
    """
    gram = v_matrix.inner_products()
    sims = gram if v_matrix.gram is None else np.empty_like(gram)
    norms = np.sqrt(gram.diagonal())
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
    for start in range(0, scale.size, 256):
        rows = slice(start, start + 256)
        np.multiply(gram[rows], np.multiply.outer(scale[rows], scale), out=sims[rows])
    np.fill_diagonal(sims, 0.0)
    return sims


def neighbour_table(sims: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Each instance's first t other instances by descending ``sims``, ties
    to the lower index, as an m x t order array, and the m x t array of
    their similarities; 1 <= t < m.  Pair (i, j), i < j, carries sims[i, j]
    in both rows, so a pair reads the same wherever it is listed.

    Row i's t nearest are found without a full sort: a partition gives the
    t-th largest similarity, every larger one is taken, and of the entries
    equal to it only the lowest-index ones up to t.  Only those t are then
    ordered.
    """
    m = sims.shape[0]
    key = np.negative(sims)
    np.fill_diagonal(key, np.inf)
    key.partition(t - 1, axis=1)
    bound = -key[:, t - 1, np.newaxis]  # each row's t-th largest similarity
    del key
    member = sims >= bound
    np.fill_diagonal(member, False)
    over = np.flatnonzero(np.count_nonzero(member, axis=1) > t)
    if over.size:  # ties at the bound: keep the lowest indices up to t
        block = member[over]
        ties = block & (sims[over] == bound[over])
        short = t - (np.count_nonzero(block, axis=1) - np.count_nonzero(ties, axis=1))
        block &= ~ties | (np.cumsum(ties, axis=1) <= short[:, np.newaxis])
        member[over] = block
    order = np.nonzero(member)[1].reshape(m, t)  # each row's t in ascending index
    del member
    rows = np.arange(m)[:, np.newaxis]
    # a stable sort keeps the lower index first among equal similarities
    rank = np.argsort(np.negative(sims[rows, order]), axis=1, kind="stable")
    order = np.take_along_axis(order, rank, axis=1)
    return order, sims[np.minimum(rows, order), np.maximum(rows, order)]


def laplacians(
    table: tuple[np.ndarray, np.ndarray], labels, idx: np.ndarray, k: int
) -> tuple[np.ndarray, sparse.csr_array]:
    """(d_plus, l_tilde) of the kNN relation among the instances at the
    ascending indices ``idx``, read from a ``neighbour_table`` of all
    instances and split by agreement of ``labels`` (one per instance);
    1 <= k < |idx|.  ``d_plus`` holds the diagonal of D+ (row sums of A+);
    ``l_tilde`` is L- minus L+, with an entry stored for every linked pair
    (explicit zeros included) and for every diagonal position.

    Row i keeps the first k entries of its table row that lie in ``idx``.
    At most m - |idx| entries of a row lie outside, so they lie within the
    row's first k + m - |idx|, and a table of t >= min(m - 1, k + m - |idx|)
    columns holds them all; ValueError if it does not.  The order of the
    table is the order of the similarities among ``idx``, ties included.
    The linked pairs, both ways, and the diagonal are listed in CSR order
    by one sort; ``np.bincount`` adds them into D+ and D- row by row in that
    order.
    """
    order, values = table
    m, size = order.shape[0], idx.size
    width = min(order.shape[1], k + m - size)  # the columns that can hold a row's first k
    local = np.full(m, -1)
    local[idx] = np.arange(size)
    nbrs = local[order[idx, :width]]
    kept = nbrs >= 0
    kept &= np.cumsum(kept, axis=1) <= k
    nbr, val = nbrs[kept], values[idx, :width][kept]
    del nbrs, kept
    if nbr.size != size * k:
        raise ValueError(f"a {order.shape[1]}-column table is too shallow for k = {k}")
    row = np.repeat(np.arange(size), k)
    keys = np.concatenate([row * size + nbr, nbr * size + row, np.arange(size) * (size + 1)])
    vals = np.concatenate([val, val, np.zeros(size)])
    at = np.argsort(keys)  # a pair listed twice has one value: the order of the two is moot
    keys, vals = keys[at], vals[at]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    rows, cols = np.divmod(keys[first], size)  # CSR order, one diagonal entry per row
    vals = vals[first]
    labels = np.asarray(labels)[idx]
    same = labels[rows] == labels[cols]
    diag = rows == cols
    plus = same & ~diag
    d_plus = np.bincount(rows[plus], vals[plus], minlength=size)
    d_minus = np.bincount(rows[~same], vals[~same], minlength=size)
    # L~ = (D- - D+) - A- + A+
    data = np.where(same, vals, -vals)
    data[diag] = d_minus - d_plus
    indptr = np.searchsorted(rows, np.arange(size + 1))
    return d_plus, sparse.csr_array((data, cols, indptr), shape=(size, size))

