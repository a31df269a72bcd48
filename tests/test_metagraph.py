"""kNN meta-graph Laplacians and the topology constraint C, read as
``topology_term(g, I)``."""

from __future__ import annotations

import gc
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from helpers import (
    affinities,
    affinity_pair_by_masks,
    cosine_similarity,
    knn_neighborhoods,
    laplacian,
    laplacian_set,
    laplacian_set_oracle,
    laplacians,
    nearest_by_argsort,
    network,
    random_db,
    split_affinities,
    symmetric_relation,
)
from subnetmine import evaluation, metagraph
from subnetmine.data import StateMatrix
from subnetmine.errors import ConfigInvalid, SubnetmineError
from subnetmine.evaluation import EvalConfig, evaluate_dataset, reduce_database
from subnetmine.metagraph import _cosine_matrix, neighbour_table
from subnetmine.solver import SolverConfig, topology_term
from subnetmine.synth import SynthConfig, generate_backbone, sample_database


def brute_force_knn(sims, k):
    """Top-k by descending similarity, ties to the lower index."""
    m = sims.shape[0]
    out = []
    for i in range(m):
        others = [j for j in range(m) if j != i]
        others.sort(key=lambda j: (-sims[i, j], j))
        out.append(frozenset(others[:k]))
    return out


def cosine_matrix_of(db):
    m = db.m
    sims = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                sims[i, j] = cosine_similarity(db.values[:, i], db.values[:, j])
    return sims


def test_cosine_similarity_basics():
    assert cosine_similarity([1.0, 0.0], [0.0, 2.0]) == 0.0
    assert cosine_similarity([1.0, 1.0], [3.0, 3.0]) == pytest.approx(1.0)
    assert cosine_similarity([1.0, 0.0], [-2.0, 0.0]) == pytest.approx(-1.0)
    assert cosine_similarity([0.0, 0.0], [1.0, 2.0]) == 0.0
    with pytest.raises(ValueError):
        cosine_similarity([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("shape", [(100, 500), (4000, 50), (300, 200), (4, 3000), (7, 5), (1, 9)])
def test_gram_and_cosine_are_exactly_symmetric(shape):
    """V'V is formed from one triangle (BLAS syrk), for a whole matrix and
    for a training set's column slice, so the cosine, one product of inverse
    norms per entry, is bitwise symmetric with no symmetrizing pass."""
    rng = np.random.default_rng(shape[0])
    values = rng.normal(size=shape)
    train = np.sort(rng.permutation(shape[1])[: shape[1] // 2 + 1])
    for v in (values, np.take(values, train, axis=1)):
        gram = StateMatrix(v).inner_products()
        sims = _cosine_matrix(StateMatrix(v))
        for a in (gram, sims):
            assert np.array_equal(a.view(np.uint64), a.T.view(np.uint64))


def test_knn_matches_exhaustive_search():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        db = random_db(rng, n=5, m=9)
        v = StateMatrix(db.values)
        sims = cosine_matrix_of(db)
        for k in (1, 3, 8):
            assert knn_neighborhoods(v, k) == symmetric_relation(brute_force_knn(sims, k))


def test_knn_tie_break_prefers_lower_index():
    # duplicated columns make every similarity tie exactly: each instance
    # picks the two lowest other indices, so 2 and 3 never pick each other
    v = StateMatrix(np.ones((3, 4)))
    assert knn_neighborhoods(v, 2) == [
        frozenset({1, 2, 3}),
        frozenset({0, 2, 3}),
        frozenset({0, 1}),
        frozenset({0, 1}),
    ]


def test_knn_k_bounds():
    db = random_db(np.random.default_rng(0), n=4, m=4)
    for k in (0, -3):
        with pytest.raises(ConfigInvalid):
            reduce_database(db, k=k)
    # leave-one-out over 3 instances: an inner pair trains on one instance
    tiny = random_db(np.random.default_rng(0), n=4, m=3)
    message = "training set has 1 instance, need 2 or more"
    eval_cfg = EvalConfig(folds=3, alpha_grid=(1.0, 2.0), k=1)
    with pytest.raises(SubnetmineError, match=re.escape(message)):
        evaluate_dataset(tiny, eval_cfg, SolverConfig(alpha=1.0))


def test_affinities_match_brute_force():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        db = random_db(rng, n=5, m=10)
        labels = db.labels
        sims = cosine_matrix_of(db)
        nbrs = brute_force_knn(sims, 3)
        aff = affinities(db, 3)
        a_plus = aff.a_plus.toarray()
        a_minus = aff.a_minus.toarray()
        for i in range(db.m):
            for j in range(db.m):
                linked = i != j and (j in nbrs[i] or i in nbrs[j])
                want_plus = sims[i, j] if linked and labels[i] == labels[j] else 0.0
                want_minus = sims[i, j] if linked and labels[i] != labels[j] else 0.0
                assert a_plus[i, j] == pytest.approx(want_plus, abs=1e-12)
                assert a_minus[i, j] == pytest.approx(want_minus, abs=1e-12)


def test_affinity_pattern_is_knn_relation():
    """Stored entries (including explicit zeros) equal the symmetric kNN
    relation split by label agreement."""
    rng = np.random.default_rng(42)
    db = random_db(rng, n=6, m=12)
    labels = db.labels
    nbrs = brute_force_knn(cosine_matrix_of(db), 4)
    linked = {
        (i, j)
        for i in range(db.m)
        for j in range(db.m)
        if i != j and (j in nbrs[i] or i in nbrs[j])
    }
    aff = affinities(db, 4)
    for mat, keep_same in ((aff.a_plus, True), (aff.a_minus, False)):
        coo = mat.tocoo()
        stored = set(zip(coo.coords[0].tolist(), coo.coords[1].tolist()))
        expected = {
            (i, j) for i, j in linked if (labels[i] == labels[j]) == keep_same
        }
        assert stored == expected


def test_affinities_symmetric_zero_diagonal():
    rng = np.random.default_rng(7)
    db = random_db(rng, n=5, m=8)
    aff = affinities(db, 2)
    for mat in (aff.a_plus, aff.a_minus):
        dense = mat.toarray()
        assert np.array_equal(dense, dense.T)
        assert np.all(dense.diagonal() == 0.0)


def test_laplacian_quadratic_form_identity():
    """With k = m - 1 every pair is linked, so u' L~ u is the cross-state
    energy minus the same-state energy of the raw similarities."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m = 7
        upper = np.triu(rng.normal(size=(m, m)), 1)
        sims = upper + upper.T
        labels = rng.integers(0, 2, size=m)
        d_plus, l_tilde = laplacian_set(sims, labels, m - 1)
        same = labels[:, np.newaxis] == labels[np.newaxis, :]
        assert np.allclose(d_plus, np.where(same, sims, 0.0).sum(axis=1))
        for _ in range(10):
            u = rng.normal(size=m)
            diff2 = (u[:, np.newaxis] - u[np.newaxis, :]) ** 2
            direct = 0.5 * np.sum(np.where(same, -sims, sims) * diff2)
            assert abs(u @ (l_tilde @ u) - direct) <= 1e-10 * max(1.0, abs(direct))


def test_laplacian_set_combination():
    """L~ = L- - L+ and D+ = A+ 1 of the affinities read back from L~, by
    sparse algebra over the dense-mask construction as well."""
    rng = np.random.default_rng(13)
    db = random_db(rng, n=5, m=9)
    d_plus_lib, l_tilde = laplacians(db, 3)
    for aff in (
        split_affinities(l_tilde, db.labels),
        affinity_pair_by_masks(_cosine_matrix(StateMatrix(db.values)), db.labels, 3),
    ):
        d_plus, l_plus = laplacian(aff.a_plus)
        d_minus, l_minus = laplacian(aff.a_minus)
        assert np.array_equal(l_tilde.toarray(), l_minus.toarray() - l_plus.toarray())
        assert np.array_equal(d_plus_lib, d_plus)
        assert np.array_equal(l_tilde.diagonal(), d_minus - d_plus)


def test_l_tilde_is_symmetric_by_construction():
    """Each linked pair carries its upper-triangle similarity both ways, so
    L~ is bitwise symmetric even for a similarity matrix that is not."""
    rng = np.random.default_rng(5)
    sims = rng.normal(size=(9, 9))
    labels = rng.integers(0, 2, size=9)
    for k in (1, 3, 8):
        dense = laplacian_set(sims, labels, k)[1].toarray()
        assert np.array_equal(dense.view(np.uint64), dense.T.view(np.uint64))
        assert np.array_equal(dense, laplacian_set_oracle(sims, labels, k)[1].toarray())


def test_laplacian_set_is_bit_identical_to_the_oracle():
    """On every training set a 4-fold nested CV reduces, D+, L~ and L~ z,
    read from the run's shared neighbour table, equal the argsort /
    dense-mask / checked-Laplacian construction on the training slice of
    the database's cosine bit for bit, L~ is canonical CSR with the
    oracle's index arrays, and it stores exactly the symmetric kNN relation
    plus its diagonal, explicit zeros included."""
    cfg = SynthConfig(n=30, m=48, n_gt=6, global_noise=0.25, seed=4)
    db = sample_database(generate_backbone(cfg), cfg)
    seen = []

    def record(table, labels, idx, k):
        seen.append((table, idx, k))
        return metagraph.laplacians(table, labels, idx, k)

    with mock.patch.object(evaluation, "laplacians", record):
        eval_cfg = EvalConfig(folds=4, alpha_grid=(0.1, 1.0), seed=3)
        evaluate_dataset(db, eval_cfg, SolverConfig(alpha=0.1))
    assert len(seen) == 4 + 6  # outer folds, then the distinct inner pairs
    sims_full = _cosine_matrix(StateMatrix(db.values))
    rng = np.random.default_rng(0)
    for table, idx, k in seen:
        m = idx.size
        sims = sims_full[np.ix_(idx, idx)]
        labels = db.labels[idx]
        d_plus, l_tilde = metagraph.laplacians(table, db.labels, idx, k)
        oracle_d_plus, oracle_l_tilde = laplacian_set_oracle(sims, labels, k)
        assert np.array_equal(d_plus, oracle_d_plus)
        assert np.array_equal(l_tilde.toarray(), oracle_l_tilde.toarray())
        # scipy does not check a (data, indices, indptr) triple it is given
        assert l_tilde.has_canonical_format
        assert np.array_equal(l_tilde.indptr, oracle_l_tilde.indptr)
        assert np.array_equal(l_tilde.indices, oracle_l_tilde.indices)
        z = rng.normal(size=(m, 3))
        assert np.array_equal(l_tilde @ z, oracle_l_tilde @ z)
        relation = symmetric_relation(nearest_by_argsort(sims, k).tolist())
        coo = l_tilde.tocoo()
        stored = set(zip(coo.coords[0].tolist(), coo.coords[1].tolist()))
        assert len(stored) == coo.nnz
        assert stored == {(i, j) for i in range(m) for j in relation[i] | {i}}


def test_a_training_set_reads_its_laplacians_in_table_sized_memory():
    """One training set's Laplacians, read from a shared neighbour table at
    m = 3000, peak in tracemalloc at a few dozen bytes per table entry:
    O(m t), far below the m^2 * 8 bytes of one m x m float array."""
    m, k, left_out = 3000, 10, 60
    t = k + left_out
    rng = np.random.default_rng(0)
    table = neighbour_table(_cosine_matrix(StateMatrix(rng.normal(size=(4, m)))), t)
    labels = rng.integers(0, 2, size=m)
    idx = np.sort(rng.permutation(m)[left_out:])
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        d_plus, _ = metagraph.laplacians(table, labels, idx, k)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert d_plus.shape == (m - left_out,)
    assert peak <= 32 * m * t  # measured at 24.6
    assert peak <= m * m * 8 / 10


def test_constraint_matrix_hand_oracle():
    g = network(3, ((0, 1, 0.5), (1, 2, 0.25)))
    c = topology_term(g, np.eye(3))
    want = np.array(
        [
            [0.5, -0.5, 0.0],
            [-0.5, 0.75, -0.25],
            [0.0, -0.25, 0.25],
        ]
    )
    assert np.array_equal(c, want)


def test_constraint_matrix_quadratic_form_and_psd():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 8
        edges = tuple(
            (p, q, float(rng.random()))
            for p in range(n)
            for q in range(p + 1, n)
            if rng.random() < 0.5
        )
        g = network(n, edges)
        c = topology_term(g, np.eye(n))
        assert np.allclose(c.sum(axis=1), 0.0, atol=1e-12)
        assert np.linalg.eigvalsh(c).min() >= -1e-12
        for _ in range(10):
            u = rng.normal(size=n)
            # each undirected edge contributes once to the sum
            direct = sum(w * (u[p] - u[q]) ** 2 for p, q, w in edges)
            assert abs(u @ (c @ u) - direct) <= 1e-10 * max(1.0, abs(direct))
