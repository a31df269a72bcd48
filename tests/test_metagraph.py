"""Affinity construction, Laplacians and the topology constraint."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from helpers import affinities, cosine_similarity, knn_neighborhoods, network, random_db
from subnetmine.data import StateMatrix
from subnetmine.errors import AsymmetricInput, KTooLarge
from subnetmine.evaluation import reduce_database
from subnetmine.metagraph import build_constraint_matrix, build_laplacian_set, laplacian


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


def test_knn_matches_exhaustive_search():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        db = random_db(rng, n=5, m=9)
        v = StateMatrix(db.values)
        sims = cosine_matrix_of(db)
        for k in (1, 3, 8):
            assert knn_neighborhoods(v, k) == brute_force_knn(sims, k)


def test_knn_tie_break_prefers_lower_index():
    # duplicated columns make every similarity tie exactly
    v = StateMatrix(np.ones((3, 4)))
    assert knn_neighborhoods(v, 2) == [
        frozenset({1, 2}),
        frozenset({0, 2}),
        frozenset({0, 1}),
        frozenset({0, 1}),
    ]


def test_knn_k_bounds():
    db = random_db(np.random.default_rng(0), n=4, m=4)
    with pytest.raises(KTooLarge):
        reduce_database(db, k=0)


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
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m = 7
        upper = np.triu(rng.random((m, m)), 1)
        a = upper + upper.T
        degrees, lap = laplacian(sparse.csr_array(a))
        assert np.allclose(degrees, a.sum(axis=1))
        assert np.allclose(lap.toarray(), np.diag(degrees) - a)
        for _ in range(10):
            u = rng.normal(size=m)
            direct = 0.5 * sum(
                a[i, j] * (u[i] - u[j]) ** 2 for i in range(m) for j in range(m)
            )
            assert abs(u @ (lap @ u) - direct) <= 1e-10 * max(1.0, abs(direct))


def test_laplacian_rejects_bad_input():
    bad = sparse.csr_array(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(AsymmetricInput):
        laplacian(bad)
    with pytest.raises(ValueError):
        laplacian(sparse.csr_array(np.array([[1.0, 0.5], [0.5, 0.0]])))


def test_laplacian_set_combination():
    rng = np.random.default_rng(13)
    db = random_db(rng, n=5, m=9)
    aff = affinities(db, 3)
    lap = build_laplacian_set(aff)
    _, l_plus = laplacian(aff.a_plus)
    _, l_minus = laplacian(aff.a_minus)
    assert np.array_equal(lap.l_tilde.toarray(), l_minus.toarray() - l_plus.toarray())
    assert np.allclose(lap.d_plus, aff.a_plus.toarray().sum(axis=1))


def test_constraint_matrix_hand_oracle():
    g = network(3, ((0, 1, 0.5), (1, 2, 0.25)))
    c = build_constraint_matrix(g).c.toarray()
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
        c = build_constraint_matrix(g).c
        dense = c.toarray()
        assert np.allclose(dense.sum(axis=1), 0.0, atol=1e-12)
        assert np.linalg.eigvalsh(dense).min() >= -1e-12
        for _ in range(10):
            u = rng.normal(size=n)
            # each undirected edge contributes once to the sum
            direct = sum(w * (u[p] - u[q]) ** 2 for p, q, w in edges)
            assert abs(u @ (c @ u) - direct) <= 1e-10 * max(1.0, abs(direct))
