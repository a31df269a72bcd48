"""Property tests: invariants of the fit under reordering, tied
eigenvalues included, reuse of the per-database edge index, the array
network and constraint against their tuple oracles, the kNN Laplacians
against their argsort oracle on tied similarities, independence of the
rows of a stacked classifier fit, and the classifier's invariance under
invertible maps of the embedding."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    build_db,
    constraint_from_tuples,
    edge_tuples,
    laplacian_set_oracle,
    linked_sets,
    nearest_by_argsort,
    network_by_counting,
    random_db,
    restrict_instances,
    solve_spectral,
    split_affinities,
    symmetric_relation,
    template_db,
)
from subnetmine.data import NetworkDatabase, StateMatrix, build_generalized_network
from subnetmine.evaluation import EvalConfig, evaluate_dataset, fit_model, train_linear_classifier
from subnetmine.metagraph import _cosine_matrix, build_constraint_matrix, build_laplacian_set
from subnetmine.selection import score_nodes
from subnetmine.solver import SolverConfig, truncated_svd_basis

SETTINGS = settings(max_examples=12, derandomize=True, deadline=None)
K = 4


def sized_db(seed: int, n: int, m: int) -> NetworkDatabase:
    """Continuous positive values, so cosines are positive and kNN has no ties."""
    return template_db(np.random.default_rng(seed), n=n, m=m)


def relative_error(got: np.ndarray, expected: np.ndarray) -> float:
    return float(np.linalg.norm(got - expected) / np.linalg.norm(expected))


@SETTINGS
@given(seed=st.integers(0, 2**16), n=st.integers(6, 12), m=st.integers(12, 24))
def test_instance_order_does_not_change_the_fit(seed, n, m):
    db = sized_db(seed, n, m)
    order = np.random.default_rng(seed + 1).permutation(m)
    shuffled = restrict_instances(db, order)
    expected = fit_model(db, k=K, alpha=1.0).u_matrix
    got = fit_model(shuffled, k=K, alpha=1.0).u_matrix
    assert relative_error(got, expected) <= 1e-10


@SETTINGS
@given(seed=st.integers(0, 2**16), n=st.integers(6, 12), m=st.integers(12, 24))
def test_node_order_permutes_rows_scores_and_edges(seed, n, m):
    db = sized_db(seed, n, m)
    order = np.random.default_rng(seed + 1).permutation(n)  # new node j is old order[j]
    new_of = np.argsort(order)
    values = db.values[order]
    edge_lists = [
        [(int(new_of[p]), int(new_of[q])) for p, q in edges] for edges in db.instance_edges
    ]
    permuted = build_db(values, db.labels, edge_lists)

    base = fit_model(db, k=K, alpha=1.0).u_matrix
    moved = fit_model(permuted, k=K, alpha=1.0).u_matrix
    assert relative_error(moved, base[order]) <= 1e-10
    scores = score_nodes(moved)
    assert np.allclose(scores, score_nodes(base)[order], rtol=1e-10, atol=0.0)

    expected_edges = sorted(
        (min(new_of[p], new_of[q]), max(new_of[p], new_of[q]), w)
        for p, q, w in edge_tuples(build_generalized_network(db))
    )
    assert list(edge_tuples(build_generalized_network(permuted))) == expected_edges


@SETTINGS
@given(seed=st.integers(0, 2**16))
@example(seed=0)
def test_node_order_permutes_rows_under_tied_eigenvalues(seed):
    """V = I, so the reduced matrix is the objective itself in any node
    order, and a diagonal objective over {1, 3} ties most of the top d = 3
    eigenvalues.  Relabelling the nodes permutes U's rows and nothing else:
    no column order may follow the node labels."""
    rng = np.random.default_rng(seed)
    a = np.diag(rng.choice([1.0, 3.0], size=6))
    order = rng.permutation(6)

    def fit(objective, v):
        return solve_spectral(objective, truncated_svd_basis(v, np.ones(6), 1.0), 3).u_matrix

    base = fit(a, StateMatrix(np.eye(6)))
    moved = fit(a[np.ix_(order, order)], StateMatrix(np.eye(6)[order]))
    assert np.abs(moved - base[order]).max() <= 1e-12


@SETTINGS
@given(
    seed=st.integers(0, 2**16),
    alphas=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=3),
)
def test_repeated_fits_reuse_one_edge_index(seed, alphas):
    db = sized_db(seed, 8, 18)
    prop = vars(NetworkDatabase)["_union"]
    builds = []

    def counting(database):
        builds.append(database)
        return build(database)

    build = prop.func
    with mock.patch.object(prop, "func", counting):
        for alpha in alphas:
            fit_model(db, k=K, alpha=alpha)
        evaluate_dataset(db, EvalConfig(folds=3, alpha_grid=alphas, k=K), SolverConfig(alpha=0.0))
        build_generalized_network(db)
    assert len(builds) == 1 and builds[0] is db


@SETTINGS
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 10),
    m=st.integers(2, 14),
    edge_prob=st.sampled_from([0.0, 0.15, 0.6]),
    picks=st.lists(st.integers(0, 13), min_size=1, max_size=14),
)
@example(seed=0, n=4, m=3, edge_prob=0.0, picks=[2, 0])  # no edges anywhere
@example(seed=1, n=5, m=6, edge_prob=0.6, picks=[1, 4, 1, 5, 0, 4])  # repeats, 2 left out
def test_network_and_constraint_match_the_tuple_oracles(seed, n, m, edge_prob, picks):
    """NetworkDatabase.network equals the counting loop on a random pick of
    instances (in drawn order, repeats kept), on one instance, on all but
    one, on every instance and on every instance plus the pick, and the
    constraint built from the arrays has the CSR arrays of the one built
    from (p, q, w) tuples.  An index one past the last instance raises."""
    db = random_db(np.random.default_rng(seed), n=n, m=m, edge_prob=edge_prob)
    subset = [p % m for p in picks]
    everyone = list(range(m))
    left_out = everyone[: subset[0]] + everyone[subset[0] + 1 :]
    for indices in (subset, subset[-1:], left_out, everyone, everyone + subset):
        g = db.network(indices)
        expected = network_by_counting(db, indices)
        assert edge_tuples(g) == expected
        assert g.edges.dtype == np.intp and g.edges.shape == (len(expected), 2)
        assert g.weights.dtype == np.float64
        got, want = build_constraint_matrix(g), constraint_from_tuples(n, expected)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for indices in (everyone[1:] + [m], subset + [m]):
        with pytest.raises(ValueError, match="^instance index out of range$"):
            db.network(indices)


@SETTINGS
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 4),
    m=st.integers(3, 12),
    copies=st.integers(0, 6),
    zeros=st.integers(0, 3),
    k_pick=st.sampled_from([1, 2, -2, -1]),
)
@example(seed=0, n=2, m=4, copies=0, zeros=4, k_pick=2)  # all similarities 0
def test_knn_laplacians_match_the_argsort_oracle_on_ties(seed, n, m, copies, zeros, k_pick):
    """Small-integer values, duplicated and zero-norm columns tie many
    similarities; k is 1, 2, m - 2 or m - 1.  The relation stored in L~ is
    the stable-argsort kNN relation, L~ is bitwise symmetric, its diagonal is
    D- - D+, and D+ and L~ equal the oracle's."""
    rng = np.random.default_rng(seed)
    values = rng.integers(-2, 3, size=(n, m)).astype(np.float64)
    values[:, rng.integers(0, m, size=copies)] = values[:, rng.integers(0, m, size=copies)]
    values[:, rng.integers(0, m, size=zeros)] = 0.0
    labels = rng.integers(0, 2, size=m)
    k = k_pick % m  # 1, 2, m - 2 or m - 1
    sims = _cosine_matrix(StateMatrix(values))
    lap = build_laplacian_set(sims, labels, k)

    assert linked_sets(lap.l_tilde) == symmetric_relation(nearest_by_argsort(sims, k).tolist())
    dense = lap.l_tilde.toarray()
    assert np.array_equal(dense.view(np.uint64), dense.T.view(np.uint64))
    d_minus = split_affinities(lap, labels).a_minus.sum(axis=1)
    assert np.array_equal(lap.l_tilde.diagonal(), d_minus - lap.d_plus)
    oracle = laplacian_set_oracle(sims, labels, k)
    assert np.array_equal(lap.d_plus, oracle.d_plus)
    assert np.array_equal(dense, oracle.l_tilde.toarray())


@SETTINGS
@given(
    seed=st.integers(0, 2**16),
    rows=st.integers(2, 6),
    dim=st.integers(1, 4),
    m=st.integers(6, 40),
    classes=st.integers(2, 3),
    integer=st.booleans(),
)
# one feature and classes of 15: an index array on the last axis would lay a
# stack out with that axis outermost but a lone row contiguously, and their
# class sums would round differently
@example(seed=1, rows=2, dim=1, m=30, classes=2, integer=False)
# integer data with tied values
@example(seed=182, rows=4, dim=1, m=6, classes=2, integer=True)
@example(seed=22, rows=4, dim=1, m=10, classes=3, integer=True)
def test_stacked_classifier_rows_equal_single_fits(seed, rows, dim, m, classes, integer):
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(m) % classes)
    if integer:
        stack = rng.integers(-2, 3, size=(rows, dim, m)).astype(float)
    else:
        stack = rng.normal(size=(rows, dim, m))
    fits = train_linear_classifier(stack, labels)
    assert len(fits) == rows
    for a, fit in enumerate(fits):
        alone = train_linear_classifier(stack[a][np.newaxis], labels)[0]
        assert np.array_equal(fit.weights, alone.weights)
        assert np.array_equal(fit.biases, alone.biases)


@SETTINGS
@given(
    seed=st.integers(0, 2**16),
    dim=st.integers(1, 4),
    m=st.integers(12, 40),
    classes=st.integers(2, 3),
)
def test_classifier_invariant_under_invertible_maps(seed, dim, m, classes):
    """The discriminant rule depends on the embedding only up to an
    invertible linear map, so where the retained rank r equals d every
    alpha's embedding classifies alike."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(m) % classes)
    x = rng.normal(size=(dim, m)) + labels  # class means apart on every axis
    # a rotation times scales in [0.5, 2]: condition number at most 4
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    mix = q * rng.uniform(0.5, 2.0, size=dim)
    test = rng.normal(size=(dim, 50)) + rng.integers(0, classes, size=50)
    before = train_linear_classifier(x[np.newaxis], labels)[0]
    after = train_linear_classifier((mix @ x)[np.newaxis], labels)[0]
    assert np.array_equal(before.predict(x), after.predict(mix @ x))
    assert np.array_equal(before.predict(test), after.predict(mix @ test))
