"""Property tests: invariants of the fit under reordering, tied
eigenvalues included, reuse of the per-database edge index, the array
network and constraint against their tuple oracles, the kNN Laplacians
against their argsort oracle on tied similarities, the cosine and the
reduction that read V'V against their explicit-X oracles, every training set's
Laplacians read from a shared neighbour table, every training set's
generalized network read from a shared fold table, the exactness of its
zero weights in the topology term, independence of the
rows of a stacked classifier fit, and the classifier's invariance under
invertible maps of the embedding."""

from __future__ import annotations

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from helpers import (
    build_db,
    constraint_from_tuples,
    edge_tuples,
    explicit_x_reduction,
    laplacian_set,
    laplacian_set_oracle,
    linked_sets,
    nearest_by_argsort,
    network,
    network_by_counting,
    random_db,
    restrict_instances,
    row_sums_in_order,
    solve_spectral,
    split_affinities,
    symmetric_relation,
    template_db,
    unit_cosine,
)
from subnetmine.data import (
    GeneralizedNetwork, NetworkDatabase, StateMatrix, build_generalized_network,
)
from subnetmine import evaluation
from subnetmine.errors import SubnetmineError
from subnetmine.evaluation import DEFAULT_ALPHA_GRID, EvalConfig, evaluate_dataset, fit_model, train_linear_classifier
from subnetmine.metagraph import _cosine_matrix
from subnetmine.selection import score_nodes
from subnetmine.solver import SolverConfig, reduce_problem, topology_term, truncated_svd_basis

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
@example(seed=1, n=5, m=6, edge_prob=0.6, picks=[1, 4, 1, 5, 0, 4])  # 2 left out
def test_network_and_constraint_match_the_tuple_oracles(seed, n, m, edge_prob, picks):
    """NetworkDatabase.network equals the counting loop on every instance,
    and on the networks the counting loop gives for a random pick of
    instances, for one instance, for all but one and for every instance,
    the topology term Q'CQ built from the arrays matches the one of C built
    from (p, q, w) tuples, for a random n x 3 Q."""
    db = random_db(np.random.default_rng(seed), n=n, m=m, edge_prob=edge_prob)
    subset = sorted({p % m for p in picks})
    everyone = list(range(m))
    left_out = everyone[: subset[0]] + everyone[subset[0] + 1 :]
    g = db.network()
    assert edge_tuples(g) == network_by_counting(db, everyone)
    assert g.edges.dtype == np.intp and g.weights.dtype == np.float64
    for indices in (subset, subset[-1:], left_out, everyone):
        expected = network_by_counting(db, indices)
        q = np.random.default_rng(seed).normal(size=(n, 3))
        got = topology_term(network(n, expected), q)
        want = q.T @ (constraint_from_tuples(n, expected) @ q)
        assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1e-300)


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
    d_plus, l_tilde = laplacian_set(sims, labels, k)

    assert linked_sets(l_tilde) == symmetric_relation(nearest_by_argsort(sims, k).tolist())
    dense = l_tilde.toarray()
    assert np.array_equal(dense.view(np.uint64), dense.T.view(np.uint64))
    d_minus = row_sums_in_order(split_affinities(l_tilde, labels).a_minus)
    assert np.array_equal(l_tilde.diagonal(), d_minus - d_plus)
    oracle_d_plus, oracle_l_tilde = laplacian_set_oracle(sims, labels, k)
    assert np.array_equal(d_plus, oracle_d_plus)
    assert np.array_equal(dense, oracle_l_tilde.toarray())


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    m=st.integers(2, 10),
    extra_rows=st.sampled_from([3, 0, -1, -3]),  # m < n, m = n and m > n
    nulls=st.integers(0, 2),
    copies=st.integers(0, 3),
    powers=st.lists(st.integers(-20, 20), max_size=3),
    energy=st.sampled_from([0.5, 0.95, 1.0]),
)
@example(seed=0, m=4, extra_rows=0, nulls=4, copies=0, powers=[], energy=0.95)  # all null
@example(seed=5, m=6, extra_rows=3, nulls=1, copies=3, powers=[7, -7, 20], energy=1.0)
def test_gram_path_matches_the_explicit_x_oracle(
    seed, m, extra_rows, nulls, copies, powers, energy
):
    """All-null instances (zero columns), duplicated and power-of-2-scaled
    columns.  The cosine read from V'V is bitwise symmetric, zero on the
    diagonal and on the rows of zero columns, equal bit for bit whether V'V
    is made in place or carried, and within 4 eps of the unit-vector
    cosine.  The reduction that reads S K S and K S W_r / sigma^2 keeps the
    explicit-X oracle's r, rho0 and rho1 within 1e-12 relative, and its U
    at every grid alpha within 1e-10 relative, signs included, or raises
    where the oracle's D+ or singular values do."""
    rng = np.random.default_rng(seed)
    n = max(m + extra_rows, 1)
    values = rng.normal(1.0, 1.0, size=(n, m))
    values[:, rng.integers(0, m, size=copies)] = values[:, rng.integers(0, m, size=copies)]
    for p in powers:
        values[:, rng.integers(0, m)] *= 2.0**p
    zero = rng.integers(0, m, size=nulls)
    values[:, zero] = 0.0

    sims = _cosine_matrix(StateMatrix(values))
    gram = values.T @ values
    assert np.array_equal(sims.view(np.uint64), sims.T.view(np.uint64))
    assert not sims.diagonal().any() and not sims[zero].any()
    carried = _cosine_matrix(StateMatrix(values, gram))
    assert np.array_equal(carried.view(np.uint64), sims.view(np.uint64))
    assert np.array_equal(gram, values.T @ values)  # a carried V'V is kept
    assert np.abs(sims - unit_cosine(values)).max() <= 4 * np.finfo(np.float64).eps

    labels = rng.permutation(np.arange(m) % 2)
    d_plus, l_tilde = laplacian_set(sims, labels, min(3, m - 1))
    edges = [[(p, q) for p in range(n) for q in range(p + 1, n) if rng.random() < 0.4]
             for _ in range(m)]
    g = build_db(values, labels, edges).network()
    v = StateMatrix(values)
    if np.any(d_plus < 0.0):
        with pytest.raises(SubnetmineError, match="negative"):
            reduce_problem(v, d_plus, l_tilde, g, energy)
        return
    try:
        want = explicit_x_reduction(v, d_plus, l_tilde, g, energy)
    except SubnetmineError:
        with pytest.raises(SubnetmineError, match="vanish"):
            reduce_problem(v, d_plus, l_tilde, g, energy)
        return
    # rho0 far below its bound |z|^2 |L~| is mostly rounding (identical columns lie in
    # the null space of L~, so it can vanish): only a data term above 1e-3 of it is compared
    z = values.T @ want.basis.q
    assume(want.rho0 > 1e-3 * np.linalg.norm(z, 2) ** 2 * abs(l_tilde).sum(axis=1).max())
    got = reduce_problem(v, d_plus, l_tilde, g, energy)
    assert got.basis.r == want.basis.r
    for rho_got, rho_want in ((got.rho0, want.rho0), (got.rho1, want.rho1)):
        assert abs(rho_got - rho_want) <= 1e-12 * abs(rho_want)
    d = min(2, got.basis.r)
    for alpha in DEFAULT_ALPHA_GRID:
        assert relative_error(got.model(alpha, d).u_matrix, want.model(alpha, d).u_matrix) <= 1e-10


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 5),
    m=st.integers(4, 13),
    copies=st.integers(0, 6),
    zeros=st.integers(0, 3),
    folds_pick=st.integers(0, 12),
    k_pick=st.integers(1, 12),
)
@example(seed=0, n=2, m=6, copies=0, zeros=6, folds_pick=1, k_pick=12)  # all similarities 0
# leave-one-out folds and k = t = m - 1
@example(seed=3, n=3, m=12, copies=6, zeros=0, folds_pick=12, k_pick=12)
def test_shared_neighbour_table_matches_each_training_sets_own(
    seed, n, m, copies, zeros, folds_pick, k_pick
):
    """Small-integer values, duplicated and zero-norm columns and null
    nodes tie many similarities.  Every training set that nested CV and the
    sweep reduce, and the full set, reads from its run's one neighbour table
    the D+ and L~ that ``laplacian_set`` gives on its slice of the
    database's cosine, bit for bit; k runs up to m - 1."""
    rng = np.random.default_rng(seed)
    values = rng.integers(-2, 3, size=(n, m)).astype(np.float64)
    values[:, rng.integers(0, m, size=copies)] = values[:, rng.integers(0, m, size=copies)]
    values[:, rng.integers(0, m, size=zeros)] = 0.0
    valid = rng.random((n, m)) > 0.3
    labels = rng.permutation(np.arange(m) % 2)
    db = build_db(values, labels, [()] * m, valid=valid)
    choices = [*range(2, m // 2 + 1), m]  # each class has m // 2 or more members
    folds = choices[folds_pick % len(choices)]
    k = min(k_pick, m - 1)
    sims = _cosine_matrix(StateMatrix(db.values))
    assignment = evaluation.stratified_folds(labels, folds, seed)

    def the_laplacians(v, d_plus, l_tilde, *rest):  # in place of the rest of the reduction
        return d_plus, l_tilde

    for most_left_out in (1, 2):  # the sweep, then nested CV
        reduce = evaluation._reducer(db, k, 0.95, assignment, most_left_out)
        for left_out in [*combinations(range(folds), most_left_out), ()]:
            train = np.flatnonzero(~np.isin(assignment, left_out))
            if train.size < 2:
                continue
            with mock.patch.object(evaluation, "reduce_problem", the_laplacians):
                d_plus, l_tilde = reduce(left_out)
            own_d_plus, own_l_tilde = laplacian_set(
                sims[np.ix_(train, train)], labels[train], min(k, train.size - 1)
            )
            assert np.array_equal(d_plus.view(np.uint64), own_d_plus.view(np.uint64))
            assert np.array_equal(l_tilde.indptr, own_l_tilde.indptr)
            assert np.array_equal(l_tilde.indices, own_l_tilde.indices)
            assert np.array_equal(l_tilde.data.view(np.uint64), own_l_tilde.data.view(np.uint64))


def lone_edge_db(seed, n, m, edge_prob, bare) -> tuple[NetworkDatabase, int]:
    """A database with null nodes, ``bare`` instances with no edges, and an
    edge (0, 1) that the one instance ``lone`` alone carries, so that
    leaving its fold out leaves the edge with a zero count; and ``lone``."""
    rng = np.random.default_rng(seed)
    valid = rng.random((n, m)) > 0.3
    lone = int(rng.integers(m))
    valid[:2, lone] = True
    edge_lists = [
        [(p, q) for p, q in combinations(np.flatnonzero(valid[:, i]).tolist(), 2)
         if rng.random() < edge_prob and (p, q) != (0, 1)]
        for i in range(m)
    ]
    for i in rng.choice(m, size=bare, replace=False):
        edge_lists[i] = []
    edge_lists[lone].append((0, 1))
    labels = rng.permutation(np.arange(m) % 2)
    return build_db(rng.normal(size=(n, m)), labels, edge_lists, valid=valid), lone


def generalized_network(v, d_plus, l_tilde, g, *rest):  # in place of reduce_problem
    return g


def cv_training_networks(db: NetworkDatabase, folds: int, seed: int):
    """(training instances, generalized network) of every training set that
    nested CV and the sweep reduce, and of the full set, as ``_reducer``
    builds them."""
    assignment = evaluation.stratified_folds(db.labels, folds, seed)
    for most_left_out in (1, 2):  # the sweep, then nested CV
        reduce = evaluation._reducer(db, K, 0.95, assignment, most_left_out)
        for left_out in [*combinations(range(folds), most_left_out), ()]:
            train = np.flatnonzero(~np.isin(assignment, left_out))
            if train.size >= 2:
                with mock.patch.object(evaluation, "reduce_problem", generalized_network):
                    g = reduce(left_out)
                yield train, g


LONE_EDGE_DBS = given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 7),
    m=st.integers(4, 13),
    edge_prob=st.sampled_from([0.0, 0.2, 0.6]),
    bare=st.integers(0, 4),
    folds_pick=st.integers(0, 12),
)


@settings(max_examples=40, derandomize=True, deadline=None)
@LONE_EDGE_DBS
@example(seed=0, n=3, m=6, edge_prob=0.0, bare=0, folds_pick=1)  # one edge in all
# leave-one-out folds, dense edges, some instances without any
@example(seed=3, n=6, m=12, edge_prob=0.6, bare=3, folds_pick=12)
def test_fold_table_networks_match_each_training_sets_own(
    seed, n, m, edge_prob, bare, folds_pick
):
    """Every training set that nested CV and the sweep reduce, and the full
    set, gets from its run's one fold table a network over the union's
    edge pairs: the weights of the edges that the counting loop finds on
    its instances equal the loop's bit for bit, and every other weight is
    exactly 0.0, the lone edge's among them when its carrier is left out."""
    db, lone = lone_edge_db(seed, n, m, edge_prob, bare)
    choices = [*range(2, m // 2 + 1), m]  # each class has m // 2 or more members
    union = db.network()
    for train, g in cv_training_networks(db, choices[folds_pick % len(choices)], seed):
        own = {(p, q): w for p, q, w in network_by_counting(db, train.tolist())}
        pairs = list(map(tuple, g.edges.tolist()))
        assert g.n == n
        assert g.edges.dtype == union.edges.dtype and g.weights.dtype == np.float64
        assert np.array_equal(g.edges, union.edges)
        assert np.count_nonzero(g.weights) == len(own)
        want = np.array([own.get(pair, 0.0) for pair in pairs])
        assert np.array_equal(g.weights.view(np.uint64), want.view(np.uint64))
        assert (g.weights[pairs.index((0, 1))] > 0.0) == (lone in train)


@settings(max_examples=40, derandomize=True, deadline=None)
@LONE_EDGE_DBS
@example(seed=0, n=3, m=6, edge_prob=0.0, bare=0, folds_pick=1)  # one edge in all
@example(seed=3, n=6, m=12, edge_prob=0.6, bare=3, folds_pick=12)
def test_zero_weight_edges_add_exactly_nothing_to_the_topology_term(
    seed, n, m, edge_prob, bare, folds_pick
):
    """M1 = Q'CQ from a training set's network over the union's pairs equals
    bit for bit M1 from its positive-count edges alone, for Q with columns
    scaled from 1e-3 to 1e3; a training set that carries no edge, all its
    union weights 0, gets M1 = 0 and rho1 = 0."""
    db, _ = lone_edge_db(seed, n, m, edge_prob, bare)
    choices = [*range(2, m // 2 + 1), m]  # each class has m // 2 or more members
    rng = np.random.default_rng(seed)
    carries = np.diff(db.offsets) > 0
    networks = [g for _, g in cv_training_networks(db, choices[folds_pick % len(choices)], seed)]
    if np.count_nonzero(~carries) >= 2:  # a training set of the instances that carry no edge
        reduce = evaluation._reducer(db, K, 0.95, carries.astype(np.intp), 1)
        with mock.patch.object(evaluation, "reduce_problem", generalized_network):
            networks.append(reduce((1,)))
        assert networks[-1].edges.size and not networks[-1].weights.any()
    for g in networks:
        q = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=3)
        kept = g.weights > 0.0
        positive = GeneralizedNetwork(n, g.edges[kept], g.weights[kept])
        assert np.array_equal(topology_term(g, q), topology_term(positive, q))
        if not kept.any():
            assert not topology_term(g, q).any()
            v = StateMatrix(rng.normal(size=(n, 3)))
            problem = reduce_problem(v, np.ones(3), sparse.csr_array(np.eye(3)), g, 0.95)
            assert not problem.m1.any() and problem.rho1 == 0.0


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


@SETTINGS
@given(
    seed=st.integers(0, 2**16),
    dim=st.integers(1, 4),
    m=st.integers(4, 40),
    classes=st.integers(2, 3),
    integer=st.booleans(),
    flips=st.lists(st.booleans(), min_size=4, max_size=4),
)
@example(seed=0, dim=3, m=12, classes=3, integer=True, flips=[True, False, True, False])
def test_classifier_predictions_ignore_feature_signs(seed, dim, m, classes, integer, flips):
    """Negating features negates their class means and discriminant weights
    exactly and leaves the scatter's magnitudes as they were, so the
    predictions are bit-identical: CV scoring needs no sign convention on
    the reduced coordinates."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(m) % classes)
    if integer:  # tied values and tied scores
        x, test = (rng.integers(-2, 3, size=(dim, size)).astype(float) for size in (m, 50))
    else:
        x, test = rng.normal(size=(dim, m)) + labels, rng.normal(size=(dim, 50))
    signs = np.where(flips[:dim], -1.0, 1.0)[:, np.newaxis]
    before = train_linear_classifier(x[np.newaxis], labels)[0]
    after = train_linear_classifier((signs * x)[np.newaxis], labels)[0]
    assert np.array_equal(after.weights, before.weights * signs.T)
    assert np.array_equal(after.biases, before.biases)
    assert np.array_equal(before.predict(x), after.predict(signs * x))
    assert np.array_equal(before.predict(test), after.predict(signs * test))
