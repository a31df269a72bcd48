"""Cross validation, alpha selection, the linear classifier and ranking AUC."""

from __future__ import annotations

import json
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from helpers import build_db, laplacians, node_space_scorer, restrict_instances, template_db
from subnetmine import evaluation, solver
from subnetmine.data import (
    GeneralizedNetwork, NetworkDatabase, StateMatrix, build_generalized_network,
)
from subnetmine.errors import ConfigInvalid, SubnetmineError
from subnetmine.evaluation import (
    DEFAULT_ALPHA_GRID,
    EvalConfig,
    EvalReport,
    SweepRow,
    evaluate_dataset,
    fit_model,
    ranking_auc,
    reduce_database,
    stratified_folds,
    sweep_alpha,
    train_linear_classifier,
    write_eval_report,
    write_sweep,
)
from subnetmine.selection import build_report, score_nodes
from subnetmine.solver import SolverConfig
from subnetmine.synth import SynthConfig, generate_backbone, sample_database


# ---------------------------------------------------------------------------
# folds


def test_folds_balanced_within_one():
    rng = np.random.default_rng(0)
    for m, folds in ((40, 5), (33, 4), (25, 3)):
        labels = (rng.random(m) < 0.4).astype(int)
        while min(np.bincount(labels)) < folds:
            labels = (rng.random(m) < 0.4).astype(int)
        assignment = stratified_folds(labels, folds, seed=1)
        assert assignment.shape == (m,)
        assert set(assignment) == set(range(folds))
        for cls in (0, 1):
            sizes = np.bincount(assignment[labels == cls], minlength=folds)
            assert sizes.max() - sizes.min() <= 1


def test_folds_leave_one_out():
    labels = np.array([0, 1, 0, 1, 1])
    assert np.array_equal(stratified_folds(labels, 5, seed=9), np.arange(5))


def test_folds_bounds_and_class_size():
    labels = np.array([0, 0, 0, 1, 1, 1, 1, 1])
    with pytest.raises(ValueError):
        stratified_folds(labels, 1, seed=0)
    with pytest.raises(ValueError):
        stratified_folds(labels, 9, seed=0)
    with pytest.raises(SubnetmineError, match=re.escape("class 0 has 3 members, need >= 4")):
        stratified_folds(labels, 4, seed=0)


def test_folds_seed_determinism():
    labels = np.tile([0, 1], 20)
    a = stratified_folds(labels, 5, seed=3)
    b = stratified_folds(labels, 5, seed=3)
    c = stratified_folds(labels, 5, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# classifier


def test_classifier_separable_line():
    x = np.array([[-3.0, -2.5, -2.0, 2.0, 2.5, 3.0]])
    labels = np.array([0, 0, 0, 1, 1, 1])
    clf = train_linear_classifier(x[np.newaxis], labels)[0]
    assert np.array_equal(clf.predict(x), labels)


def test_classifier_constant_features_predict_majority():
    # 0.1 is not a float whose sum over a class divides back to itself
    for value in (1.0, 0.1):
        x = np.full((2, 10), value)
        labels = np.array([0] * 7 + [1] * 3)
        clf = train_linear_classifier(x[np.newaxis], labels)[0]
        pred = clf.predict(x)
        assert np.all(pred == 0)
        labels = np.array([0] * 3 + [1] * 7)
        pred = train_linear_classifier(x[np.newaxis], labels)[0].predict(x)
        assert np.all(pred == 1)


def test_classifier_well_separated_blobs():
    rng = np.random.default_rng(2)
    a = rng.normal(0.0, 1.0, size=(2, 60))
    b = rng.normal(6.0, 1.0, size=(2, 60))
    x = np.hstack([a, b])
    labels = np.array([0] * 60 + [1] * 60)
    clf = train_linear_classifier(x[np.newaxis], labels)[0]
    assert np.mean(clf.predict(x) == labels) >= 0.99


def test_classifier_deterministic():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 30))
    labels = (rng.random(30) < 0.5).astype(int)
    labels[:2] = [0, 1]
    one = train_linear_classifier(x[np.newaxis], labels)[0]
    two = train_linear_classifier(x[np.newaxis], labels)[0]
    assert np.array_equal(one.weights, two.weights)
    assert np.array_equal(one.biases, two.biases)


def test_classifier_three_classes():
    rng = np.random.default_rng(6)
    centers = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (0.0, 10.0)}
    cols, labels = [], []
    for cls, (cx, cy) in centers.items():
        pts = rng.normal(0.0, 0.3, size=(2, 25)) + np.array([[cx], [cy]])
        cols.append(pts)
        labels.extend([cls] * 25)
    x = np.hstack(cols)
    labels = np.array(labels)
    clf = train_linear_classifier(x[np.newaxis], labels)[0]
    assert clf.weights.shape == (3, 2)
    assert clf.labels.tolist() == [0, 1, 2]
    assert np.array_equal(clf.predict(x), labels)


def reference_classifier(embedded, labels):
    """LDA as a per-class loop: explicit class means, the pooled scatter
    summed one instance at a time, one solve per class and a log-prior
    bias.  Returns (weights C x d, biases C)."""
    labels = np.asarray(labels)
    classes = np.unique(labels)
    dim, m = embedded.shape
    scatter = np.zeros((dim, dim))
    means = []
    for cls in classes:
        members = embedded[:, labels == cls]
        mean = members.mean(axis=1)
        for col in members.T:
            scatter += np.outer(col - mean, col - mean)
        means.append(mean)
    cov = scatter / max(m - classes.size, 1)
    ridge = 1e-9 * np.trace(cov) / dim if np.any(cov) else 1.0
    cov += ridge * np.eye(dim)
    weights, biases = [], []
    for cls, mean in zip(classes, means):
        w = np.linalg.solve(cov, mean)
        weights.append(w)
        biases.append(np.log(np.mean(labels == cls)) - 0.5 * w @ mean)
    return np.array(weights), np.array(biases)


# The library takes class means about each class's first member and sums
# each scatter entry over all instances at once, so its additions run in
# another order than the loop's: the two agree to rounding, not bit for bit.
REFERENCE_RTOL = 1e-10


def test_classifier_matches_reference_loop():
    rng = np.random.default_rng(12)
    cases = []
    for dim, m in ((1, 6), (2, 30), (3, 41), (4, 160)):
        for classes in (2, 3):
            labels = rng.permutation(np.arange(m) % classes)
            cases.append((rng.normal(size=(dim, m)), labels))
    # ties: small integer values, duplicated columns, and a constant feature
    ties = rng.integers(-2, 3, size=(3, 24)).astype(float)
    ties[:, 12:] = ties[:, :12]
    ties[1] = 5.0
    cases.append((ties, np.tile([0, 1], 12)))
    cases.append((ties, np.tile([0, 1, 2], 8)))
    cases.append((np.array([[-2.0, 2.0, -2.0, 2.0], [-2.0, 0.0, -1.0, 2.0]]), np.tile([0, 1], 2)))
    for x, labels in cases:
        clf = train_linear_classifier(x[np.newaxis], labels)[0]
        expected = np.append(*reference_classifier(x, labels))
        got = np.append(clf.weights, clf.biases)
        assert np.max(np.abs(got - expected)) <= REFERENCE_RTOL * np.max(np.abs(expected))
        assert np.array_equal(clf.labels, np.unique(labels))


def test_classifier_rejects_single_class():
    with pytest.raises(SubnetmineError, match=re.escape("single class [0] in training labels")):
        train_linear_classifier(np.ones((1, 1, 4)), np.zeros(4, dtype=int))


# ---------------------------------------------------------------------------
# fit_model and cross validation


def class_db(seed, n=8, m=16, edge_prob=0.35):
    return template_db(np.random.default_rng(seed), n=n, m=m, edge_prob=edge_prob)


def test_fitted_objects_compare_by_identity():
    """Every frozen dataclass holding arrays compares and hashes by identity:
    a field-wise == over arrays raised ValueError, and hash TypeError."""

    def pieces(db):
        g = build_generalized_network(db)
        problem = reduce_database(db, 3)
        model = problem.model(0.5, 2)
        embedded = model.u_matrix.T @ db.values
        return [
            StateMatrix(db.values.copy()), g,
            problem, model.basis, model,
            build_report(model.u_matrix, g, 3),
            train_linear_classifier(embedded[np.newaxis], db.labels)[0],
            train_linear_classifier(embedded[np.newaxis], np.arange(db.m) % 3)[0],
        ]

    for a, b in zip(pieces(class_db(0)), pieces(class_db(0))):
        assert a == a and a != b, type(a).__name__
        assert len({a, b, a}) == 2, type(a).__name__


def test_fit_model_shapes_and_normalization():
    db = class_db(0)
    model = fit_model(db, k=3, alpha=0.5)
    assert model.u_matrix.shape[0] == db.n
    assert model.d == 2  # two observed global states
    # recompute B = V D+ V^T through the library's pieces
    d_plus, _ = laplacians(db, 3)
    b = db.values @ np.diag(d_plus) @ db.values.T
    for j in range(model.d):
        u = model.u_matrix[:, j]
        assert abs(u @ b @ u - 1.0) <= 1e-8


def test_fit_model_clamps_k():
    db = class_db(1, n=6, m=9)
    big = fit_model(db, k=10_000, alpha=0.2)
    clamped = fit_model(db, k=db.m - 1, alpha=0.2)
    assert np.array_equal(big.u_matrix, clamped.u_matrix)


def test_fit_rejects_invalid_settings():
    db = class_db(1, n=6, m=12)
    for bad in ({"alpha": -1.0}, {"energy_fraction": 0.0}, {"d": 0}):
        with pytest.raises(ConfigInvalid):
            fit_model(db, **bad)
    with pytest.raises(ConfigInvalid):
        fit_model(db, k=0)
    with pytest.raises(ConfigInvalid):
        evaluate_dataset(db, EvalConfig(folds=3, alpha_grid=(1.0,), k=0), SolverConfig(alpha=1.0))


NESTED, FIXED = EvalConfig(folds=4, k=3), EvalConfig(folds=4, alpha_grid=(1.0,), k=3)
TWO_FOLDS = EvalConfig(folds=2, alpha_grid=(1.0, 2.0), k=3)
TWO_FOLDS_TEXT = (
    "nested alpha selection needs 3 or more folds, got 2; "
    "use more folds or a one-point --alpha-grid"
)


@pytest.mark.parametrize("run, eval_cfg, gt, error, text", [
    (evaluate_dataset, TWO_FOLDS, None, ConfigInvalid, TWO_FOLDS_TEXT),
    # the usage error comes before the ground truth's
    (evaluate_dataset, TWO_FOLDS, [], ConfigInvalid, TWO_FOLDS_TEXT),
    *((run, cfg, [], SubnetmineError, "need 0 < |ground truth| < n, got 0 of 8")
      for run, cfg in ((evaluate_dataset, NESTED), (evaluate_dataset, FIXED),
                       (sweep_alpha, NESTED))),
    *((run, NESTED, range(8), SubnetmineError, "need 0 < |ground truth| < n, got 8 of 8")
      for run in (evaluate_dataset, sweep_alpha)),
    (sweep_alpha, FIXED, [0, 8], SubnetmineError, "ground-truth ordinal 8 out of range"),
])
def test_usage_and_ground_truth_errors_come_before_the_set_up(
    monkeypatch, run, eval_cfg, gt, error, text
):
    """A nested run of 2 folds and a ground truth that is empty, all nodes
    or out of range fail with ranking_auc's own messages before the run
    ranks a neighbour table or builds a basis."""
    calls = []
    monkeypatch.setattr(evaluation, "neighbour_table", lambda *args: calls.append(args))
    monkeypatch.setattr(solver, "truncated_svd_basis", lambda *args: calls.append(args))
    with pytest.raises(error) as exc:
        run(class_db(1, n=8, m=16), eval_cfg, SolverConfig(alpha=1.0), gt_nodes=gt)
    assert str(exc.value) == text
    assert calls == []


def test_cv_matches_manual_per_fold_refit():
    """Pin the no-leakage contract: each fold must equal an explicit refit
    on the restricted training database."""
    db = class_db(2, n=8, m=24)
    eval_cfg = EvalConfig(folds=4, alpha_grid=(0.7,), k=3, seed=11)
    solver_cfg = SolverConfig(alpha=0.7)
    report = evaluate_dataset(db, eval_cfg, solver_cfg)

    labels, v_full = db.labels, db.values
    assignment = stratified_folds(labels, 4, seed=11)
    for fold in range(4):
        test_idx = np.flatnonzero(assignment == fold)
        train_idx = np.flatnonzero(assignment != fold)
        sub = restrict_instances(db, train_idx)
        model = fit_model(sub, k=3, alpha=0.7)
        clf = train_linear_classifier(
            (model.u_matrix.T @ v_full[:, train_idx])[np.newaxis], labels[train_idx]
        )[0]
        predicted = clf.predict(model.u_matrix.T @ v_full[:, test_idx])
        manual = float(np.mean(predicted == labels[test_idx]))
        assert report.fold_accuracies[fold] == manual


def test_nested_cv_matches_naive_refit_per_alpha():
    """Every inner (fold, held-out fold, alpha) fit refitted on its own
    restricted database: the chosen alphas and the outer accuracies must
    equal what the shared reductions give."""
    # a quarter of the labels flipped, so accuracy varies with alpha and the
    # folds choose different grid points.  The retained rank r must exceed d:
    # at r = d every alpha's embedding is an invertible map of every other's,
    # the discriminant classifies them alike, and every fold keeps grid[0].
    cfg = SynthConfig(n=30, m=48, n_gt=6, global_noise=0.25, seed=4)
    db = sample_database(generate_backbone(cfg), cfg)
    labels = db.labels
    grid = (0.1, 1.0, 4.0)
    folds = 4
    eval_cfg = EvalConfig(folds=folds, alpha_grid=grid, k=3, seed=11)
    report = evaluate_dataset(db, eval_cfg, SolverConfig(alpha=0.1))
    assert len(set(report.fold_alphas)) == len(grid)

    v_full = db.values
    assignment = stratified_folds(labels, folds, seed=11)

    def refit_and_score(train, held_out, alpha):
        train_idx = np.flatnonzero(train)
        test_idx = np.flatnonzero(held_out)
        model = fit_model(restrict_instances(db, train_idx), k=3, alpha=alpha)
        clf = train_linear_classifier(
            (model.u_matrix.T @ v_full[:, train_idx])[np.newaxis], labels[train_idx]
        )[0]
        predicted = clf.predict(model.u_matrix.T @ v_full[:, test_idx])
        return float(np.mean(predicted == labels[test_idx]))

    alphas, accuracies = [], []
    for f in range(folds):
        test = assignment == f
        means = [
            np.mean([
                refit_and_score(~test & (assignment != g), assignment == g, alpha)
                for g in range(folds)
                if g != f
            ])
            for alpha in grid
        ]
        alphas.append(grid[int(np.argmax(means))])
        accuracies.append(refit_and_score(~test, test, alphas[-1]))
    assert report.fold_alphas == tuple(alphas)
    assert report.fold_accuracies == tuple(accuracies)


def test_each_training_set_is_reduced_once(monkeypatch):
    """F folds and A >= 2 alphas: run_cv reduces F outer and F(F-1)/2 inner
    training sets and runs the trainer once on each, with all alphas of an
    inner pair in one stack; sweep_alpha reduces and trains once per outer
    fold and reduces the full database once."""
    calls = {"svd": 0, "classifier": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(solver, "truncated_svd_basis", counted("svd", solver.truncated_svd_basis))
    monkeypatch.setattr(
        evaluation,
        "train_linear_classifier",
        counted("classifier", evaluation.train_linear_classifier),
    )
    db = class_db(5, n=8, m=24)
    folds, grid = 4, (0.1, 1.0, 4.0)
    eval_cfg = EvalConfig(folds=folds, alpha_grid=grid, k=3, seed=8)
    evaluate_dataset(db, eval_cfg, SolverConfig(alpha=0.1))
    pairs = folds * (folds - 1) // 2
    assert calls == {"svd": folds + pairs, "classifier": pairs + folds}

    calls.update(svd=0, classifier=0)
    sweep_alpha(db, eval_cfg, SolverConfig(alpha=0.1), gt_nodes=[0, 1, 2])
    assert calls == {"svd": folds + 1, "classifier": folds}


@pytest.mark.parametrize("n", [30, 8])  # m = 24 <= n: K is sliced; m > n: the XX' path
def test_one_gram_product_per_fit_and_per_cv_run(monkeypatch, n):
    """Where m <= n, fit_model, nested CV and the sweep with ground truth
    on one database together form V'V over the n rows once, for all m
    columns: every run's cosine and every training set's SVD basis and data
    term read ``db.gram``.  Where m > n none is kept, and each run forms it
    once, for its cosine."""
    products = []
    inner_products = StateMatrix.inner_products

    def counted(self):
        if self.gram is None:
            products.append(self.matrix.shape)
        return inner_products(self)

    monkeypatch.setattr(StateMatrix, "inner_products", counted)
    db = class_db(5, n=n, m=24)
    eval_cfg = EvalConfig(folds=4, alpha_grid=(0.1, 1.0), k=3, seed=8)
    runs = (
        lambda: fit_model(db, k=3),
        lambda: evaluate_dataset(db, eval_cfg, SolverConfig(alpha=0.1), gt_nodes=[0, 1]),
        lambda: sweep_alpha(db, eval_cfg, SolverConfig(alpha=0.1), gt_nodes=[0, 1]),
    )
    for run in runs:
        run()
    assert products == [(n, 24)] * (1 if n >= 24 else len(runs))


def test_one_gram_and_one_laplacian_pattern_per_database(monkeypatch):
    """Two fit_model calls, nested CV and the sweep with ground truth on one
    database (m <= n) form V'V once and build the union's Laplacian pattern
    once: every reduction's topology term reads that one pattern."""
    products, patterns, used = [], [], []
    inner_products, post_init = StateMatrix.inner_products, GeneralizedNetwork.__post_init__
    topology_term = solver.topology_term

    def counted_products(self):
        if self.gram is None:
            products.append(self.matrix.shape)
        return inner_products(self)

    def counted_patterns(self):
        if self.pattern is None:
            patterns.append(self.n)
        post_init(self)

    def watched(g, q):
        used.append(g.pattern)
        return topology_term(g, q)

    monkeypatch.setattr(StateMatrix, "inner_products", counted_products)
    monkeypatch.setattr(GeneralizedNetwork, "__post_init__", counted_patterns)
    monkeypatch.setattr(solver, "topology_term", watched)
    db = class_db(5, n=30, m=24)
    eval_cfg = EvalConfig(folds=4, alpha_grid=(0.1, 1.0), k=3, seed=8)
    for alpha in (0.5, 2.0):
        fit_model(db, k=3, alpha=alpha)
    evaluate_dataset(db, eval_cfg, SolverConfig(alpha=0.1), gt_nodes=[0, 1])
    sweep_alpha(db, eval_cfg, SolverConfig(alpha=0.1), gt_nodes=[0, 1])
    assert products == [(30, 24)] and patterns == [30]
    # 2 fits; 6 inner pairs, 4 outer folds and the full set; 4 folds and the full set
    assert len(used) == 2 + 11 + 5
    assert all(pattern is db.network().pattern for pattern in used)


def test_kept_gram_is_no_larger_than_the_values(monkeypatch):
    """A CV run keeps V'V for its training sets only when m <= n, where the
    m x m array is no larger than the n x m values; with m > n it keeps none.
    Each reduction's state matrix carries its training set's slice of it."""
    grams = []
    reduce_problem = evaluation.reduce_problem

    def watched(v, *rest):
        grams.append((v.m_cols, v.gram))
        return reduce_problem(v, *rest)

    monkeypatch.setattr(evaluation, "reduce_problem", watched)
    eval_cfg = EvalConfig(folds=4, alpha_grid=(1.0,), k=3, seed=8)
    for n, kept in ((30, True), (24, True), (8, False)):
        db = class_db(5, n=n, m=24)
        grams.clear()
        sweep_alpha(db, eval_cfg, SolverConfig(alpha=1.0), gt_nodes=[0, 1])
        assert [size for size, _ in grams] == [18] * 4 + [24]
        if kept:
            assert all(gram.shape == (size, size) for size, gram in grams)
            assert max(gram.nbytes for _, gram in grams) <= db.values.nbytes
        else:
            assert all(gram is None for _, gram in grams)


def test_cv_setup_memory_peaks_at_two_instance_squares(monkeypatch):
    """n = 4, m = 3000: V'V becomes the cosine in place and the neighbour
    table is ranked beside it, so the set-up peaks within 10% of two m x m
    float64 arrays, and from the first training set's Laplacians on the
    peak stays below one (tracemalloc, this process only)."""
    rng = np.random.default_rng(0)
    m = 3000
    db = build_db(rng.normal(2.0, 1.0, size=(4, m)), np.arange(m) % 2, [()] * m)
    square = m * m * 8
    setup_peak = []
    laplacians = evaluation.laplacians

    def watched(*args):
        if not setup_peak:
            setup_peak.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        return laplacians(*args)

    monkeypatch.setattr(evaluation, "laplacians", watched)
    tracemalloc.start()
    try:
        sweep_alpha(db, EvalConfig(folds=10, alpha_grid=(1.0,)), SolverConfig(alpha=1.0, d=1))
        fold_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert square < setup_peak[0] <= 2.2 * square
    assert fold_peak < square


def test_cv_runs_read_no_training_set_edge_rows(monkeypatch):
    """Nested CV and the sweep with ground truth get every training set's
    generalized network from one fold table per run: each counts the folds'
    edges in one call, and reads the whole database's network once, for
    its full-database reduction."""
    db = class_db(6, n=8, m=24)
    networks, tables = [], []
    network, group_counts = NetworkDatabase.network, NetworkDatabase.group_counts

    def counted_network(self):
        networks.append(self)
        return network(self)

    def counted_group_counts(self, groups):
        tables.append(groups)
        return group_counts(self, groups)

    monkeypatch.setattr(NetworkDatabase, "network", counted_network)
    monkeypatch.setattr(NetworkDatabase, "group_counts", counted_group_counts)
    eval_cfg = EvalConfig(folds=4, alpha_grid=(0.1, 1.0, 4.0), k=3, seed=8)
    evaluate_dataset(db, eval_cfg, SolverConfig(alpha=0.1), gt_nodes=[0, 1, 2])
    sweep_alpha(db, eval_cfg, SolverConfig(alpha=0.1), gt_nodes=[0, 1, 2])
    assert len(networks) == 2 and len(tables) == 2


def test_one_reduction_serves_the_whole_grid(monkeypatch):
    """reduce_database computes one basis; its model at every grid alpha
    equals fit_model's exactly."""
    db = class_db(3, n=10, m=20)
    calls = []
    basis = solver.truncated_svd_basis

    def counted(*args):
        calls.append(args)
        return basis(*args)

    monkeypatch.setattr(solver, "truncated_svd_basis", counted)
    problem = reduce_database(db, k=4)
    models = [problem.model(alpha, 2) for alpha in DEFAULT_ALPHA_GRID]
    assert len(calls) == 1
    for alpha, model in zip(DEFAULT_ALPHA_GRID, models):
        assert np.array_equal(model.u_matrix, fit_model(db, k=4, alpha=alpha).u_matrix)
    assert len(calls) == 1 + len(DEFAULT_ALPHA_GRID)


def mixture_db(seed, n, m, states, kinds=4):
    """Instances of ``kinds`` positive templates, each raised by 7 on its own
    quarter of the nodes, labelled kind % states: every training set of a
    4-fold run keeps r >= 3 at the seeds used."""
    rng = np.random.default_rng(seed)
    kind = rng.permutation(np.arange(m) % kinds)
    templates = 1.0 + rng.random((n, kinds))
    for j in range(kinds):
        templates[j * n // kinds : (j + 1) * n // kinds, j] += 7.0
    values = templates[:, kind] + rng.normal(0.0, 0.4, size=(n, m))
    edge_lists = [
        [(p, q) for p in range(n) for q in range(p + 1, n) if rng.random() < 0.35]
        for _ in range(m)
    ]
    return build_db(values, kind % states, edge_lists)


@pytest.mark.parametrize(
    "n, states, d",
    [
        *((60, 2, d) for d in (1, 2, 3)),  # m = 40 <= n: z is the basis's V'Q
        *((12, 2, d) for d in (1, 2, 3)),  # m > n: z is reduce_problem's product
        (40, 3, None),  # three states, d = 3
        (10, 3, None),
    ],
)
def test_reduced_scorer_matches_the_node_space_oracle(n, states, d):
    """Scoring in reduced coordinates, w'z' for the training set and
    w'(Q'V_held) per held-out fold with no sign convention, gives exactly
    the accuracies of scoring U'V with U = model(alpha, d).u_matrix, for
    the inner pairs of nested CV and for the outer folds."""
    db = mixture_db(0, n, 40 if states == 2 else 30, states)
    eval_cfg = EvalConfig(folds=4, k=3, seed=0)
    solver_cfg = SolverConfig(alpha=1.0, d=d)
    for most_left_out in (1, 2):
        score, _ = evaluation._cv_scorer(db, eval_cfg, solver_cfg, most_left_out)
        oracle = node_space_scorer(db, eval_cfg, solver_cfg, most_left_out)
        for left_out in combinations(range(4), most_left_out):
            got = score(left_out, DEFAULT_ALPHA_GRID)
            assert got.shape == (len(DEFAULT_ALPHA_GRID), most_left_out)
            assert np.array_equal(got, oracle(left_out, DEFAULT_ALPHA_GRID))


def test_scoring_builds_no_node_space_model(monkeypatch):
    """CV scoring reads only each alpha's reduced coordinates: nested CV
    and the sweep without ground truth never call ReducedProblem.model."""
    db = class_db(4, n=10, m=24)
    calls = []
    model = solver.ReducedProblem.model

    def counted(self, alpha, d):
        calls.append(alpha)
        return model(self, alpha, d)

    monkeypatch.setattr(solver.ReducedProblem, "model", counted)
    eval_cfg = EvalConfig(folds=4, alpha_grid=(0.1, 1.0, 4.0), k=3, seed=8)
    evaluate_dataset(db, eval_cfg, SolverConfig(alpha=0.1))
    sweep_alpha(db, eval_cfg, SolverConfig(alpha=0.1))
    assert calls == []
    evaluate_dataset(db, eval_cfg, SolverConfig(alpha=0.1), gt_nodes=[0, 1, 2])
    assert len(calls) == 1  # the full-database model of the AUC


@pytest.mark.parametrize("n", [30, 8])  # m = 24 <= n: K is sliced; m > n: the XX' path
def test_cv_aucs_are_those_of_fit_model(n):
    """A CV run's full-database reduction is fit_model's: at every grid
    alpha, the sweep's AUC and the AUC of evaluate_dataset with that alpha
    as its one grid point equal, exactly, the AUC of fit_model's U; so does
    nested CV's at the alpha it selects."""
    db = class_db(5, n=n, m=24)
    gt = [0, 1, 2]
    eval_cfg = EvalConfig(folds=4, k=3, seed=8)

    def fitted_auc(alpha):
        return ranking_auc(score_nodes(fit_model(db, k=3, alpha=alpha).u_matrix), gt)[0]

    rows = sweep_alpha(db, eval_cfg, SolverConfig(alpha=0.1), gt_nodes=gt)
    assert [row.alpha for row in rows] == list(DEFAULT_ALPHA_GRID)
    for row in rows:
        single = EvalConfig(folds=4, alpha_grid=(row.alpha,), k=3, seed=8)
        report = evaluate_dataset(db, single, SolverConfig(alpha=row.alpha), gt_nodes=gt)
        assert row.auc == report.auc == fitted_auc(row.alpha)
    nested = evaluate_dataset(db, eval_cfg, SolverConfig(alpha=0.1), gt_nodes=gt)
    assert nested.auc == fitted_auc(nested.best_alpha)
    # the ground truth is read once, before the set-up, so an iterator serves too
    once = evaluate_dataset(db, eval_cfg, SolverConfig(alpha=0.1), gt_nodes=iter(gt))
    assert once.auc == nested.auc and once.roc == nested.roc


def watch_table_depths(monkeypatch) -> tuple[list[int], list]:
    """The depth of every neighbour table evaluation ranks, and the groups
    of every fold-count table the database counts, as calls happen."""
    depths, tables = [], []
    neighbour_table, group_counts = evaluation.neighbour_table, NetworkDatabase.group_counts

    def ranked(sims, t):
        depths.append(t)
        return neighbour_table(sims, t)

    def counted(self, groups):
        tables.append(groups)
        return group_counts(self, groups)

    monkeypatch.setattr(evaluation, "neighbour_table", ranked)
    monkeypatch.setattr(NetworkDatabase, "group_counts", counted)
    return depths, tables


def test_a_plain_fit_ranks_k_neighbours_and_counts_no_folds(monkeypatch):
    """fit_model and reduce_database rank t = min(k, m - 1) neighbours per
    instance in one table, all that a fit on every instance reads, and
    count no fold edges: no fold is left out, so none widens the table."""
    depths, tables = watch_table_depths(monkeypatch)
    db = class_db(5, n=8, m=24)
    for k, t in ((3, 3), (22, 22), (23, 23), (10_000, 23)):
        depths.clear()
        fit_model(db, k=k)
        reduce_database(db, k)
        assert depths == [t, t]
    assert tables == []


def test_cv_runs_rank_k_plus_their_largest_left_out_folds(monkeypatch):
    """A sweep ranks k plus its largest fold's size of neighbours, nested CV
    k plus its two largest folds', both capped at m - 1, each in one table;
    each run counts every fold's edges in one call."""
    depths, tables = watch_table_depths(monkeypatch)
    db = class_db(5, n=8, m=26)
    sizes = sorted(np.bincount(stratified_folds(db.labels, 4, seed=8)).tolist())
    assert sizes == [6, 6, 6, 8]
    for k, sweep_depth, nested_depth in ((3, 11, 17), (10, 18, 24), (20, 25, 25)):
        depths.clear()
        tables.clear()
        eval_cfg = EvalConfig(folds=4, alpha_grid=(0.1, 1.0), k=k, seed=8)
        sweep_alpha(db, eval_cfg, SolverConfig(alpha=0.1), gt_nodes=[0, 1])
        evaluate_dataset(db, eval_cfg, SolverConfig(alpha=0.1), gt_nodes=[0, 1])
        single = EvalConfig(folds=4, alpha_grid=(1.0,), k=k, seed=8)
        evaluate_dataset(db, single, SolverConfig(alpha=1.0))
        assert depths == [sweep_depth, nested_depth, sweep_depth]
        assert len(tables) == 3


@pytest.mark.parametrize("power", [-3, 3])
def test_alpha_is_independent_of_value_units(power):
    """Multiplying every node value by s leaves cosines, affinities and the
    whitened data term unchanged, so a relative alpha must give the same
    folds and a transformation scaled by exactly 1/s."""
    db = class_db(2, n=8, m=24)
    factor = 2.0**power
    scaled = build_db(db.values * factor, db.labels, db.instance_edges)
    eval_cfg = EvalConfig(folds=4, alpha_grid=(2.0,), k=3, seed=11)
    solver_cfg = SolverConfig(alpha=2.0)
    base_cv = evaluate_dataset(db, eval_cfg, solver_cfg)
    scaled_cv = evaluate_dataset(scaled, eval_cfg, solver_cfg)
    assert scaled_cv.fold_accuracies == base_cv.fold_accuracies

    expected = fit_model(db, k=3, alpha=2.0).u_matrix / factor
    got = fit_model(scaled, k=3, alpha=2.0).u_matrix
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def test_cv_three_states():
    """Three global states: d defaults to 3 and every stacked fit is
    one-vs-rest, in the inner pairs and the outer folds alike."""
    rng = np.random.default_rng(3)
    n, m = 9, 30
    labels = np.tile([0, 1, 2], m // 3)[rng.permutation(m)]
    templates = 1.0 + rng.random((n, 3))
    for cls in range(3):
        templates[3 * cls : 3 * cls + 3, cls] += 7.0
    values = templates[:, labels] + rng.normal(0.0, 0.4, size=(n, m))
    edge_lists = [
        [(p, q) for p in range(n) for q in range(p + 1, n) if rng.random() < 0.35]
        for _ in range(m)
    ]
    db = build_db(values, labels, edge_lists)
    grid = (0.5, 2.0)
    eval_cfg = EvalConfig(folds=3, alpha_grid=grid, k=3, seed=0)
    report = evaluate_dataset(db, eval_cfg, SolverConfig(alpha=0.5))
    assert len(report.fold_accuracies) == 3
    assert all(alpha in grid for alpha in report.fold_alphas)
    assert report.mean_accuracy >= 0.9


def test_cv_no_edges_selects_smallest_alpha():
    # without edges the constraint term vanishes, every alpha ties, and the
    # tie rule keeps the smallest grid point in every fold
    db = class_db(7, n=6, m=12, edge_prob=0.0)
    eval_cfg = EvalConfig(folds=3, alpha_grid=(0.5, 1.5, 3.0), k=3, seed=0)
    report = evaluate_dataset(db, eval_cfg, SolverConfig(alpha=0.5))
    assert report.fold_alphas == (0.5, 0.5, 0.5)
    assert report.best_alpha == 0.5


def test_eval_config_rejects_empty_grid():
    with pytest.raises(ConfigInvalid, match=re.escape("alpha grid is empty")):
        EvalConfig(folds=3, alpha_grid=(), k=3, seed=2)


def test_eval_config_stores_a_sorted_grid_without_repeats():
    from_list = EvalConfig(alpha_grid=[2.0, 0.5, 2.0, 1.0])
    assert from_list.alpha_grid == (0.5, 1.0, 2.0)
    assert from_list == EvalConfig(alpha_grid=(0.5, 1.0, 2.0))
    assert hash(from_list) == hash(EvalConfig(alpha_grid=(1.0, 2.0, 0.5)))
    assert EvalConfig(alpha_grid=np.array([2.0, 0.5, 1.0])) == from_list


def test_cv_report_invariants():
    db = class_db(5, n=8, m=24)
    grid = (0.1, 1.0)
    eval_cfg = EvalConfig(folds=4, alpha_grid=grid, k=3, seed=8)
    report = evaluate_dataset(db, eval_cfg, SolverConfig(alpha=0.1))
    assert len(report.fold_accuracies) == 4
    assert len(report.fold_alphas) == 4
    assert all(a in grid for a in report.fold_alphas)
    assert report.mean_accuracy == pytest.approx(np.mean(report.fold_accuracies))
    assert report.sd_accuracy == pytest.approx(np.std(report.fold_accuracies, ddof=1))
    counts = {a: report.fold_alphas.count(a) for a in set(report.fold_alphas)}
    expected = min(counts, key=lambda a: (-counts[a], a))
    assert report.best_alpha == expected
    assert all(0.0 <= acc <= 1.0 for acc in report.fold_accuracies)


def test_evaluate_dataset_attaches_auc_only_with_ground_truth():
    db = class_db(9, n=8, m=24)
    gt_nodes = [0, 1, 2]  # any proper node subset exercises the ranking
    eval_cfg = EvalConfig(folds=3, alpha_grid=(0.5, 2.0), k=3, seed=1)
    solver_cfg = SolverConfig(alpha=0.5)
    plain = evaluate_dataset(db, eval_cfg, solver_cfg)
    assert plain.auc is None and plain.roc is None
    scored = evaluate_dataset(db, eval_cfg, solver_cfg, gt_nodes=gt_nodes)
    assert scored.fold_accuracies == plain.fold_accuracies
    assert scored.best_alpha == plain.best_alpha
    assert scored.auc is not None and 0.0 <= scored.auc <= 1.0
    assert scored.roc[0] == (0.0, 0.0)
    assert scored.roc[-1] == (1.0, 1.0)


def test_sweep_rows_match_fixed_alpha_cv():
    db = class_db(10, n=8, m=24)
    gt_nodes = [1, 4, 6]
    grid = (2.0, 0.5)
    eval_cfg = EvalConfig(folds=3, alpha_grid=grid, k=3, seed=4)
    solver_cfg = SolverConfig(alpha=0.5)
    rows = sweep_alpha(db, eval_cfg, solver_cfg, gt_nodes=gt_nodes)
    assert [row.alpha for row in rows] == [0.5, 2.0]  # sorted
    for row in rows:
        single = evaluate_dataset(
            db, EvalConfig(folds=3, alpha_grid=(row.alpha,), k=3, seed=4), solver_cfg
        )
        assert row.mean_accuracy == single.mean_accuracy
        assert row.sd_accuracy == single.sd_accuracy
        assert row.auc is not None
    bare = sweep_alpha(db, eval_cfg, solver_cfg)
    assert all(row.auc is None for row in bare)


# ---------------------------------------------------------------------------
# ranking AUC


def auc_pairwise_oracle(scores, positive) -> Fraction:
    """The exact share of (positive, negative) pairs ranked right, a tied
    pair counting one half."""
    pos, neg = scores[positive, np.newaxis], scores[np.newaxis, ~positive]
    twice_u = 2 * int(np.sum(pos > neg)) + int(np.sum(pos == neg))
    return Fraction(twice_u, 2 * pos.size * neg.size)


def roc_walk_oracle(scores, positive) -> list[tuple[float, float]]:
    """ROC points after each distinct score, walked from the highest."""
    n_pos, n_neg = int(positive.sum()), int((~positive).sum())
    roc, tp, fp = [(0.0, 0.0)], 0, 0
    for score in sorted(set(scores.tolist()), reverse=True):
        tp += int(np.sum(positive & (scores == score)))
        fp += int(np.sum(~positive & (scores == score)))
        roc.append((fp / n_neg, tp / n_pos))
    return roc


def roc_area(roc, n_pos, n_neg) -> Fraction:
    """The exact trapezoid area under an ROC polyline, from the counts its
    points were divided from."""
    counts = [(round(x * n_neg), round(y * n_pos)) for x, y in roc]
    steps = zip(counts, counts[1:])
    return sum(Fraction((f1 - f0) * (t0 + t1), 2 * n_pos * n_neg) for (f0, t0), (f1, t1) in steps)


def auc_cases():
    """Small quantized vectors, then a few thousand nodes with heavy ties."""
    rng = np.random.default_rng(0)
    for _ in range(15):
        n = int(rng.integers(5, 30))
        yield n, np.round(rng.random(n), 1)
    yield 1000, rng.integers(0, 3, size=1000).astype(float)
    yield 2500, np.round(rng.normal(size=2500), 1)
    yield 4000, rng.integers(0, 7, size=4000) / 7.0
    continuous = rng.normal(size=3000)
    yield 3000, continuous[rng.integers(0, 2000, size=3000)]  # a third repeated


def test_auc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(1)
    for n, scores in auc_cases():
        n_pos = int(rng.integers(1, n))
        positive = np.zeros(n, dtype=bool)
        positive[rng.choice(n, size=n_pos, replace=False)] = True
        auc, roc = ranking_auc(scores, np.flatnonzero(positive))
        assert roc.dtype == np.float64 and roc.shape == (len(np.unique(scores)) + 1, 2)
        roc = [tuple(point) for point in roc.tolist()]
        assert auc == float(auc_pairwise_oracle(scores, positive))
        assert roc == roc_walk_oracle(scores, positive)
        assert all(type(x) is float for point in roc for x in point)
        assert float(roc_area(roc, n_pos, n - n_pos)) == auc


def test_auc_extremes_and_flat():
    scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    assert ranking_auc(scores, [0, 1])[0] == 1.0
    assert ranking_auc(scores, [3, 4])[0] == 0.0
    assert ranking_auc(np.ones(6), [0, 1, 2])[0] == 0.5


def test_auc_roc_contract():
    scores = np.array([0.9, 0.9, 0.5, 0.1, 0.5])
    auc, roc = ranking_auc(scores, [0, 2])
    assert roc.dtype == np.float64 and roc.ndim == 2
    roc = [tuple(point) for point in roc.tolist()]
    assert roc[0] == (0.0, 0.0)
    assert roc[-1] == (1.0, 1.0)
    assert len(roc) == len(np.unique(scores)) + 1
    fpr = [p[0] for p in roc]
    tpr = [p[1] for p in roc]
    assert all(a <= b for a, b in zip(fpr, fpr[1:]))
    assert all(a <= b for a, b in zip(tpr, tpr[1:]))


def test_auc_degenerate_inputs():
    scores = np.arange(4.0)
    cases = [
        (scores, [], "need 0 < |ground truth| < n, got 0 of 4"),
        (scores, [0, 1, 2, 3], "need 0 < |ground truth| < n, got 4 of 4"),
        (scores, [4], "ground-truth ordinal 4 out of range"),
        (scores, [-1], "ground-truth ordinal -1 out of range"),
        ([0.5, np.nan, 1.0, 0.0], [0], "scores must be finite, got nan at node 1"),
        ([np.inf, np.inf, 1.0, 0.0], [0, 2], "scores must be finite, got inf at node 0"),
        ([1.0, 0.0, -np.inf], [0], "scores must be finite, got -inf at node 2"),
    ]
    for values, gt, message in cases:
        with pytest.raises(SubnetmineError, match=re.escape(message)):
            ranking_auc(values, gt)


# ---------------------------------------------------------------------------
# report files


def test_write_eval_report_files(tmp_path):
    report = EvalReport(
        fold_accuracies=(0.75, 0.5),
        mean_accuracy=0.625,
        sd_accuracy=0.1767766952966369,
        fold_alphas=(0.5, 1.0),
        best_alpha=0.5,
        auc=0.9,
        roc=((0.0, 0.0), (0.0, 0.5), (1.0, 1.0)),
    )
    write_eval_report(report, tmp_path / "out")
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["fold_accuracies"] == [0.75, 0.5]
    assert payload["best_alpha"] == 0.5
    assert payload["auc"] == 0.9
    lines = (tmp_path / "out" / "fold_accuracies.tsv").read_text().splitlines()
    assert lines[0] == "fold\taccuracy\tselected_alpha"
    assert lines[1] == "0\t0.75\t0.5"
    roc_lines = (tmp_path / "out" / "roc.tsv").read_text().splitlines()
    assert roc_lines[0] == "fpr\ttpr"
    assert roc_lines[2] == "0.0\t0.5"

    first = (tmp_path / "out" / "report.json").read_bytes()
    write_eval_report(report, tmp_path / "out")
    assert (tmp_path / "out" / "report.json").read_bytes() == first


def test_write_eval_report_without_roc(tmp_path):
    report = EvalReport(
        fold_accuracies=(1.0,), mean_accuracy=1.0, sd_accuracy=0.0,
        fold_alphas=(0.1,), best_alpha=0.1,
    )
    write_eval_report(report, tmp_path / "out")
    assert not (tmp_path / "out" / "roc.tsv").exists()
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["auc"] is None


def test_numpy_alpha_grid_writes_plain_floats(tmp_path):
    """Grid points that are numpy floats are written as 2.0, not as
    np.float64(2.0)."""
    db = class_db(3, n=6, m=12)
    eval_cfg = EvalConfig(folds=3, alpha_grid=tuple(np.array([0.5, 2.0])), k=3, seed=2)
    write_eval_report(evaluate_dataset(db, eval_cfg, SolverConfig(alpha=0.5)), tmp_path / "out")
    write_sweep(sweep_alpha(db, eval_cfg, SolverConfig(alpha=0.5)), tmp_path / "sweep.tsv")
    folds = (tmp_path / "out" / "fold_accuracies.tsv").read_text().splitlines()[1:]
    assert {line.split("\t")[2] for line in folds} <= {"0.5", "2.0"}
    sweep = (tmp_path / "sweep.tsv").read_text().splitlines()[1:]
    assert [line.split("\t")[0] for line in sweep] == ["0.5", "2.0"]


def test_write_sweep_format(tmp_path):
    rows = [
        SweepRow(alpha=0.1, mean_accuracy=0.5, sd_accuracy=0.25, auc=None),
        SweepRow(alpha=1.0, mean_accuracy=0.875, sd_accuracy=0.1, auc=0.75),
    ]
    write_sweep(rows, tmp_path / "sweep.tsv")
    lines = (tmp_path / "sweep.tsv").read_text().splitlines()
    assert lines[0] == "alpha\tmean_accuracy\tsd_accuracy\tauc"
    assert lines[1] == "0.1\t0.5\t0.25\t"
    assert lines[2] == "1.0\t0.875\t0.1\t0.75"
    # values parse back exactly
    alpha, mean, sd, auc = lines[2].split("\t")
    assert float(alpha) == 1.0 and float(mean) == 0.875 and float(auc) == 0.75
