"""End-to-end pipeline: cross validation, alpha selection, AUC.

Every fold rebuilds the meta-graphs, the generalized network and the
spectral model from its training instances only, so no test information
leaks into the learned subspace.  Alpha is chosen per outer fold by an
inner cross validation over the remaining training folds (ties go to the
smaller alpha); node-ranking quality is scored as the area under the ROC
curve of the scores against a ground-truth node set.  Accuracy is that of
a linear discriminant analysis (LDA) classifier in the d-dimensional
embedding.

Every reduction, a plain fit's and each training set's, goes one way:
``_reducer`` computes the database's V'V, cosine and ``neighbour_table``
once, and with folds counts each fold's union edges once
(``NetworkDatabase.group_counts``); a plain fit is the reduction with no
folds left out.  The table ranks a fold's test instances too, but a
training set keeps only its own entries, and the cosine of two instances
depends on those two alone, so no test information reaches a fold's
meta-graphs.  A training set's generalized network is the database's
counts minus those of the folds it leaves out, so no training set reads
an edge row.  Per distinct training set, ``reduce`` runs once: kNN
Laplacians, SVD basis and whitened terms over its network.  Per alpha
there is one eigensolve for the top d pairs of the r x r reduced matrix.
The classifiers of all alphas on one training set come from one call of
``train_linear_classifier``, one batched d x d solve over the stacked
embeddings.  Inner splits (f, g) and (g, f) share their training set, so
F-fold ``evaluate_dataset`` reduces and trains on F + F(F-1)/2 sets and
``sweep_alpha`` on F, plus one more reduction of the full database when
ground truth is given.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .data import GeneralizedNetwork, NetworkDatabase, StateMatrix, write_json, write_tsv
from .errors import ConfigInvalid, SubnetmineError
from .metagraph import _cosine_matrix, laplacians, neighbour_table
from .seeds import substream
from .selection import score_nodes
from .solver import ReducedProblem, SolverConfig, SpectralModel, check_alpha, reduce_problem

DEFAULT_ALPHA_GRID = (0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.5)


@dataclass(frozen=True)
class EvalConfig:
    """Cross-validation settings; ``alpha_grid`` is stored as a sorted tuple
    without repeats."""

    folds: int = 10
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    k: int = 10
    seed: int = 0

    def __post_init__(self):
        _check_k(self.k)
        if self.seed < 0:
            raise ConfigInvalid(f"seed must be nonnegative, got {self.seed}")
        grid = tuple(sorted(set(self.alpha_grid)))
        if not grid:
            raise ConfigInvalid("alpha grid is empty")
        for alpha in grid:
            check_alpha(alpha)
        object.__setattr__(self, "alpha_grid", grid)


@dataclass(frozen=True, eq=False)
class LinearClassifier:
    """Linear discriminants over embedded coordinates: an instance x gets
    the label whose score weights[c] . x + biases[c] is largest, ties to the
    first label."""

    weights: np.ndarray  # C x d
    biases: np.ndarray  # C
    labels: np.ndarray  # C, ascending

    def predict(self, embedded: np.ndarray) -> np.ndarray:
        scores = self.weights @ embedded + self.biases[:, np.newaxis]
        return self.labels[np.argmax(scores, axis=0)]


@dataclass(frozen=True)
class EvalReport:
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    sd_accuracy: float
    fold_alphas: tuple[float, ...]
    best_alpha: float
    auc: float | None = None
    roc: tuple[tuple[float, float], ...] | None = None


# ---------------------------------------------------------------------------
# folds and classifier


def stratified_folds(labels, folds: int, seed: int) -> np.ndarray:
    """Fold id per instance, class-balanced within +-1 member.

    folds == m degenerates to leave-one-out (one instance per fold); below
    that every class must have at least ``folds`` members.
    """
    labels = np.asarray(labels)
    m = labels.shape[0]
    if folds < 2:
        raise ConfigInvalid(f"folds must be >= 2, got {folds}")
    if folds > m:
        raise ConfigInvalid(f"folds={folds} exceeds instance count {m}")
    if folds == m:
        return np.arange(m)
    rng = substream(seed, "folds")
    assignment = np.empty(m, dtype=int)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < folds:
            raise SubnetmineError(
                f"class {cls} has {idx.size} members, need >= {folds}"
            )
        idx = idx[rng.permutation(idx.size)]
        assignment[idx] = np.arange(idx.size) % folds
    return assignment


def train_linear_classifier(embedded: np.ndarray, labels):
    """Closed-form linear discriminant analysis (LDA): class c scores
    x' S^-1 mu_c - mu_c' S^-1 mu_c / 2 + log pi_c, with class mean mu_c,
    prior pi_c and pooled within-class covariance S (scatter over m - C)
    plus a ridge of 1e-9 of its mean diagonal, or of 1 when the scatter is
    all zero, so constant features predict the majority class.

    ``embedded`` is an A x d x m stack of embeddings of the same m
    instances, one per alpha; the result is a tuple of A classifiers from
    one batched solve.  Every sum runs along one row's last axis, never
    through BLAS, and the solve is per matrix, so row a gets exactly the
    classifier that a stack of row a alone would.
    """
    embedded = np.ascontiguousarray(embedded, dtype=np.float64)
    classes, member, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if classes.size < 2:
        raise SubnetmineError(f"single class {classes} in training labels")
    dim, m = embedded.shape[1:]
    # means[a, c]: class c's mean in row a, taken about its first member, so a
    # feature constant within the class adds exactly zero scatter.  np.take
    # keeps C order (an index array on the last axis would not).
    groups = [np.flatnonzero(member == c) for c in range(classes.size)]
    means = np.stack([
        embedded[:, :, g[0]] + (np.take(embedded, g, axis=2) - embedded[:, :, g[:1]]).mean(axis=2)
        for g in groups
    ], axis=1)
    centered = embedded - np.take(means.transpose(0, 2, 1), member, axis=2)
    scatter = (centered[:, :, np.newaxis] * centered[:, np.newaxis]).sum(axis=3)
    cov = scatter / max(m - classes.size, 1)
    diagonal = cov.diagonal(axis1=1, axis2=2).mean(axis=1)
    ridge = np.where(diagonal > 0.0, 1e-9 * diagonal, 1.0)
    regularized = cov + ridge[:, np.newaxis, np.newaxis] * np.eye(dim)
    weights = np.linalg.solve(regularized, means.transpose(0, 2, 1)).transpose(0, 2, 1)
    biases = np.log(counts / m) - 0.5 * (weights * means).sum(axis=2)
    return tuple(LinearClassifier(w, b, classes) for w, b in zip(weights, biases))


# ---------------------------------------------------------------------------
# model fitting


def _check_k(k: int) -> None:
    if k < 1:
        raise ConfigInvalid(f"k must be positive, got {k}")


def _reducer(
    db: NetworkDatabase,
    k: int,
    energy_fraction: float,
    assignment: np.ndarray | None = None,
    most_left_out: int = 0,
):
    """``reduce(left_out)``: the alpha-invariant part of every fit (kNN
    Laplacians, SVD basis and whitened terms) on the instances outside the
    folds ``left_out`` of ``assignment``, at most ``most_left_out`` of
    them; ``()`` is every instance, the only set without folds.  k >= 1 is
    clamped to the training set's size - 1.

    One Gram, one ranking of neighbours and, with folds, one edge count per
    fold serve every reduction.  A training set's basis reads its slice of
    the database's V'V when it is kept (m <= n, so no larger than V), and
    its meta-graphs one neighbour table of the database's cosine: leaving
    out at most the ``most_left_out`` largest folds, a row's first k
    training neighbours lie within its first k plus that many.  Its
    generalized network is the database's edge counts minus those of the
    folds it leaves out, so no training set reads an edge row."""
    _check_k(k)
    sizes = [] if assignment is None else np.sort(np.bincount(assignment))[::-1]
    depth = min(db.m - 1, k + int(np.sum(sizes[:most_left_out])))
    gram = StateMatrix(db.values).inner_products() if db.m <= db.n else None
    table = neighbour_table(_cosine_matrix(StateMatrix(db.values, gram)), depth)
    if assignment is not None:
        pairs, total, by_fold = db.group_counts(assignment)

    def reduce(left_out) -> ReducedProblem:
        if not left_out:
            train, network = np.arange(db.m), db.network()
        else:
            train = np.flatnonzero(~np.isin(assignment, left_out))
            counts = total.copy()
            for fold in left_out:
                # a row of the table names each edge at most once
                row = slice(by_fold.indptr[fold], by_fold.indptr[fold + 1])
                counts[by_fold.indices[row]] -= by_fold.data[row]
            network = GeneralizedNetwork.counted(db.n, pairs, counts, train.size)
        if train.size < 2:
            raise SubnetmineError(
                f"training set has {train.size} instance, need 2 or more; "
                "use more instances or a one-point --alpha-grid"
            )
        # np.take keeps C order, as an index would not
        v_train = StateMatrix(
            np.take(db.values, train, axis=1), None if gram is None else gram[np.ix_(train, train)]
        )
        d_plus, l_tilde = laplacians(table, db.labels, train, min(k, train.size - 1))
        return reduce_problem(v_train, d_plus, l_tilde, network, energy_fraction)

    return reduce


def reduce_database(
    db: NetworkDatabase, k: int = 10, energy_fraction: float = 0.95
) -> ReducedProblem:
    """The alpha-invariant part of a fit on every instance of ``db``: to fit
    at several alphas, reduce once and call ``model(alpha, d)`` per alpha."""
    return _reducer(db, k, energy_fraction)(())


def _dimension(d: int | None, labels: np.ndarray) -> int:
    """d, defaulting to the number of distinct global states."""
    return d if d is not None else len(np.unique(labels))


def fit_model(
    db: NetworkDatabase,
    k: int = 10,
    alpha: float = 1.0,
    energy_fraction: float = 0.95,
    d: int | None = None,
) -> SpectralModel:
    """Full pipeline on one database: Laplacians, generalized network,
    truncated basis, eigenvectors; ``reduce_database(...).model(alpha, d)``.

    alpha is the relative topology weight of ``ReducedProblem.model``, so
    the model does not depend on the units of the node values.  k is clamped
    to m - 1 so small databases keep working; d defaults to the number of
    distinct global states.  Invalid settings raise ConfigInvalid.
    """
    return reduce_database(db, k, energy_fraction).model(alpha, _dimension(d, db.labels))


def _cv_scorer(
    db: NetworkDatabase, eval_cfg: EvalConfig, solver_cfg: SolverConfig, most_left_out: int
):
    """Fold count, ``score(left_out, held_out, alphas)`` and the run's
    ``_reducer``, whose training sets leave out at most ``most_left_out``
    folds.  ``score`` reduces once on the instances outside the folds
    ``left_out``, solves once per alpha, trains the classifiers of all
    alphas in one stacked run, and scores each on every fold in
    ``held_out``; it returns the len(alphas) x len(held_out) accuracies."""
    labels, v = db.labels, db.values
    d = _dimension(solver_cfg.d, labels)
    assignment = stratified_folds(labels, eval_cfg.folds, eval_cfg.seed)
    reduce = _reducer(db, eval_cfg.k, solver_cfg.energy_fraction, assignment, most_left_out)

    def score(left_out, held_out, alphas) -> np.ndarray:
        train = np.flatnonzero(~np.isin(assignment, left_out))
        held = [np.flatnonzero(assignment == fold) for fold in held_out]
        held = [(v[:, idx], labels[idx]) for idx in held]
        problem = reduce(left_out)
        v_train = v[:, train]
        us = [problem.model(alpha, d).u_matrix for alpha in alphas]
        clfs = train_linear_classifier(np.stack([u.T @ v_train for u in us]), labels[train])
        return np.array([
            [np.mean(clf.predict(u.T @ v_held) == y_held) for v_held, y_held in held]
            for u, clf in zip(us, clfs)
        ])

    return int(assignment.max()) + 1, score, reduce


def _mean_sd(accuracies) -> tuple[float, float]:
    mean = float(np.mean(accuracies))
    sd = float(np.std(accuracies, ddof=1)) if len(accuracies) > 1 else 0.0
    return mean, sd


# ---------------------------------------------------------------------------
# node-ranking AUC


def ranking_auc(scores, gt_nodes) -> tuple[float, list[tuple[float, float]]]:
    """Mann-Whitney AUC (ties count one half) of a finite node score vector
    against a positive set, plus the ROC polyline from (0,0) to (1,1); the
    AUC is exactly the trapezoid area under that polyline."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise SubnetmineError(f"scores must be finite, got {scores[bad[0]]} at node {bad[0]}")
    positive = np.zeros(n, dtype=bool)
    for p in gt_nodes:
        if not 0 <= int(p) < n:
            raise SubnetmineError(f"ground-truth ordinal {p} out of range")
        positive[int(p)] = True
    n_pos = int(positive.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SubnetmineError(
            f"need 0 < |ground truth| < n, got {n_pos} of {n}"
        )
    order = np.argsort(-scores, kind="stable")
    # one ROC point after the last node of each distinct score
    ends = np.append(np.flatnonzero(np.diff(scores[order]) != 0.0), n - 1)
    tp = np.cumsum(positive[order])[ends]
    fp = ends + 1 - tp
    # twice the trapezoid area in integer counts, so the division is the one rounding
    twice_u = int(np.diff(fp, prepend=0) @ (tp + np.append(0, tp[:-1])))
    auc = twice_u / (2 * n_pos * n_neg)
    return auc, [(0.0, 0.0), *zip((fp / n_neg).tolist(), (tp / n_pos).tolist())]


def evaluate_dataset(
    db: NetworkDatabase,
    eval_cfg: EvalConfig,
    solver_cfg: SolverConfig,
    gt_nodes=None,
) -> EvalReport:
    """Outer cross validation with nested alpha selection, plus, when ground
    truth is supplied, the node-ranking AUC of a full-database model fitted
    at the selected alpha.

    With two or more grid points, each outer fold picks its alpha by
    leave-one-fold-out validation over its training folds; a single-point
    grid skips the inner loop.  The overall best_alpha is the most
    frequently selected one, ties to the smaller value.  Alphas come from
    ``eval_cfg.alpha_grid`` only: of ``solver_cfg`` just ``d`` and
    ``energy_fraction`` are read, never its ``alpha``.
    """
    grid = eval_cfg.alpha_grid
    # an inner pair leaves out two folds
    folds, score, reduce = _cv_scorer(db, eval_cfg, solver_cfg, 2 if len(grid) > 1 else 1)
    alphas = [grid[0]] * folds
    if len(grid) > 1:
        if folds < 3:  # an inner pair would leave out both folds and train on nothing
            raise ConfigInvalid(
                f"nested alpha selection needs 3 or more folds, got {folds}; "
                "use more folds or a one-point --alpha-grid"
            )
        # inner[a, f, g]: accuracy at grid[a] on fold g, trained without f and g
        inner = np.empty((len(grid), folds, folds))
        for f, g in combinations(range(folds), 2):
            inner[:, f, g], inner[:, g, f] = score((f, g), (g, f), grid).T
        for f in range(folds):
            means = [np.mean(np.delete(inner[a, f], f)) for a in range(len(grid))]
            alphas[f] = grid[int(np.argmax(means))]  # argmax keeps the smaller alpha on ties
    accuracies = [float(score((f,), (f,), (alphas[f],))[0, 0]) for f in range(folds)]

    counts = Counter(alphas)
    best_alpha = min(counts, key=lambda a: (-counts[a], a))
    auc = roc = None
    if gt_nodes is not None:
        model = reduce(()).model(best_alpha, _dimension(solver_cfg.d, db.labels))
        auc, roc = ranking_auc(score_nodes(model.u_matrix), gt_nodes)
        roc = tuple(roc)
    mean, sd = _mean_sd(accuracies)
    return EvalReport(
        fold_accuracies=tuple(accuracies),
        mean_accuracy=mean,
        sd_accuracy=sd,
        fold_alphas=tuple(alphas),
        best_alpha=best_alpha,
        auc=auc,
        roc=roc,
    )


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    mean_accuracy: float
    sd_accuracy: float
    auc: float | None


def sweep_alpha(
    db: NetworkDatabase,
    eval_cfg: EvalConfig,
    solver_cfg: SolverConfig,
    gt_nodes=None,
) -> list[SweepRow]:
    """Fixed-alpha cross validation for every grid point, with the AUC of a
    full-database model at that alpha when ground truth is available.  As in
    ``evaluate_dataset``, the alphas are ``eval_cfg.alpha_grid`` and of
    ``solver_cfg`` only ``d`` and ``energy_fraction`` are read."""
    grid = eval_cfg.alpha_grid
    folds, score, reduce = _cv_scorer(db, eval_cfg, solver_cfg, 1)
    # accuracies[a, f]: accuracy at grid[a] on outer fold f
    accuracies = np.hstack([score((f,), (f,), grid) for f in range(folds)])
    aucs = [None] * len(grid)
    if gt_nodes is not None:
        full = reduce(())
        d = _dimension(solver_cfg.d, db.labels)
        aucs = [
            ranking_auc(score_nodes(full.model(alpha, d).u_matrix), gt_nodes)[0]
            for alpha in grid
        ]
    return [
        SweepRow(alpha, *_mean_sd(accuracies[a]), aucs[a]) for a, alpha in enumerate(grid)
    ]


# ---------------------------------------------------------------------------
# report files


def write_eval_report(report: EvalReport, out_dir) -> None:
    out_dir = Path(out_dir)
    payload = {
        "fold_accuracies": list(report.fold_accuracies),
        "mean_accuracy": report.mean_accuracy,
        "sd_accuracy": report.sd_accuracy,
        "fold_alphas": list(report.fold_alphas),
        "best_alpha": report.best_alpha,
        "auc": report.auc,
    }
    write_json(out_dir / "report.json", payload)
    folds = zip(range(len(report.fold_accuracies)), report.fold_accuracies, report.fold_alphas)
    write_tsv(out_dir / "fold_accuracies.tsv", ["fold", "accuracy", "selected_alpha"], folds)
    if report.roc is not None:
        write_tsv(out_dir / "roc.tsv", ["fpr", "tpr"], report.roc)


def write_sweep(rows: list[SweepRow], path) -> None:
    cells = (
        (r.alpha, r.mean_accuracy, r.sd_accuracy, "" if r.auc is None else r.auc) for r in rows
    )
    write_tsv(path, ["alpha", "mean_accuracy", "sd_accuracy", "auc"], cells)
