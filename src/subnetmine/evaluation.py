"""End-to-end pipeline: cross validation, alpha selection, AUC.

Every fold rebuilds the meta-graphs, the generalized network and the
spectral model from its training instances only, so no test information
leaks into the learned subspace.  Alpha is chosen per outer fold by an
inner cross validation over the remaining training folds (ties go to the
smaller alpha); node-ranking quality is scored as the area under the ROC
curve of the scores against a ground-truth node set.

Per distinct training set, ``_reduce`` runs once: kNN affinities, Laplacians,
subset network, constraint, SVD basis and whitened terms.  Per alpha there is
one r x r eigensolve.  The classifiers of all alphas on one training set come
from one stacked run of ``train_linear_classifier``, so its epoch loop runs
once per training set, not once per alpha.  Inner splits (f, g) and (g, f)
share their training set, so F-fold ``run_cv`` reduces and trains on
F + F(F-1)/2 sets and ``sweep_alpha`` on F, plus one more reduction of the
full database when ground truth is given.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from .data import NetworkDatabase, StateMatrix, write_json, write_tsv
from .errors import (
    ConfigInvalid,
    DegenerateGroundTruth,
    KTooLarge,
    SingleClassFold,
    TooFewPerClass,
)
from .metagraph import (
    _affinity_pair,
    _cosine_matrix,
    build_constraint_matrix,
    build_laplacian_set,
)
from .seeds import substream
from .selection import score_nodes
from .solver import ReducedProblem, SolverConfig, SpectralModel, reduce_problem

DEFAULT_ALPHA_GRID = (0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.5)


@dataclass(frozen=True)
class EvalConfig:
    folds: int = 10
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    k: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigInvalid(f"seed must be nonnegative, got {self.seed}")
        for alpha in self.alpha_grid:
            SolverConfig(alpha=alpha)  # rejects a negative, infinite or NaN grid point


@dataclass(frozen=True, eq=False)
class LinearClassifier:
    """Linear decision rule sign(w.x + b) over embedded coordinates,
    mapped back to the two original labels."""

    weights: np.ndarray
    bias: float
    neg_label: int
    pos_label: int

    def decision(self, embedded: np.ndarray) -> np.ndarray:
        return self.weights @ embedded + self.bias

    def predict(self, embedded: np.ndarray) -> np.ndarray:
        side = self.decision(embedded) >= 0.0
        return np.where(side, self.pos_label, self.neg_label)


@dataclass(frozen=True, eq=False)
class OneVsRestClassifier:
    """Minimal multi-class extension: one binary model per label."""

    labels: tuple[int, ...]
    models: tuple[LinearClassifier, ...]

    def predict(self, embedded: np.ndarray) -> np.ndarray:
        scores = np.vstack([m.decision(embedded) for m in self.models])
        return np.asarray(self.labels)[np.argmax(scores, axis=0)]


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
            raise TooFewPerClass(
                f"class {cls} has {idx.size} members, need >= {folds}"
            )
        idx = idx[rng.permutation(idx.size)]
        assignment[idx] = np.arange(idx.size) % folds
    return assignment


def _pegasos(embedded: np.ndarray, y: np.ndarray, epochs: int, reg: float):
    """Weights (A x d) and biases (A) of the hinge-loss fits of every row of
    an A x d x m stack against one label vector y of +-1.

    Every reduction is an ``einsum`` or ``sum`` over one row's own entries,
    never a BLAS product, so each row's result is bit-identical whatever
    else shares its stack.
    """
    mean = embedded.mean(axis=2)
    sd = embedded.std(axis=2)
    sd = np.where(sd > 0.0, sd, 1.0)
    x = (embedded - mean[:, :, np.newaxis]) / sd[:, :, np.newaxis]
    rows, dim, m = x.shape
    # y * [x; 1]: an iterate is [w, b], so w.x + b is one sum over its rows,
    # and multiplying by y = +-1 is exact
    xy = np.concatenate([x, np.ones((rows, 1, m))], axis=1) * y
    decay = np.append(np.full(dim, reg), 0.0)  # the bias is not regularized
    radius = 1.0 / np.sqrt(reg)

    def hinge(iterates):  # margins and objectives of ... x A x (d+1) iterates
        margins = 1.0 - np.einsum("...ai,aim->...am", iterates, xy)
        w = iterates[..., :dim]
        penalty = 0.5 * reg * (w * w).sum(axis=-1)
        return margins, penalty + np.maximum(margins, 0.0).sum(axis=-1) / m

    # the raw iterate and its running average, evaluated together
    iterates = np.zeros((2, rows, dim + 1))
    raw, avg = iterates
    margins, objectives = hinge(iterates)
    best_obj, best = objectives[0], raw.copy()
    for t in range(epochs):
        active = np.where(margins[0] > 0.0, 1.0, 0.0)
        grad = decay * raw - np.einsum("aim,am->ai", xy, active) / m
        raw -= 1.0 / (reg * (t + 2)) * grad
        w = raw[:, :dim]
        # rows inside the ball are scaled by exactly 1
        w *= (radius / np.maximum(np.sqrt((w * w).sum(axis=1)), radius))[:, np.newaxis]
        avg += (raw - avg) / (t + 1)
        margins, objectives = hinge(iterates)
        for obj, candidate in zip(objectives, iterates):  # raw first, then average
            better = obj < best_obj
            best_obj = np.where(better, obj, best_obj)
            best = np.where(better[:, np.newaxis], candidate, best)
    w, b = best[:, :dim], best[:, dim]
    return w / sd, b - (w * (mean / sd)).sum(axis=1)


def train_linear_classifier(
    embedded: np.ndarray, labels, epochs: int = 150, reg: float = 1e-3
):
    """Deterministic full-batch subgradient descent on the regularized hinge
    loss.

    ``embedded`` is one d x m embedding, giving one classifier, or an
    A x d x m stack of embeddings of the same instances, giving a tuple of
    A classifiers from one shared epoch loop.  Row a of a stack gets exactly
    the classifier that row alone would.  Coordinates are standardized per
    row (folded back into the returned weights), the step schedule is
    1/(reg*(t+2)), iterates are projected onto the ball of radius
    1/sqrt(reg), and each row returns the epoch-end iterate (raw, then
    running average) with the lowest training objective, so longer training
    never yields a worse loss.  More than two classes give one-vs-rest
    models.
    """
    embedded = np.ascontiguousarray(embedded, dtype=np.float64)
    single = embedded.ndim < 3
    if single:
        embedded = np.atleast_2d(embedded)[np.newaxis]
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if classes.size < 2:
        raise SingleClassFold(f"single class {classes} in training labels")
    if classes.size > 2:
        fits = [_pegasos(embedded, np.where(labels == c, 1.0, -1.0), epochs, reg) for c in classes]
        models = tuple(
            OneVsRestClassifier(
                labels=tuple(int(c) for c in classes),
                models=tuple(LinearClassifier(w[a], float(b[a]), 0, 1) for w, b in fits),
            )
            for a in range(len(embedded))
        )
    else:
        neg, pos = int(classes[0]), int(classes[1])
        weights, biases = _pegasos(embedded, np.where(labels == pos, 1.0, -1.0), epochs, reg)
        models = tuple(LinearClassifier(w, float(b), neg, pos) for w, b in zip(weights, biases))
    return models[0] if single else models


# ---------------------------------------------------------------------------
# model fitting


def _reduce(
    db: NetworkDatabase, idx: np.ndarray, k: int, energy_fraction: float
) -> ReducedProblem:
    """The alpha-invariant part of every fit: meta-graphs, Laplacians,
    generalized network and reduced problem over the instances at ``idx``
    only; k is clamped to |idx| - 1."""
    k = min(k, idx.size - 1)
    if k < 1:
        raise KTooLarge(f"k={k} outside 1..{idx.size - 1}")
    v_train = StateMatrix(db.values[:, idx].copy())  # C order; the index alone gives F
    aff = _affinity_pair(_cosine_matrix(v_train), db.labels[idx], k)
    lap = build_laplacian_set(aff)
    c = build_constraint_matrix(db.edge_index.network(idx))
    return reduce_problem(v_train, lap, c, energy_fraction)


def reduce_database(
    db: NetworkDatabase, k: int = 10, energy_fraction: float = 0.95
) -> ReducedProblem:
    """The alpha-invariant part of a fit on every instance of ``db``: to fit
    at several alphas, reduce once and call ``model(alpha, d)`` per alpha."""
    return _reduce(db, np.arange(db.m), k, energy_fraction)


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
    """Full pipeline on one database: affinities, Laplacians, constraint,
    truncated basis, eigenvectors; ``reduce_database(...).model(alpha, d)``.

    alpha is the relative topology weight of ``ReducedProblem.model``, so
    the model does not depend on the units of the node values.  k is clamped
    to m - 1 so small databases keep working; d defaults to the number of
    distinct global states.  Invalid settings raise ConfigInvalid.
    """
    SolverConfig(alpha=alpha, energy_fraction=energy_fraction, d=d)  # validates
    return reduce_database(db, k, energy_fraction).model(alpha, _dimension(d, db.labels))


def _cv_scorer(db: NetworkDatabase, eval_cfg: EvalConfig, solver_cfg: SolverConfig):
    """Fold count, plus ``score(left_out, held_out, alphas)``: reduce once on
    the instances outside the folds ``left_out``, solve once per alpha, train
    the classifiers of all alphas in one stacked run, and score each on every
    fold in ``held_out``.  ``score`` returns the len(alphas) x len(held_out)
    accuracies."""
    labels, v = db.labels, db.values
    d = _dimension(solver_cfg.d, labels)
    assignment = stratified_folds(labels, eval_cfg.folds, eval_cfg.seed)

    def score(left_out, held_out, alphas) -> np.ndarray:
        train = np.flatnonzero(~np.isin(assignment, left_out))
        held = [np.flatnonzero(assignment == fold) for fold in held_out]
        problem = _reduce(db, train, eval_cfg.k, solver_cfg.energy_fraction)
        v_train = v[:, train]
        us = [problem.model(alpha, d).u_matrix for alpha in alphas]
        clfs = train_linear_classifier(np.stack([u.T @ v_train for u in us]), labels[train])
        return np.array([
            [np.mean(clf.predict(u.T @ v[:, idx]) == labels[idx]) for idx in held]
            for u, clf in zip(us, clfs)
        ])

    return int(assignment.max()) + 1, score


def _mean_sd(accuracies) -> tuple[float, float]:
    mean = float(np.mean(accuracies))
    sd = float(np.std(accuracies, ddof=1)) if len(accuracies) > 1 else 0.0
    return mean, sd


def run_cv(db: NetworkDatabase, eval_cfg: EvalConfig, solver_cfg: SolverConfig) -> EvalReport:
    """Outer cross validation with nested alpha selection.

    With two or more grid points, each outer fold picks its alpha by
    leave-one-fold-out validation over its training folds; a single-point
    grid (or an empty one, falling back to solver_cfg.alpha) skips the
    inner loop.  The overall best_alpha is the most frequently selected
    one, ties to the smaller value.
    """
    grid = tuple(sorted(eval_cfg.alpha_grid)) if eval_cfg.alpha_grid else ()
    folds, score = _cv_scorer(db, eval_cfg, solver_cfg)
    alphas = [grid[0] if grid else solver_cfg.alpha] * folds
    if len(grid) > 1:
        # inner[a, f, g]: accuracy at grid[a] on fold g, trained without f and g
        inner = np.empty((len(grid), folds, folds))
        for f, g in combinations(range(folds), 2):
            inner[:, f, g], inner[:, g, f] = score((f, g), (g, f), grid).T
        for f in range(folds):
            means = [np.mean(np.delete(inner[a, f], f)) for a in range(len(grid))]
            alphas[f] = grid[int(np.argmax(means))]  # argmax keeps the smaller alpha on ties
    accuracies = [float(score((f,), (f,), (alphas[f],))[0, 0]) for f in range(folds)]

    counts: dict[float, int] = {}
    for alpha in alphas:
        counts[alpha] = counts.get(alpha, 0) + 1
    best_alpha = min(counts, key=lambda a: (-counts[a], a))
    mean, sd = _mean_sd(accuracies)
    return EvalReport(
        fold_accuracies=tuple(accuracies),
        mean_accuracy=mean,
        sd_accuracy=sd,
        fold_alphas=tuple(alphas),
        best_alpha=best_alpha,
    )


# ---------------------------------------------------------------------------
# node-ranking AUC


def ranking_auc(scores, gt_nodes) -> tuple[float, list[tuple[float, float]]]:
    """Mann-Whitney AUC (ties count one half) of a node score vector against
    a positive set, plus the ROC polyline from (0,0) to (1,1)."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    positive = np.zeros(n, dtype=bool)
    for p in gt_nodes:
        if not 0 <= int(p) < n:
            raise DegenerateGroundTruth(f"ground-truth ordinal {p} out of range")
        positive[int(p)] = True
    n_pos = int(positive.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateGroundTruth(
            f"need 0 < |ground truth| < n, got {n_pos} of {n}"
        )
    ranks = rankdata(scores)
    auc = float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))

    order = np.argsort(-scores, kind="stable")
    # one ROC point after the last node of each distinct score
    ends = np.append(np.flatnonzero(np.diff(scores[order]) != 0.0), n - 1)
    fpr = np.cumsum(~positive[order])[ends] / n_neg
    tpr = np.cumsum(positive[order])[ends] / n_pos
    return auc, [(0.0, 0.0), *zip(fpr.tolist(), tpr.tolist())]


def evaluate_dataset(
    db: NetworkDatabase,
    eval_cfg: EvalConfig,
    solver_cfg: SolverConfig,
    gt_nodes=None,
) -> EvalReport:
    """run_cv plus, when ground truth is supplied, the node-ranking AUC of a
    full-database model fitted at the selected alpha."""
    report = run_cv(db, eval_cfg, solver_cfg)
    if gt_nodes is None:
        return report
    full = reduce_database(db, eval_cfg.k, solver_cfg.energy_fraction)
    model = full.model(report.best_alpha, _dimension(solver_cfg.d, db.labels))
    auc, roc = ranking_auc(score_nodes(model.u_matrix), gt_nodes)
    return replace(report, auc=auc, roc=tuple(roc))


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
    full-database model at that alpha when ground truth is available."""
    grid = tuple(sorted(eval_cfg.alpha_grid)) if eval_cfg.alpha_grid else (solver_cfg.alpha,)
    folds, score = _cv_scorer(db, eval_cfg, solver_cfg)
    # accuracies[a, f]: accuracy at grid[a] on outer fold f
    accuracies = np.hstack([score((f,), (f,), grid) for f in range(folds)])
    aucs = [None] * len(grid)
    if gt_nodes is not None:
        full = reduce_database(db, eval_cfg.k, solver_cfg.energy_fraction)
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
