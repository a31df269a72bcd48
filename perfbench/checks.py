"""Output checks, each computed apart from the library or from a property the
method must have. Every function returns a list of failure messages; an
empty list means the output passed.

The inputs these checks use (values, labels, planted nodes, union edges)
come from the generator's ``truth.npz``, not from the library.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

TOL = 1e-12
ORTHO_TOL = 1e-8
# well above chance (0.5), for the best model along the alpha grid; the
# model at the alpha a job selects can sit lower (0.67 on desk-nested seed
# 18, where cross-validation chose alpha 1 and alpha 6.5 gives 0.95)
MIN_AUC = 0.7
# a classifier must beat always predicting the majority state by this much;
# with 10% label noise the accuracies sit near 0.85
MIN_ACCURACY_GAIN = 0.15
# tr(U'CU) may rise by this share of its start between grid neighbours
# (round-off), and must fall by at least PATH_DROP of it over the grid
PATH_TOL = 1e-9
PATH_DROP = 1e-3


def mann_whitney_auc(scores: np.ndarray, planted: np.ndarray) -> float:
    """P(score of a planted node > score of another node), ties counting 1/2."""
    positive = np.zeros(scores.shape[0], dtype=bool)
    positive[planted] = True
    pos = scores[positive][:, np.newaxis]
    neg = scores[~positive][np.newaxis, :]
    wins = np.count_nonzero(pos > neg) + 0.5 * np.count_nonzero(pos == neg)
    return float(wins / (pos.size * neg.size))


def same_state_degrees(values: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """D+ of the cosine kNN graph: row sums of the raw cosine over pairs
    where one is among the other's k nearest (ties to the lower index) and
    the global states agree."""
    m = values.shape[1]
    norms = np.linalg.norm(values, axis=0)
    unit = values / np.where(norms > 0.0, norms, 1.0)
    sims = unit.T @ unit
    sims = (sims + sims.T) / 2.0
    ranked = sims.copy()
    np.fill_diagonal(ranked, -np.inf)
    nearest = np.argsort(-ranked, axis=1, kind="stable")[:, :k]
    linked = np.zeros((m, m), dtype=bool)
    linked[np.repeat(np.arange(m), k), nearest.ravel()] = True
    linked |= linked.T
    np.fill_diagonal(linked, False)
    same = labels[:, np.newaxis] == labels[np.newaxis, :]
    return np.where(linked & same, sims, 0.0).sum(axis=1)


def model_checks(u: np.ndarray, scores: np.ndarray, values: np.ndarray, d_plus: np.ndarray) -> list[str]:
    """U is B-orthonormal (U' V D+ V' U = I) and scores are max |U| per row."""
    failures = []
    x = u.T @ values
    gram = (x * d_plus[np.newaxis, :]) @ x.T
    err = float(np.max(np.abs(gram - np.eye(u.shape[1]))))
    if not err <= ORTHO_TOL:
        failures.append(f"U is not B-orthonormal: max |U'BU - I| = {err:.3g}")
    if not np.allclose(scores, np.max(np.abs(u), axis=1), rtol=0.0, atol=TOL):
        failures.append("node scores are not max |U| per row")
    return failures


def constraint_laplacian(truth) -> sparse.csr_array:
    """C of the union graph: the Laplacian with each edge weighted by the
    share of instances it is present in."""
    n = truth["values"].shape[0]
    p, q = truth["union_pairs"].T
    w = truth["union_counts"] / truth["labels"].shape[0]
    adjacency = sparse.coo_array(
        (np.concatenate([w, w]), (np.concatenate([p, q]), np.concatenate([q, p]))),
        shape=(n, n),
    ).tocsr()
    return sparse.csr_array(sparse.diags_array(adjacency.sum(axis=1)) - adjacency)


def topology_trace(u: np.ndarray, c: sparse.csr_array) -> float:
    """tr(U'CU): how much the subnetwork's topology is violated."""
    return float(np.sum(u * (c @ u)))


def alpha_path_checks(traces: list[float], grid) -> list[str]:
    """tr(U'CU) along the alpha grid must not rise and must fall.

    U maximizes tr(U'(M0 - w C)U) on a fixed constraint set, with w
    proportional to alpha, so for alpha_a < alpha_b the optimality of each
    at its own alpha gives (alpha_b - alpha_a)(t_a - t_b) >= 0. A fit that
    ignored alpha or C would give a flat path.
    """
    failures = []
    start = traces[0]
    for (a, t_a), (b, t_b) in zip(zip(grid, traces), zip(grid[1:], traces[1:])):
        if not t_b <= t_a + PATH_TOL * abs(start):
            failures.append(f"tr(U'CU) rises from {t_a:.6g} at alpha {a} to {t_b:.6g} at {b}")
    if not traces[-1] <= start * (1.0 - PATH_DROP):
        failures.append(f"tr(U'CU) does not fall over the grid: {start:.6g} to {traces[-1]:.6g}")
    return failures


def accuracy_floor(mean_accuracy: float, labels: np.ndarray) -> list[str]:
    """The mean CV accuracy beats always predicting the majority state."""
    floor = np.bincount(labels).max() / labels.shape[0] + MIN_ACCURACY_GAIN
    if mean_accuracy >= floor:
        return []
    return [f"mean accuracy {mean_accuracy:.4f} is below the floor {floor:.4f}"]


def auc_checks(own: float, *program: float) -> list[str]:
    return [
        f"AUC {value!r} differs from the recomputed {own!r}"
        for value in program
        if value is None or not abs(value - own) <= TOL
    ]


def chance_check(best_auc: float) -> list[str]:
    if best_auc >= MIN_AUC:
        return []
    return [f"best AUC along the grid {best_auc:.4f} is not well above chance"]


def fold_checks(report, labels: np.ndarray, folds: int, grid) -> list[str]:
    """Fold accuracies are whole counts over a possible fold size, mean and
    sd follow from them, and every chosen alpha lies on the grid."""
    failures = []
    counts = np.bincount(labels)
    counts = counts[counts > 0]
    smallest = int(np.sum(counts // folds))
    largest = int(np.sum(-(-counts // folds)))
    accs = np.asarray(report.fold_accuracies, dtype=np.float64)
    if accs.shape != (folds,):
        failures.append(f"{accs.size} fold accuracies for {folds} folds")
        return failures
    for f, acc in enumerate(accs):
        if not any(
            abs(acc * size - round(acc * size)) <= 1e-9
            for size in range(smallest, largest + 1)
        ):
            failures.append(f"fold {f} accuracy {acc!r} is no whole count")
    if not abs(report.mean_accuracy - accs.mean()) <= TOL:
        failures.append("mean accuracy does not follow from the folds")
    if not abs(report.sd_accuracy - accs.std(ddof=1)) <= TOL:
        failures.append("sd of accuracy does not follow from the folds")
    if any(alpha not in grid for alpha in report.fold_alphas):
        failures.append(f"chosen alphas {report.fold_alphas} leave the grid")
    chosen = list(report.fold_alphas)
    mode = min(set(chosen), key=lambda a: (-chosen.count(a), a))
    if report.best_alpha != mode:
        failures.append(f"best alpha {report.best_alpha} is not the most chosen {mode}")
    return failures


def selection_checks(report, truth, c: int) -> list[str]:
    """The selection is the top c by score (ties to the lower ordinal); the
    components are disjoint, cover it, and are exactly the connected
    components of the union graph induced on it, with its edges."""
    failures = []
    scores = np.asarray(report.scores)
    order = sorted(range(scores.shape[0]), key=lambda p: (-scores[p], p))[:c]
    if list(report.selected) != order:
        failures.append("selection is not the top c by score")
    chosen = set(order)
    member: dict[int, int] = {}
    for comp_id, comp in enumerate(report.components):
        for p in comp.nodes:
            if p in member:
                failures.append(f"node {p} is in two components")
            member[p] = comp_id
    if set(member) != chosen:
        failures.append("components do not cover the selection")
        return failures

    pairs = truth["union_pairs"]
    weights = truth["union_counts"] / truth["labels"].shape[0]
    parent = {p: p for p in chosen}

    def root(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    induced: dict[int, set] = {i: set() for i in range(len(report.components))}
    for (p, q), w in zip(pairs.tolist(), weights.tolist()):
        if p in chosen and q in chosen:
            parent[root(p)] = root(q)
            if member[p] != member[q]:
                failures.append(f"edge ({p}, {q}) joins two components")
            else:
                induced[member[p]].add((p, q, w))
    for comp_id, comp in enumerate(report.components):
        if len({root(p) for p in comp.nodes}) != 1:
            failures.append(f"component {comp_id} is not connected")
        edges = {(int(p), int(q)) for p, q, _ in comp.edges}
        if edges != {(p, q) for p, q, _ in induced[comp_id]}:
            failures.append(f"component {comp_id} does not hold its induced edges")
        expected = {(p, q): w for p, q, w in induced[comp_id]}
        if any(abs(w - expected.get((int(p), int(q)), -1.0)) > TOL for p, q, w in comp.edges):
            failures.append(f"component {comp_id} edge weights differ from presence fractions")
    return failures
