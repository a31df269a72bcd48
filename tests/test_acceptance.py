"""Release gate: one test per shipping criterion, each printing a single
PASS/FAIL summary line.

The desk-scale checks share five synthetic benchmark runs (n=300, m=200,
20 planted nodes, default noise) built once per module.
"""

from __future__ import annotations

import filecmp
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    assemble_objective_matrix,
    constraint_from_tuples,
    edge_tuples,
    laplacians,
    network,
    solve_spectral,
    template_db,
)
from subnetmine import cli
from subnetmine.data import NetworkDatabase, StateMatrix, build_generalized_network
from subnetmine.evaluation import (
    DEFAULT_ALPHA_GRID,
    EvalConfig,
    evaluate_dataset,
    fit_model,
    sweep_alpha,
)
from subnetmine.solver import SolverConfig, topology_term, truncated_svd_basis
from subnetmine.synth import SynthConfig, generate_backbone, sample_database

SEEDS = (0, 1, 2, 3, 4)


def announce(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def desk_runs():
    """(report, evaluate seconds, sweep rows) for each benchmark seed."""
    runs = []
    for s in SEEDS:
        cfg = SynthConfig(n=300, m=200, n_gt=20, seed=s)
        gt = generate_backbone(cfg)
        db = sample_database(gt, cfg)
        gt_nodes = sorted(gt.gt_nodes)
        eval_cfg = EvalConfig(folds=10, seed=s)
        solver_cfg = SolverConfig(alpha=DEFAULT_ALPHA_GRID[0])
        start = time.perf_counter()
        report = evaluate_dataset(db, eval_cfg, solver_cfg, gt_nodes=gt_nodes)
        elapsed = time.perf_counter() - start
        rows = sweep_alpha(db, eval_cfg, solver_cfg, gt_nodes=gt_nodes)
        runs.append((report, elapsed, rows))
    return runs


def pipeline_fixture(rng, n, m, alpha):
    db = template_db(rng, n=n, m=m)
    v = StateMatrix(db.values)
    d_plus, l_tilde = laplacians(db, 3)
    c = constraint_from_tuples(n, edge_tuples(build_generalized_network(db)))
    a = assemble_objective_matrix(v, l_tilde, c, alpha)
    basis = truncated_svd_basis(v, d_plus, 0.95)
    return a, basis


def test_criterion_1_solver_beats_random_directions(capsys):
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = np.inf
    samples_per_fixture = 2000  # 50 fixtures x 2000 = 1e5 candidates
    for _ in range(50):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(8, 21))
        alpha = float(rng.random() * 2.0)
        a, basis = pipeline_fixture(rng, n, m, alpha)
        model = solve_spectral(a, basis, 1, alpha=alpha)
        w = rng.normal(size=(basis.r, samples_per_fixture))
        w /= np.linalg.norm(w, axis=0, keepdims=True)
        u = (basis.p_r / basis.sigma_r[np.newaxis, :]) @ w
        best_random = np.einsum("ij,ij->j", u, a @ u).max()
        worst = min(worst, model.eigenvalues[0] - best_random)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-9 and elapsed < 10.0
    announce(
        capsys, 1,
        ok,
        f"top eigenvalue minus best of 1e5 random normalized directions "
        f">= {worst:.3e} (need >= -1e-9), elapsed {elapsed:.2f}s (< 10s)",
    )
    assert worst >= -1e-9
    assert elapsed < 10.0


def test_criterion_2_constraint_quadratic_identity(capsys):
    rng = np.random.default_rng(1)
    max_diff = 0.0
    min_quad = np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 31))
        edges = []
        denominator = int(rng.integers(1, 50))
        for p in range(n):
            for q in range(p + 1, n):
                if rng.random() < 0.2:
                    count = int(rng.integers(1, denominator + 1))
                    edges.append((p, q, count / denominator))
        g = network(n, edges)
        c = topology_term(g, np.eye(n))
        u = rng.normal(size=n)
        quad = float(u @ (c @ u))
        # half the ordered-pair sum is one term per stored undirected edge
        direct = sum(w * (u[p] - u[q]) ** 2 for p, q, w in edges)
        max_diff = max(max_diff, abs(quad - direct))
        min_quad = min(min_quad, quad)
    ok = max_diff <= 1e-10 and min_quad >= -1e-12
    announce(
        capsys, 2,
        ok,
        f"1000 random graphs: max |u'Cu - sum K (u_p-u_q)^2| = {max_diff:.3e} "
        f"(<= 1e-10), min u'Cu = {min_quad:.3e} (>= -1e-12)",
    )
    assert max_diff <= 1e-10
    assert min_quad >= -1e-12


def test_criterion_3_truncated_basis_contracts(capsys):
    rng = np.random.default_rng(2)
    max_orth = 0.0
    max_proj = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(8, 21))
        _, basis = pipeline_fixture(rng, n, m, 0.5)
        gram = basis.p_r.T @ basis.p_r
        max_orth = max(max_orth, float(np.max(np.abs(gram - np.eye(basis.r)))))
        for _ in range(10):
            y = rng.normal(size=basis.r)
            y /= np.linalg.norm(y)
            x = basis.p_r @ y
            shrunk = basis.p_r @ ((basis.p_r.T @ x) / basis.sigma_r**2)
            back = basis.p_r @ ((basis.p_r.T @ shrunk) * basis.sigma_r**2)
            max_proj = max(max_proj, float(np.linalg.norm(back - x)))
    ok = max_orth <= 1e-10 and max_proj <= 1e-8
    announce(
        capsys, 3,
        ok,
        f"max |P_r'P_r - I| = {max_orth:.3e} (<= 1e-10), "
        f"max whitening round-trip error on span(P_r) = {max_proj:.3e} (<= 1e-8)",
    )
    assert max_orth <= 1e-10
    assert max_proj <= 1e-8


def test_criterion_4_benchmark_accuracy(capsys, desk_runs):
    accs = [report.mean_accuracy for report, _, _ in desk_runs]
    times = [elapsed for _, elapsed, _ in desk_runs]
    mean_acc = float(np.mean(accs))
    ok = mean_acc >= 0.65 and max(times) < 120.0
    announce(
        capsys, 4,
        ok,
        f"mean accuracy {mean_acc:.4f} (>= 0.65) over seeds "
        f"{[round(a, 3) for a in accs]}, slowest run {max(times):.1f}s (< 120s)",
    )
    assert mean_acc >= 0.65
    assert max(times) < 120.0


def test_criterion_5_ground_truth_auc(capsys, desk_runs):
    aucs = [report.auc for report, _, _ in desk_runs]
    mean_auc = float(np.mean(aucs))
    ok = mean_auc >= 0.70
    announce(
        capsys, 5,
        ok,
        f"mean node-ranking AUC {mean_auc:.4f} (>= 0.70) over seeds "
        f"{[round(a, 3) for a in aucs]}",
    )
    assert mean_auc >= 0.70


def test_criterion_6_alpha_curve_shape(capsys, desk_runs):
    grid = tuple(sorted(DEFAULT_ALPHA_GRID))
    rises = 0
    drops = 0
    shapes = []
    for _, _, rows in desk_runs:
        curve = {row.alpha: row.mean_accuracy for row in rows}
        peak = max(curve.values())
        if peak > curve[grid[0]]:
            rises += 1
        if curve[grid[-1]] < peak:
            drops += 1
        shapes.append(
            f"{curve[grid[0]]:.3f}->{peak:.3f}->{curve[grid[-1]]:.3f}"
        )
    ok = rises >= 4 and drops >= 4
    announce(
        capsys, 6,
        ok,
        f"peak beats smallest alpha in {rises}/5 seeds (need >= 4); "
        f"largest alpha below peak in {drops}/5 seeds (need >= 4); "
        f"curves [start->peak->end]: {shapes}",
    )
    assert rises >= 4
    assert drops >= 4


def shuffle_labels(db: NetworkDatabase, rng) -> NetworkDatabase:
    return replace(db, labels=db.labels[rng.permutation(db.m)])


def test_criterion_7_permutation_baseline(capsys):
    means = []
    for s in range(20):
        cfg = SynthConfig(n=100, m=60, n_gt=10, seed=s)
        db = sample_database(generate_backbone(cfg), cfg)
        shuffled = shuffle_labels(db, np.random.default_rng(10_000 + s))
        report = evaluate_dataset(
            shuffled,
            EvalConfig(folds=5, alpha_grid=(1.0,), seed=s),
            SolverConfig(alpha=1.0),
        )
        means.append(report.mean_accuracy)
    overall = float(np.mean(means))
    ok = 0.40 <= overall <= 0.60
    announce(
        capsys, 7,
        ok,
        f"mean accuracy {overall:.4f} on label-shuffled data over 20 seeds "
        f"(must sit in [0.40, 0.60])",
    )
    assert 0.40 <= overall <= 0.60


def test_criterion_8_end_to_end_determinism(capsys, tmp_path):
    def run(tag: str) -> None:
        dataset = tmp_path / tag / "ds"
        assert cli.main([
            "generate", "--nodes", "60", "--instances", "80", "--gt", "8",
            "--seed", "7", "--out", str(dataset),
        ]) == 0
        assert cli.main([
            "evaluate", str(dataset), "--folds", "4",
            "--out", str(tmp_path / tag / "eval"),
        ]) == 0

    run("first")
    run("second")
    dataset_files = [
        "nodes.tsv", "instances.tsv", "values.tsv", "edges.tsv",
        "ground_truth.tsv", "backbone.tsv",
    ]
    eval_files = ["report.json", "fold_accuracies.tsv", "roc.tsv"]
    _, ds_mismatch, ds_errors = filecmp.cmpfiles(
        tmp_path / "first" / "ds", tmp_path / "second" / "ds",
        dataset_files, shallow=False,
    )
    _, ev_mismatch, ev_errors = filecmp.cmpfiles(
        tmp_path / "first" / "eval", tmp_path / "second" / "eval",
        eval_files, shallow=False,
    )
    problems = ds_mismatch + ds_errors + ev_mismatch + ev_errors
    ok = problems == []
    announce(
        capsys, 8,
        ok,
        "generate + evaluate repeated with identical flags: "
        + ("all 9 output files byte-identical" if ok else f"differing files {problems}"),
    )
    assert problems == []


def test_criterion_9_fit_scaling(capsys):
    times = {}
    for n in (100, 200, 400):
        cfg = SynthConfig(n=n, m=100, n_gt=10, seed=0)
        db = sample_database(generate_backbone(cfg), cfg)
        reps = []
        for _ in range(3):
            start = time.perf_counter()
            fit_model(db, k=10, alpha=1.0)
            reps.append(time.perf_counter() - start)
        times[n] = float(np.median(reps))
    ratio_a = times[200] / times[100]
    ratio_b = times[400] / times[200]
    ok = ratio_a <= 6.0 and ratio_b <= 6.0
    announce(
        capsys, 9,
        ok,
        f"median fit times {times[100]:.3f}s/{times[200]:.3f}s/{times[400]:.3f}s "
        f"at n=100/200/400; growth x{ratio_a:.2f} and x{ratio_b:.2f} per doubling "
        f"(each <= 6)",
    )
    assert ratio_a <= 6.0
    assert ratio_b <= 6.0
