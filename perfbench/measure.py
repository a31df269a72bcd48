"""Measuring process: runs one workload's job against the library in ``src``.

    python3 perfbench/measure.py --workload NAME --data DIR --seconds S
                                 --trace 0|1 [--trace-out FILE]

``run.py`` starts it in a fresh process with BLAS held to one thread, after
the generator has written DIR. Prints one JSON result as its last line.

Set-up is ``data.load_database`` plus reading the planted node list, timed
``SETUP_REPEATS`` times; ``setup_s`` is the median of those times. Then whole
jobs run until ``--seconds`` have passed; ``job_s`` is the median time of a
job. Set-ups and jobs alternate with runs of a fixed reference kernel, and
each median wall time is scaled by the kernel's nominal over its median time
(see ``reference.py``), so that the host's speed of the moment cancels. The
wall and kernel times go to standard error. Each job's outputs are checked
after its timer stops. With ``--trace 1`` one more job runs with the tracer
installed and the per-layer metrics come from it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
from reference import Scaled
from workloads import ALPHA_GRID, ENERGY, K, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def import_library():
    package = ROOT / "src" / "subnetmine"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import subnetmine

    if Path(subnetmine.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported subnetmine from {subnetmine.__file__}")
    from subnetmine import data, evaluation, selection, solver, synth

    return data, evaluation, selection, solver, synth


data, evaluation, selection, solver, synth = import_library()


class Job:
    """One workload's job: ``run`` is timed, ``check`` is not.

    ``check`` returns (failed operations, failure messages, final model,
    the final model's planted-node AUC as the benchmark computes it).
    """

    ops = 1

    def __init__(self, spec: dict, db, planted, truth):
        self.spec = spec
        self.db = db
        self.planted = planted
        self.truth = truth
        values, labels = truth["values"], truth["labels"]
        self.d_plus = checks.same_state_degrees(values, labels, min(K, values.shape[1] - 1))
        self.c = checks.constraint_laplacian(truth)
        self.refits: dict = {}

    def model_failures(self, model, *program_aucs: float) -> tuple[list[str], float]:
        scores = selection.score_nodes(model.u_matrix)
        own = checks.mann_whitney_auc(scores, self.truth["planted"])
        program = evaluation.ranking_auc(scores, self.planted)[0]
        failures = checks.model_checks(model.u_matrix, scores, self.truth["values"], self.d_plus)
        failures += checks.auc_checks(own, program, *program_aucs)
        return failures, own

    def grid_failures(self, models, aucs) -> list[str]:
        """Checks on the models along the alpha grid taken together."""
        traces = [checks.topology_trace(model.u_matrix, self.c) for model in models]
        return checks.alpha_path_checks(traces, ALPHA_GRID) + checks.chance_check(max(aucs))

    def prepare(self) -> None:
        """Untimed, before the first job: ``evaluation.fit_model`` at every
        grid alpha, checked. The fits are deterministic, so one set serves
        every job of the run. ``refits`` maps alpha to (model, its AUC,
        failures)."""
        models = [
            evaluation.fit_model(self.db, k=K, alpha=alpha, energy_fraction=ENERGY)
            for alpha in ALPHA_GRID
        ]
        checked = [self.model_failures(model) for model in models]
        grid = self.grid_failures(models, [auc for _, auc in checked])
        self.refits = {
            alpha: (model, auc, failures + grid)
            for alpha, model, (failures, auc) in zip(ALPHA_GRID, models, checked)
        }


class NestedCv(Job):
    """``evaluation.evaluate_dataset`` with ground truth: one operation."""

    def run(self):
        eval_cfg = evaluation.EvalConfig(folds=self.spec["folds"], alpha_grid=ALPHA_GRID, k=K)
        solver_cfg = solver.SolverConfig(alpha=ALPHA_GRID[0], energy_fraction=ENERGY)
        return evaluation.evaluate_dataset(self.db, eval_cfg, solver_cfg, gt_nodes=self.planted)

    def check(self, report):
        labels = self.truth["labels"]
        failures = checks.fold_checks(report, labels, self.spec["folds"], ALPHA_GRID)
        failures += checks.accuracy_floor(report.mean_accuracy, labels)
        if report.best_alpha not in ALPHA_GRID:
            return 1, failures, None, float("nan")
        model, auc, more = self.refits[report.best_alpha]
        failures += more + checks.auc_checks(auc, report.auc)
        return (1 if failures else 0), failures, model, auc


class Sweep(Job):
    """``evaluation.sweep_alpha`` with ground truth: one operation per grid
    row. Each row's AUC is checked against a refit at its alpha."""

    ops = len(ALPHA_GRID)

    def run(self):
        eval_cfg = evaluation.EvalConfig(folds=self.spec["folds"], alpha_grid=ALPHA_GRID, k=K)
        solver_cfg = solver.SolverConfig(alpha=ALPHA_GRID[0], energy_fraction=ENERGY)
        return evaluation.sweep_alpha(self.db, eval_cfg, solver_cfg, gt_nodes=self.planted)

    def check(self, rows):
        if [row.alpha for row in rows] != list(ALPHA_GRID):
            return self.ops, ["sweep rows do not cover the grid in order"], None, float("nan")
        # best mean accuracy; max keeps the first, so ties go to the smaller alpha
        best = max(rows, key=lambda row: row.mean_accuracy)
        failures = []
        bad_rows = 0
        for row in rows:
            model, auc, more = self.refits[row.alpha]
            if not (0.0 <= row.mean_accuracy <= 1.0 and row.sd_accuracy >= 0.0):
                more = more + [f"sweep row {row.alpha} is malformed"]
            more = more + checks.auc_checks(auc, row.auc)
            if row is best:
                # small alphas can sit near chance; the best row must not
                more += checks.accuracy_floor(row.mean_accuracy, self.truth["labels"])
            failures += more
            bad_rows += 1 if more else 0
        model, auc, _ = self.refits[best.alpha]
        return bad_rows, failures, model, auc


class Mine(Job):
    """Per grid alpha: ``evaluation.fit_model``, ``selection.build_report``
    and ``evaluation.ranking_auc``, over one generalized network. One
    operation per alpha."""

    ops = len(ALPHA_GRID)

    def run(self):
        g = data.build_generalized_network(self.db)
        out = []
        for alpha in ALPHA_GRID:
            model = evaluation.fit_model(self.db, k=K, alpha=alpha, energy_fraction=ENERGY)
            report = selection.build_report(model.u_matrix, g, self.spec["top_c"])
            auc, _ = evaluation.ranking_auc(report.scores, self.planted)
            out.append((model, report, auc))
        return out

    def prepare(self) -> None:
        """The job's own models are checked along the grid; no refits."""

    def check(self, results):
        failures = []
        aucs = []
        bad = 0
        for model, report, auc in results:
            more, own = self.model_failures(model, auc)
            more += checks.selection_checks(report, self.truth, self.spec["top_c"])
            aucs.append(own)
            failures += more
            bad += 1 if more else 0
        grid = self.grid_failures([model for model, _, _ in results], aucs)
        # the final model is the one at the last (largest) grid alpha
        return (self.ops if grid else bad), failures + grid, model, own


JOBS = {"evaluate": NestedCv, "sweep": Sweep, "mine": Mine}


def setup(data_dir: Path):
    db = data.load_database(data_dir)
    planted = synth.read_ground_truth(data_dir / "ground_truth.tsv", db.node_ids)
    return db, planted


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]
    with np.load(args.data / "truth.npz") as npz:
        truth = {key: npz[key] for key in npz.files}

    setups = Scaled("load")
    db = None
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        db = None
        gc.collect()
        db, planted = setups.call(setup, args.data)
    if planted != set(truth["planted"].tolist()):
        print("error: planted node list read back wrong", file=sys.stderr)
        return 1

    job = JOBS[spec["job"]](spec, db, planted, truth)
    job.prepare()
    attempted = failed = 0
    messages: list[str] = []
    jobs = Scaled("compute")
    rank_auc = model = None

    def scaled_job():
        """Run one job; return its outputs, or None if it raised."""
        nonlocal attempted, failed
        gc.collect()
        attempted += job.ops
        try:
            return jobs.call(job.run)
        except Exception as exc:  # a raising job fails all its operations
            failed += job.ops
            print(f"job raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def check(out) -> None:
        nonlocal failed, rank_auc, model
        bad, failures, model, rank_auc = job.check(out)
        failed += bad
        messages.extend(failures)

    began = time.perf_counter()
    while not jobs.walls or time.perf_counter() - began < args.seconds:
        out = scaled_job()
        if out is None:
            break
        check(out)
    if not jobs.walls:
        report(messages)
        return 1
    for name, timing in (("setup", setups), ("jobs", jobs)):
        print(
            f"{args.workload} {name}: wall {rounded(timing.walls)} s, "
            f"kernel {rounded(timing.kernels)} s, scaled {timing.seconds():.3f} s",
            file=sys.stderr,
        )
    job_s = jobs.seconds()

    if not args.trace:
        metrics = {
            "setup_s": (setups.seconds(), "s"),
            "job_s": (job_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "rank_auc": (rank_auc, "ratio"),
        }
    else:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            out = scaled_job()
        finally:
            tracer.restore()
        if out is None:
            report(messages)
            return 1
        check(out)
        metrics = layer_metrics(tracer, db, model)
        metrics["trace.overhead_s"] = (jobs.seconds(jobs.walls[-1]) - job_s, "s")
        if args.trace_out is not None:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            args.trace_out.write_text(json.dumps(tracer.dump()) + "\n", encoding="utf-8")
        for name in tracer.absent:
            print(f"trace: {name} is absent", file=sys.stderr)

    report(messages)
    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def rounded(times: list[float]) -> list[float]:
    return [round(t, 3) for t in times]


def report(messages: list[str]) -> None:
    for line in dict.fromkeys(messages):
        print(f"check failed: {line}", file=sys.stderr)


def layer_metrics(tracer, db, model) -> dict:
    svd_calls = tracer.calls("solver.svd")
    return {
        "data.edge_rows": (sum(len(edges) for edges in db.instance_edges), "count"),
        "data.generalized_s": (tracer.span_time("data.generalized"), "s"),
        "data.generalized_calls": (tracer.calls("data.generalized"), "count"),
        "metagraph.knn_s": (
            tracer.span_time("metagraph.cosine") + tracer.span_time("metagraph.knn"),
            "s",
        ),
        "metagraph.knn_calls": (tracer.calls("metagraph.knn"), "count"),
        "metagraph.laplacian_s": (tracer.span_time("metagraph.laplacian"), "s"),
        "metagraph.constraint_s": (tracer.span_time("metagraph.constraint"), "s"),
        "metagraph.constraint_calls": (tracer.calls("metagraph.constraint"), "count"),
        "metagraph.constraint_edges": (tracer.constraint_edges, "count"),
        "solver.fit_s": (tracer.span_time("solver.fit"), "s"),
        "solver.fit_calls": (tracer.calls("solver.fit"), "count"),
        "solver.svd_s": (tracer.span_time("solver.svd"), "s"),
        "solver.svd_calls": (svd_calls, "count"),
        "solver.svd_distinct": (len(tracer.svd_keys), "count"),
        "solver.svd_useful_ratio": (len(tracer.svd_keys) / max(svd_calls, 1), "ratio"),
        "solver.eig_s": (tracer.span_time("solver.eig"), "s"),
        "solver.rank_r": (model.basis.r, "count"),
        "evaluation.classifier_s": (tracer.span_time("evaluation.classifier"), "s"),
        "evaluation.classifier_calls": (tracer.calls("evaluation.classifier"), "count"),
        "evaluation.fold_network_s": (tracer.span_time("evaluation.fold_network"), "s"),
        "evaluation.context_s": (tracer.span_time("evaluation.context"), "s"),
        "evaluation.context_calls": (tracer.calls("evaluation.context"), "count"),
        "evaluation.self_s": (tracer.self_time("evaluation"), "s"),
        "selection.report_s": (tracer.span_time("selection.report"), "s"),
        "selection.report_calls": (tracer.calls("selection.report"), "count"),
    }


if __name__ == "__main__":
    sys.exit(main())
