"""Command-line front end for batch use.

Subcommands: generate, fit, transform, select, evaluate, sweep-alpha.
Flags that several subcommands share are declared once, as argparse
parent parsers, and each subcommand names its handler with set_defaults.
Exit codes: 0 success, 2 usage error (bad flags or invalid configuration),
1 runtime error (bad files, degenerate inputs).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import evaluation, selection, solver, synth
from .data import load_database, write_tsv
from .errors import ConfigInvalid, SubnetmineError


def _alpha_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("alpha list is empty")
    return values


class _Parser(argparse.ArgumentParser):
    """Flags must be spelled in full, and a subcommand reports a flag it
    does not know with its own usage, not the root parser's."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="subnetmine",
        description="Mine discriminative subnetworks from global-state network databases.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # flag blocks that several subcommands share, each declared once
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("dataset", help="dataset directory")
    model = argparse.ArgumentParser(add_help=False, parents=[dataset])
    model.add_argument("--model", required=True, help="model TSV path")
    solve = p = argparse.ArgumentParser(add_help=False, parents=[dataset])
    p.add_argument("--k", type=int, default=10,
                   help="neighbors per instance (default: %(default)s)")
    p.add_argument("--dim", type=int, default=None,
                   help="subspace dimension (default: number of distinct global states)")
    cv = p = argparse.ArgumentParser(add_help=False, parents=[solve])
    grid = ",".join(f"{alpha:g}" for alpha in evaluation.DEFAULT_ALPHA_GRID)
    p.add_argument("--alpha-grid", type=_alpha_list, default=evaluation.DEFAULT_ALPHA_GRID,
                   help="comma-separated relative alpha grid; one point fixes alpha "
                        f"(default: {grid})")
    p.add_argument("--folds", type=int, default=10,
                   help="cross-validation folds (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="fold-shuffle seed (default: %(default)s)")
    p.add_argument("--ground-truth", default=None,
                   help="ground-truth node TSV (default: dataset's ground_truth.tsv if present)")

    p = sub.add_parser("generate", help="write a synthetic dataset directory")
    p.add_argument("--nodes", type=int, required=True, help="shared node count")
    p.add_argument("--instances", type=int, required=True, help="instance count")
    p.add_argument("--gt", type=int, required=True, help="ground-truth node count")
    p.add_argument("--edges-per-node", type=int, default=20,
                   help="attachment edges per new backbone node (default: %(default)s)")
    p.add_argument("--global-noise", type=float, default=0.10,
                   help="label flip probability (default: %(default)s)")
    p.add_argument("--local-noise", type=float, default=0.30,
                   help="ground-truth value replacement probability (default: %(default)s)")
    p.add_argument("--effect-size", type=float, default=1.5,
                   help="class mean shift on ground-truth nodes (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="seed (default: %(default)s)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(run=_cmd_generate)

    p = sub.add_parser("fit", parents=[solve], help="fit a spectral model on a dataset")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="topology constraint weight relative to the data term; 1 gives "
                        "both terms equal spectral radius (default: %(default)s)")
    p.add_argument("--out", required=True, help="model TSV path")
    p.set_defaults(run=_cmd_fit)

    p = sub.add_parser("transform", parents=[model],
                       help="project instances into model coordinates")
    p.add_argument("--out", required=True, help="embedded coordinates TSV path")
    p.set_defaults(run=_cmd_transform)

    p = sub.add_parser("select", parents=[model],
                       help="rank nodes and extract connected subnetworks")
    p.add_argument("--top-c", type=int, default=50,
                   help="nodes to keep (default: %(default)s)")
    p.add_argument("--min-edge-weight", type=float, default=0.0,
                   help="keep induced edges with weight >= this (default: %(default)s)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(run=_cmd_select)

    p = sub.add_parser("evaluate", parents=[cv],
                       help="cross-validated accuracy and node-ranking AUC")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(run=_cmd_evaluate)

    p = sub.add_parser("sweep-alpha", parents=[cv],
                       help="fixed-alpha cross validation over a grid")
    p.add_argument("--out", required=True, help="output TSV path")
    p.set_defaults(run=_cmd_sweep_alpha)

    return parser


def _gt_ordinals(args, db):
    path = args.ground_truth
    if path is None:
        candidate = Path(args.dataset) / "ground_truth.tsv"
        if not candidate.is_file():
            return None
        path = candidate
    return synth.read_ground_truth(path, db.node_ids)


def _model_u(path, db):
    """U of the saved model, which must list the dataset's nodes in order."""
    node_ids, u_matrix = solver.load_model(path)
    if tuple(node_ids) != db.node_ids:
        raise SubnetmineError("model nodes do not match the dataset")
    return u_matrix


def _cmd_generate(args) -> int:
    cfg = synth.SynthConfig(
        n=args.nodes,
        m=args.instances,
        n_gt=args.gt,
        edges_per_node=args.edges_per_node,
        global_noise=args.global_noise,
        local_noise=args.local_noise,
        class_mean_shift=args.effect_size,
        seed=args.seed,
    )
    db, gt = synth.generate_dataset(cfg, args.out)
    print(
        f"nodes={db.n} instances={db.m} gt={len(gt.gt_nodes)} "
        f"backbone_edges={len(gt.backbone)}"
    )
    return 0


def _cmd_fit(args) -> int:
    db = load_database(args.dataset)
    # a bad flag is a usage error even where the data would fail the fit first
    cfg = solver.SolverConfig(alpha=args.alpha, d=args.dim)
    model = evaluation.fit_model(db, args.k, cfg.alpha, d=cfg.d)
    solver.save_model(model, db.node_ids, args.out)
    print(f"model: d={model.d} r={model.basis.r} alpha={model.alpha!r}")
    return 0


def _cmd_transform(args) -> int:
    db = load_database(args.dataset)
    embedded = _model_u(args.model, db).T @ db.values  # U'V, d x m
    rows = zip(db.instance_ids, embedded.T.tolist())
    write_tsv(
        args.out,
        ["instance_id", *(f"x_{i + 1}" for i in range(embedded.shape[0]))],
        ((inst_id, *(f"{x:.17g}" for x in coords)) for inst_id, coords in rows),
    )
    print(f"wrote {Path(args.out)}")
    return 0


def _cmd_select(args) -> int:
    db = load_database(args.dataset)
    report = selection.build_report(
        _model_u(args.model, db), db.network(), args.top_c,
        min_edge_weight=args.min_edge_weight,
    )
    selection.write_report(report, db.node_ids, args.out)
    sizes = [comp.size for comp in report.components]
    print(f"selected={len(report.selected)} components={len(sizes)} sizes={sizes}")
    return 0


def _cv_inputs(args):
    """The dataset, the two configs and the ground-truth ordinals (or None)
    of an evaluate or sweep-alpha run."""
    db = load_database(args.dataset)
    eval_cfg = evaluation.EvalConfig(
        folds=args.folds, alpha_grid=args.alpha_grid, k=args.k, seed=args.seed
    )
    solver_cfg = solver.SolverConfig(alpha=eval_cfg.alpha_grid[0], d=args.dim)
    return db, eval_cfg, solver_cfg, _gt_ordinals(args, db)


def _cmd_evaluate(args) -> int:
    db, eval_cfg, solver_cfg, gt = _cv_inputs(args)
    report = evaluation.evaluate_dataset(db, eval_cfg, solver_cfg, gt_nodes=gt)
    evaluation.write_eval_report(report, args.out)
    line = (
        f"accuracy mean={report.mean_accuracy:.4f} sd={report.sd_accuracy:.4f} "
        f"best_alpha={report.best_alpha!r}"
    )
    if report.auc is not None:
        line += f" auc={report.auc:.4f}"
    print(line)
    return 0


def _cmd_sweep_alpha(args) -> int:
    db, eval_cfg, solver_cfg, gt = _cv_inputs(args)
    rows = evaluation.sweep_alpha(db, eval_cfg, solver_cfg, gt_nodes=gt)
    evaluation.write_sweep(rows, args.out)
    best = max(rows, key=lambda r: r.mean_accuracy)
    print(f"wrote {args.out}; best alpha={best.alpha!r} mean={best.mean_accuracy:.4f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SubnetmineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
