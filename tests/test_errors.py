"""Every error text the library raises, pinned in one table.

The package has three exception classes, so the text is what tells two
errors apart: each row gives a call, the class it raises (a base class of
the raised one is enough) and the whole ``str`` of the error.  ``{tmp}``
in a text stands for the test's temporary directory.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from helpers import network, random_db
from subnetmine import cli
from subnetmine.data import StateMatrix, load_database
from subnetmine.errors import ConfigInvalid, ParseError, SubnetmineError
from subnetmine.evaluation import (
    EvalConfig,
    evaluate_dataset,
    ranking_auc,
    stratified_folds,
    train_linear_classifier,
)
from subnetmine.selection import build_report, select_top_nodes
from subnetmine.solver import (
    ReducedProblem,
    SolverConfig,
    TruncatedBasis,
    load_model,
    reduce_problem,
    truncated_svd_basis,
)
from subnetmine.synth import SynthConfig, generate_dataset, read_ground_truth

VALID = {
    "nodes.tsv": ["node_id", "a", "b", "c"],
    "instances.tsv": ["instance_id\tglobal_state", "i0\t0", "i1\t1"],
    "values.tsv": [
        "instance_id\tnode_id\tvalue",
        "i0\ta\t1.5",
        "i0\tb\t-0.25",
        "i1\ta\t0.125",
        "i1\tb\t2.0",
        "i1\tc\t3.0",
    ],
    "edges.tsv": ["instance_id\tnode_u\tnode_v", "i0\ta\tb", "i1\tb\tc"],
}


def load(tmp, name=None, row=None, replace=None):
    """Write the VALID dataset with ``row`` appended to file ``name`` (or
    its rows after the header replaced by ``replace``) and load it."""
    for file, lines in VALID.items():
        if file == name:
            lines = [lines[0], *replace] if replace is not None else [*lines, row]
        (tmp / file).write_text("\n".join(lines) + "\n")
    return load_database(tmp)


def write(path, text):
    path.write_text(text)
    return path


def reduced(n):
    """reduce_problem on the n x n identity state matrix, with zero
    Laplacians and a network without edges."""
    v, l_tilde = StateMatrix(np.eye(n)), sparse.csr_array((n, n))
    return reduce_problem(v, np.ones(n), l_tilde, network(n, ()), 1.0)


def leave_one_out_of_three():
    """Nested CV over 3 instances: an inner pair trains on one."""
    db = random_db(np.random.default_rng(0), n=4, m=3)
    eval_cfg = EvalConfig(folds=3, alpha_grid=(1.0, 2.0), k=1)
    return evaluate_dataset(db, eval_cfg, SolverConfig(alpha=1.0))


def overflowing(rho1):
    """``model(1e308, 1)`` of a 2 x 2 reduced problem with rho0 = 1 and
    M1 = diag(2, 1): rho1 = 0.5 makes the topology weight overflow, and
    rho1 = 1, below M1's radius, leaves it finite at 1e308 so that only the
    reduced matrix overflows."""
    basis = TruncatedBasis(p_r=np.eye(2), sigma_r=np.ones(2))
    m0, m1 = np.diag([1.0, 0.0]), np.diag([2.0, 1.0])
    problem = ReducedProblem(basis, z=np.eye(2), m0=m0, m1=m1, rho0=1.0, rho1=rho1)
    return problem.model(1e308, 1)


# name: (call on the temporary directory, class, text)
ROWS = {
    # bad lines of input files
    "missing-file": (
        lambda tmp: load_database(tmp),
        SubnetmineError,
        "required file not found: {tmp}/nodes.tsv",
    ),
    "bad-header": (
        lambda tmp: load_model(write(tmp / "model.tsv", "node\tu_1\n")),
        ParseError,
        "{tmp}/model.tsv:1: expected header ['node_id', 'u_1'], got ['node', 'u_1']",
    ),
    "wrong-field-count": (
        lambda tmp: load(tmp, "edges.tsv", "i0\ta"),
        ParseError,
        "{tmp}/edges.tsv:4: expected 3 fields, got 2",
    ),
    "no-nodes": (
        lambda tmp: load(tmp, "nodes.tsv", replace=[]),
        ParseError,
        "{tmp}/nodes.tsv:1: no nodes defined",
    ),
    "duplicate-node": (
        lambda tmp: load(tmp, "nodes.tsv", "b"),
        ParseError,
        "{tmp}/nodes.tsv:5: duplicate node id 'b'",
    ),
    "unknown-node-in-values": (
        lambda tmp: load(tmp, "values.tsv", "i0\tzz\t1.0"),
        ParseError,
        "{tmp}/values.tsv:7: unknown node id: 'zz'",
    ),
    "unknown-first-node-of-edge": (
        lambda tmp: load(tmp, "edges.tsv", "i0\tzz\ta"),
        ParseError,
        "{tmp}/edges.tsv:4: unknown node id: 'zz'",
    ),
    "unknown-second-node-of-edge": (
        lambda tmp: load(tmp, "edges.tsv", "i0\ta\tzz"),
        ParseError,
        "{tmp}/edges.tsv:4: unknown node id: 'zz'",
    ),
    "edge-on-null-node": (
        lambda tmp: load(tmp, "edges.tsv", "i0\ta\tc"),
        ParseError,
        "{tmp}/edges.tsv:4: instance 'i0': edge ('a', 'c') touches a null node",
    ),
    "duplicate-edge": (
        lambda tmp: load(tmp, "edges.tsv", "i1\tc\tb"),
        ParseError,
        "{tmp}/edges.tsv:4: instance 'i1': duplicate edge ('c', 'b')",
    ),
    "unknown-ground-truth-node": (
        lambda tmp: read_ground_truth(write(tmp / "gt.tsv", "node_id\na\nzz\n"), ("a", "b")),
        ParseError,
        "{tmp}/gt.tsv:3: unknown node id: 'zz'",
    ),
    # degenerate input
    "single-global-state": (
        lambda tmp: load(tmp, "instances.tsv", replace=["i0\t1", "i1\t1"]),
        SubnetmineError,
        "database must contain at least two distinct global states",
    ),
    "generated-single-global-state": (
        lambda tmp: generate_dataset(
            SynthConfig(n=10, m=2, n_gt=2, edges_per_node=2, global_noise=0.5), tmp / "ds"
        ),
        SubnetmineError,
        "database must contain at least two distinct global states",
    ),
    "model-nodes-differ": (
        lambda tmp: cli._model_u(
            write(tmp / "m.tsv", "node_id\tu_1\na\t1\nx\t2\nc\t3\n"), load(tmp)
        ),
        SubnetmineError,
        "model nodes do not match the dataset",
    ),
    "training-set-of-one": (
        lambda tmp: leave_one_out_of_three(),
        SubnetmineError,
        "training set has 1 instance, need 2 or more; "
        "use more instances or a one-point --alpha-grid",
    ),
    "degree-length": (
        lambda tmp: truncated_svd_basis(StateMatrix(np.eye(3)), np.ones(5), 1.0),
        SubnetmineError,
        "degree diagonal has length (5,), expected (3,)",
    ),
    "negative-degree": (
        lambda tmp: truncated_svd_basis(StateMatrix(np.eye(3)), np.array([1.0, -0.5, 1.0]), 1.0),
        SubnetmineError,
        "D+ has negative diagonal entries; same-state affinity row sums must be >= 0 "
        "(reduce k or use more training instances)",
    ),
    "zero-matrix": (
        lambda tmp: truncated_svd_basis(StateMatrix(np.zeros((3, 4))), np.ones(4), 1.0),
        SubnetmineError,
        "all singular values vanish; affinity graph is degenerate",
    ),
    "d-above-rank": (
        lambda tmp: reduced(3).model(1.0, 4),
        SubnetmineError,
        "requested d=4 exceeds retained rank r=3",
    ),
    "c-above-node-count": (
        lambda tmp: select_top_nodes(np.ones(3), 4),
        SubnetmineError,
        "c=4 exceeds node count 3",
    ),
    "class-smaller-than-folds": (
        lambda tmp: stratified_folds([0, 0, 0, 1, 1, 1, 1, 1], 4, seed=0),
        SubnetmineError,
        "class 0 has 3 members, need >= 4",
    ),
    "single-class-fold": (
        lambda tmp: train_linear_classifier(np.ones((1, 1, 4)), np.zeros(4, dtype=int)),
        SubnetmineError,
        "single class [0] in training labels",
    ),
    "empty-ground-truth": (
        lambda tmp: ranking_auc(np.arange(4.0), []),
        SubnetmineError,
        "need 0 < |ground truth| < n, got 0 of 4",
    ),
    "ground-truth-out-of-range": (
        lambda tmp: ranking_auc(np.arange(4.0), [4]),
        SubnetmineError,
        "ground-truth ordinal 4 out of range",
    ),
    "non-finite-node-score": (
        lambda tmp: ranking_auc(np.array([1.0, np.nan, 0.0]), [0]),
        SubnetmineError,
        "scores must be finite, got nan at node 1",
    ),
    # bad settings
    "non-finite-min-edge-weight": (  # checked before c, which exceeds n here
        lambda tmp: build_report(np.ones((3, 1)), network(3, []), 4, min_edge_weight=np.nan),
        ConfigInvalid,
        "min edge weight must be finite, got nan",
    ),
    "edges-per-node-not-below-n": (
        lambda tmp: SynthConfig(n=4, m=2, n_gt=2, edges_per_node=4),
        ConfigInvalid,
        "need n > edges_per_node, got n=4, edges_per_node=4",
    ),
    "negative-alpha": (
        lambda tmp: SolverConfig(alpha=-1.0),
        ConfigInvalid,
        "alpha must be finite and nonnegative, got -1.0",
    ),
    "alpha-overflows-weight": (
        lambda tmp: overflowing(0.5),
        ConfigInvalid,
        "alpha=1e+308 overflows the reduced problem (topology weight inf); use a smaller alpha",
    ),
    "alpha-overflows-reduced-matrix": (
        lambda tmp: overflowing(1.0),
        ConfigInvalid,
        "alpha=1e+308 overflows the reduced problem (topology weight 1e+308); "
        "use a smaller alpha",
    ),
    "one-fold": (
        lambda tmp: stratified_folds([0, 1], 1, seed=0),
        ConfigInvalid,
        "folds must be >= 2, got 1",
    ),
    "empty-alpha-grid": (
        lambda tmp: EvalConfig(alpha_grid=()),
        ConfigInvalid,
        "alpha grid is empty",
    ),
    "nested-selection-with-two-folds": (
        lambda tmp: evaluate_dataset(
            random_db(np.random.default_rng(0), n=4, m=6),
            EvalConfig(folds=2, alpha_grid=(1.0, 2.0), k=1),
            SolverConfig(alpha=1.0),
        ),
        ConfigInvalid,
        "nested alpha selection needs 3 or more folds, got 2; "
        "use more folds or a one-point --alpha-grid",
    ),
}


@pytest.mark.parametrize("name", list(ROWS))
def test_error_text(name, tmp_path):
    call, error, text = ROWS[name]
    with pytest.raises(error) as exc:
        call(tmp_path)
    assert str(exc.value) == text.format(tmp=tmp_path)
