"""Command-line entry points, output files and exit codes."""

from __future__ import annotations

import filecmp
import json

import numpy as np
import pytest

from subnetmine import cli
from subnetmine.data import load_database
from subnetmine.solver import load_model, model_meta_path

DATASET_FILES = [
    "nodes.tsv", "instances.tsv", "values.tsv", "edges.tsv",
    "ground_truth.tsv", "backbone.tsv",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """One medium synthetic dataset shared by the pipeline commands."""
    root = tmp_path_factory.mktemp("cli")
    path = root / "ds"
    rc = cli.main([
        "generate", "--nodes", "60", "--instances", "40", "--gt", "8",
        "--seed", "3", "--out", str(path),
    ])
    assert rc == 0
    return path


def test_generate_writes_dataset_and_summary(tmp_path, capsys):
    rc = cli.main([
        "generate", "--nodes", "30", "--instances", "20", "--gt", "5",
        "--edges-per-node", "4", "--seed", "1", "--out", str(tmp_path / "a"),
    ])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("nodes=30 instances=20 gt=5 backbone_edges=")
    for name in DATASET_FILES:
        assert (tmp_path / "a" / name).is_file()

    rc = cli.main([
        "generate", "--nodes", "30", "--instances", "20", "--gt", "5",
        "--edges-per-node", "4", "--seed", "1", "--out", str(tmp_path / "b"),
    ])
    assert rc == 0
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "b", DATASET_FILES, shallow=False
    )
    assert mismatch == [] and errors == []


def test_generate_invalid_config_is_usage_error(tmp_path, capsys):
    rc = cli.main([
        "generate", "--nodes", "10", "--instances", "20", "--gt", "15",
        "--edges-per-node", "4", "--out", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_fit_writes_model(dataset, tmp_path, capsys):
    out = tmp_path / "model.tsv"
    rc = cli.main(["fit", str(dataset), "--alpha", "1.0", "--out", str(out)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("model: d=2 r=")
    assert line.endswith("alpha=1.0")
    node_ids, u_matrix = load_model(out)
    assert len(node_ids) == 60
    assert u_matrix.shape == (60, 2)
    meta = json.loads(model_meta_path(out).read_text())
    assert meta["alpha"] == 1.0 and meta["d"] == 2


def test_transform_writes_embedding(dataset, tmp_path, capsys):
    model = tmp_path / "model.tsv"
    assert cli.main(["fit", str(dataset), "--out", str(model)]) == 0
    out = tmp_path / "embedded.tsv"
    rc = cli.main(["transform", str(dataset), "--model", str(model), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "instance_id\tx_1\tx_2"
    assert len(lines) == 1 + 40
    rows = [ln.split("\t") for ln in lines[1:]]
    assert all(len(cells) == 3 for cells in rows)
    # row i holds instance i's coordinates in U'V, written to round-trip exactly
    db = load_database(dataset)
    _, u_matrix = load_model(model)
    assert tuple(cells[0] for cells in rows) == db.instance_ids
    written = np.array([[float(x) for x in cells[1:]] for cells in rows])
    assert np.isfinite(written).all()
    assert np.array_equal(written.T, u_matrix.T @ db.values)


def test_transform_rejects_mismatched_dataset(dataset, tmp_path, capsys):
    other = tmp_path / "other"
    assert cli.main([
        "generate", "--nodes", "30", "--instances", "20", "--gt", "5",
        "--edges-per-node", "4", "--out", str(other),
    ]) == 0
    model = tmp_path / "model.tsv"
    assert cli.main(["fit", str(dataset), "--out", str(model)]) == 0
    capsys.readouterr()
    rc = cli.main([
        "transform", str(other), "--model", str(model), "--out", str(tmp_path / "e.tsv")
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_select_writes_ranking(dataset, tmp_path, capsys):
    model = tmp_path / "model.tsv"
    assert cli.main(["fit", str(dataset), "--out", str(model)]) == 0
    out = tmp_path / "sel"
    rc = cli.main([
        "select", str(dataset), "--model", str(model), "--top-c", "10",
        "--out", str(out),
    ])
    assert rc == 0
    assert "selected=10 components=" in capsys.readouterr().out
    report_lines = (out / "report.tsv").read_text().splitlines()
    assert report_lines[0] == "rank\tnode_id\tscore\tcomponent_id"
    assert len(report_lines) == 11
    assert (out / "components.tsv").is_file()


def test_evaluate_fixed_alpha_with_auto_ground_truth(dataset, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = cli.main([
        "evaluate", str(dataset), "--alpha-grid", "1.0", "--folds", "4",
        "--out", str(out),
    ])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("accuracy mean=")
    assert "best_alpha=1.0" in line
    assert "auc=" in line  # ground_truth.tsv was picked up automatically
    payload = json.loads((out / "report.json").read_text())
    assert payload["best_alpha"] == 1.0
    assert payload["fold_alphas"] == [1.0] * 4
    assert len(payload["fold_accuracies"]) == 4
    assert payload["auc"] is not None
    assert (out / "fold_accuracies.tsv").is_file()
    assert (out / "roc.tsv").is_file()


def test_evaluate_without_ground_truth_file(dataset, tmp_path, capsys):
    bare = tmp_path / "bare"
    bare.mkdir()
    for name in ("nodes.tsv", "instances.tsv", "values.tsv", "edges.tsv"):
        (bare / name).write_bytes((dataset / name).read_bytes())
    out = tmp_path / "eval"
    rc = cli.main([
        "evaluate", str(bare), "--alpha-grid", "1.0", "--folds", "4", "--out", str(out)
    ])
    assert rc == 0
    assert "auc=" not in capsys.readouterr().out
    payload = json.loads((out / "report.json").read_text())
    assert payload["auc"] is None
    assert not (out / "roc.tsv").exists()


def test_evaluate_missing_dataset(tmp_path, capsys):
    rc = cli.main([
        "evaluate", str(tmp_path / "nope"), "--alpha-grid", "1.0",
        "--out", str(tmp_path / "e"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_sweep_alpha_writes_table(dataset, tmp_path, capsys):
    out = tmp_path / "sweep.tsv"
    rc = cli.main([
        "sweep-alpha", str(dataset), "--alpha-grid", "0.5,2", "--folds", "4",
        "--out", str(out),
    ])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith(f"wrote {out}; best alpha=")
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha\tmean_accuracy\tsd_accuracy\tauc"
    assert len(lines) == 3
    assert lines[1].split("\t")[0] == "0.5"
    assert lines[2].split("\t")[0] == "2.0"
    # ground truth auto-detected, so the auc column is filled
    assert all(ln.split("\t")[3] != "" for ln in lines[1:])


def test_sweep_alpha_grid_rows_are_sorted_without_repeats(dataset, tmp_path):
    out = tmp_path / "sweep.tsv"
    rc = cli.main([
        "sweep-alpha", str(dataset), "--alpha-grid", "2,1,2", "--folds", "4",
        "--out", str(out),
    ])
    assert rc == 0
    assert [ln.split("\t")[0] for ln in out.read_text().splitlines()[1:]] == ["1.0", "2.0"]


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", str(tmp_path)])  # missing --out
    assert exc.value.code == 2
    for grid, message in (("abc", "bad alpha list: 'abc'"), (",", "alpha list is empty")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", str(tmp_path), "--alpha-grid", grid, "--out", "x"])
        assert exc.value.code == 2 and message in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # the energy rule is not a flag
        cli.main(["evaluate", str(tmp_path), "--energy", "0.5", "--out", "x"])
    assert exc.value.code == 2
    for argv in (  # flags must be spelled in full, not as a unique prefix
        ["fit", str(tmp_path), "--al", "2", "--out", "x"],
        ["sweep-alpha", str(tmp_path), "--fold", "3", "--out", "x"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "ds", "--al", "2", "--out", "x"],
        ["fit", "ds", "--out", "x", "extra"],
        ["evaluate", "ds", "--bogus", "1", "--out", "x"],
        ["sweep-alpha", "ds", "--fold", "3", "--out", "x"],
        ["select", "ds", "--model", "m", "--top", "5", "--out", "x"],
    ],
)
def test_unknown_flag_prints_the_subcommand_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: subnetmine {argv[0]} ")
    assert f"subnetmine {argv[0]}: error: unrecognized arguments: " in err


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """12 instances: the default k of 10 drives some same-state row sums of
    the affinity below zero."""
    path = tmp_path_factory.mktemp("small") / "ds"
    assert cli.main([
        "generate", "--nodes", "30", "--instances", "12", "--gt", "5",
        "--edges-per-node", "4", "--seed", "0", "--out", str(path),
    ]) == 0
    return path


@pytest.fixture(scope="module")
def model_file(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.tsv"
    assert cli.main(["fit", str(dataset), "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def bad_utf8_dataset(dataset, tmp_path_factory):
    """The shared dataset with an edge row that is not valid UTF-8."""
    path = tmp_path_factory.mktemp("utf8") / "ds"
    path.mkdir()
    for name in DATASET_FILES:
        (path / name).write_bytes((dataset / name).read_bytes())
    with open(path / "edges.tsv", "ab") as fh:
        fh.write(b"inst0001\tn\xff0001\tn0002\n")
    return path


@pytest.fixture(scope="module")
def big_state_dataset(dataset, tmp_path_factory):
    """The shared dataset with a global state that does not fit in 64 bits."""
    path = tmp_path_factory.mktemp("big_state") / "ds"
    path.mkdir()
    for name in DATASET_FILES:
        (path / name).write_bytes((dataset / name).read_bytes())
    lines = (path / "instances.tsv").read_text().splitlines()
    lines[1] = lines[1].split("\t")[0] + "\t" + str(2**64)
    (path / "instances.tsv").write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def bad_model(model_file, tmp_path_factory):
    """The fitted model with one cell that is not a number."""
    path = tmp_path_factory.mktemp("bad_model") / "model.tsv"
    lines = model_file.read_text().splitlines()
    lines[2] = "\t".join(lines[2].split("\t")[:-1] + ["bogus"])
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def bad_utf8_model(model_file, tmp_path_factory):
    """The fitted model with a node id holding a byte that is not UTF-8."""
    path = tmp_path_factory.mktemp("utf8_model") / "model.tsv"
    lines = model_file.read_bytes().split(b"\n")
    lines[2] = b"n\xff" + lines[2]
    path.write_bytes(b"\n".join(lines))
    return path


@pytest.fixture(scope="module")
def header_only_model(model_file, tmp_path_factory):
    """The fitted model cut down to its node_id column: a header of d = 0."""
    path = tmp_path_factory.mktemp("header_only_model") / "model.tsv"
    lines = model_file.read_text().splitlines()
    path.write_text("".join(line.split("\t")[0] + "\n" for line in lines))
    return path


@pytest.fixture(scope="module")
def nan_model(model_file, tmp_path_factory):
    """The fitted model with one cell that is nan."""
    path = tmp_path_factory.mktemp("nan_model") / "model.tsv"
    lines = model_file.read_text().splitlines()
    lines[2] = "\t".join(lines[2].split("\t")[:-1] + ["nan"])
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def renamed_model(model_file, tmp_path_factory):
    """The fitted model with one node id that the dataset does not have."""
    path = tmp_path_factory.mktemp("renamed_model") / "model.tsv"
    lines = model_file.read_text().splitlines()
    lines[2] = "renamed\t" + lines[2].split("\t", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def truncated_meta_model(model_file, tmp_path_factory):
    """The fitted model with its .meta.json sidecar cut in half."""
    path = tmp_path_factory.mktemp("truncated_meta_model") / "model.tsv"
    path.write_bytes(model_file.read_bytes())
    meta = model_meta_path(model_file).read_bytes()
    model_meta_path(path).write_bytes(meta[: len(meta) // 2])
    return path


# the message of the cases below whose whole error line is pinned
PINNED_ERRORS = {
    "select {dataset} --model {renamed_model}": "model nodes do not match the dataset",
    "transform {dataset} --model {renamed_model}": "model nodes do not match the dataset",
    "generate --nodes 10 --instances 2 --gt 2 --edges-per-node 2 --global-noise 0.5":
        "database must contain at least two distinct global states",
    "select {dataset} --model {model} --top-c 61 --min-edge-weight nan":
        "min edge weight must be finite, got nan",
}


@pytest.mark.parametrize("argv, code", [
    (["fit", "{small}"], 1),
    (["fit", "{dataset}", "--alpha", "-1"], 2),
    (["fit", "{dataset}", "--dim", "0"], 2),
    (["select", "{dataset}", "--model", "{model}", "--top-c", "0"], 2),
    (["generate", "--nodes", "30", "--instances", "12", "--gt", "5", "--local-noise", "nan"], 2),
    (["evaluate", "{dataset}", "--folds", "1"], 2),
    (["evaluate", "{dataset}", "--alpha-grid", "2,-1"], 2),
    (["evaluate", "{dataset}", "--alpha-grid", "2,nan"], 2),
    (["sweep-alpha", "{dataset}", "--alpha-grid", "2,-1"], 2),
    (["generate", "--nodes", "30", "--instances", "12", "--gt", "5", "--seed", "-1"], 2),
    (["evaluate", "{dataset}", "--seed", "-1"], 2),
    (["sweep-alpha", "{dataset}", "--seed", "-2"], 2),
    (["fit", "{dataset}", "--alpha", "inf"], 2),
    (["evaluate", "{dataset}", "--alpha-grid", "1,inf"], 2),
    (["fit", "{bad_utf8}"], 1),
    (["transform", "{dataset}", "--model", "{bad_model}"], 1),
    (["transform", "{dataset}", "--model", "{bad_utf8_model}"], 1),
    (["select", "{dataset}", "--model", "{bad_utf8_model}"], 1),
    (["transform", "{big_state}", "--model", "{model}"], 1),
    (["select", "{dataset}", "--model", "{header_only_model}"], 1),
    (["transform", "{dataset}", "--model", "{header_only_model}"], 1),
    (["select", "{dataset}", "--model", "{nan_model}"], 1),
    (["transform", "{dataset}", "--model", "{nan_model}"], 1),
    # the sidecar is provenance only: a broken one stops neither command
    (["transform", "{dataset}", "--model", "{truncated_meta_model}"], 0),
    (["select", "{dataset}", "--model", "{truncated_meta_model}"], 0),
    # an inner pair of 2 folds leaves no training instance
    (["evaluate", "{dataset}", "--folds", "2"], 2),
    (["evaluate", "{dataset}", "--folds", "2", "--alpha-grid", "1,2"], 2),
    (["evaluate", "{dataset}", "--folds", "2", "--alpha-grid", "1"], 0),
    (["sweep-alpha", "{dataset}", "--folds", "2", "--alpha-grid", "1,2"], 0),
    (["select", "{dataset}", "--model", "{model}", "--min-edge-weight", "nan"], 2),
    (["select", "{dataset}", "--model", "{model}", "--min-edge-weight", "inf"], 2),
    (["fit", "{dataset}", "--k", "0"], 2),
    (["evaluate", "{dataset}", "--k", "-3"], 2),
    (["generate", "--nodes", "30", "--instances", "12", "--gt", "5", "--effect-size", "nan"], 2),
    (["generate", "--nodes", "30", "--instances", "12", "--gt", "5", "--effect-size", "inf"], 2),
    (["select", "{dataset}", "--model", "{renamed_model}"], 1),
    (["transform", "{dataset}", "--model", "{renamed_model}"], 1),
    # label noise leaves both instances in one global state
    (["generate", "--nodes", "10", "--instances", "2", "--gt", "2", "--edges-per-node", "2",
      "--global-noise", "0.5"], 1),
    # alpha * rho0 / rho1 overflows to inf
    (["fit", "{dataset}", "--alpha", "1e308"], 2),
    # a bad flag is a usage error even where c exceeds the 60 nodes
    (["select", "{dataset}", "--model", "{model}", "--top-c", "61", "--min-edge-weight", "nan"], 2),
])
def test_contract_errors_exit_with_one_line(
    argv,
    code,
    dataset,
    small_dataset,
    model_file,
    bad_utf8_dataset,
    big_state_dataset,
    bad_model,
    bad_utf8_model,
    header_only_model,
    nan_model,
    truncated_meta_model,
    renamed_model,
    tmp_path,
    capsys,
):
    paths = {
        "dataset": dataset,
        "small": small_dataset,
        "model": model_file,
        "bad_utf8": bad_utf8_dataset,
        "big_state": big_state_dataset,
        "bad_model": bad_model,
        "bad_utf8_model": bad_utf8_model,
        "header_only_model": header_only_model,
        "nan_model": nan_model,
        "truncated_meta_model": truncated_meta_model,
        "renamed_model": renamed_model,
    }
    message = PINNED_ERRORS.get(" ".join(argv))
    out = tmp_path / "out"
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(out)]
    capsys.readouterr()
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()
    if message is not None:
        assert err == f"error: {message}\n"
    assert "Traceback" not in err
