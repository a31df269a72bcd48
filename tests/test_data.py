"""Database model, dataset directory I/O and derived structures."""

from __future__ import annotations

import gc
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import build_db, edge_tuples, random_db, restrict_instances, with_edges
from subnetmine.data import build_generalized_network, load_database, write_database
from subnetmine.errors import ParseError, SubnetmineError
from subnetmine.synth import SynthConfig, generate_backbone, sample_database


FILES = ("nodes.tsv", "instances.tsv", "values.tsv", "edges.tsv")


def write_dataset_files(root, nodes, instances, values, edges):
    """Write the four dataset files from raw row lists (header included)."""
    (root / "nodes.tsv").write_text("\n".join(["node_id"] + nodes) + "\n")
    (root / "instances.tsv").write_text(
        "\n".join(["instance_id\tglobal_state"] + instances) + "\n"
    )
    (root / "values.tsv").write_text(
        "\n".join(["instance_id\tnode_id\tvalue"] + values) + "\n"
    )
    (root / "edges.tsv").write_text(
        "\n".join(["instance_id\tnode_u\tnode_v"] + edges) + "\n"
    )


def valid_rows():
    nodes = ["a", "b", "c"]
    instances = ["i0\t0", "i1\t1"]
    values = [
        "i0\ta\t1.5",
        "i0\tb\t-0.25",
        "i1\ta\t0.125",
        "i1\tb\t2.0",
        "i1\tc\t3.0",
    ]
    edges = ["i0\ta\tb", "i1\tb\tc"]
    return nodes, instances, values, edges


def test_round_trip_preserves_everything(tmp_path):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        db = random_db(rng, n=7, m=9)
        values = db.values.copy()
        values[tuple(np.argwhere(db.valid)[seed])] = -0.0
        db = replace(db, values=values)
        root = tmp_path / f"ds{seed}"
        write_database(db, root)
        loaded = load_database(root)
        assert loaded.node_ids == db.node_ids
        assert loaded.instance_ids == db.instance_ids
        for name in ("labels", "valid", "values", "edges", "offsets"):
            got, want = getattr(loaded, name), getattr(db, name)
            # bitwise, so a -0.0 must come back as -0.0
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert got.shape == want.shape
            assert not got.flags.writeable and not want.flags.writeable
        assert ((loaded.values == 0.0) & np.signbit(loaded.values)).any()  # the -0.0


def test_awkward_floats_round_trip(tmp_path):
    vals = np.array([[0.1, 1e-17], [-2.5e300, 3.333333333333333], [7e-300, -0.0]])
    db = build_db(vals, [0, 1], [(), ()])
    write_database(db, tmp_path / "ds")
    loaded = load_database(tmp_path / "ds")
    assert loaded.values.tobytes() == vals.tobytes()


def test_write_is_byte_deterministic(tmp_path):
    db = random_db(np.random.default_rng(11))
    write_database(db, tmp_path / "one")
    write_database(db, tmp_path / "two")
    for name in ("nodes.tsv", "instances.tsv", "values.tsv", "edges.tsv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_generalized_network_hand_oracle():
    db = build_db(
        np.zeros((4, 3)),
        [0, 1, 0],
        [[(0, 1), (1, 2)], [(0, 1)], [(2, 3)]],
    )
    g = build_generalized_network(db)
    assert g.n == 4
    assert edge_tuples(g) == ((0, 1, 2 / 3), (1, 2, 1 / 3), (2, 3, 1 / 3))


def test_generalized_network_random_counts():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        db = random_db(rng, n=8, m=12)
        g = build_generalized_network(db)
        expected = {}
        for edges in db.instance_edges:
            for e in map(tuple, edges.tolist()):
                expected[e] = expected.get(e, 0) + 1
        assert len(g.edges) == len(expected)
        for p, q, w in edge_tuples(g):
            assert p < q
            assert 0.0 < w <= 1.0
            assert w == expected[(p, q)] / db.m


def test_subset_network_matches_counting_loop():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        db = random_db(rng, n=8, m=12)
        subset = np.sort(rng.choice(db.m, size=7, replace=False))
        counts = {}
        for i in subset:
            for e in map(tuple, db.instance_edges[i].tolist()):
                counts[e] = counts.get(e, 0) + 1
        expected = tuple((p, q, c / subset.size) for (p, q), c in sorted(counts.items()))
        g = db.network(subset)
        assert edge_tuples(g) == expected
        assert g.edges.dtype == np.intp and g.weights.dtype == np.float64


# Bytes that tracemalloc sees retained per union edge by
# build_generalized_network, measured at 24.7 on the 2000-node database
# below (13,952 edges): the E x 2 intp pairs and the float64 weights need
# 24.  A tuple of Python (p, q, w) tuples measured 138.  The peak measured
# 120 with the presence rows summed in place, and 254 when the selected
# rows were first copied out of the presence matrix.
RETAINED_BYTES_PER_EDGE = 32
PEAK_BYTES_PER_EDGE = 160


def test_generalized_network_memory_per_edge():
    cfg = SynthConfig(n=2000, m=20, n_gt=10, edges_per_node=7, seed=0)
    db = sample_database(generate_backbone(cfg), cfg)
    db.network([0])  # the edge union is built once per database, before the measured call
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = build_generalized_network(db)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.edges) > 10_000
    assert (retained - base) / len(g.edges) <= RETAINED_BYTES_PER_EDGE
    assert (peak - base) / len(g.edges) <= PEAK_BYTES_PER_EDGE


# Bytes that tracemalloc sees per edge row while NetworkDatabase.group_counts
# builds a leave-one-out fold table, measured at 24.3 peak and 16.2 retained
# on the database below (23,954 edge rows, 20,771 distinct edges, 80
# folds): the table's int64 column indices and counts need 16.  A dense
# folds x E count array would need 555.
FOLD_TABLE_PEAK_BYTES_PER_ROW = 32
FOLD_TABLE_RETAINED_BYTES_PER_ROW = 20


def test_fold_table_memory_per_edge_row():
    rng = np.random.default_rng(0)
    n, m = 400, 80
    edge_lists = [[rng.choice(n, 2, replace=False) for _ in range(300)] for _ in range(m)]
    db = build_db(rng.normal(size=(n, m)), np.arange(m) % 2, edge_lists)
    db.network([0])  # the edge union is built once per database, before the measured call
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pairs, counts, table = db.group_counts(np.arange(m))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = len(db.edges)
    assert m * len(pairs) > 50 * rows  # F E far above R
    assert table.shape == (m, len(pairs)) and table.nnz == rows
    assert np.array_equal(np.asarray(table.sum(axis=0)).ravel(), counts)
    assert (retained - base) / rows <= FOLD_TABLE_RETAINED_BYTES_PER_ROW
    assert (peak - base) / rows <= FOLD_TABLE_PEAK_BYTES_PER_ROW


def test_state_matrix_masks_invalid_entries():
    # a nonzero value (or a -0.0) behind an invalid mask must not reach V
    values = np.array([[2.0, -0.0], [99.0, 5.0]])
    valid = np.array([[True, False], [False, True]])
    db = with_edges(["a", "b"], ["x", "y"], [0, 1], valid, values, [(), ()])
    assert db.values.tobytes() == np.array([[2.0, 0.0], [0.0, 5.0]]).tobytes()
    assert db.values.shape == (db.n, db.m) == (2, 2)
    assert values[1, 0] == 99.0  # the caller's array is not masked in place


def test_database_checks_column_shapes():
    db = build_db(np.zeros((3, 2)), [0, 1], [[(0, 1)], ()])
    bad = {
        "labels": np.zeros(3, dtype=int),
        "valid": np.ones((2, 2), dtype=bool),
        "values": np.zeros((3, 3)),
        "edges": np.zeros((1, 3), dtype=np.intp),
        "offsets": np.zeros(2, dtype=np.intp),
    }
    for name, column in bad.items():
        with pytest.raises(ValueError, match=f"^{name} has shape"):
            replace(db, **{name: column})


def test_state_matrix_matches_loop():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(6, 8))
    valid = rng.random((6, 8)) > 0.3
    db = build_db(values, np.arange(8) % 2, [()] * 8, valid=valid)
    for i in range(db.m):
        for p in range(db.n):
            expected = values[p, i] if valid[p, i] else 0.0
            assert db.values[p, i] == expected
            assert db.valid[p, i] == valid[p, i]


def test_labels_and_states():
    db = build_db(np.zeros((2, 4)), [3, 1, 3, 0], [(), (), (), ()])
    assert db.labels.dtype == int and db.labels.tolist() == [3, 1, 3, 0]
    assert not db.labels.flags.writeable
    with pytest.raises(ValueError):
        db.labels[0] = 1


def test_restrict_instances_keeps_order_and_nodes():
    rng = np.random.default_rng(9)
    db = random_db(rng, n=5, m=10)
    sub = restrict_instances(db, [7, 2, 4])
    assert sub.node_ids is db.node_ids
    assert sub.instance_ids == ("s7", "s2", "s4")
    for got, i in zip(sub.instance_edges, [7, 2, 4], strict=True):
        assert np.array_equal(got, db.instance_edges[i])
    assert np.array_equal(sub.labels, db.labels[[7, 2, 4]])
    assert sub.values.tobytes() == db.values[:, [7, 2, 4]].tobytes()
    assert sub.valid.tobytes() == db.valid[:, [7, 2, 4]].tobytes()


def test_database_compares_by_identity(tmp_path):
    """Two loads of one dataset are two databases: == is identity and hash
    works, where a field-wise == over the arrays raised ValueError."""
    write_dataset_files(tmp_path, *valid_rows())
    a, b = load_database(tmp_path), load_database(tmp_path)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_load_canonicalizes_reversed_edges(tmp_path):
    nodes, instances, values, _ = valid_rows()
    write_dataset_files(tmp_path, nodes, instances, values, ["i1\tc\tb"])
    db = load_database(tmp_path)
    assert np.array_equal(db.instance_edges[1], [[1, 2]])


def test_load_missing_file(tmp_path):
    with pytest.raises(
        SubnetmineError, match=re.escape(f"required file not found: {tmp_path / 'nodes.tsv'}")
    ):
        load_database(tmp_path)


def append(rows, k, row, message):
    """Append ``row`` to file k of ``valid_rows``; return the file name,
    the line (the header is line 1) and the message of its error."""
    rows[k].append(row)
    return FILES[k], len(rows[k]) + 1, message


@pytest.mark.parametrize(
    "mutate,error",
    [
        (lambda r: append(r, 0, "a", "duplicate node id 'a'"), ParseError),
        (lambda r: append(r, 1, "i0\t1", "duplicate instance id 'i0'"), ParseError),
        (lambda r: append(r, 1, "i9\tx", "global_state not a 64-bit integer: 'x'"), ParseError),
        (lambda r: append(r, 2, "i9\ta\t1.0", "unknown instance id 'i9'"), ParseError),
        (lambda r: append(r, 2, "i0\tc\tnot-a-number", "bad value: 'not-a-number'"), ParseError),
        (lambda r: append(r, 2, "i0\tc\tinf", "non-finite value: 'inf'"), ParseError),
        (lambda r: append(r, 2, "i0\ta\t9.0", "duplicate value for ('i0', 'a')"), ParseError),
        (lambda r: append(r, 3, "i9\ta\tb", "unknown instance id 'i9'"), ParseError),
        (lambda r: append(r, 3, "i0\ta\ta", "self-loop on node 'a'"), ParseError),
        (
            lambda r: append(
                r, 1, "i9\t9223372036854775808",
                "global_state not a 64-bit integer: '9223372036854775808'",
            ),
            ParseError,
        ),
        (lambda r: append(r, 2, "i0\tzz\t1.0", "unknown node id: 'zz'"), ParseError),
        (lambda r: append(r, 3, "i0\ta\tzz", "unknown node id: 'zz'"), ParseError),
        (
            lambda r: append(  # c is null in i0
                r, 3, "i0\ta\tc", "instance 'i0': edge ('a', 'c') touches a null node"
            ),
            ParseError,
        ),
        (
            lambda r: append(  # a reversed duplicate
                r, 3, "i0\tb\ta", "instance 'i0': duplicate edge ('b', 'a')"
            ),
            ParseError,
        ),
    ],
)
def test_load_contract_violations(tmp_path, mutate, error):
    rows = [list(part) for part in valid_rows()]
    name, line, message = mutate(rows)
    write_dataset_files(tmp_path, *rows)
    with pytest.raises(error, match=re.escape(f"{tmp_path / name}:{line}: {message}")) as exc:
        load_database(tmp_path)
    assert exc.value.path == tmp_path / name and exc.value.line == line


def test_load_bad_header(tmp_path):
    nodes, instances, values, edges = valid_rows()
    write_dataset_files(tmp_path, nodes, instances, values, edges)
    (tmp_path / "nodes.tsv").write_text("wrong\na\nb\nc\n")
    with pytest.raises(ParseError):
        load_database(tmp_path)


def test_load_single_class(tmp_path):
    nodes, _, values, edges = valid_rows()
    write_dataset_files(tmp_path, nodes, ["i0\t1", "i1\t1"], values, edges)
    message = "database must contain at least two distinct global states"
    with pytest.raises(SubnetmineError, match=re.escape(message)):
        load_database(tmp_path)
    # checked once every line has passed: a bad last edge line wins
    write_dataset_files(tmp_path, nodes, ["i0\t1", "i1\t1"], values, [*edges, "i0\ta\ta"])
    with pytest.raises(ParseError, match=re.escape("self-loop on node 'a'")) as exc:
        load_database(tmp_path)
    assert exc.value.path == tmp_path / "edges.tsv" and exc.value.line == 4


def test_load_skips_blank_lines(tmp_path):
    nodes, instances, values, edges = valid_rows()
    write_dataset_files(tmp_path, nodes, instances, values, edges)
    text = (tmp_path / "values.tsv").read_text()
    (tmp_path / "values.tsv").write_text(text + "\n\n")
    db = load_database(tmp_path)
    assert db.m == 2
