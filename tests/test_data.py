"""Database model, dataset directory I/O and derived structures."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from helpers import build_db, edge_tuples, random_db, restrict_instances, with_edges
from subnetmine.data import (
    NetworkInstance,
    assemble_state_matrix,
    build_generalized_network,
    load_database,
    write_database,
)
from subnetmine.errors import (
    DuplicateEdge,
    EdgeOnNullNode,
    MissingFile,
    ParseError,
    SingleClassDatabase,
    UnknownNode,
)
from subnetmine.synth import SynthConfig, generate_backbone, sample_database


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
        root = tmp_path / f"ds{seed}"
        write_database(db, root)
        loaded = load_database(root)
        assert loaded.node_ids == db.node_ids
        assert np.array_equal(loaded.labels(), db.labels())
        assert np.array_equal(loaded.edges, db.edges)
        assert np.array_equal(loaded.offsets, db.offsets)
        for a, b in zip(loaded.instances, db.instances):
            assert a.instance_id == b.instance_id
            assert np.array_equal(a.valid, b.valid)
            # repr round-trip must be bit exact
            assert np.array_equal(a.values[a.valid], b.values[b.valid])


def test_awkward_floats_round_trip(tmp_path):
    vals = np.array([[0.1, 1e-17], [-2.5e300, 3.333333333333333], [7e-300, -0.0]])
    db = build_db(vals, [0, 1], [(), ()])
    write_database(db, tmp_path / "ds")
    loaded = load_database(tmp_path / "ds")
    got = assemble_state_matrix(loaded).matrix
    assert np.array_equal(got, vals)


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
        g = db.edge_index.network(subset)
        assert edge_tuples(g) == expected
        assert g.edges.dtype == np.intp and g.weights.dtype == np.float64


# Bytes that tracemalloc sees retained per union edge by
# build_generalized_network, measured at 24.7 on the 2000-node database
# below (13,952 edges): the E x 2 intp pairs and the float64 weights need
# 24.  A tuple of Python (p, q, w) tuples measured 138.
RETAINED_BYTES_PER_EDGE = 32


def test_generalized_network_memory_per_edge():
    cfg = SynthConfig(n=2000, m=20, n_gt=10, edges_per_node=7, seed=0)
    db, _ = sample_database(generate_backbone(cfg), cfg)
    db.edge_index  # built once per database, before the measured call
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = build_generalized_network(db)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(g.edges) > 10_000
    assert (retained - base) / len(g.edges) <= RETAINED_BYTES_PER_EDGE


def test_state_matrix_masks_invalid_entries():
    # a nonzero value behind an invalid mask must not reach the matrix
    inst = NetworkInstance(
        instance_id="x",
        valid=np.array([True, False]),
        values=np.array([2.0, 99.0]),
        global_state=0,
    )
    db = with_edges(build_db(np.zeros((2, 1)), [0], [()]).nodes, [inst], [()])
    v = assemble_state_matrix(db)
    assert v.matrix[0, 0] == 2.0
    assert v.matrix[1, 0] == 0.0
    assert v.n_rows == 2 and v.m_cols == 1


def test_state_matrix_matches_loop():
    rng = np.random.default_rng(3)
    db = random_db(rng, n=6, m=8)
    v = assemble_state_matrix(db).matrix
    for i, inst in enumerate(db.instances):
        for p in range(db.n):
            expected = inst.values[p] if inst.valid[p] else 0.0
            assert v[p, i] == expected


def test_labels_and_states():
    db = build_db(np.zeros((2, 4)), [3, 1, 3, 0], [(), (), (), ()])
    assert np.array_equal(db.labels(), [3, 1, 3, 0])
    assert db.states() == [0, 1, 3]


def test_restrict_instances_keeps_order_and_nodes():
    rng = np.random.default_rng(9)
    db = random_db(rng, n=5, m=10)
    sub = restrict_instances(db, [7, 2, 4])
    assert sub.nodes is db.nodes
    assert [i.instance_id for i in sub.instances] == ["s7", "s2", "s4"]
    for got, i in zip(sub.instance_edges, [7, 2, 4], strict=True):
        assert np.array_equal(got, db.instance_edges[i])
    assert np.array_equal(sub.labels(), db.labels()[[7, 2, 4]])


def test_load_canonicalizes_reversed_edges(tmp_path):
    nodes, instances, values, _ = valid_rows()
    write_dataset_files(tmp_path, nodes, instances, values, ["i1\tc\tb"])
    db = load_database(tmp_path)
    assert np.array_equal(db.instance_edges[1], [[1, 2]])


def test_load_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        load_database(tmp_path)


@pytest.mark.parametrize(
    "mutate,error",
    [
        (lambda r: r[0].append("a"), ParseError),  # duplicate node id
        (lambda r: r[1].append("i0\t1"), ParseError),  # duplicate instance id
        (lambda r: r[1].append("i9\tx"), ParseError),  # non-integer state
        (lambda r: r[2].append("i9\ta\t1.0"), ParseError),  # unknown instance
        (lambda r: r[2].append("i0\tzz\t1.0"), UnknownNode),
        (lambda r: r[2].append("i0\tc\tnot-a-number"), ParseError),
        (lambda r: r[2].append("i0\tc\tinf"), ParseError),  # non-finite
        (lambda r: r[2].append("i0\ta\t9.0"), ParseError),  # duplicate value
        (lambda r: r[3].append("i9\ta\tb"), ParseError),  # unknown instance
        (lambda r: r[3].append("i0\ta\tzz"), UnknownNode),
        (lambda r: r[3].append("i0\ta\ta"), ParseError),  # self loop
        (lambda r: r[3].append("i0\ta\tc"), EdgeOnNullNode),  # c null in i0
        (lambda r: r[3].append("i0\tb\ta"), DuplicateEdge),  # reversed duplicate
    ],
)
def test_load_contract_violations(tmp_path, mutate, error):
    rows = [list(part) for part in valid_rows()]
    mutate(rows)
    write_dataset_files(tmp_path, *rows)
    with pytest.raises(error):
        load_database(tmp_path)


def test_load_bad_header(tmp_path):
    nodes, instances, values, edges = valid_rows()
    write_dataset_files(tmp_path, nodes, instances, values, edges)
    (tmp_path / "nodes.tsv").write_text("wrong\na\nb\nc\n")
    with pytest.raises(ParseError):
        load_database(tmp_path)


def test_load_single_class(tmp_path):
    nodes, _, values, edges = valid_rows()
    write_dataset_files(tmp_path, nodes, ["i0\t1", "i1\t1"], values, edges)
    with pytest.raises(SingleClassDatabase):
        load_database(tmp_path)


def test_load_skips_blank_lines(tmp_path):
    nodes, instances, values, edges = valid_rows()
    write_dataset_files(tmp_path, nodes, instances, values, edges)
    text = (tmp_path / "values.tsv").read_text()
    (tmp_path / "values.tsv").write_text(text + "\n\n")
    db = load_database(tmp_path)
    assert db.m == 2
