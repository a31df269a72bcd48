"""The columnar dataset loader against the row-by-row oracle in helpers.py,
explicit layouts (empty edge files, odd ids, CRLF, blank lines) and its
memory per edge row."""

from __future__ import annotations

import gc
import itertools
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import edge_tuples, load_database_rows
from subnetmine import data
from subnetmine.data import (
    TsvFile, build_generalized_network, load_database, write_database, write_tsv,
)
from subnetmine.errors import ParseError, SubnetmineError
from subnetmine.solver import load_model
from subnetmine.synth import SynthConfig, generate_dataset, read_ground_truth

SETTINGS = settings(max_examples=25, derandomize=True, deadline=None)

HEADERS = {
    "nodes.tsv": ["node_id"],
    "instances.tsv": ["instance_id", "global_state"],
    "values.tsv": ["instance_id", "node_id", "value"],
    "edges.tsv": ["instance_id", "node_u", "node_v"],
}
# ids are matched on their bytes as 8-byte words: ids of 7, 8, 9, 16 and 17
# bytes, prefixes of one another, and ids that differ by a trailing NUL
NODE_POOL = [
    "a", "a\x00", "b", "c", "n1", "n10", "abcdefg", "abcdefgh", "abcdefghi",
    "node_id_longer_8", "node_id_longer_8\x00", "node_id_longer_than_8", "ñandú", "日本語", "x y",
]
INSTANCE_POOL = [
    "i0", "i1", "i10", "i1\x00", "inst_07", "instance", "instance9", "instance_id_long",
    "instance_id_long1", "instance_id_longer_than_8", "é",
]
# texts that Python's int() and float() accept, though a numpy cast would not;
# a state must also fit in 64 bits
ZERO_STATES = ["0", "+0", " 0", "-0"]
ONE_STATES = ["1", " 1 ", "+1", "٣", "1_0", "9223372036854775807", "-9223372036854775808"]
VALUE_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from([" 1.5 ", "1_000", "-0.0", "+2e-3", "١٢", ".5", "7"]),
)


@st.composite
def datasets(draw):
    """The lines of a valid dataset directory, header first, and the ids,
    values and edges they hold.  Value and edge rows come in random order,
    edges in random orientation, or grouped by instance as write_database
    writes them, so that runs of equal ids cross the reader's blocks."""
    node_ids = draw(st.lists(st.sampled_from(NODE_POOL), min_size=1, max_size=5, unique=True))
    inst_ids = draw(
        st.lists(st.sampled_from(INSTANCE_POOL), min_size=2, max_size=4, unique=True)
    )
    grouped = draw(st.booleans())
    states = [draw(st.sampled_from(ZERO_STATES)), draw(st.sampled_from(ONE_STATES))]
    states += [draw(st.sampled_from(ZERO_STATES + ONE_STATES)) for _ in inst_ids[2:]]
    values, edges, valid = [], [], {}
    for inst in inst_ids:
        valid[inst] = [node for node in node_ids if draw(st.booleans())]
        values += [f"{inst}\t{node}\t{draw(VALUE_TEXTS)}" for node in valid[inst]]
        for a, b in itertools.combinations(valid[inst], 2):
            if draw(st.booleans()):
                edges.append((inst, *((a, b) if grouped or draw(st.booleans()) else (b, a))))
    if not grouped:
        values, edges = draw(st.permutations(values)), draw(st.permutations(edges))
    rows = {
        "nodes.tsv": list(node_ids),
        "instances.tsv": [f"{inst}\t{s}" for inst, s in zip(inst_ids, states)],
        "values.tsv": values,
        "edges.tsv": ["\t".join(e) for e in edges],
    }
    files = {name: ["\t".join(HEADERS[name]), *rows[name]] for name in HEADERS}
    return files, {"nodes": node_ids, "instances": inst_ids, "valid": valid, "edges": edges}


@st.composite
def layouts(draw):
    """How the lines become bytes: line ending, final newline, blank lines
    (before the header too), and the bytes the reader reads at a time: so
    few that lines, CRLF pairs and multi-byte characters straddle reads,
    a few lines, or the default."""
    return {
        "newline": draw(st.sampled_from(["\n", "\r\n", "\r"])),
        "final_newline": draw(st.booleans()),
        "blanks": draw(st.lists(st.integers(0, 40), max_size=3)),
        "block": draw(st.sampled_from([1, 2, 3, 7, 64, data._BLOCK_BYTES])),
    }


def write_files(root: Path, files: dict, layout: dict) -> None:
    """A lone surrogate in a line becomes a byte that is not valid UTF-8."""
    for name, lines in files.items():
        lines = list(lines)
        for at in sorted(layout["blanks"], reverse=True):
            lines.insert(min(at, len(lines)), "")
        end = layout["newline"] if layout["final_newline"] else ""
        text = layout["newline"].join(lines) + end
        (root / name).write_bytes(text.encode("utf-8", "surrogateescape"))


def insert_row(lines: list, where: int, row: str) -> int:
    """Insert a data row (after the header) at a position picked by
    ``where``; return its index."""
    at = 1 + where % len(lines)
    lines.insert(at, row)
    return at


def outcome(load, root):
    """The database a loader returns, or the class, message and line of
    what it raises."""
    try:
        return load(root)
    except SubnetmineError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def assert_same_database(got, want) -> None:
    for ids in ("node_ids", "instance_ids"):
        assert type(getattr(got, ids)) is tuple and getattr(got, ids) == getattr(want, ids)
        assert all(type(x) is str for x in getattr(got, ids))
    assert got.labels.dtype == int and got.edges.dtype == np.intp
    for name in ("labels", "valid", "values", "edges", "offsets"):
        a, b = getattr(got, name), getattr(want, name)
        # bitwise, so -0.0 and 0.0 differ
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert not a.flags.writeable and not b.flags.writeable


def same_outcome(files: dict, layout: dict):
    """Write the files, load them with both loaders, require the same
    database or the same error, and return the oracle's outcome."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        data, "_BLOCK_BYTES", layout["block"]
    ):
        root = Path(tmp)
        write_files(root, files, layout)
        want = outcome(load_database_rows, root)
        got = outcome(load_database, root)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_database(got, want)
    return want


@SETTINGS
@given(dataset=datasets(), layout=layouts())
def test_clean_datasets_load_like_the_oracle(dataset, layout):
    files, _ = dataset
    want = same_outcome(files, layout)
    assert not isinstance(want, tuple), want


def pick(draw, seq):
    return draw(st.sampled_from(list(seq)))


def null_edge(draw, ds):
    holes = [
        (inst, node) for inst in ds["instances"] for node in ds["nodes"]
        if node not in ds["valid"][inst]
    ]
    assume(holes)
    inst, node = pick(draw, holes)
    return f"{inst}\t{node}\t{pick(draw, ds['nodes'])}"


def reversed_duplicate(draw, ds):
    assume(ds["edges"])
    inst, a, b = pick(draw, ds["edges"])
    return f"{inst}\t{b}\t{a}"


def duplicate_value(draw, ds):
    pairs = [(inst, node) for inst in ds["instances"] for node in ds["valid"][inst]]
    assume(pairs)
    inst, node = pick(draw, pairs)
    return f"{inst}\t{node}\t9.0"


# one injected line per case of test_load_contract_violations:
# (file, row maker given a draw function and the dataset's ids)
SEMANTIC_FAULTS = {
    "duplicate node id": ("nodes.tsv", lambda d, ds: pick(d, ds["nodes"])),
    "duplicate instance id": ("instances.tsv", lambda d, ds: f"{pick(d, ds['instances'])}\t1"),
    "non-integer state": ("instances.tsv", lambda d, ds: "i9\tx"),
    "state outside int64": (
        "instances.tsv",
        lambda d, ds: "i9\t" + pick(d, ["9223372036854775808", "-9223372036854775809", "1" * 30]),
    ),
    "value of unknown instance": ("values.tsv", lambda d, ds: f"i9\t{pick(d, ds['nodes'])}\t1.0"),
    "value of unknown node": ("values.tsv", lambda d, ds: f"{pick(d, ds['instances'])}\tzz\t1.0"),
    "bad value": (
        "values.tsv",
        lambda d, ds: f"{pick(d, ds['instances'])}\t{pick(d, ds['nodes'])}\tnot-a-number",
    ),
    "non-finite value": (
        "values.tsv",
        lambda d, ds: f"{pick(d, ds['instances'])}\t{pick(d, ds['nodes'])}\t"
        + pick(d, ["inf", "nan", "-1e400"]),
    ),
    "duplicate value": ("values.tsv", duplicate_value),
    "edge of unknown instance": (
        "edges.tsv", lambda d, ds: f"i9\t{pick(d, ds['nodes'])}\t{pick(d, ds['nodes'])}"
    ),
    "edge from unknown node": (
        "edges.tsv", lambda d, ds: f"{pick(d, ds['instances'])}\tzz\t{pick(d, ds['nodes'])}"
    ),
    "edge to unknown node": (
        "edges.tsv", lambda d, ds: f"{pick(d, ds['instances'])}\t{pick(d, ds['nodes'])}\t"
    ),
    "self-loop": (
        "edges.tsv",
        lambda d, ds: "{0}\t{1}\t{1}".format(pick(d, ds["instances"]), pick(d, ds["nodes"])),
    ),
    "edge on null node": ("edges.tsv", null_edge),
    "reversed duplicate edge": ("edges.tsv", reversed_duplicate),
}


def wrong_field_count(draw, name):
    width = len(HEADERS[name])
    return "\t".join(["a"] * draw(st.sampled_from([width + 1, width + 3])))


def bad_utf8(draw, name):
    """A row with a byte that is not UTF-8, its field count right or not."""
    row = ["i0", "a", "b", "c"][: len(HEADERS[name]) + draw(st.integers(0, 1))]
    row[draw(st.integers(0, len(row) - 1))] += "\udcff"
    return "\t".join(row)


@pytest.mark.parametrize("fault", sorted(SEMANTIC_FAULTS))
@SETTINGS
@given(dataset=datasets(), layout=layouts(), where=st.integers(0, 50), draw=st.data())
def test_injected_fault_raises_like_the_oracle(fault, dataset, layout, where, draw):
    files, ds = dataset
    name, make_row = SEMANTIC_FAULTS[fault]
    insert_row(files[name], where, make_row(draw.draw, ds))
    assert isinstance(same_outcome(files, layout), tuple)


@SETTINGS
@given(
    dataset=datasets(),
    layout=layouts(),
    name=st.sampled_from(sorted(HEADERS)),
    kind=st.sampled_from(["fields", "utf8", "header"]),
    where=st.integers(0, 50),
    draw=st.data(),
)
def test_malformed_line_raises_like_the_oracle(dataset, layout, name, kind, where, draw):
    files, _ = dataset
    if kind == "header":
        files[name][0] = draw.draw(st.sampled_from(["wrong", "node_id\tvalue", "\udcff"]))
    else:
        make = wrong_field_count if kind == "fields" else bad_utf8
        insert_row(files[name], where, make(draw.draw, name))
    assert isinstance(same_outcome(files, layout), tuple)


@pytest.mark.parametrize("semantic_first", [True, False])
@SETTINGS
@given(
    dataset=datasets(),
    layout=layouts(),
    fault=st.sampled_from(sorted(SEMANTIC_FAULTS)),
    first=st.integers(0, 50),
    gap=st.integers(0, 50),
    draw=st.data(),
)
def test_first_bad_line_wins(semantic_first, dataset, layout, fault, first, gap, draw):
    """A semantic fault and a malformed line in one file: the one on the
    earlier line is reported, although the malformed line is found before
    any row is checked."""
    files, ds = dataset
    name, make_row = SEMANTIC_FAULTS[fault]
    rows = [
        make_row(draw.draw, ds),
        draw.draw(st.sampled_from([wrong_field_count, bad_utf8]))(draw.draw, name),
    ]
    if not semantic_first:
        rows.reverse()
    at = insert_row(files[name], first, rows[0])
    files[name].insert(at + 1 + gap % (len(files[name]) - at), rows[1])
    assert isinstance(same_outcome(files, layout), tuple)


def valid_files(edges=("i0\ta\tb", "i1\tb\tc")) -> dict:
    return {
        "nodes.tsv": ["node_id", "a", "b", "c"],
        "instances.tsv": ["instance_id\tglobal_state", "i0\t0", "i1\t1"],
        "values.tsv": [
            "instance_id\tnode_id\tvalue",
            *(f"i{k // 3}\t{'abc'[k % 3]}\t{k}.5" for k in range(6)),
        ],
        "edges.tsv": ["instance_id\tnode_u\tnode_v", *edges],
    }


LF = {"newline": "\n", "final_newline": True, "blanks": []}


def constant_hash(lengths, words):
    return np.zeros(len(lengths), dtype=np.uint64)


@pytest.mark.parametrize("fault", [None, *sorted(SEMANTIC_FAULTS)])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(dataset=datasets(), layout=layouts(), where=st.integers(0, 50), draw=st.data())
def test_ids_load_by_text_when_every_hash_collides(fault, dataset, layout, where, draw):
    """With one hash for every id, a field matches the first known id's
    bytes or goes through the text lookup: both paths load and raise as
    the row-by-row oracle does."""
    files, ds = dataset
    if fault is not None:
        name, make_row = SEMANTIC_FAULTS[fault]
        insert_row(files[name], where, make_row(draw.draw, ds))
    with mock.patch.object(data, "_id_hash", constant_hash):
        want = same_outcome(files, layout)
    assert isinstance(want, tuple) == (fault is not None)


@pytest.mark.parametrize("id_hash", [data._id_hash, constant_hash])
def test_ids_that_differ_past_a_word_or_by_a_trailing_nul(tmp_path, id_hash):
    names = ["a", "a\x00", "abcdefgh", "abcdefgh\x00", "abcdefghi"]
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    files = {
        "nodes.tsv": ["node_id", *names],
        "instances.tsv": ["instance_id\tglobal_state", "i0\t0", "i1\t1"],
        "values.tsv": [
            "instance_id\tnode_id\tvalue",
            *(f"i{i}\t{name}\t{10 * p + i}" for i in (1, 0) for p, name in enumerate(names)),
        ],
        "edges.tsv": [
            "instance_id\tnode_u\tnode_v",
            *(f"i{k % 2}\t{names[q]}\t{names[p]}" for k, (p, q) in enumerate(pairs)),
        ],
        "ground_truth.tsv": ["node_id", "abcdefgh\x00", "a"],
    }
    write_files(tmp_path, files, LF)
    with mock.patch.object(data, "_id_hash", id_hash):
        db = load_database(tmp_path)
        gt = read_ground_truth(tmp_path / "ground_truth.tsv", db.node_ids)
    assert_same_database(db, load_database_rows(tmp_path))
    assert db.node_ids == tuple(names)
    assert db.values.tolist() == [[10 * p, 10 * p + 1] for p in range(5)]
    assert [e.tolist() for e in db.instance_edges] == [[[0, 1], [0, 4], [2, 3]], [[1, 2], [3, 4]]]
    assert gt == {0, 3}


def test_field_words_read_at_every_byte_offset(tmp_path):
    """The words of fields that begin at byte offsets 0 to 15 of a block the
    reader yields, so at every alignment of the 64-bit reads, against
    int.from_bytes of the bytes."""
    line = "".join(chr(0x21 + 13 * k % 90) for k in range(48))
    (tmp_path / "f.tsv").write_text(f"h\n{line}\n", encoding="utf-8")
    (block,) = data._blocks(tmp_path / "f.tsv")
    begins, ends = np.array(list(itertools.product(range(16), range(26)))).T
    ends += begins
    words = data._words(block, begins, ends, 4)
    for k, (begin, end) in enumerate(zip(begins.tolist(), ends.tolist())):
        field = block[begin:end].ljust(32, b"\0")
        want = [int.from_bytes(field[w : w + 8], "little") for w in range(0, 32, 8)]
        assert [int(word[k]) for word in words] == want, (begin, end)


def test_header_only_edges_file(tmp_path):
    write_files(tmp_path, valid_files(edges=()), LF)
    db = load_database(tmp_path)
    assert db.edges.shape == (0, 2) and db.edges.dtype == np.intp
    assert db.offsets.tolist() == [0, 0, 0]
    assert [e.shape for e in db.instance_edges] == [(0, 2), (0, 2)]
    assert db.network([0, 1]).edges.shape == (0, 2)
    assert edge_tuples(build_generalized_network(db)) == ()


def test_instance_without_edges_and_read_only_views(tmp_path):
    write_files(tmp_path, valid_files(edges=("i1\tc\tb", "i1\ta\tc")), LF)
    db = load_database(tmp_path)
    assert db.offsets.tolist() == [0, 0, 2]
    assert db.instance_edges[0].shape == (0, 2)
    assert db.instance_edges[1].tolist() == [[0, 2], [1, 2]]
    for block in db.instance_edges:
        assert np.shares_memory(block, db.edges) or block.size == 0
        assert not block.flags.writeable
    assert not db.edges.flags.writeable and not db.offsets.flags.writeable
    with pytest.raises(ValueError):
        db.instance_edges[1][0, 0] = 5


def test_long_and_non_ascii_ids_round_trip(tmp_path):
    files = valid_files()
    names = {"a": "node_id_longer_than_8", "b": "ñandú", "c": "日本語", "i1": "é"}
    for lines in files.values():
        lines[1:] = [
            "\t".join(names.get(f, f) for f in line.split("\t")) for line in lines[1:]
        ]
    (tmp_path / "one").mkdir()
    write_files(tmp_path / "one", files, LF)
    db = load_database(tmp_path / "one")
    assert db.node_ids == ("node_id_longer_than_8", "ñandú", "日本語")
    assert db.instance_ids == ("i0", "é")
    assert db.instance_edges[1].tolist() == [[1, 2]]
    write_database(db, tmp_path / "two")
    for name in HEADERS:
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_crlf_and_blank_lines_load_like_lf(tmp_path):
    (tmp_path / "lf").mkdir()
    (tmp_path / "crlf").mkdir()
    write_files(tmp_path / "lf", valid_files(), LF)
    write_files(
        tmp_path / "crlf",
        valid_files(),
        {"newline": "\r\n", "final_newline": False, "blanks": [2, 3, 5]},
    )
    assert_same_database(load_database(tmp_path / "crlf"), load_database(tmp_path / "lf"))


@pytest.mark.parametrize("leading", [1, 2])
def test_blank_lines_before_the_header(tmp_path, leading):
    """The header is the first non-blank line: leading blank lines load like
    the clean file, and a bad header after them is reported at its line."""
    (tmp_path / "clean").mkdir()
    (tmp_path / "blank").mkdir()
    write_files(tmp_path / "clean", valid_files(), LF)
    write_files(tmp_path / "blank", valid_files(), {**LF, "blanks": [0] * leading})
    got = load_database(tmp_path / "blank")
    assert_same_database(got, load_database(tmp_path / "clean"))
    assert got.node_ids == ("a", "b", "c")
    assert_same_database(load_database_rows(tmp_path / "blank"), got)

    files = valid_files()
    files["nodes.tsv"][0] = "node"
    write_files(tmp_path, files, {**LF, "blanks": [0] * leading})
    for load in (load_database, load_database_rows):
        with pytest.raises(ParseError, match="expected header") as exc:
            load(tmp_path)
        assert exc.value.path == tmp_path / "nodes.tsv" and exc.value.line == leading + 1


@pytest.mark.parametrize("newline", [b"\r", b"\r\n"])
def test_model_and_ground_truth_longer_than_a_block_load_like_lf(tmp_path, newline):
    """A model file and a ground-truth file of more than one block, with CR
    (or CRLF) line ends, so that reads end inside lines and on CRs: both
    load like their LF copies."""
    node_ids = tuple(f"ground_truth_node_{p:012d}" for p in range(50_000))
    u = np.random.default_rng(0).standard_normal((len(node_ids), 2))
    for name, header, rows in (
        ("model.tsv", ["node_id", "u_1", "u_2"], ([p, *x] for p, x in zip(node_ids, u.tolist()))),
        ("ground_truth.tsv", ["node_id"], ([p] for p in node_ids[::-5] + node_ids[:40_000])),
    ):
        write_tsv(tmp_path / "lf" / name, header, rows)
        text = (tmp_path / "lf" / name).read_bytes()
        assert len(text) > data._BLOCK_BYTES
        (tmp_path / "cr").mkdir(exist_ok=True)
        (tmp_path / "cr" / name).write_bytes(text.replace(b"\n", newline))
    (lf_ids, lf_u), (ids, got_u) = (load_model(tmp_path / d / "model.tsv") for d in ("lf", "cr"))
    assert ids == lf_ids == list(node_ids)
    assert got_u.tobytes() == lf_u.tobytes() == u.tobytes()
    lf_gt, gt = (
        read_ground_truth(tmp_path / d / "ground_truth.tsv", node_ids) for d in ("lf", "cr")
    )
    assert gt == lf_gt == set(range(40_000)) | set(range(49_999, -1, -5))


def test_errors_count_blank_lines_and_name_bad_utf8(tmp_path):
    files = valid_files()
    files["values.tsv"].append("i0\ta\tbogus")  # a duplicate value, line 8 of 8
    write_files(tmp_path, files, {"newline": "\r\n", "final_newline": True, "blanks": [3, 3]})
    with pytest.raises(ParseError) as exc:
        load_database(tmp_path)
    assert exc.value.line == 10
    assert "duplicate value for ('i0', 'a')" in str(exc.value)

    files = valid_files()
    files["edges.tsv"].append("i1\tn\udcff\tb")
    write_files(tmp_path, files, {"newline": "\n", "final_newline": True, "blanks": [1]})
    with pytest.raises(ParseError) as exc:
        load_database(tmp_path)
    assert exc.value.path == tmp_path / "edges.tsv" and exc.value.line == 5
    assert "not valid UTF-8" in str(exc.value)

    # a bad row at each position among four valid ones, read in blocks of 4
    # to 47 bytes, so that the row is found again across reads that carry
    # a partial line over to the next
    edges = ["i0\ta\tb", "i0\tb\tc", "i1\ta\tc", "i1\tb\tc"]
    for block, at in itertools.product(range(4, 48), range(len(edges) + 1)):
        write_files(tmp_path, valid_files(edges=[*edges[:at], "i1\ta\tzz", *edges[at:]]), LF)
        with mock.patch.object(data, "_BLOCK_BYTES", block), pytest.raises(ParseError) as exc:
            load_database(tmp_path)
        assert str(exc.value) == f"{tmp_path}/edges.tsv:{at + 2}: unknown node id: 'zz'"


# Bytes that tracemalloc sees per edge row of a generated dataset, measured
# at 16.9 retained and 90.4 at the peak (181,803 rows in 21 bytes of text
# each).  The loaded edges need 16 bytes a row as one intp array; a tuple
# of Python (p, q) tuples needs about 66.
RETAINED_BYTES_PER_ROW = 24
PEAK_BYTES_PER_ROW = 160
# The peak of the 1M-row wide load below, which the edge step sets:
# measured at 54.0, and at 69.1 if i, p and q outlive the edge checks.
EDGE_STEP_PEAK_BYTES_PER_ROW = 62


def test_load_memory_per_edge_row(tmp_path):
    generate_dataset(SynthConfig(n=150, m=100, n_gt=10, edges_per_node=20, seed=0), tmp_path)
    rows = (tmp_path / "edges.tsv").read_bytes().count(b"\n") - 1
    assert rows > 150_000
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        db = load_database(tmp_path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(db.edges) == rows
    assert (retained - base) / rows <= RETAINED_BYTES_PER_ROW
    assert (peak - base) / rows <= PEAK_BYTES_PER_ROW


def write_wide_dataset(root: Path, rows: int, n: int = 1000, m: int = 50) -> None:
    """A valid dataset of ``rows`` edge rows, written with numpy: every node
    has a value in every instance, and each instance carries the first
    rows / m pairs (p, q), p < q, grouped by instance as write_database
    writes them.  Ids are six bytes, so an edge row is 21."""
    nodes = [f"n{p:05d}" for p in range(n)]
    files = {
        "nodes.tsv": ["node_id", *nodes],
        "instances.tsv": ["instance_id\tglobal_state", *(f"i{i:05d}\t{i % 2}" for i in range(m))],
        "values.tsv": [
            "instance_id\tnode_id\tvalue",
            *(f"i{i:05d}\t{node}\t{p % 7}.5" for i in range(m) for p, node in enumerate(nodes)),
        ],
    }
    write_files(root, files, LF)
    per = rows // m
    columns = (np.repeat(np.arange(m), per), *(np.tile(a[:per], m) for a in np.triu_indices(n, 1)))
    line = np.zeros((rows, 21), dtype=np.uint8)
    for k, (letter, column) in enumerate(zip("inn", columns)):
        line[:, 7 * k] = ord(letter)
        line[:, 7 * k + 1 : 7 * k + 6] = column[:, None] // 10 ** np.arange(4, -1, -1) % 10 + 48
        line[:, 7 * k + 6] = ord("\t") if k < 2 else ord("\n")
    (root / "edges.tsv").write_bytes(b"instance_id\tnode_u\tnode_v\n" + line.tobytes())


def traced(call):
    """What ``call()`` returns, the bytes tracemalloc sees it keep, and its
    peak above those."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained - base, peak - retained


def test_load_memory_does_not_grow_with_the_file(tmp_path):
    """The reader holds one block of the file at a time.  At 250k and at 1M
    edge rows its peak above the columns it returns is one column (joined
    from its blocks) and a fixed amount, not a share of the file's bytes;
    and the peak of the whole load above what it keeps, per edge row, does
    not grow with the row count.  At 1M rows the edge step sets that peak."""
    instances = data.Ids({f"i{i:05d}": i for i in range(50)})
    nodes = data.Ids({f"n{p:05d}": p for p in range(1000)})
    over, load_over = {}, {}
    for rows in (250_000, 1_000_000):
        root = tmp_path / str(rows)
        root.mkdir()
        write_wide_dataset(root, rows)
        tsv = TsvFile(root / "edges.tsv", HEADERS["edges.tsv"])
        columns, _, over[rows] = traced(lambda: tsv.columns(instances, nodes, nodes))
        assert [len(column) for column in columns] == [rows] * 3 and tsv.fault is None
        assert (columns[0] >= 0).all() and (columns[1] < columns[2]).all()
        del columns, tsv
        db, retained, load_over[rows] = traced(lambda: load_database(root))
        assert len(db.edges) == rows
        assert retained / rows <= RETAINED_BYTES_PER_ROW
        assert (retained + load_over[rows]) / rows <= PEAK_BYTES_PER_ROW
        del db
    assert (retained + load_over[rows]) / rows <= EDGE_STEP_PEAK_BYTES_PER_ROW
    column = np.dtype(np.intp).itemsize  # bytes per row of one joined column
    assert over[1_000_000] - over[250_000] <= column * 750_000 + data._BLOCK_BYTES
    assert over[1_000_000] <= column * 1_000_000 + 16 * data._BLOCK_BYTES
    assert load_over[1_000_000] / 1_000_000 <= load_over[250_000] / 250_000
