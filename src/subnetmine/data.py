"""Network-instance database model and dataset directory I/O.

A database holds m network instances over one shared node index of size n.
Each instance carries a valid-node mask, a local state value per valid node,
an undirected edge list over valid nodes, and one integer global state.
The union of instance edges, weighted by the fraction of instances carrying
each edge, forms the generalized network used downstream as the topology
regularizer.

Dataset directory format (UTF-8, tab-separated, header row, LF endings):

    nodes.tsv      node_id                         (row order fixes ordinals)
    instances.tsv  instance_id  global_state
    values.tsv     instance_id  node_id  value     (missing row = null node)
    edges.tsv      instance_id  node_u   node_v
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import (
    DuplicateEdge,
    EdgeOnNullNode,
    MissingFile,
    ParseError,
    SingleClassDatabase,
    UnknownNode,
)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class NodeIndex:
    """One node of the shared index: string id plus its row ordinal."""

    id: str
    ordinal: int


@dataclass(frozen=True)
class NetworkInstance:
    """A single network snapshot: per-node validity, values and a label.

    ``values`` entries are 0.0 and ignored wherever ``valid`` is False.
    """

    instance_id: str
    valid: np.ndarray
    values: np.ndarray
    global_state: int

    def __post_init__(self):
        _freeze(self.valid)
        _freeze(self.values)


@dataclass(frozen=True)
class NetworkDatabase:
    """m network instances over a shared node index of size n.

    ``instance_edges[i]`` is the canonical edge list of instance i:
    ordinal pairs (p, q) with p < q, deduplicated, both endpoints valid.
    """

    nodes: tuple[NodeIndex, ...]
    instances: tuple[NetworkInstance, ...]
    instance_edges: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.instances)

    @property
    def node_ids(self) -> list[str]:
        return [node.id for node in self.nodes]

    def labels(self) -> np.ndarray:
        """Global states as an int vector of length m."""
        return np.array([inst.global_state for inst in self.instances], dtype=int)

    def states(self) -> list[int]:
        """Distinct global states in ascending order."""
        return sorted({inst.global_state for inst in self.instances})

    @cached_property
    def edge_index(self) -> EdgeIndex:
        """The union edges and which instances carry them, built on first use
        and kept: the database and its arrays are immutable."""
        m, n = self.m, self.n
        lengths = np.fromiter(map(len, self.instance_edges), dtype=np.int64, count=m)
        ends = np.fromiter(
            chain.from_iterable(chain.from_iterable(self.instance_edges)),
            dtype=np.int64,
            count=2 * int(lengths.sum()),
        )
        # p * n + q sorts like (p, q) because q < n
        keys, edge_of = np.unique(ends[0::2] * n + ends[1::2], return_inverse=True)
        presence = sparse.csr_array(
            (
                np.ones(edge_of.size, dtype=bool),
                edge_of,
                np.concatenate(([0], np.cumsum(lengths))),
            ),
            shape=(m, keys.size),
        )
        pairs = _freeze(np.column_stack(np.divmod(keys, n)))
        return EdgeIndex(n=n, pairs=pairs, presence=presence)


@dataclass(frozen=True)
class GeneralizedNetwork:
    """Union graph over all instances; edge weight = presence fraction in (0, 1]."""

    n: int
    edges: tuple[tuple[int, int, float], ...]


@dataclass(frozen=True)
class EdgeIndex:
    """Distinct instance edges of a database and which instances carry them.

    ``pairs`` is E x 2, one (p, q) row per union edge, sorted by (p, q);
    ``presence`` is the sparse m x E matrix that is True where instance i
    carries edge j.
    """

    n: int
    pairs: np.ndarray
    presence: sparse.csr_array

    def network(self, indices) -> GeneralizedNetwork:
        """Union network of the instances at ``indices``; each edge weighs
        the share of those instances that carry it."""
        indices = np.asarray(indices, dtype=np.intp)
        counts = self.presence[indices].sum(axis=0)
        kept = np.flatnonzero(counts)
        weights = counts[kept] / indices.size
        p, q = self.pairs[kept].T.tolist()
        return GeneralizedNetwork(n=self.n, edges=tuple(zip(p, q, weights.tolist())))


@dataclass(frozen=True)
class StateMatrix:
    """n x m matrix whose column i holds the local states of instance i.

    Null nodes contribute exactly 0 to their column.
    """

    matrix: np.ndarray

    def __post_init__(self):
        _freeze(self.matrix)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def m_cols(self) -> int:
        return self.matrix.shape[1]


# ---------------------------------------------------------------------------
# dataset loading


def _read_rows(path: Path, expected_header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield the (line_number, fields) rows of a TSV file, header validated,
    one at a time: a file is never held in memory as a list of rows."""
    if not path.is_file():
        raise MissingFile(path)
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if line == "":
                continue
            fields = line.split("\t")
            if lineno == 1:
                if fields != expected_header:
                    raise ParseError(
                        path, 1, f"expected header {expected_header}, got {fields}"
                    )
                continue
            if len(fields) != len(expected_header):
                raise ParseError(
                    path, lineno, f"expected {len(expected_header)} fields, got {len(fields)}"
                )
            yield lineno, fields


def load_database(path) -> NetworkDatabase:
    """Load and validate a dataset directory.

    Raises MissingFile, ParseError, UnknownNode, EdgeOnNullNode,
    DuplicateEdge or SingleClassDatabase on contract violations.
    """
    root = Path(path)

    nodes: list[NodeIndex] = []
    ordinal_of: dict[str, int] = {}
    for lineno, (node_id,) in _read_rows(root / "nodes.tsv", ["node_id"]):
        if node_id in ordinal_of:
            raise ParseError(root / "nodes.tsv", lineno, f"duplicate node id {node_id!r}")
        ordinal_of[node_id] = len(nodes)
        nodes.append(NodeIndex(id=node_id, ordinal=len(nodes)))
    n = len(nodes)
    if n == 0:
        raise ParseError(root / "nodes.tsv", 1, "no nodes defined")

    instance_order: dict[str, int] = {}
    labels: list[int] = []
    for lineno, (inst_id, state) in _read_rows(
        root / "instances.tsv", ["instance_id", "global_state"]
    ):
        if inst_id in instance_order:
            raise ParseError(
                root / "instances.tsv", lineno, f"duplicate instance id {inst_id!r}"
            )
        try:
            labels.append(int(state))
        except ValueError:
            raise ParseError(
                root / "instances.tsv", lineno, f"global_state not an integer: {state!r}"
            ) from None
        instance_order[inst_id] = len(instance_order)
    m = len(instance_order)

    valid = np.zeros((n, m), dtype=bool)
    values = np.zeros((n, m), dtype=np.float64)
    values_path = root / "values.tsv"
    for lineno, (inst_id, node_id, value) in _read_rows(
        values_path, ["instance_id", "node_id", "value"]
    ):
        if inst_id not in instance_order:
            raise ParseError(values_path, lineno, f"unknown instance id {inst_id!r}")
        if node_id not in ordinal_of:
            raise UnknownNode(node_id)
        i = instance_order[inst_id]
        p = ordinal_of[node_id]
        if valid[p, i]:
            raise ParseError(
                values_path, lineno, f"duplicate value for ({inst_id!r}, {node_id!r})"
            )
        try:
            x = float(value)
        except ValueError:
            raise ParseError(values_path, lineno, f"bad value: {value!r}") from None
        if not np.isfinite(x):
            raise ParseError(values_path, lineno, f"non-finite value: {value!r}")
        valid[p, i] = True
        values[p, i] = x

    edges_path = root / "edges.tsv"
    edge_lists: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    edge_seen: list[set[tuple[int, int]]] = [set() for _ in range(m)]
    for lineno, (inst_id, node_u, node_v) in _read_rows(
        edges_path, ["instance_id", "node_u", "node_v"]
    ):
        if inst_id not in instance_order:
            raise ParseError(edges_path, lineno, f"unknown instance id {inst_id!r}")
        for node in (node_u, node_v):
            if node not in ordinal_of:
                raise UnknownNode(node)
        i = instance_order[inst_id]
        p, q = ordinal_of[node_u], ordinal_of[node_v]
        if p == q:
            raise ParseError(edges_path, lineno, f"self-loop on node {node_u!r}")
        if p > q:
            p, q = q, p
        if not (valid[p, i] and valid[q, i]):
            raise EdgeOnNullNode(inst_id, node_u, node_v)
        if (p, q) in edge_seen[i]:
            raise DuplicateEdge(inst_id, node_u, node_v)
        edge_seen[i].add((p, q))
        edge_lists[i].append((p, q))

    if len(set(labels)) < 2:
        raise SingleClassDatabase()

    instances = []
    for inst_id, i in instance_order.items():
        instances.append(
            NetworkInstance(
                instance_id=inst_id,
                valid=valid[:, i].copy(),
                values=values[:, i].copy(),
                global_state=labels[i],
            )
        )
    return NetworkDatabase(
        nodes=tuple(nodes),
        instances=tuple(instances),
        instance_edges=tuple(tuple(sorted(e)) for e in edge_lists),
    )


def write_database(db: NetworkDatabase, path) -> None:
    """Write a database as a dataset directory (lossless float round-trip)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)

    with open(root / "nodes.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node_id\n")
        for node in db.nodes:
            fh.write(f"{node.id}\n")

    with open(root / "instances.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("instance_id\tglobal_state\n")
        for inst in db.instances:
            fh.write(f"{inst.instance_id}\t{inst.global_state}\n")

    with open(root / "values.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("instance_id\tnode_id\tvalue\n")
        for inst in db.instances:
            for node in db.nodes:
                if inst.valid[node.ordinal]:
                    # repr of a builtin float round-trips exactly
                    value = float(inst.values[node.ordinal])
                    fh.write(f"{inst.instance_id}\t{node.id}\t{value!r}\n")

    with open(root / "edges.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("instance_id\tnode_u\tnode_v\n")
        for inst, edges in zip(db.instances, db.instance_edges):
            for p, q in edges:
                fh.write(f"{inst.instance_id}\t{db.nodes[p].id}\t{db.nodes[q].id}\n")


# ---------------------------------------------------------------------------
# derived structures


def build_generalized_network(db: NetworkDatabase) -> GeneralizedNetwork:
    """Union of instance edges weighted by presence fraction count/m."""
    return db.edge_index.network(np.arange(db.m))


def assemble_state_matrix(db: NetworkDatabase) -> StateMatrix:
    """Stack instance values column-wise; null nodes contribute 0."""
    mat = np.zeros((db.n, db.m), dtype=np.float64)
    for i, inst in enumerate(db.instances):
        mat[inst.valid, i] = inst.values[inst.valid]
    return StateMatrix(matrix=mat)
