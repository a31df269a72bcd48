"""Node scoring and discriminative subnetwork extraction.

A node's score is the largest absolute coefficient it receives across the
learned transformation columns.  The top-c nodes are matched back onto the
generalized network and split into connected components, which are the
reported subnetworks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .data import GeneralizedNetwork, write_tsv
from .errors import ConfigInvalid, SubnetmineError


@dataclass(frozen=True)
class Component:
    """One connected subnetwork: node ordinals plus induced weighted edges."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int, float], ...]

    @property
    def size(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True, eq=False)
class SubnetworkReport:
    scores: np.ndarray
    selected: tuple[int, ...]
    components: tuple[Component, ...]


def score_nodes(u_matrix: np.ndarray) -> np.ndarray:
    """score[p] = max over columns of |u[p, column]|."""
    u_matrix = np.asarray(u_matrix, dtype=np.float64)
    if u_matrix.ndim != 2 or u_matrix.shape[1] < 1:
        raise ValueError("u_matrix must be n x d with d >= 1")
    return np.max(np.abs(u_matrix), axis=1)


def select_top_nodes(scores: np.ndarray, c: int) -> list[int]:
    """The c highest-scoring node ordinals, descending; ties keep the lower
    ordinal first."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    if c > n:
        raise SubnetmineError(f"c={c} exceeds node count {n}")
    if c < 1:
        raise ConfigInvalid(f"c must be positive, got {c}")
    return [int(p) for p in np.argsort(-scores, kind="stable")[:c]]


def extract_subnetworks(
    selected, g: GeneralizedNetwork, min_edge_weight: float = 0.0
) -> list[Component]:
    """Connected components of the generalized network induced on the
    selected nodes.

    Edges with weight below ``min_edge_weight`` are ignored (default keeps
    everything; ``build_report`` checks that it is finite).  Components are
    ordered by size descending, then by their smallest node ordinal; isolated
    selected nodes come out as singletons.
    """
    nodes = np.unique(np.asarray(selected, dtype=np.intp))
    if nodes.size and not 0 <= nodes[0] <= nodes[-1] < g.n:
        raise ValueError("selected node ordinal out of range")
    chosen = np.zeros(g.n, dtype=bool)
    chosen[nodes] = True
    p, q = g.edges.T
    induced = chosen[p] & chosen[q] & (g.weights >= min_edge_weight)
    p, q, w = p[induced], q[induced], g.weights[induced]
    # label the components of the induced subgraph over positions in nodes
    at_p, at_q = np.searchsorted(nodes, p), np.searchsorted(nodes, q)
    graph = sparse.coo_array((np.ones(p.size), (at_p, at_q)), shape=(nodes.size, nodes.size))
    count, label = connected_components(graph, directed=False)
    members = [([], []) for _ in range(count)]  # nodes and edges, both in ascending order
    for node, comp in zip(nodes.tolist(), label.tolist()):
        members[comp][0].append(node)
    for edge, comp in zip(zip(p.tolist(), q.tolist(), w.tolist()), label[at_p].tolist()):
        members[comp][1].append(edge)
    components = [Component(nodes=tuple(a), edges=tuple(b)) for a, b in members]
    components.sort(key=lambda comp: (-comp.size, comp.nodes[0]))
    return components


def build_report(
    u_matrix: np.ndarray,
    g: GeneralizedNetwork,
    c: int,
    min_edge_weight: float = 0.0,
) -> SubnetworkReport:
    # a bad threshold is a usage error even where c would fail first
    if not np.isfinite(min_edge_weight):
        raise ConfigInvalid(f"min edge weight must be finite, got {min_edge_weight}")
    scores = score_nodes(u_matrix)
    selected = select_top_nodes(scores, c)
    components = extract_subnetworks(selected, g, min_edge_weight)
    return SubnetworkReport(
        scores=scores, selected=tuple(selected), components=tuple(components)
    )


def write_report(report: SubnetworkReport, node_ids: tuple[str, ...], out_dir) -> None:
    """Per-node ranking TSV plus a component summary TSV."""
    out_dir = Path(out_dir)
    component_of = {node: c for c, comp in enumerate(report.components) for node in comp.nodes}
    ranked = (
        (rank, node_ids[node], f"{report.scores[node]:.17g}", component_of[node])
        for rank, node in enumerate(report.selected, start=1)
    )
    write_tsv(out_dir / "report.tsv", ["rank", "node_id", "score", "component_id"], ranked)
    sizes = ((c, comp.size, len(comp.edges)) for c, comp in enumerate(report.components))
    write_tsv(out_dir / "components.tsv", ["component_id", "size", "edge_count"], sizes)
