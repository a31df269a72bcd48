"""Scoring, top-c selection and connected-component extraction."""

from __future__ import annotations

import re

import numpy as np
import pytest

from helpers import edge_tuples, network
from subnetmine.errors import SubnetmineError
from subnetmine.selection import (
    build_report,
    extract_subnetworks,
    score_nodes,
    select_top_nodes,
    write_report,
)


def union_find_components(selected, edges, min_w):
    """Independent reference: union-find over the induced subgraph."""
    parent = {p: p for p in selected}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept = [(p, q, w) for p, q, w in edges if p in parent and q in parent and w >= min_w]
    for p, q, _ in kept:
        parent[find(p)] = find(q)
    groups: dict[int, set[int]] = {}
    for p in selected:
        groups.setdefault(find(p), set()).add(p)
    return sorted(
        (sorted(g) for g in groups.values()), key=lambda g: (-len(g), g[0])
    ), kept


def test_score_nodes_max_abs_per_row():
    u = np.array([[0.5, -2.0], [-0.1, 0.1], [3.0, -4.0]])
    assert np.array_equal(score_nodes(u), [2.0, 0.1, 4.0])


def test_score_nodes_rejects_wrong_shape():
    with pytest.raises(ValueError):
        score_nodes(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        score_nodes(np.zeros((3, 0)))


def test_select_orders_descending_with_tie_on_ordinal():
    scores = np.array([0.3, 0.9, 0.9, 0.1, 0.9])
    assert select_top_nodes(scores, 4) == [1, 2, 4, 0]
    assert select_top_nodes(scores, 5) == [1, 2, 4, 0, 3]


def test_select_bounds():
    with pytest.raises(SubnetmineError, match=re.escape("c=4 exceeds node count 3")):
        select_top_nodes(np.ones(3), 4)
    with pytest.raises(ValueError):
        select_top_nodes(np.ones(3), 0)


def test_select_matches_sorted_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        # coarse quantization forces plenty of ties
        scores = np.round(rng.random(n), 1)
        c = int(rng.integers(1, n + 1))
        expected = sorted(range(n), key=lambda p: (-scores[p], p))[:c]
        assert select_top_nodes(scores, c) == expected


def test_extract_hand_worked_components():
    g = network(6, [(0, 1, 0.9), (1, 2, 0.8), (3, 4, 0.7), (2, 5, 0.6)])
    comps = extract_subnetworks([0, 1, 2, 3, 4], g)
    assert [c.nodes for c in comps] == [(0, 1, 2), (3, 4)]
    assert comps[0].edges == ((0, 1, 0.9), (1, 2, 0.8))
    assert comps[1].edges == ((3, 4, 0.7),)


def test_extract_singletons_and_ordering():
    g = network(5, [(0, 1, 0.5)])
    comps = extract_subnetworks([4, 2, 0, 1], g)
    # pair first, then singletons by ordinal
    assert [c.nodes for c in comps] == [(0, 1), (2,), (4,)]
    assert comps[1].edges == ()


def test_extract_min_edge_weight_splits_chain():
    g = network(3, [(0, 1, 0.9), (1, 2, 0.2)])
    whole = extract_subnetworks([0, 1, 2], g, min_edge_weight=0.0)
    assert [c.nodes for c in whole] == [(0, 1, 2)]
    cut = extract_subnetworks([0, 1, 2], g, min_edge_weight=0.5)
    assert [c.nodes for c in cut] == [(0, 1), (2,)]


def test_extract_rejects_out_of_range():
    g = network(3, [(0, 1, 0.5)])
    with pytest.raises(ValueError):
        extract_subnetworks([0, 3], g)
    with pytest.raises(ValueError):
        extract_subnetworks([-1], g)


def test_extract_matches_union_find_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(4, 25))
        edges = []
        for p in range(n):
            for q in range(p + 1, n):
                if rng.random() < 0.15:
                    edges.append((p, q, float(np.round(rng.random(), 2))))
        g = network(n, edges)
        size = int(rng.integers(1, n + 1))
        selected = list(rng.choice(n, size=size, replace=False))
        min_w = float(rng.choice([0.0, 0.3, 0.6]))
        comps = extract_subnetworks(selected, g, min_edge_weight=min_w)
        expected_groups, kept = union_find_components(
            {int(p) for p in selected}, edge_tuples(g), min_w
        )
        assert [list(c.nodes) for c in comps] == expected_groups
        # each component lists its edges sorted without repeats,
        # and together they cover exactly the kept edges
        for comp in comps:
            assert list(comp.edges) == sorted(set(comp.edges))
            assert all(type(x) is int for x in comp.nodes)
            assert all([type(x) for x in e] == [int, int, float] for e in comp.edges)
        flat = [e for c in comps for e in c.edges]
        assert sorted(flat) == sorted(kept)


def test_build_report_composes_the_stages():
    u = np.array([[0.1], [0.9], [-0.8], [0.05], [0.7]])
    g = network(5, [(1, 2, 0.6), (2, 4, 0.4), (0, 3, 0.9)])
    report = build_report(u, g, c=3)
    assert report.selected == (1, 2, 4)
    assert [c.nodes for c in report.components] == [(1, 2, 4)]
    assert np.array_equal(report.scores, score_nodes(u))
    thin = build_report(u, g, c=3, min_edge_weight=0.5)
    assert [c.nodes for c in thin.components] == [(1, 2), (4,)]


def test_write_report_files(tmp_path):
    u = np.array([[0.1], [0.9], [-0.8], [0.05], [0.7]])
    g = network(5, [(1, 2, 0.6), (2, 4, 0.4)])
    report = build_report(u, g, c=3)
    ids = [f"g{p}" for p in range(5)]
    write_report(report, ids, tmp_path / "out")

    lines = (tmp_path / "out" / "report.tsv").read_text().splitlines()
    assert lines[0] == "rank\tnode_id\tscore\tcomponent_id"
    assert lines[1].split("\t") == ["1", "g1", "0.90000000000000002", "0"]
    assert [ln.split("\t")[1] for ln in lines[1:]] == ["g1", "g2", "g4"]

    comp_lines = (tmp_path / "out" / "components.tsv").read_text().splitlines()
    assert comp_lines[0] == "component_id\tsize\tedge_count"
    assert comp_lines[1] == "0\t3\t2"

    # byte determinism on rewrite
    first = (tmp_path / "out" / "report.tsv").read_bytes()
    write_report(report, ids, tmp_path / "out")
    assert (tmp_path / "out" / "report.tsv").read_bytes() == first
