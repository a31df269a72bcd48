"""Synthetic benchmark generator: backbone shape, sampling statistics,
noise channels and file round trips."""

from __future__ import annotations

import filecmp
import re

import numpy as np
import pytest
from scipy.stats import truncnorm

from helpers import edge_tuples
from subnetmine.data import build_generalized_network, load_database
from subnetmine.errors import ConfigInvalid, ParseError, SubnetmineError
from subnetmine.synth import (
    GroundTruth,
    SynthConfig,
    generate_backbone,
    generate_dataset,
    read_ground_truth,
    sample_database,
    write_synthetic_dataset,
)


def small_cfg(**kw):
    base = dict(n=30, m=20, n_gt=5, edges_per_node=4, seed=0)
    base.update(kw)
    return SynthConfig(**base)


def test_config_validation():
    for bad in (
        {"n_gt": 31},
        {"n_gt": 0},
        {"n": 4, "n_gt": 2, "edges_per_node": 4},
        {"global_noise": 1.2},
        {"local_noise": -0.1},
        {"local_noise": np.nan},
        {"class_mean_shift": np.nan},
        {"class_mean_shift": np.inf},
        {"seed": -1},
    ):
        with pytest.raises(ConfigInvalid):
            small_cfg(**bad)
    small_cfg(global_noise=1.0, local_noise=0.0)


def test_backbone_deterministic_and_core_ring():
    cfg = small_cfg()
    one = generate_backbone(cfg)
    two = generate_backbone(cfg)
    assert one == two
    pairs = {(p, q) for p, q, _ in one.backbone}
    core = cfg.edges_per_node + 1
    for v in range(core):
        w = (v + 1) % core
        assert (min(v, w), max(v, w)) in pairs
    other = generate_backbone(small_cfg(seed=1))
    assert other != one


def test_backbone_edge_count_and_probabilities():
    cfg = small_cfg()
    gt = generate_backbone(cfg)
    core = cfg.edges_per_node + 1
    # ring edges plus >= e distinct attachments per later node (duplicates
    # with existing edges can only reduce the attachment count)
    assert len(gt.backbone) >= core + (cfg.n - core) * cfg.edges_per_node - core
    assert len(gt.gt_nodes) == cfg.n_gt
    for p, q, w in gt.backbone:
        assert 0 <= p < q < cfg.n
        assert 0.0 < w <= 1.0


def test_backbone_probability_means_split_by_node_type():
    """Edge probabilities come from N(0.9, 0.1) between ground-truth nodes
    and N(0.7, 0.1) otherwise, truncated to (0, 1]: each family's sample
    mean lies within 4 standard errors of its law's mean (.871 and .700)."""
    cfg = SynthConfig(n=300, m=10, n_gt=100, edges_per_node=6, seed=3)
    gt = generate_backbone(cfg)
    weights = np.array([w for _, _, w in gt.backbone])
    inside = np.array([p in gt.gt_nodes and q in gt.gt_nodes for p, q, _ in gt.backbone])
    for family, mean, expected in ((weights[inside], 0.9, 0.871), (weights[~inside], 0.7, 0.700)):
        law = truncnorm(-mean / 0.1, (1.0 - mean) / 0.1, loc=mean, scale=0.1)
        assert round(law.mean(), 3) == expected
        assert family.size >= 100
        assert abs(family.mean() - law.mean()) <= 4 * law.std() / np.sqrt(family.size)


def test_backbone_degree_distribution_has_heavy_tail():
    cfg = SynthConfig(n=600, m=10, n_gt=10, edges_per_node=5, seed=0)
    gt = generate_backbone(cfg)
    deg = np.zeros(cfg.n)
    for p, q, _ in gt.backbone:
        deg[p] += 1
        deg[q] += 1
    assert deg.max() >= 3 * np.median(deg)


def test_sample_deterministic_directories(tmp_path):
    cfg = small_cfg()
    generate_dataset(cfg, tmp_path / "a")
    generate_dataset(cfg, tmp_path / "b")
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "b",
        ["nodes.tsv", "instances.tsv", "values.tsv", "edges.tsv",
         "ground_truth.tsv", "backbone.tsv"],
        shallow=False,
    )
    assert mismatch == [] and errors == []
    assert len(match) == 6


def test_sample_labels_balanced_without_flip_noise():
    for m in (20, 21):
        cfg = small_cfg(m=m, global_noise=0.0)
        db = sample_database(generate_backbone(cfg), cfg)
        labels = db.labels
        assert int(np.sum(labels == 0)) == m // 2
        assert int(np.sum(labels == 1)) == m - m // 2


def test_sample_instance_edges_subset_of_backbone():
    cfg = small_cfg()
    gt = generate_backbone(cfg)
    db = sample_database(gt, cfg)
    pairs = {(p, q) for p, q, _ in gt.backbone}
    for inst_edges in db.instance_edges:
        assert set(map(tuple, inst_edges.tolist())) <= pairs
    assert db.valid.all()


def test_sample_edge_frequency_tracks_probability():
    # single-edge backbone, many instances: K(0,1) estimates the edge prob
    cfg = SynthConfig(n=3, m=2000, n_gt=1, edges_per_node=1, seed=7)
    gt = GroundTruth(gt_nodes=frozenset({0}), backbone=((0, 1, 0.9),))
    db = sample_database(gt, cfg)
    g = build_generalized_network(db)
    assert len(g.edges) == 1
    p, q, w = edge_tuples(g)[0]
    assert (p, q) == (0, 1)
    assert 0.88 <= w <= 0.92


def test_sample_class_shift_recovered_from_clean_data():
    cfg = SynthConfig(n=10, m=2000, n_gt=4, edges_per_node=2,
                      class_mean_shift=1.5, global_noise=0.0,
                      local_noise=0.0, seed=11)
    gt = generate_backbone(cfg)
    db = sample_database(gt, cfg)
    labels = db.labels
    values = db.values
    gt_idx = sorted(gt.gt_nodes)
    bg_idx = sorted(set(range(cfg.n)) - gt.gt_nodes)
    gap_gt = values[np.ix_(gt_idx, labels == 1)].mean() - values[
        np.ix_(gt_idx, labels == 0)
    ].mean()
    gap_bg = values[np.ix_(bg_idx, labels == 1)].mean() - values[
        np.ix_(bg_idx, labels == 0)
    ].mean()
    assert abs(gap_gt - 1.5) < 0.12
    assert abs(gap_bg) < 0.12


def test_sample_full_local_noise_erases_class_signal():
    cfg = SynthConfig(n=10, m=2000, n_gt=4, edges_per_node=2,
                      class_mean_shift=1.5, global_noise=0.0,
                      local_noise=1.0, seed=11)
    gt = generate_backbone(cfg)
    db = sample_database(gt, cfg)
    labels = db.labels
    values = db.values
    gt_idx = sorted(gt.gt_nodes)
    gap = values[np.ix_(gt_idx, labels == 1)].mean() - values[
        np.ix_(gt_idx, labels == 0)
    ].mean()
    assert abs(gap) < 0.12


def test_sample_full_global_noise_flips_every_label():
    cfg = small_cfg(global_noise=0.0)
    clean = sample_database(generate_backbone(cfg), cfg)
    flipped_cfg = small_cfg(global_noise=1.0)
    flipped = sample_database(generate_backbone(flipped_cfg), flipped_cfg)
    assert np.array_equal(flipped.labels, 1 - clean.labels)


def test_written_dataset_loads_back(tmp_path):
    cfg = small_cfg()
    db, gt = generate_dataset(cfg, tmp_path / "ds")
    loaded = load_database(tmp_path / "ds")
    assert loaded.node_ids == db.node_ids
    assert loaded.instance_ids == db.instance_ids
    assert np.array_equal(loaded.labels, db.labels)
    assert loaded.values.tobytes() == db.values.tobytes()
    assert np.array_equal(loaded.edges, db.edges)
    assert np.array_equal(loaded.offsets, db.offsets)

    got = read_ground_truth(tmp_path / "ds" / "ground_truth.tsv", loaded.node_ids)
    assert got == set(gt.gt_nodes)


def test_read_ground_truth_errors(tmp_path):
    message = f"required file not found: {tmp_path / 'nope.tsv'}"
    with pytest.raises(SubnetmineError, match=re.escape(message)):
        read_ground_truth(tmp_path / "nope.tsv", ["a"])
    bad = tmp_path / "gt.tsv"
    bad.write_text("wrong_header\na\n")
    with pytest.raises(ParseError):
        read_ground_truth(bad, ["a"])
    bad.write_text("node_id\nmystery\n")
    with pytest.raises(ParseError, match=re.escape(f"{bad}:2: unknown node id: 'mystery'")) as exc:
        read_ground_truth(bad, ["a"])
    assert exc.value.path == bad and exc.value.line == 2


def test_read_ground_truth_reads_like_the_dataset_files(tmp_path):
    path = tmp_path / "gt.tsv"
    path.write_bytes(b"node_id\r\nb\r\n\r\na\r\n")
    assert read_ground_truth(path, ["a", "b", "c"]) == {0, 1}
    path.write_bytes(b"node_id\nb\nc\td\n")
    with pytest.raises(ParseError, match="expected 1 fields, got 2") as exc:
        read_ground_truth(path, ["a", "b", "c"])
    assert exc.value.line == 3


def test_write_dataset_extra_files(tmp_path):
    cfg = small_cfg()
    gt = generate_backbone(cfg)
    db = sample_database(gt, cfg)
    write_synthetic_dataset(db, gt, tmp_path / "ds")
    gt_lines = (tmp_path / "ds" / "ground_truth.tsv").read_text().splitlines()
    assert gt_lines[0] == "node_id"
    assert gt_lines[1:] == sorted(gt_lines[1:])
    assert len(gt_lines) == 1 + cfg.n_gt
    bb_lines = (tmp_path / "ds" / "backbone.tsv").read_text().splitlines()
    assert bb_lines[0] == "node_u\tnode_v\tprobability"
    assert len(bb_lines) == 1 + len(gt.backbone)
    # probabilities round-trip exactly through repr
    w_back = [float(ln.split("\t")[2]) for ln in bb_lines[1:]]
    assert w_back == [w for _, _, w in gt.backbone]
