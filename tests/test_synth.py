"""Synthetic benchmark generator: backbone shape, sampling statistics,
noise channels and file round trips."""

from __future__ import annotations

import filecmp

import numpy as np
import pytest

from helpers import edge_tuples
from subnetmine.data import build_generalized_network, load_database
from subnetmine.errors import ConfigInvalid, MissingFile, ParseError, UnknownNode
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
    with pytest.raises(ConfigInvalid):
        small_cfg(n_gt=31).validate()
    with pytest.raises(ConfigInvalid):
        small_cfg(n_gt=0).validate()
    with pytest.raises(ConfigInvalid):
        small_cfg(n=4, edges_per_node=4).validate()
    with pytest.raises(ConfigInvalid):
        small_cfg(global_noise=1.2).validate()
    with pytest.raises(ConfigInvalid):
        small_cfg(local_noise=-0.1).validate()
    # settings the generator cannot honour; the edge means and sds here used
    # to leave the truncated-Gaussian sampler drawing forever
    for bad in (
        {"class_mean_shift": np.nan},
        {"class_mean_shift": np.inf},
        {"bg_edge_mean": 5.0, "bg_edge_sd": 0.0},
        {"bg_edge_mean": np.nan},
        {"gt_edge_mean": 0.0},
        {"gt_edge_sd": np.nan},
        {"bg_edge_sd": -0.1},
        {"gt_edge_sd": 1.5},
    ):
        with pytest.raises(ConfigInvalid):
            small_cfg(**bad).validate()
    small_cfg().validate()
    small_cfg(bg_edge_mean=1.0, bg_edge_sd=0.0, gt_edge_sd=1.0).validate()


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
    # wide margin between the two truncated-Gaussian families
    cfg = SynthConfig(n=60, m=10, n_gt=20, edges_per_node=6,
                      gt_edge_mean=0.9, bg_edge_mean=0.4, seed=3)
    gt = generate_backbone(cfg)
    gt_w = [w for p, q, w in gt.backbone if p in gt.gt_nodes and q in gt.gt_nodes]
    bg_w = [w for p, q, w in gt.backbone if not (p in gt.gt_nodes and q in gt.gt_nodes)]
    assert len(gt_w) >= 5 and len(bg_w) >= 5
    assert np.mean(gt_w) > np.mean(bg_w) + 0.2


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
        db, _ = sample_database(generate_backbone(cfg), cfg)
        labels = db.labels
        assert int(np.sum(labels == 0)) == m // 2
        assert int(np.sum(labels == 1)) == m - m // 2


def test_sample_instance_edges_subset_of_backbone():
    cfg = small_cfg()
    db, gt = sample_database(generate_backbone(cfg), cfg)
    pairs = {(p, q) for p, q, _ in gt.backbone}
    for inst_edges in db.instance_edges:
        assert set(map(tuple, inst_edges.tolist())) <= pairs
    assert db.valid.all()


def test_sample_edge_frequency_tracks_probability():
    # single-edge backbone, many instances: K(0,1) estimates the edge prob
    cfg = SynthConfig(n=3, m=2000, n_gt=1, edges_per_node=1, seed=7)
    gt = GroundTruth(gt_nodes=frozenset({0}), backbone=((0, 1, 0.9),))
    db, _ = sample_database(gt, cfg)
    g = build_generalized_network(db)
    assert len(g.edges) == 1
    p, q, w = edge_tuples(g)[0]
    assert (p, q) == (0, 1)
    assert 0.88 <= w <= 0.92


def test_sample_class_shift_recovered_from_clean_data():
    cfg = SynthConfig(n=10, m=2000, n_gt=4, edges_per_node=2,
                      class_mean_shift=1.5, global_noise=0.0,
                      local_noise=0.0, seed=11)
    db, gt = sample_database(generate_backbone(cfg), cfg)
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
    db, gt = sample_database(generate_backbone(cfg), cfg)
    labels = db.labels
    values = db.values
    gt_idx = sorted(gt.gt_nodes)
    gap = values[np.ix_(gt_idx, labels == 1)].mean() - values[
        np.ix_(gt_idx, labels == 0)
    ].mean()
    assert abs(gap) < 0.12


def test_sample_full_global_noise_flips_every_label():
    cfg = small_cfg(global_noise=0.0)
    clean, _ = sample_database(generate_backbone(cfg), cfg)
    flipped_cfg = small_cfg(global_noise=1.0)
    flipped, _ = sample_database(generate_backbone(flipped_cfg), flipped_cfg)
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
    with pytest.raises(MissingFile):
        read_ground_truth(tmp_path / "nope.tsv", ["a"])
    bad = tmp_path / "gt.tsv"
    bad.write_text("wrong_header\na\n")
    with pytest.raises(ParseError):
        read_ground_truth(bad, ["a"])
    bad.write_text("node_id\nmystery\n")
    with pytest.raises(UnknownNode):
        read_ground_truth(bad, ["a"])


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
    db, gt = sample_database(gt, cfg)
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
