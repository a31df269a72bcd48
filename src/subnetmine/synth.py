"""Synthetic benchmark generator.

Builds a scale-free weighted backbone by preferential attachment, marks a
ground-truth node set whose local values correlate with the binary global
state, samples per-instance edges from the backbone probabilities, and
injects label and value noise.  Everything is driven by named substreams of
a single seed, so identical configs produce byte-identical datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Ids, NetworkDatabase, TsvFile, write_database, write_tsv
from .errors import ConfigInvalid
from .seeds import substream


# (mean, sd) of the Gaussians, truncated to (0, 1], that edge existence
# probabilities are drawn from: edges between ground-truth nodes, and all others
GT_EDGE = (0.9, 0.1)
BG_EDGE = (0.7, 0.1)


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs, checked on construction.

    class_mean_shift, which must be finite, is the mean separation of
    ground-truth node values between the two classes (both classes share
    unit variance).
    """

    n: int
    m: int
    n_gt: int
    edges_per_node: int = 20
    class_mean_shift: float = 1.5
    global_noise: float = 0.10
    local_noise: float = 0.30
    seed: int = 0

    def __post_init__(self):
        if self.n_gt > self.n:
            raise ConfigInvalid(f"n_gt={self.n_gt} exceeds n={self.n}")
        if self.n_gt < 1 or self.n < 2 or self.m < 2:
            raise ConfigInvalid("need n >= 2, m >= 2, n_gt >= 1")
        if self.seed < 0:
            raise ConfigInvalid(f"seed must be nonnegative, got {self.seed}")
        if self.edges_per_node < 1 or self.n <= self.edges_per_node:
            raise ConfigInvalid(
                f"need n > edges_per_node, got n={self.n}, edges_per_node={self.edges_per_node}"
            )
        for name in ("global_noise", "local_noise"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:  # NaN fails too
                raise ConfigInvalid(f"{name}={rate} outside [0, 1]")
        if not np.isfinite(self.class_mean_shift):
            raise ConfigInvalid(f"class_mean_shift must be finite, got {self.class_mean_shift}")


@dataclass(frozen=True)
class GroundTruth:
    """Planted node set and the weighted backbone it lives in."""

    gt_nodes: frozenset[int]
    backbone: tuple[tuple[int, int, float], ...]


def _truncated_gaussian(rng: np.random.Generator, mean: float, sd: float) -> float:
    # rejection sampling; probabilities must land in (0, 1]
    while True:
        x = rng.normal(mean, sd)
        if 0.0 < x <= 1.0:
            return float(x)


def generate_backbone(cfg: SynthConfig) -> GroundTruth:
    """Preferential-attachment backbone with planted ground-truth nodes.

    The seed core is a ring of edges_per_node + 1 nodes; every later node
    attaches edges_per_node edges to distinct existing nodes picked with
    probability proportional to current degree.
    """
    rng = substream(cfg.seed, "backbone")
    e = cfg.edges_per_node
    core = e + 1

    edges: set[tuple[int, int]] = set()
    # each endpoint appears once per incident edge; uniform draws from this
    # list realize degree-proportional attachment
    endpoint_pool: list[int] = []
    for v in range(core):
        w = (v + 1) % core
        edges.add((min(v, w), max(v, w)))
        endpoint_pool.extend((v, w))

    for v in range(core, cfg.n):
        targets: set[int] = set()
        while len(targets) < e:
            targets.add(int(endpoint_pool[rng.integers(len(endpoint_pool))]))
        for t in sorted(targets):
            edges.add((t, v))
            endpoint_pool.extend((t, v))

    gt_nodes = frozenset(int(p) for p in rng.choice(cfg.n, size=cfg.n_gt, replace=False))
    backbone = []
    for p, q in sorted(edges):
        if p in gt_nodes and q in gt_nodes:
            prob = _truncated_gaussian(rng, *GT_EDGE)
        else:
            prob = _truncated_gaussian(rng, *BG_EDGE)
        backbone.append((p, q, prob))
    return GroundTruth(gt_nodes=gt_nodes, backbone=tuple(backbone))


def sample_database(gt: GroundTruth, cfg: SynthConfig) -> NetworkDatabase:
    """Sample m instances from the backbone.

    Labels are balanced (floor(m/2) zeros) then shuffled; every backbone
    edge is kept independently with its probability; ground-truth nodes
    draw values from class-conditional unit Gaussians whose means differ by
    class_mean_shift, all other nodes from N(0, 1).  Afterwards the noise
    stream flips each label with probability global_noise and replaces each
    ground-truth value with a fresh N(0, 1) draw with probability
    local_noise.
    """
    rng = substream(cfg.seed, "values")
    n, m = cfg.n, cfg.m

    labels = np.zeros(m, dtype=int)
    labels[m // 2 :] = 1
    labels = labels[rng.permutation(m)]

    probs = np.array([w for _, _, w in gt.backbone])
    keep = rng.random((m, len(gt.backbone))) < probs[np.newaxis, :]

    gt_idx = np.array(sorted(gt.gt_nodes), dtype=int)
    values = rng.normal(0.0, 1.0, size=(n, m))
    values[np.ix_(gt_idx, labels == 1)] += cfg.class_mean_shift

    noise_rng = substream(cfg.seed, "noise")
    flips = noise_rng.random(m) < cfg.global_noise
    labels = np.where(flips, 1 - labels, labels)
    replace = noise_rng.random((len(gt_idx), m)) < cfg.local_noise
    fresh = noise_rng.normal(0.0, 1.0, size=(len(gt_idx), m))
    values[gt_idx] = np.where(replace, fresh, values[gt_idx])

    width = max(4, len(str(n - 1)), len(str(m - 1)))
    # the backbone is sorted by (p, q), so row-major kept entries are
    # sorted by (instance, p, q)
    pairs = np.array([(p, q) for p, q, _ in gt.backbone], dtype=np.intp).reshape(-1, 2)
    _, kept = np.nonzero(keep)
    return NetworkDatabase(
        node_ids=tuple(f"n{p:0{width}d}" for p in range(n)),
        instance_ids=tuple(f"inst{i:0{width}d}" for i in range(m)),
        labels=labels,
        valid=np.ones((n, m), dtype=bool),
        values=values,
        edges=pairs[kept],
        offsets=np.concatenate(([0], np.cumsum(keep.sum(axis=1)))),
    )


def write_synthetic_dataset(db: NetworkDatabase, gt: GroundTruth, path) -> None:
    """Dataset directory plus ground_truth.tsv and backbone.tsv."""
    root = Path(path)
    write_database(db, root)
    ids = db.node_ids
    write_tsv(root / "ground_truth.tsv", ["node_id"], ([ids[p]] for p in sorted(gt.gt_nodes)))
    write_tsv(
        root / "backbone.tsv",
        ["node_u", "node_v", "probability"],
        ((ids[p], ids[q], w) for p, q, w in gt.backbone),
    )


def generate_dataset(cfg: SynthConfig, path) -> tuple[NetworkDatabase, GroundTruth]:
    """generate_backbone + sample_database + write, in one call."""
    gt = generate_backbone(cfg)
    db = sample_database(gt, cfg)
    write_synthetic_dataset(db, gt, path)
    return db, gt


def read_ground_truth(path, node_ids: tuple[str, ...]) -> set[int]:
    """Ordinals of the ground-truth nodes listed in a ground_truth.tsv."""
    tsv = TsvFile(Path(path), ["node_id"])
    (found,) = tsv.columns(Ids({node_id: p for p, node_id in enumerate(node_ids)}))
    tsv.raise_first([found < 0], lambda err, node_id: (err(f"unknown node id: {node_id!r}"),))
    return set(found.tolist())
