"""Seeded generator of one workload's dataset.

    python3 perfbench/gen.py --workload NAME --seed N --out DIR

Follows the paper's synthetic model with the benchmark's own code, so that
neither the inputs nor the planted set come from the library:

- a scale-free backbone grown by preferential attachment;
- edge presence probabilities from Gaussians truncated to (0, 1], higher
  between two planted nodes;
- per-instance edge sampling from those probabilities;
- balanced binary global states, with a class mean shift on planted nodes;
- label noise (each state flipped with probability 0.1) and value noise
  (each planted value redrawn with probability 0.3).

Writes the TSV dataset directory that ``subnetmine.data`` documents, the
planted node list as ``ground_truth.tsv``, and ``truth.npz`` for the output
checks: planted ordinals, labels, node values, and the union edges with
their counts.
"""

from __future__ import annotations

import argparse
import zlib
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

SHIFT = 1.5
LABEL_NOISE = 0.10
VALUE_NOISE = 0.30
PLANTED_EDGE = (0.9, 0.1)
BACKGROUND_EDGE = (0.7, 0.1)


def _truncated_normal(rng, mean, sd, size):
    out = rng.normal(mean, sd, size)
    bad = (out <= 0.0) | (out > 1.0)
    while bad.any():
        out[bad] = rng.normal(mean, sd, int(bad.sum()))
        bad = (out <= 0.0) | (out > 1.0)
    return out


def backbone(rng, n, e):
    """Edge array (E x 2, p < q) of a preferential-attachment graph: a ring of
    e + 1 nodes, then each node attaches to e distinct earlier nodes drawn
    with probability proportional to degree."""
    core = e + 1
    edges = [(v, (v + 1) % core) for v in range(core)]
    pool = np.empty(2 * (core + (n - core) * e), dtype=np.int64)
    pool[: 2 * core] = np.array(edges).ravel()
    filled = 2 * core
    for v in range(core, n):
        targets: set[int] = set()
        while len(targets) < e:
            draws = pool[rng.integers(filled, size=e - len(targets))]
            targets.update(int(t) for t in draws)
        for t in sorted(targets):
            edges.append((t, v))
        block = np.array([[t, v] for t in sorted(targets)]).ravel()
        pool[filled : filled + block.size] = block
        filled += block.size
    pairs = np.sort(np.array(edges, dtype=np.int64), axis=1)
    return np.unique(pairs, axis=0)


def generate(name: str, seed: int, out: Path) -> None:
    spec = WORKLOADS[name]["data"]
    n, m, n_planted, e = spec["n"], spec["m"], spec["planted"], spec["edges_per_node"]
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(name.encode("utf-8"))])
    )

    pairs = backbone(rng, n, e)
    planted = np.sort(rng.choice(n, size=n_planted, replace=False))
    is_planted = np.zeros(n, dtype=bool)
    is_planted[planted] = True
    inside = is_planted[pairs[:, 0]] & is_planted[pairs[:, 1]]
    prob = np.where(
        inside,
        _truncated_normal(rng, *PLANTED_EDGE, len(pairs)),
        _truncated_normal(rng, *BACKGROUND_EDGE, len(pairs)),
    )

    labels = np.zeros(m, dtype=np.int64)
    labels[m // 2 :] = 1
    labels = rng.permutation(labels)
    keep = rng.random((m, len(pairs))) < prob[np.newaxis, :]
    values = rng.normal(0.0, 1.0, (n, m))
    values[np.ix_(planted, labels == 1)] += SHIFT
    labels = np.where(rng.random(m) < LABEL_NOISE, 1 - labels, labels)
    redraw = rng.random((n_planted, m)) < VALUE_NOISE
    block = values[planted]
    block[redraw] = rng.normal(0.0, 1.0, int(redraw.sum()))
    values[planted] = block

    counts = keep.sum(axis=0)
    used = counts > 0
    out.mkdir(parents=True, exist_ok=True)
    np.savez(
        out / "truth.npz",
        planted=planted,
        labels=labels,
        values=values,
        union_pairs=pairs[used],
        union_counts=counts[used],
    )

    node_ids = [f"n{p:05d}" for p in range(n)]
    inst_ids = [f"i{i:05d}" for i in range(m)]
    with open(out / "nodes.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node_id\n" + "".join(f"{p}\n" for p in node_ids))
    with open(out / "ground_truth.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node_id\n" + "".join(f"{node_ids[p]}\n" for p in planted))
    with open(out / "instances.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("instance_id\tglobal_state\n")
        fh.write("".join(f"{i}\t{s}\n" for i, s in zip(inst_ids, labels.tolist())))
    columns = values.T.tolist()
    with open(out / "values.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("instance_id\tnode_id\tvalue\n")
        for inst, column in zip(inst_ids, columns):
            # repr of a float round-trips exactly
            fh.write("".join(f"{inst}\t{p}\t{x!r}\n" for p, x in zip(node_ids, column)))
    pair_text = [f"{node_ids[p]}\t{node_ids[q]}" for p, q in pairs.tolist()]
    with open(out / "edges.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("instance_id\tnode_u\tnode_v\n")
        for inst, row in zip(inst_ids, keep):
            fh.write("".join(f"{inst}\t{pair_text[j]}\n" for j in np.flatnonzero(row).tolist()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
