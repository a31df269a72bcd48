"""Small builders shared across the test modules."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np
from scipy import sparse

from subnetmine import evaluation, metagraph
from subnetmine.data import GeneralizedNetwork, NetworkDatabase, StateMatrix
from subnetmine.errors import ParseError, SubnetmineError
from subnetmine.metagraph import _cosine_matrix, neighbour_table
from subnetmine.solver import (
    ReducedProblem, SpectralModel, TruncatedBasis, topology_term,
)


def build_db(values, labels, edge_lists, valid=None, node_ids=None) -> NetworkDatabase:
    """Assemble a database from plain arrays.

    values is n x m (column per instance), labels has length m, and
    edge_lists holds one iterable of (p, q) pairs per instance.  Pairs are
    canonicalized (p < q, deduplicated, sorted) the same way the loader
    does it.
    """
    values = np.array(values, dtype=np.float64)
    n, m = values.shape
    valid = np.ones((n, m), dtype=bool) if valid is None else np.array(valid, dtype=bool)
    if node_ids is None:
        node_ids = [f"g{p}" for p in range(n)]
    edges = [sorted({(min(p, q), max(p, q)) for p, q in pairs}) for pairs in edge_lists]
    instance_ids = [f"s{i}" for i in range(m)]
    return with_edges(node_ids, instance_ids, np.array(labels, dtype=int), valid, values, edges)


def with_edges(node_ids, instance_ids, labels, valid, values, edge_lists) -> NetworkDatabase:
    """A database of the given columns whose instance i carries the
    canonical (p, q) pairs of edge_lists[i], given in (p, q) order."""
    blocks = [np.array(list(pairs), dtype=np.intp).reshape(-1, 2) for pairs in edge_lists]
    return NetworkDatabase(
        node_ids=tuple(node_ids),
        instance_ids=tuple(instance_ids),
        labels=labels,
        valid=valid,
        values=values,
        edges=np.concatenate([np.empty((0, 2), dtype=np.intp), *blocks]),
        offsets=np.cumsum([0] + [len(b) for b in blocks], dtype=np.intp),
    )


def template_db(rng, n=8, m=16, edge_prob=0.35) -> NetworkDatabase:
    """Two positive class templates, raised by 7 on opposite node halves.

    Every pairwise cosine stays positive (so affinity row sums do too)
    while the class split contributes a second strong singular direction,
    which a two-column model needs.
    """
    labels = np.tile([0, 1], m // 2 + 1)[:m]
    labels = labels[rng.permutation(m)]
    half = n // 2
    templates = 1.0 + rng.random((n, 2))
    templates[:half, 0] += 7.0
    templates[half:, 1] += 7.0
    values = templates[:, labels] + rng.normal(0.0, 0.4, size=(n, m))
    edge_lists = []
    for i in range(m):
        pairs = [
            (p, q)
            for p in range(n)
            for q in range(p + 1, n)
            if rng.random() < edge_prob
        ]
        edge_lists.append(pairs)
    return build_db(values, labels, edge_lists)


def random_db(rng, n=6, m=10, edge_prob=0.4, null_prob=0.15, value_loc=0.0) -> NetworkDatabase:
    """Random balanced two-class database with null nodes and random edges.

    A positive value_loc pushes all values above zero, which keeps every
    pairwise cosine (and hence every affinity row sum) positive.
    """
    values = rng.normal(loc=value_loc, size=(n, m))
    labels = np.zeros(m, dtype=int)
    labels[m // 2 :] = 1
    labels = labels[rng.permutation(m)]
    valid = rng.random((n, m)) > null_prob
    valid[int(rng.integers(n)), :] = True  # at least one node valid everywhere
    edge_lists = []
    for i in range(m):
        pairs = []
        for p in range(n):
            for q in range(p + 1, n):
                if valid[p, i] and valid[q, i] and rng.random() < edge_prob:
                    pairs.append((p, q))
        edge_lists.append(pairs)
    return build_db(values, labels, edge_lists, valid=valid)


def restrict_instances(db, indices) -> NetworkDatabase:
    """Database over a subset of instances (same node index, given order):
    the oracle for fits that must see training instances only."""
    indices = [int(i) for i in indices]
    return with_edges(
        db.node_ids,
        [db.instance_ids[i] for i in indices],
        db.labels[indices],
        db.valid[:, indices],
        db.values[:, indices],
        [db.instance_edges[i].tolist() for i in indices],
    )


def _read_rows(path: Path, expected_header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield the (line_number, fields) rows of a TSV file, one line at a
    time, after the header (its first non-blank line) is validated."""
    if not path.is_file():
        raise SubnetmineError(f"required file not found: {path}")
    header_seen = False
    # bytes.splitlines ends lines at LF, CR and CRLF, as universal newlines do
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(path, lineno, f"not valid UTF-8 at byte {exc.start + 1}") from None
        if line == "":
            continue
        fields = line.split("\t")
        if not header_seen:  # the first non-blank line
            if fields != expected_header:
                raise ParseError(path, lineno, f"expected header {expected_header}, got {fields}")
            header_seen = True
            continue
        if len(fields) != len(expected_header):
            raise ParseError(
                path, lineno, f"expected {len(expected_header)} fields, got {len(fields)}"
            )
        yield lineno, fields


def load_database_rows(path) -> NetworkDatabase:
    """Row-by-row dataset loader: the oracle for ``data.load_database``.

    Checks one line at a time, in file order, and raises at the first line
    that fails a check.
    """
    root = Path(path)

    ordinal_of: dict[str, int] = {}
    for lineno, (node_id,) in _read_rows(root / "nodes.tsv", ["node_id"]):
        if node_id in ordinal_of:
            raise ParseError(root / "nodes.tsv", lineno, f"duplicate node id {node_id!r}")
        ordinal_of[node_id] = len(ordinal_of)
    n = len(ordinal_of)
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
            np.int64(labels[-1])  # OverflowError outside int64
        except (ValueError, OverflowError):
            raise ParseError(
                root / "instances.tsv", lineno, f"global_state not a 64-bit integer: {state!r}"
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
            raise ParseError(values_path, lineno, f"unknown node id: {node_id!r}")
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
                raise ParseError(edges_path, lineno, f"unknown node id: {node!r}")
        i = instance_order[inst_id]
        p, q = ordinal_of[node_u], ordinal_of[node_v]
        if p == q:
            raise ParseError(edges_path, lineno, f"self-loop on node {node_u!r}")
        if p > q:
            p, q = q, p
        if not (valid[p, i] and valid[q, i]):
            raise ParseError(
                edges_path,
                lineno,
                f"instance {inst_id!r}: edge ({node_u!r}, {node_v!r}) touches a null node",
            )
        if (p, q) in edge_seen[i]:
            raise ParseError(
                edges_path, lineno, f"instance {inst_id!r}: duplicate edge ({node_u!r}, {node_v!r})"
            )
        edge_seen[i].add((p, q))
        edge_lists[i].append((p, q))

    if len(set(labels)) < 2:
        raise SubnetmineError("database must contain at least two distinct global states")

    return with_edges(
        ordinal_of, instance_order, np.array(labels, dtype=int), valid, values,
        [sorted(e) for e in edge_lists],
    )


def network(n: int, edges) -> GeneralizedNetwork:
    """A generalized network from (p, q, w) tuples, p < q, sorted."""
    edges = list(edges)
    return GeneralizedNetwork(
        n=n,
        edges=np.array([(p, q) for p, q, _ in edges], dtype=np.intp).reshape(-1, 2),
        weights=np.array([w for _, _, w in edges], dtype=np.float64),
    )


def edge_tuples(g: GeneralizedNetwork) -> tuple[tuple[int, int, float], ...]:
    """The (p, q, w) rows of a generalized network as Python tuples."""
    p, q = g.edges.T.tolist()
    return tuple(zip(p, q, g.weights.tolist()))


def network_by_counting(db, indices) -> tuple[tuple[int, int, float], ...]:
    """(p, q, w) per union edge of the instances at ``indices``, sorted,
    counted one instance edge at a time: the oracle for
    ``NetworkDatabase.network`` and for a training set's network."""
    counts: dict[tuple[int, int], int] = {}
    for i in indices:
        for p, q in db.instance_edges[i].tolist():
            counts[p, q] = counts.get((p, q), 0) + 1
    return tuple((p, q, c / len(indices)) for (p, q), c in sorted(counts.items()))


def constraint_from_tuples(n: int, edges) -> sparse.csr_array:
    """C, the Laplacian of a network, built from (p, q, w) tuples through
    one flat float64 buffer and a COO sum: the oracle that
    ``solver.topology_term`` is checked against, and the dense C of the
    whitened objective that ``assemble_objective_matrix`` builds."""
    edges = tuple(edges)
    flat = np.fromiter(chain.from_iterable(edges), dtype=np.float64, count=3 * len(edges))
    flat = flat.reshape(-1, 3)
    p = flat[:, 0].astype(np.intp)
    q = flat[:, 1].astype(np.intp)
    w = flat[:, 2]
    rows = np.column_stack((p, q, p, q)).ravel()
    cols = np.column_stack((q, p, p, q)).ravel()
    vals = np.column_stack((-w, -w, w, w)).ravel()
    return sparse.csr_array(sparse.coo_array((vals, (rows, cols)), shape=(n, n)))


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two vectors; 0 if either norm is 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"vector shapes differ: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


@dataclass(frozen=True, eq=False)
class AffinityPair:
    """Symmetric zero-diagonal affinities: same-state and cross-state."""

    a_plus: sparse.csr_array
    a_minus: sparse.csr_array


def nearest_by_argsort(sims: np.ndarray, k: int) -> np.ndarray:
    """m x k: row i holds the k instances most similar to i, by descending
    similarity with ties broken by the lower instance index, from one
    stable argsort per row: the oracle for the library's kNN selection."""
    key = -sims
    np.fill_diagonal(key, np.inf)
    return np.argsort(key, axis=1, kind="stable")[:, :k]


def affinity_pair_by_masks(sims: np.ndarray, labels, k: int) -> AffinityPair:
    """The kNN relation of ``sims`` split by label agreement through dense
    m x m masks, each pair carrying its upper-triangle similarity, and with
    explicit zeros stored: the oracle behind ``laplacian_set_oracle``."""
    m = sims.shape[0]
    member = np.zeros((m, m), dtype=bool)
    member[np.arange(m)[:, np.newaxis], nearest_by_argsort(sims, k)] = True
    linked = member | member.T
    labels = np.asarray(labels)
    same = labels[:, np.newaxis] == labels[np.newaxis, :]

    def as_csr(pair_mask):
        rows, cols = np.nonzero(np.triu(pair_mask, 1))
        vals = sims[rows, cols]
        return sparse.csr_array(
            sparse.coo_array(
                (
                    np.concatenate([vals, vals]),
                    (np.concatenate([rows, cols]), np.concatenate([cols, rows])),
                ),
                shape=(m, m),
            )
        )

    return AffinityPair(a_plus=as_csr(linked & same), a_minus=as_csr(linked & ~same))


def row_sums_in_order(a: sparse.csr_array) -> np.ndarray:
    """Per-row sums of a CSR array, each row's stored entries added one
    after another from 0.0 in CSR order."""
    sums = np.zeros(a.shape[0])
    for i in range(a.shape[0]):
        for value in a.data[a.indptr[i] : a.indptr[i + 1]].tolist():
            sums[i] += value
    return sums


def laplacian(a: sparse.csr_array) -> tuple[np.ndarray, sparse.csr_array]:
    """Degree diagonal and Laplacian L = D - A of a symmetric zero-diagonal
    affinity, by sparse algebra; the degrees are ``row_sums_in_order``."""
    a = sparse.csr_array(a)
    diff = (a - a.T).tocoo()
    if diff.nnz and np.max(np.abs(diff.data)) != 0.0:
        raise ValueError("affinity matrix is not symmetric")
    if np.any(a.diagonal() != 0.0):
        raise ValueError("affinity matrix must have a zero diagonal")
    degrees = row_sums_in_order(a)
    return degrees, sparse.csr_array(sparse.diags_array(degrees) - a)


def laplacian_set_oracle(
    sims: np.ndarray, labels, k: int
) -> tuple[np.ndarray, sparse.csr_array]:
    """(D+, L- - L+) from the argsort kNN, the dense-mask affinities and
    two checked Laplacians: the oracle for ``laplacian_set``."""
    aff = affinity_pair_by_masks(sims, labels, k)
    d_plus, l_plus = laplacian(aff.a_plus)
    _, l_minus = laplacian(aff.a_minus)
    return d_plus, sparse.csr_array(l_minus - l_plus)


def laplacian_set(sims: np.ndarray, labels, k: int) -> tuple[np.ndarray, sparse.csr_array]:
    """The library's (D+, L~) of the kNN relation of the m x m similarity
    ``sims`` over all its instances, 1 <= k < m: ``metagraph.laplacians``
    of a k-column ``neighbour_table``, as a fit on every instance reads it."""
    return metagraph.laplacians(neighbour_table(sims, k), labels, np.arange(sims.shape[0]), k)


def laplacians(db: NetworkDatabase, k: int) -> tuple[np.ndarray, sparse.csr_array]:
    """The library's (D+, L~) over every instance of ``db``, built as a
    reduction builds it."""
    return laplacian_set(_cosine_matrix(StateMatrix(db.values)), db.labels, k)


def split_affinities(l_tilde: sparse.csr_array, labels) -> AffinityPair:
    """A+ and A- read back from L~ = (D- - D+) - A- + A+: its off-diagonal
    entries between agreeing states, and the negated ones between differing
    states, explicit zeros kept."""
    coo = l_tilde.tocoo()
    rows, cols = coo.coords
    labels = np.asarray(labels)
    off = rows != cols
    same = labels[rows] == labels[cols]

    def as_csr(mask, sign):
        return sparse.csr_array(
            sparse.coo_array((sign * coo.data[mask], (rows[mask], cols[mask])), shape=coo.shape)
        )

    return AffinityPair(a_plus=as_csr(off & same, 1.0), a_minus=as_csr(off & ~same, -1.0))


def affinities(db: NetworkDatabase, k: int) -> AffinityPair:
    """The kNN affinity pair over every instance of ``db``, read back from
    the L~ a reduction builds."""
    return split_affinities(laplacians(db, k)[1], db.labels)


def linked_sets(l_tilde: sparse.csr_array) -> list[frozenset[int]]:
    """Per row, the columns of the off-diagonal entries stored in L~."""
    coo = l_tilde.tocoo()
    rows, cols = coo.coords
    out = [set() for _ in range(l_tilde.shape[0])]
    for i, j in zip(rows.tolist(), cols.tolist()):
        if i != j:
            out[i].add(j)
    return [frozenset(row) for row in out]


def symmetric_relation(neighbors) -> list[frozenset[int]]:
    """Per instance, the instances it lists or that list it."""
    out = [set(row) for row in neighbors]
    for i, row in enumerate(neighbors):
        for j in row:
            out[j].add(i)
    return [frozenset(row) for row in out]


def knn_neighborhoods(v_matrix: StateMatrix, k: int) -> list[frozenset[int]]:
    """The instances the library's symmetric kNN relation links to each
    instance, read from the stored pattern of L~."""
    sims = _cosine_matrix(v_matrix)
    return linked_sets(laplacian_set(sims, np.zeros(v_matrix.m_cols), k)[1])


def svd_basis(v: StateMatrix, d_plus: np.ndarray, energy_fraction: float) -> TruncatedBasis:
    """The truncated basis from ``np.linalg.svd`` of V (D+)^{1/2}, cut by the
    energy, Kaiser and 1e-12 rules: the oracle for ``truncated_svd_basis``."""
    p, sigma, _ = np.linalg.svd(v.matrix * np.sqrt(d_plus), full_matrices=False)
    n_above = int(np.count_nonzero(sigma > 1e-12 * sigma[0]))
    total = sigma.sum()
    target = energy_fraction * total
    r_energy = int(np.argmax(np.cumsum(sigma) >= target - 1e-12 * total)) + 1
    power = sigma**2
    n_kaiser = int(np.count_nonzero(power >= power.mean() - 1e-12 * power[0]))
    r = min(r_energy, n_kaiser, n_above)
    return TruncatedBasis(p_r=p[:, :r], sigma_r=sigma[:r])


def unit_cosine(values: np.ndarray) -> np.ndarray:
    """The m x m cosine of the columns as the product of their unit vectors,
    symmetrized, with a zero diagonal and zero rows for zero-norm columns:
    the oracle for ``_cosine_matrix``, which scales V'V instead."""
    norms = np.linalg.norm(values, axis=0)
    unit = values / np.where(norms > 0.0, norms, 1.0)
    unit[:, norms == 0.0] = 0.0
    sims = unit.T @ unit
    sims = (sims + sims.T) / 2.0
    np.fill_diagonal(sims, 0.0)
    return sims


def explicit_x_basis(v: StateMatrix, d_plus: np.ndarray, energy_fraction: float) -> TruncatedBasis:
    """The truncated basis from X = V (D+)^{1/2} formed explicitly: eigh of
    X'X (m <= n) or XX' (m > n), cut by the energy, Kaiser and 1e-12 rules,
    and P_r = X W_r / sigma_r or the eigenvectors of XX'; SubnetmineError
    if every singular value vanishes: the oracle for
    ``truncated_svd_basis``, which reads D K D, D = (D+)^{1/2}, K = V'V, for
    m <= n."""
    x = v.matrix * np.sqrt(d_plus)[np.newaxis, :]
    wide = x.shape[1] > x.shape[0]
    eigvals, eigvecs = np.linalg.eigh(x @ x.T if wide else x.T @ x)
    sigma = np.sqrt(np.maximum(eigvals[::-1], 0.0))
    eigvecs = eigvecs[:, ::-1]
    if sigma[0] <= 0.0:
        raise SubnetmineError("all singular values vanish")
    total = sigma.sum()
    r_energy = int(np.argmax(np.cumsum(sigma) >= energy_fraction * total - 1e-12 * total)) + 1
    power = sigma**2
    r = min(r_energy, int(np.count_nonzero(power >= power.mean() - 1e-12 * power[0])))
    p_r = eigvecs[:, :r] if wide else x @ eigvecs[:, :r] / sigma[:r]
    return TruncatedBasis(p_r=p_r, sigma_r=sigma[:r])


def explicit_x_reduction(
    v: StateMatrix, d_plus: np.ndarray, l_tilde: sparse.csr_array, g: GeneralizedNetwork,
    energy_fraction: float,
) -> ReducedProblem:
    """The reduction over the basis of ``explicit_x_basis``, with the data
    term's V'Q as one product over the n rows: the oracle for
    ``reduce_problem``, whose V'Q for m <= n is K D W_r / sigma_r^2."""
    basis = explicit_x_basis(v, d_plus, energy_fraction)
    z = v.matrix.T @ basis.q
    m0 = z.T @ (l_tilde @ z)
    m0 = (m0 + m0.T) / 2.0
    m1 = topology_term(g, basis.q)
    rho0, rho1 = (float(np.abs(np.linalg.eigvalsh(m)).max()) for m in (m0, m1))
    return ReducedProblem(basis=basis, z=z, m0=m0, m1=m1, rho0=rho0, rho1=rho1)


def assemble_objective_matrix(
    v: StateMatrix, l_tilde: sparse.csr_array, c: sparse.csr_array, alpha: float
) -> np.ndarray:
    """A = V Ltilde V' - alpha C, symmetrized to kill roundoff.

    ``alpha`` is the absolute weight in the units of the node values; this
    dense n x n form is the reference that ``ReducedProblem`` is checked
    against.
    """
    assert l_tilde.shape == (v.m_cols,) * 2 and c.shape == (v.n_rows,) * 2
    mat = v.matrix @ (l_tilde @ v.matrix.T)
    if alpha != 0.0:
        mat = mat - alpha * c.toarray()
    return (mat + mat.T) / 2.0


def solve_spectral(
    a: np.ndarray, basis: TruncatedBasis, d: int, alpha: float = 0.0
) -> SpectralModel:
    """Top-d eigenpairs of the whitened dense objective ``a``, mapped back
    to node space: the oracle for ``ReducedProblem.model``.

    Eigenvalues come out in descending order; each returned column u
    satisfies u' (V D+ V') u = 1 on the retained subspace and has its
    largest-magnitude entry made positive.  ``alpha`` is only recorded on
    the model; it must match the absolute weight used to assemble ``a``.
    """
    reduced = basis.q.T @ (a @ basis.q)
    return fixed_problem((reduced + reduced.T) / 2.0, basis).model(alpha, d)


def fixed_problem(reduced: np.ndarray, basis: TruncatedBasis) -> ReducedProblem:
    """A reduction whose reduced matrix is ``reduced`` at every alpha: no
    topology term, and no training instances in ``z``."""
    zero = np.zeros_like(reduced)
    return ReducedProblem(basis, z=np.empty((0, basis.r)), m0=reduced, m1=zero, rho0=1.0, rho1=0.0)


def top_eigenpairs_by_full_solve(
    reduced: np.ndarray, basis: TruncatedBasis, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, U) of the top d pairs of a symmetric r x r reduced
    matrix from ``np.linalg.eigh`` over all r, in descending order, with the
    largest-magnitude entry of each column made positive: the oracle for
    the top-d solve of ``_top_eigenpairs``."""
    eigvals, eigvecs = np.linalg.eigh(reduced)
    u = basis.q @ eigvecs[:, ::-1][:, :d]
    u *= np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(d)])
    return eigvals[::-1][:d], u


def node_space_scorer(db: NetworkDatabase, eval_cfg, solver_cfg, most_left_out: int):
    """``score(left_out, alphas)`` of ``evaluation._cv_scorer`` computed in
    node space over the run's reductions: per alpha, U =
    ``model(alpha, d).u_matrix`` with its sign convention, LDA trained on
    U'V_train and scored on U'V of each left-out fold: the oracle for the
    scorer, which reads only the reduced coordinates w."""
    labels, v = db.labels, db.values
    d = solver_cfg.d if solver_cfg.d is not None else len(np.unique(labels))
    assignment = evaluation.stratified_folds(labels, eval_cfg.folds, eval_cfg.seed)
    reduce = evaluation._reducer(
        db, eval_cfg.k, solver_cfg.energy_fraction, assignment, most_left_out
    )

    def score(left_out, alphas) -> np.ndarray:
        train = ~np.isin(assignment, left_out)
        problem = reduce(left_out)
        us = [problem.model(alpha, d).u_matrix for alpha in alphas]
        stack = np.stack([u.T @ v[:, train] for u in us])
        clfs = evaluation.train_linear_classifier(stack, labels[train])
        held = [assignment == fold for fold in left_out]
        return np.array([
            [np.mean(clf.predict(u.T @ v[:, fold]) == labels[fold]) for fold in held]
            for u, clf in zip(us, clfs)
        ])

    return score
