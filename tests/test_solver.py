"""Objective assembly, truncated whitening basis and the reduced eigenproblem."""

from __future__ import annotations

import json
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy import linalg, sparse

from helpers import (
    assemble_objective_matrix,
    build_db,
    constraint_from_tuples,
    edge_tuples,
    laplacians,
    network,
    random_db,
    solve_spectral,
    svd_basis,
    top_eigenpairs_by_full_solve,
)
from subnetmine import cli
from subnetmine.data import StateMatrix, build_generalized_network, write_database
from subnetmine.errors import ConfigInvalid, ParseError, SubnetmineError
from subnetmine.solver import (
    ReducedProblem,
    SolverConfig,
    TruncatedBasis,
    _top_eigenpairs,
    load_model,
    model_meta_path,
    reduce_problem,
    save_model,
    topology_term,
    truncated_svd_basis,
)


def pipeline_pieces(seed, n=6, m=10, k=3, edge_prob=0.4, value_loc=4.0):
    """Real affinity/Laplacian/constraint pieces from a random database.

    Values sit above zero so every affinity row sum is positive, which the
    whitening step requires of D+.
    """
    rng = np.random.default_rng(seed)
    db = random_db(rng, n=n, m=m, edge_prob=edge_prob, value_loc=value_loc)
    v = StateMatrix(db.values)
    d_plus, l_tilde = laplacians(db, k)
    c = constraint_from_tuples(n, edge_tuples(build_generalized_network(db)))
    return db, v, d_plus, l_tilde, c


def test_objective_matches_dense_formula():
    for seed in range(4):
        _, v, d_plus, l_tilde, c = pipeline_pieces(seed)
        for alpha in (0.0, 0.5, 2.0):
            a = assemble_objective_matrix(v, l_tilde, c, alpha)
            raw = v.matrix @ l_tilde.toarray() @ v.matrix.T - alpha * c.toarray()
            assert np.allclose(a, (raw + raw.T) / 2.0, atol=1e-12)
            assert np.max(np.abs(a - a.T)) <= 1e-12


def test_objective_zero_laplacian_gives_minus_c():
    _, v, _, _, c = pipeline_pieces(1)
    zero = sparse.csr_array((v.m_cols, v.m_cols))
    a = assemble_objective_matrix(v, zero, c, 1.0)
    assert np.allclose(a, -c.toarray(), atol=1e-15)


def diag_fixture(sigmas):
    n = len(sigmas)
    return StateMatrix(np.diag(np.asarray(sigmas, dtype=np.float64))), np.ones(n)


def test_truncation_energy_rule_on_known_spectrum():
    v, d_plus = diag_fixture([5.0, 3.0, 1.0, 1.0])
    # energy 0.5: sigma_1 alone covers 5/10
    basis = truncated_svd_basis(v, d_plus, 0.5)
    assert basis.r == 1 and np.allclose(basis.sigma_r, [5.0])
    # energy 0.8: need 5+3
    basis = truncated_svd_basis(v, d_plus, 0.8)
    assert basis.r == 2 and np.allclose(basis.sigma_r, [5.0, 3.0])
    for energy in (2.0, 0.0, -1.0, np.nan):
        with pytest.raises(ConfigInvalid):
            truncated_svd_basis(v, d_plus, energy)


def test_truncation_noise_guard_drops_below_average_power():
    # mean squared singular value is 9, so 1.0-energy still stops at rank 2
    v, d_plus = diag_fixture([5.0, 3.0, 1.0, 1.0])
    basis = truncated_svd_basis(v, d_plus, 1.0)
    assert basis.r == 2
    assert np.allclose(basis.sigma_r, [5.0, 3.0])


def test_truncation_flat_spectrum_keeps_everything():
    v, d_plus = diag_fixture([1.0, 1.0])
    basis = truncated_svd_basis(v, d_plus, 0.95)
    assert basis.r == 2
    v, d_plus = diag_fixture([2.0, 2.0, 2.0, 2.0])
    basis = truncated_svd_basis(v, d_plus, 1.0)
    assert basis.r == 4


def test_truncation_rank_one():
    col = np.array([[1.0], [2.0], [-1.0]])
    row = np.array([[3.0, 0.5, 1.0, -2.0]])
    v = StateMatrix(col @ row)
    for energy in (0.3, 0.95, 1.0):
        basis = truncated_svd_basis(v, np.ones(4), energy)
        assert basis.r == 1


def test_truncation_orthonormal_columns():
    for seed, shape in ((0, (5, 8)), (1, (8, 5)), (2, (6, 6))):
        rng = np.random.default_rng(seed)
        v = StateMatrix(rng.normal(size=shape))
        d_plus = rng.random(shape[1]) + 0.1
        basis = truncated_svd_basis(v, d_plus, 0.95)
        eye = basis.p_r.T @ basis.p_r
        assert np.max(np.abs(eye - np.eye(basis.r))) <= 1e-10
        assert np.all(basis.sigma_r > 0)
        assert np.all(np.diff(basis.sigma_r) <= 0)


def planted_spectrum(rng, n, m, sigma, d_plus):
    """V whose V (D+)^{1/2} has exactly the singular values ``sigma``
    (length min(n, m)), with random singular vectors."""
    p, _ = np.linalg.qr(rng.normal(size=(n, sigma.size)))
    w, _ = np.linalg.qr(rng.normal(size=(m, sigma.size)))
    return (p * sigma) @ w.T / np.sqrt(d_plus)


@pytest.mark.parametrize(
    "shape", [(40, 25), (25, 25), (25, 40), (12, 7), (7, 12), (300, 200), (200, 300)]
)
@pytest.mark.parametrize("kind", ["full", "zero_degrees", "duplicated", "floor", "flat"])
def test_gram_basis_matches_svd(shape, kind):
    """Both sides of the m <= n switch against np.linalg.svd: the same r,
    singular values within 1e-12 and whitening columns P_r / sigma_r within
    1e-10 relative after aligning signs.  Duplicated columns make V rank
    deficient; there the Gram's null singular values are rounding noise near
    1e-8 sigma_max, and the Kaiser rule must still cut at the SVD's r.

    The oracle also drops singular values at or below 1e-12 sigma_max; the
    library has no such floor, because Kaiser never keeps them.  "floor"
    plants values just above, at and just below that floor under a decaying
    spectrum, and "flat" gives every value sigma_max (Kaiser's loosest case,
    which keeps all of them; its basis is unique only as a subspace).  The
    same r on both sides shows the floor changes no rank."""
    n, m = shape
    rng = np.random.default_rng(n * m)
    values = rng.normal(size=(n, m)) + 1.5 * rng.normal(size=(n, 1))
    d_plus = rng.random(m) + 0.1
    size = min(n, m)
    if kind == "zero_degrees":
        d_plus[::3] = 0.0
    if kind == "duplicated":
        values[:, m // 2 :] = values[:, : m - m // 2]
        assert np.linalg.matrix_rank(values * np.sqrt(d_plus)) < size
    if kind == "floor":
        tiny = 1e-12 * np.array([1.01, 1.0, 0.99])
        sigma = np.concatenate([np.logspace(0.0, -2.0, size - tiny.size), tiny])
        values = planted_spectrum(rng, n, m, sigma, d_plus)
    if kind == "flat":
        values = planted_spectrum(rng, n, m, np.ones(size), d_plus)
    v = StateMatrix(values)
    for energy in (0.5, 0.95, 1.0):
        want = svd_basis(v, d_plus, energy)
        got = truncated_svd_basis(v, d_plus, energy)
        assert got.r == want.r
        assert np.all(np.abs(got.sigma_r - want.sigma_r) <= 1e-12 * want.sigma_r)
        q_got = got.p_r / got.sigma_r
        q_want = want.p_r / want.sigma_r
        if kind == "flat":  # every value ties: only the span of all of them is fixed
            if energy < 1.0:
                continue
            assert got.r == size
            q_got, q_want = q_got @ q_got.T, q_want @ q_want.T
        else:
            q_got *= np.sign(np.sum(q_got * q_want, axis=0))
        assert np.max(np.abs(q_got - q_want)) <= 1e-10 * np.max(np.abs(q_want))


def test_truncation_errors():
    message = "all singular values vanish; affinity graph is degenerate"
    with pytest.raises(SubnetmineError, match=re.escape(message)):
        truncated_svd_basis(StateMatrix(np.zeros((3, 4))), np.ones(4), 0.95)
    v = StateMatrix(np.eye(3))
    message = (
        "D+ has negative diagonal entries; same-state affinity row sums "
        "must be >= 0 (reduce k or use more training instances)"
    )
    with pytest.raises(SubnetmineError, match=re.escape(message)):
        truncated_svd_basis(v, np.array([1.0, -0.5, 1.0]), 0.95)
    message = "degree diagonal has length (5,), expected (3,)"
    with pytest.raises(SubnetmineError, match=re.escape(message)):
        truncated_svd_basis(v, np.ones(5), 0.95)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(alpha=np.inf)
    with pytest.raises(ValueError):
        SolverConfig(alpha=1.0, energy_fraction=0.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=1.0, energy_fraction=1.5)
    assert SolverConfig(alpha=0.0).energy_fraction == 0.95


def b_matrix(v, d_plus):
    return v.matrix @ np.diag(d_plus) @ v.matrix.T


def test_solve_identity_reduced_problem():
    # with A equal to B every retained eigenvalue is exactly 1
    rng = np.random.default_rng(5)
    v = StateMatrix(rng.normal(size=(4, 7)))
    d_plus = rng.random(7) + 0.2
    a = b_matrix(v, d_plus)
    basis = truncated_svd_basis(v, d_plus, 1.0)
    model = solve_spectral(a, basis, min(2, basis.r))
    assert np.allclose(model.eigenvalues, 1.0, atol=1e-10)


def test_solve_matches_independent_reduction():
    """Cross-check against a from-scratch dense computation of the reduced
    eigenproblem."""
    for seed in range(4):
        _, v, d_plus, l_tilde, c = pipeline_pieces(seed)
        a = assemble_objective_matrix(v, l_tilde, c, 0.7)
        basis = truncated_svd_basis(v, d_plus, 0.95)
        d = min(2, basis.r)
        model = solve_spectral(a, basis, d, alpha=0.7)

        scale = basis.p_r / basis.sigma_r[np.newaxis, :]
        reduced = scale.T @ a @ scale
        reduced = (reduced + reduced.T) / 2.0
        vals, vecs = np.linalg.eigh(reduced)
        assert np.allclose(model.eigenvalues, vals[::-1][:d], atol=1e-9)
        for j in range(d):
            u_ref = scale @ vecs[:, ::-1][:, j]
            got = model.u_matrix[:, j]
            # compare up to the sign fixed by the convention
            flip = 1.0 if abs(got @ u_ref) == pytest.approx(
                np.linalg.norm(got) * np.linalg.norm(u_ref), rel=1e-6
            ) else 0.0
            assert flip == 1.0
            sign = np.sign(got @ u_ref)
            assert np.allclose(got, sign * u_ref, atol=1e-8)


def test_solve_optimality_over_random_directions():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        _, v, d_plus, l_tilde, c = pipeline_pieces(seed, n=5, m=9, k=3)
        a = assemble_objective_matrix(v, l_tilde, c, 0.5)
        basis = truncated_svd_basis(v, d_plus, 0.95)
        model = solve_spectral(a, basis, 1, alpha=0.5)
        w = rng.normal(size=(basis.r, 20000))
        w /= np.linalg.norm(w, axis=0, keepdims=True)
        u = (basis.p_r / basis.sigma_r[np.newaxis, :]) @ w
        quotients = np.einsum("ij,ij->j", u, a @ u)
        assert model.eigenvalues[0] >= quotients.max() - 1e-9


def test_solve_b_normalization_exact():
    for seed in range(5):
        _, v, d_plus, l_tilde, c = pipeline_pieces(seed)
        a = assemble_objective_matrix(v, l_tilde, c, 1.0)
        basis = truncated_svd_basis(v, d_plus, 0.95)
        model = solve_spectral(a, basis, min(2, basis.r), alpha=1.0)
        b = b_matrix(v, d_plus)
        for j in range(model.d):
            u = model.u_matrix[:, j]
            assert abs(u @ b @ u - 1.0) <= 1e-8


def rich_fixture(seed, n=5, m=8):
    """V with singular values (3, 3, 1): the basis keeps exactly rank 2."""
    rng = np.random.default_rng(seed)
    p, _ = np.linalg.qr(rng.normal(size=(n, 3)))
    q, _ = np.linalg.qr(rng.normal(size=(m, 3)))
    v = StateMatrix(p @ np.diag([3.0, 3.0, 1.0]) @ q.T)
    s = rng.normal(size=(n, n))
    return v, np.ones(m), (s + s.T) / 2.0


def test_solve_scaling_linearity():
    v, d_plus, a = rich_fixture(3)
    basis = truncated_svd_basis(v, d_plus, 0.95)
    assert basis.r == 2
    one = solve_spectral(a, basis, 2)
    two = solve_spectral(2.0 * a, basis, 2)
    assert np.allclose(two.eigenvalues, 2.0 * one.eigenvalues, atol=1e-8)
    assert np.allclose(np.abs(two.u_matrix), np.abs(one.u_matrix), atol=1e-8)


def test_solve_sign_convention():
    for seed in range(5):
        _, v, d_plus, l_tilde, c = pipeline_pieces(seed)
        a = assemble_objective_matrix(v, l_tilde, c, 0.3)
        basis = truncated_svd_basis(v, d_plus, 0.95)
        model = solve_spectral(a, basis, min(2, basis.r), alpha=0.3)
        for j in range(model.d):
            col = model.u_matrix[:, j]
            assert col[np.argmax(np.abs(col))] > 0


def test_solve_degenerate_ties_give_an_orthonormal_basis():
    """All three eigenvalues tie: any orthonormal basis of R^3 is optimal,
    and B = I here, so U'U = I is all that U has to satisfy."""
    v = StateMatrix(np.eye(3))
    basis = truncated_svd_basis(v, np.ones(3), 1.0)
    model = solve_spectral(np.eye(3), basis, 3)
    assert np.allclose(model.eigenvalues, 1.0)
    u = model.u_matrix
    assert np.abs(u.T @ u - np.eye(3)).max() <= 1e-12


def test_solve_rank_errors():
    v = StateMatrix(np.eye(3))
    basis = truncated_svd_basis(v, np.ones(3), 1.0)
    with pytest.raises(
        SubnetmineError, match=re.escape("requested d=4 exceeds retained rank r=3")
    ):
        solve_spectral(np.eye(3), basis, 4)
    with pytest.raises(ValueError):
        solve_spectral(np.eye(3), basis, 0)


# rank of the reduced problems below
R = 7


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("d", [1, 2, R - 1, R])
def test_top_eigenpairs_match_the_full_solve(seed, d):
    """A random reduced problem: each model is one scipy eigensolve for the
    top d pairs, and it matches the top d of a full numpy solve."""
    rng = np.random.default_rng(seed)
    p, _ = np.linalg.qr(rng.normal(size=(12, R)))
    basis = TruncatedBasis(p_r=p, sigma_r=np.sort(rng.uniform(0.5, 3.0, R))[::-1])
    s = rng.normal(size=(R, R))
    reduced = (s + s.T) / 2.0
    problem = ReducedProblem(basis, m0=reduced, m1=np.zeros((R, R)), rho0=1.0, rho1=0.0)
    with (
        mock.patch("scipy.linalg.eigh", wraps=linalg.eigh) as top,
        mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as full,
    ):
        model = problem.model(0.0, d)
    assert (top.call_count, full.call_count) == (1, 0)
    eigvals, u = top_eigenpairs_by_full_solve(reduced, basis, d)
    assert np.abs(model.eigenvalues - eigvals).max() <= 1e-10 * np.abs(eigvals).max()
    # the sign convention is applied on both sides, so no column may flip
    assert model.u_matrix.shape == (12, d)
    assert np.abs(model.u_matrix - u).max() <= 1e-10 * np.abs(u).max()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "spectrum, d",
    [
        # pairs d and d + 1 tie, so the top-d eigenspace is not unique
        ((5.0, 3.0, 3.0, 1.0, 0.0, -1.0, -2.0), 2),
        ((5.0, 3.0, 3.0, 3.0, 0.0, -1.0, -2.0), 2),
        # a tie inside the top d, cut off from pair d + 1
        ((4.0, 4.0, 2.0, 1.0, 0.0, -1.0, -3.0), 3),
        ((4.0, 4.0, 4.0, 1.0, 0.0, -1.0, -3.0), 3),
    ],
)
def test_planted_ties_keep_eigenvalues_normalization_and_signs(seed, spectrum, d):
    """The spectrum on the diagonal in shuffled rows, whose eigenvalues are
    exact.  Tied columns may come in any orthonormal basis, so only what
    every optimal basis shares is checked: the eigenvalues, U'BU = I and
    the sign convention."""
    rng = np.random.default_rng(seed)
    basis = TruncatedBasis(
        p_r=np.eye(12)[:, rng.permutation(12)[:R]], sigma_r=rng.uniform(0.5, 3.0, R)
    )
    model = _top_eigenpairs(np.diag(rng.permutation(spectrum)), basis, d, alpha=0.0)
    assert np.array_equal(model.eigenvalues, spectrum[:d])
    u = model.u_matrix
    pu = basis.p_r.T @ u  # U'BU with B = P S^2 P'
    assert np.abs(pu.T @ (basis.sigma_r[:, np.newaxis] ** 2 * pu) - np.eye(d)).max() <= 1e-12
    assert (u[np.argmax(np.abs(u), axis=0), np.arange(d)] > 0).all()


def cli_transform(model, model_node_ids, db, tmp_path):
    """Run `subnetmine transform` on db with model saved under
    model_node_ids; returns (exit code, written d x m coordinates or None)."""
    save_model(model, model_node_ids, tmp_path / "model.tsv")
    write_database(db, tmp_path / "ds")
    out = tmp_path / "embedded.tsv"
    rc = cli.main([
        "transform", str(tmp_path / "ds"), "--model", str(tmp_path / "model.tsv"),
        "--out", str(out),
    ])
    if rc != 0:
        return rc, None
    rows = [ln.split("\t") for ln in out.read_text().splitlines()[1:]]
    return rc, np.array([[float(x) for x in cells[1:]] for cells in rows]).T


def test_transform_standard_basis(tmp_path, capsys):
    rng = np.random.default_rng(8)
    v = StateMatrix(rng.normal(size=(5, 6)))
    basis = truncated_svd_basis(v, np.ones(6), 1.0)
    model = solve_spectral(b_matrix(v, np.ones(6)), basis, 2)
    fake = type(model)(
        u_matrix=np.eye(5)[:, :2], eigenvalues=model.eigenvalues,
        basis=basis, alpha=0.0,
    )
    db = build_db(v.matrix, [0, 1] * 3, [[]] * 6)
    rc, out = cli_transform(fake, db.node_ids, db, tmp_path / "a")
    assert rc == 0
    assert np.array_equal(out, v.matrix[:2, :])
    # a model over a different node count is refused before any projection
    small = build_db(np.zeros((4, 6)), [0, 1] * 3, [[]] * 6)
    rc, out = cli_transform(fake, db.node_ids, small, tmp_path / "b")
    assert rc == 1 and out is None
    assert capsys.readouterr().err.startswith("error:")


def test_transform_duplicate_instances_map_identically(tmp_path):
    rng = np.random.default_rng(2)
    mat = rng.normal(size=(4, 3))
    mat[:, 2] = mat[:, 0]
    db0, v, d_plus, l_tilde, c = pipeline_pieces(0, n=4, m=8)
    a = assemble_objective_matrix(v, l_tilde, c, 0.2)
    basis = truncated_svd_basis(v, d_plus, 0.95)
    model = solve_spectral(a, basis, 1, alpha=0.2)
    db = build_db(mat, [0, 1, 0], [[]] * 3, node_ids=db0.node_ids)
    rc, out = cli_transform(model, db0.node_ids, db, tmp_path)
    assert rc == 0
    assert np.array_equal(out[:, 0], out[:, 2])


def relative_weight(v, l_tilde, c, basis):
    """rho(M0) / rho(M1) from the dense whitened data and topology terms,
    or 1 when the topology term vanishes."""
    q = basis.p_r / basis.sigma_r[np.newaxis, :]
    m0 = q.T @ assemble_objective_matrix(v, l_tilde, c, 0.0) @ q
    m1 = q.T @ c.toarray() @ q
    rho0 = np.max(np.abs(np.linalg.eigvalsh((m0 + m0.T) / 2.0)))
    rho1 = np.max(np.abs(np.linalg.eigvalsh((m1 + m1.T) / 2.0)))
    return rho0 / rho1 if rho1 > 0.0 else 1.0


@pytest.mark.parametrize("edge_prob", [0.4, 0.0])
def test_reduced_problem_matches_dense_oracle(edge_prob):
    """One reduction serves every alpha: each model equals the dense
    assemble + solve at the matching absolute weight."""
    for seed in range(4):
        # values near zero keep several singular directions (r >= 3)
        db, v, d_plus, l_tilde, c = pipeline_pieces(
            seed, n=10, m=16, edge_prob=edge_prob, value_loc=0.5
        )
        basis = truncated_svd_basis(v, d_plus, 0.95)
        assert basis.r >= 3
        d = 2
        ratio = relative_weight(v, l_tilde, c, basis)
        assert (ratio == 1.0) == (edge_prob == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problem = reduce_problem(v, d_plus, l_tilde, build_generalized_network(db), 0.95)
        assert problem.m0.shape == problem.m1.shape == (basis.r, basis.r)
        for alpha in (0.0, 0.5, 2.0, 6.5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = problem.model(alpha, d)
            a = assemble_objective_matrix(v, l_tilde, c, alpha * ratio)
            ref = solve_spectral(a, basis, d, alpha=alpha)
            assert np.all(np.isfinite(got.u_matrix))
            assert np.all(np.isfinite(got.eigenvalues))
            assert got.basis is problem.basis and got.alpha == alpha
            scale = np.linalg.norm(ref.u_matrix)
            assert np.linalg.norm(got.u_matrix - ref.u_matrix) <= 1e-10 * scale
            top = np.max(np.abs(ref.eigenvalues))
            assert np.max(np.abs(got.eigenvalues - ref.eigenvalues)) <= 1e-10 * top


def test_reduce_problem_rank_and_dimension_errors():
    db, v, d_plus, l_tilde, _ = pipeline_pieces(0)
    problem = reduce_problem(v, d_plus, l_tilde, build_generalized_network(db), 0.95)
    r = truncated_svd_basis(v, d_plus, 0.95).r
    assert problem.basis.r == r
    with pytest.raises(
        SubnetmineError, match=re.escape(f"requested d={r + 1} exceeds retained rank r={r}")
    ):
        problem.model(1.0, r + 1)
    for alpha in (-1.0, np.nan, np.inf):
        with pytest.raises(ConfigInvalid):
            problem.model(alpha, 1)


def test_topology_term_without_edges_is_zero_and_alpha_is_used_as_is():
    assert np.array_equal(topology_term(network(5, ()), np.ones((5, 2))), np.zeros((2, 2)))
    db, v, d_plus, l_tilde, _ = pipeline_pieces(0, edge_prob=0.0)
    problem = reduce_problem(v, d_plus, l_tilde, build_generalized_network(db), 0.95)
    assert problem.rho1 == 0.0 and not problem.m1.any()
    base = problem.model(0.0, 1)
    for alpha in (0.5, 6.5):
        got = problem.model(alpha, 1)
        assert got.alpha == alpha
        assert np.array_equal(got.u_matrix, base.u_matrix)


def test_topology_term_isolated_nodes_rank_one_and_psd():
    """Q'CQ against the tuple oracle on graphs whose nodes 0 and n - 1 have
    no edge, for r = 1 and r = 4; M1 stays PSD to 1e-12 rho1."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 30))
        edges = tuple(
            (p, q, float(rng.random()))
            for p in range(1, n - 1)
            for q in range(p + 1, n - 1)
            if rng.random() < 0.3
        )
        g = network(n, edges)
        c = constraint_from_tuples(n, edges)
        assert not topology_term(g, np.eye(n))[[0, -1]].any()
        for r in (1, 4):
            q = rng.normal(size=(n, r))
            got = topology_term(g, q)
            want = q.T @ (c @ q)
            assert got.shape == (r, r) and np.array_equal(got, got.T)
            assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1e-300)
            direct = sum(w * np.outer(q[a] - q[b], q[a] - q[b]) for a, b, w in edges)
            assert np.allclose(got, direct, rtol=0.0, atol=1e-12 * np.abs(direct).max(initial=0.0))
            eigs = np.linalg.eigvalsh(got)
            assert eigs.min() >= -1e-12 * np.abs(eigs).max()


def test_topology_term_cancellation_and_psd_after_reduction():
    """Near-constant columns of Q make deg Q and WQ + W'Q cancel: the error
    stays at rounding of the cancelled terms.  On the Q of real reductions
    M1 is PSD to 1e-12 rho1."""
    rng = np.random.default_rng(7)
    n = 40
    edges = tuple(
        (p, q, float(rng.random())) for p in range(n) for q in range(p + 1, n) if rng.random() < 0.3
    )
    g = network(n, edges)
    deg = np.abs(constraint_from_tuples(n, edges).diagonal()).max()
    for eps in (1e-2, 1e-4, 1e-6):
        q = 1.0 + eps * rng.normal(size=(n, 3))
        b = np.array([q[a] - q[c] for a, c, _ in edges])
        exact = b.T @ (np.array([w for _, _, w in edges])[:, np.newaxis] * b)
        err = np.linalg.norm(topology_term(g, q) - exact)
        assert err <= 1e-12 * deg * np.linalg.norm(q) ** 2
    for seed in range(6):
        db, v, d_plus, l_tilde, _ = pipeline_pieces(seed, n=10, m=16, edge_prob=0.6)
        problem = reduce_problem(v, d_plus, l_tilde, build_generalized_network(db), 0.95)
        assert np.linalg.eigvalsh(problem.m1).min() >= -1e-12 * problem.rho1


def test_model_save_load_round_trip(tmp_path):
    v, d_plus, a = rich_fixture(4)
    basis = truncated_svd_basis(v, d_plus, 0.95)
    model = solve_spectral(a, basis, 2, alpha=1.5)
    ids = [f"g{p}" for p in range(model.u_matrix.shape[0])]
    path = tmp_path / "sub" / "model.tsv"
    save_model(model, ids, path)
    got_ids, got_u = load_model(path)
    assert got_ids == ids
    assert np.array_equal(got_u, model.u_matrix)  # 17 digits round-trip
    meta = json.loads(model_meta_path(path).read_text())  # provenance, not read back
    assert meta["alpha"] == 1.5
    assert meta["d"] == 2
    assert meta["r"] == basis.r
    assert np.allclose(meta["eigenvalues"], model.eigenvalues)
    assert model_meta_path(path).name == "model.tsv.meta.json"


def test_model_load_without_meta(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("node_id\tu_1\na\t0.5\nb\t-1.5\n")
    ids, u = load_model(path)
    assert ids == ["a", "b"]
    assert np.array_equal(u, [[0.5], [-1.5]])


def test_model_load_follows_dataset_line_rules(tmp_path):
    clean = tmp_path / "clean.tsv"
    clean.write_bytes(b"node_id\tu_1\tu_2\na\t0.5\t-1\nb\t2.5\t3e-3\n")
    crlf = tmp_path / "crlf.tsv"
    crlf.write_bytes(b"node_id\tu_1\tu_2\r\na\t0.5\t-1\r\n\r\nb\t2.5\t3e-3\r\n\r\n")
    (clean_ids, clean_u), (ids, u) = load_model(clean), load_model(crlf)
    assert ids == clean_ids == ["a", "b"]
    assert np.array_equal(u, clean_u)


def test_model_load_bad_header(tmp_path):
    path = tmp_path / "m.tsv"
    for header in ("who\tu_1", "node_id", "node_id\tu_2", "node_id\tu_1\tu_3"):
        path.write_text(header + "\na\t0.5\n")
        with pytest.raises(ParseError, match="expected header"):
            load_model(path)
    path.write_text("node_id\tu_1\na\tnan\nb\t0.5\t1.0\n")  # the first bad line wins
    with pytest.raises(ParseError, match="non-finite value: 'nan'") as exc:
        load_model(path)
    assert exc.value.line == 2
    path.write_text("node_id\tu_1\na\t0.5\t1.0\n")
    with pytest.raises(ParseError):
        load_model(path)
    path.write_text("node_id\tu_1\na\t0.5\nb\tbogus\n")
    with pytest.raises(ParseError, match="bogus") as exc:
        load_model(path)
    assert exc.value.line == 3
    path.write_bytes(b"node_id\tu_1\na\t0.5\nb\xff\t1.0\nc\t2.0\n")
    with pytest.raises(ParseError, match="not valid UTF-8") as exc:
        load_model(path)
    assert exc.value.line == 3
