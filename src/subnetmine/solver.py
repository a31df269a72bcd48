"""Constrained spectral subspace solver.

Maximizes u' (V Ltilde V' - alpha C) u subject to u' (V D+ V') u = 1.
The n x n right-hand matrix has rank at most min(n, m), so it is inverted
through a truncated SVD V (D+)^{1/2} = P S W' from one Gram eigensolve, cut
by the energy and Kaiser rules (``truncated_svd_basis``, from the cosine's
V'V if m <= n): the retained left singular vectors span the working space
and the problem reduces to an ordinary symmetric eigenproblem

    M = S^{-1} P' A P S^{-1},    u = P S^{-1} w,

whose top eigenpairs give the optimal transformation columns.  Solving the
symmetric reduced form instead of the non-symmetric product keeps the
spectrum real and the normalization u'Bu = ||w||^2 = 1 exact.

With Q = P S^{-1} the reduced matrix splits into a data term and a topology
term, M = M0 - alpha M1 with M0 = (V'Q)' Ltilde (V'Q) and M1 = Q' C Q
(``topology_term``).  Only the final r x r eigensolve depends on alpha, so
a fit runs in two steps: ``reduce_problem`` takes the D+ diagonal and L~ of
``metagraph.laplacians`` and the generalized network, does the
alpha-invariant work once per training set (SVD basis, Q, M0, M1 and their
spectral radii) and returns a ``ReducedProblem``; ``model(alpha, d)`` then
costs one eigensolve per alpha for the top d eigenpairs of the r x r
matrix, and maps only those d columns back to node space through the same
Q.  Within an exactly tied eigenvalue group any orthonormal basis is
equally optimal; U holds the one the solver returns.  Multiplying every
node value by s leaves M0 unchanged but scales M1 by 1/s^2, so an absolute
alpha would mean something different in every unit system.  Alpha is
therefore relative to the data term: the topology weight actually used is
alpha * rho(M0) / rho(M1), rho being the largest absolute eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np
from scipy import linalg, sparse

from .data import (
    GeneralizedNetwork, StateMatrix, TsvFile, floats, value_error, write_json, write_tsv,
)
from .errors import ConfigInvalid, SubnetmineError

# rounding tolerance of both truncation rules (energy and Kaiser), as a
# fraction of the total energy and of the largest squared singular value
_SIGMA_RTOL = 1e-12


def check_alpha(alpha: float) -> None:
    """Reject a topology weight that is negative, infinite or NaN."""
    if not 0.0 <= alpha < np.inf:  # NaN fails too
        raise ConfigInvalid(f"alpha must be finite and nonnegative, got {alpha}")


def _check_energy(energy_fraction: float) -> None:
    if not 0.0 < energy_fraction <= 1.0:
        raise ConfigInvalid(f"energy_fraction must be in (0, 1], got {energy_fraction}")


@dataclass(frozen=True)
class SolverConfig:
    """alpha weights the topology constraint relative to the data term (see
    ``ReducedProblem.model``; 1 means the two terms have equal spectral
    radius in the whitened space); energy_fraction controls the SVD
    truncation; d is the subspace dimension (None = number of distinct
    global states)."""

    alpha: float
    energy_fraction: float = 0.95
    d: int | None = None

    def __post_init__(self):
        check_alpha(self.alpha)
        _check_energy(self.energy_fraction)
        if self.d is not None and self.d < 1:
            raise ConfigInvalid(f"d must be positive, got {self.d}")


@dataclass(frozen=True, eq=False)
class TruncatedBasis:
    """Retained left singular vectors and singular values of V (D+)^{1/2};
    ``vq`` is V'Q if the basis came from V'V."""

    p_r: np.ndarray
    sigma_r: np.ndarray
    vq: np.ndarray | None = None

    @property
    def r(self) -> int:
        return self.sigma_r.size

    @cached_property
    def q(self) -> np.ndarray:
        """Q = P_r S_r^{-1}, n x r: maps reduced coordinates w to u = Q w.
        Built on first use and kept, so one reduction builds it once."""
        return self.p_r / self.sigma_r[np.newaxis, :]


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Transformation matrix U (n x d), its eigenvalues, and the basis used.

    ``alpha`` is the weight the model was requested with; from
    ``ReducedProblem.model`` that is the relative weight.
    """

    u_matrix: np.ndarray
    eigenvalues: np.ndarray
    basis: TruncatedBasis
    alpha: float

    @property
    def d(self) -> int:
        return self.u_matrix.shape[1]


def truncated_svd_basis(
    v: StateMatrix, d_plus: np.ndarray, energy_fraction: float
) -> TruncatedBasis:
    """Left singular vectors and singular values of X = V (D+)^{1/2},
    truncated to the smallest rank whose singular values sum to at least
    ``energy_fraction`` of the total; ``energy_fraction`` outside (0, 1]
    raises ConfigInvalid.

    A noise guard tightens the cut further: components whose squared
    singular value falls below the average squared singular value are
    dropped (Kaiser rule; keeps the basis clear of the noise bulk).  Both
    rules allow a rounding slack of 1e-12 (of the total, and of sigma_max^2).
    Kaiser keeps only sigma_i^2 >= mean - 1e-12 sigma_max^2 >= sigma_max^2
    (1/N - 1e-12), N = min(n, m), so for any N up to 5e11 every kept value
    is at least sigma_max / sqrt(2N) and no floor on tiny values is needed.

    No SVD runs, as nothing needs its right singular vectors: for X n x m,
    m <= n takes eigh(X'X) = W S^2 W' and P_r = X W_r / sigma_r for the kept
    columns only, m > n takes eigh(XX'), whose eigenvectors are P.  For
    m <= n no X is formed: X'X = D K D, D = (D+)^{1/2}, K = V'V
    (``StateMatrix.inner_products``), P_r = V (D W_r / sigma_r), and the
    data term's V'Q = K D W_r / sigma_r^2 is kept.  Then
    sigma = sqrt(max(lambda, 0)) is within about eps sigma_max^2 / sigma_i^2
    relative, at most N eps where Kaiser keeps.  Null directions read near
    1e-8 sigma_max, far below the mean; the Kaiser rule drops them.
    """
    _check_energy(energy_fraction)
    d_plus = np.asarray(d_plus, dtype=np.float64)
    if d_plus.shape != (v.m_cols,):
        raise SubnetmineError(
            f"degree diagonal has length {d_plus.shape}, expected ({v.m_cols},)"
        )
    if np.any(d_plus < 0.0):
        raise SubnetmineError(
            "D+ has negative diagonal entries; same-state affinity row sums "
            "must be >= 0 (reduce k or use more training instances)"
        )
    s = np.sqrt(d_plus)
    x = v.matrix * s[np.newaxis, :] if v.m_cols > v.n_rows else None
    k = v.inner_products() if x is None else None
    eigvals, eigvecs = np.linalg.eigh(x @ x.T if k is None else k * np.multiply.outer(s, s))
    sigma = np.sqrt(np.maximum(eigvals[::-1], 0.0))
    eigvecs = eigvecs[:, ::-1]
    if sigma.size == 0 or sigma[0] <= 0.0:
        raise SubnetmineError("all singular values vanish; affinity graph is degenerate")

    total = sigma.sum()
    cumulative = np.cumsum(sigma)
    target = energy_fraction * total
    r_energy = int(np.argmax(cumulative >= target - _SIGMA_RTOL * total)) + 1
    # Kaiser guard: sigma is descending, so this is a prefix count
    power = sigma**2
    n_kaiser = int(np.count_nonzero(power >= power.mean() - _SIGMA_RTOL * power[0]))
    r = min(r_energy, n_kaiser)
    if k is None:
        return TruncatedBasis(p_r=eigvecs[:, :r].copy(), sigma_r=sigma[:r].copy())
    w = eigvecs[:, :r] * (s[:, np.newaxis] / sigma[:r])  # D W_r / sigma_r, D = diag(s)
    return TruncatedBasis(p_r=v.matrix @ w, sigma_r=sigma[:r].copy(), vq=k @ w / sigma[:r])


def _top_eigenpairs(
    reduced: np.ndarray, basis: TruncatedBasis, d: int, alpha: float
) -> SpectralModel:
    """Top-d eigenpairs of a symmetric r x r reduced matrix in descending
    order, mapped back to node space by ``basis.q`` with the
    largest-magnitude entry of each column made positive."""
    r = basis.r
    if d > r:
        raise SubnetmineError(f"requested d={d} exceeds retained rank r={r}")
    if d < 1:
        raise ConfigInvalid(f"d must be positive, got {d}")
    eigvals, eigvecs = linalg.eigh(reduced, subset_by_index=[r - d, r - 1])
    eigvals = eigvals[::-1]
    u = basis.q @ eigvecs[:, ::-1]
    flip = np.take_along_axis(
        u, np.argmax(np.abs(u), axis=0)[np.newaxis, :], axis=0
    ).ravel()
    u[:, flip < 0] *= -1.0

    return SpectralModel(u_matrix=u, eigenvalues=eigvals, basis=basis, alpha=alpha)


@dataclass(frozen=True, eq=False)
class ReducedProblem:
    """The alpha-invariant part of one fit: the truncated basis (with its Q,
    built once), the whitened data term M0 and topology term M1 (both
    r x r), and their spectral radii.

    rho0 and rho1 are kept apart, not as a ratio, so every weight is
    computed as alpha * rho0 / rho1 with one rounding order.
    """

    basis: TruncatedBasis
    m0: np.ndarray
    m1: np.ndarray
    rho0: float
    rho1: float

    def model(self, alpha: float, d: int) -> SpectralModel:
        """Top-d eigenpairs of M0 - alpha_eff M1, mapped back to node space.

        ``alpha`` is relative: alpha_eff = alpha * rho(M0) / rho(M1), so
        alpha = 1 gives the topology term the same spectral radius as the
        data term in the whitened space, and multiplying every node value by
        s scales U by 1/s and changes nothing else.  Without edges
        (rho(M1) = 0) alpha is used as is.  The result equals the top
        eigenpairs of the whitened dense objective V Ltilde V' - alpha_eff C,
        but no n x n matrix is formed.  A negative, infinite or NaN alpha
        raises ConfigInvalid, as does one so large that alpha_eff or the
        reduced matrix overflows.
        """
        check_alpha(alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            weight = alpha * self.rho0 / self.rho1 if self.rho1 > 0.0 else alpha
            reduced = self.m0 - weight * self.m1
        if not (np.isfinite(weight) and np.isfinite(reduced).all()):
            raise ConfigInvalid(
                f"alpha={alpha} overflows the reduced problem (topology weight {weight:g}); "
                "use a smaller alpha"
            )
        return _top_eigenpairs(reduced, self.basis, d, alpha)


def topology_term(g: GeneralizedNetwork, q: np.ndarray) -> np.ndarray:
    """M1 = Q'CQ, r x r, for q n x r and C the network's Laplacian, never
    formed; ``topology_term(g, np.eye(g.n))`` is C.  ``g.edges`` is documented
    sorted with p < q, so it is the upper triangle W of the adjacency in CSR
    order; CQ = deg Q - WQ - W'Q cancels per node, before Q', as C @ Q did."""
    (rows, cols), w, n = g.edges.T, g.weights, g.n
    upper = sparse.csr_array((w, cols, np.searchsorted(rows, np.arange(n + 1))), shape=(n, n))
    deg = np.bincount(rows, w, minlength=n) + np.bincount(cols, w, minlength=n)
    m1 = q.T @ (deg[:, np.newaxis] * q - upper @ q - upper.T @ q)
    return (m1 + m1.T) / 2.0


def reduce_problem(
    v: StateMatrix, d_plus: np.ndarray, l_tilde: sparse.csr_array, g: GeneralizedNetwork,
    energy_fraction: float,
) -> ReducedProblem:
    """Truncated basis of V (D+)^{1/2} plus the whitened terms M0 and M1 of
    the D+ diagonal ``d_plus``, the m x m L~ and the generalized network."""
    basis = truncated_svd_basis(v, d_plus, energy_fraction)
    q = basis.q
    z = v.matrix.T @ q if basis.vq is None else basis.vq
    m0 = z.T @ (l_tilde @ z)
    m0 = (m0 + m0.T) / 2.0
    m1 = topology_term(g, q)
    rho0 = float(np.abs(np.linalg.eigvalsh(m0)).max())
    rho1 = float(np.abs(np.linalg.eigvalsh(m1)).max())
    return ReducedProblem(basis=basis, m0=m0, m1=m1, rho0=rho0, rho1=rho1)


# ---------------------------------------------------------------------------
# model serialization


def model_meta_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".meta.json")


def _model_header(d: int) -> list[str]:
    return ["node_id", *(f"u_{j + 1}" for j in range(d))]


def save_model(model: SpectralModel, node_ids: tuple[str, ...], path) -> None:
    """TSV of per-node transformation coefficients plus a JSON sidecar of
    provenance (alpha, d, r, eigenvalues) that ``load_model`` does not read."""
    rows = zip(node_ids, model.u_matrix.tolist())
    cells = ((node_id, *(f"{x:.17g}" for x in u)) for node_id, u in rows)
    write_tsv(path, _model_header(model.d), cells)
    meta = {
        "alpha": float(model.alpha),
        "d": model.d,
        "r": model.basis.r,
        "eigenvalues": [float(x) for x in model.eigenvalues],
    }
    write_json(model_meta_path(path), meta)


def load_model(path) -> tuple[list[str], np.ndarray]:
    """Read a model TSV; returns (node_ids, U).

    The file follows the dataset file rules of ``data.TsvFile``; its header
    is node_id, u_1 .. u_d with d >= 1 and every cell is a finite float.
    Raises SubnetmineError for a missing file, ParseError for the first
    bad line.
    """
    tsv = TsvFile(Path(path), lambda width: _model_header(max(width - 1, 1)))
    node_ids, *columns = tsv.columns(
        partial(np.array, dtype=object), *[floats] * (len(tsv.header) - 1)
    )
    tsv.raise_first(
        [~np.isfinite(column) for column in columns],
        lambda err, node_id, *cells: tuple(value_error(err, cell) for cell in cells),
    )
    return node_ids.tolist(), np.column_stack(columns)
