"""Core types and residual algebra for switching systems with interconnected obstacles.

A field stacks one value vector per regime, shape (d, N). Regimes couple only
through the intervention operator M_i u = max_{j != i} (u^j - c[i, j]) and, in
the penalized form, through the penalty terms rho * pi(u^j - c[i, j] - u^i).

Fields are plain (d, N) float arrays, taken and returned as such by every
operation and solver; :func:`field_values` is the one shape check on input.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SwitchingCostMatrix",
    "NodeBand",
    "AffineSystem",
    "PenalizedProblem",
    "SolveReport",
    "sup_norm",
    "a_priori_bound",
    "qvi_residual",
    "penalized_residual",
    "penalized_slant",
    "slant_band",
    "field_values",
    "as_costs",
]


def sup_norm(x) -> float:
    """Largest absolute entry of ``x``."""
    a = np.asarray(x, dtype=float)
    return float(np.abs(a).max()) if a.size else 0.0


def field_values(u, d: int | None = None, n: int | None = None) -> np.ndarray:
    """Return ``u`` as a (d, N) float array, checking dimensions when given."""
    v = np.asarray(u, dtype=float)
    if v.ndim != 2:
        raise ValueError(f"expected a (d, N) matrix, got shape {v.shape}")
    if d is not None and v.shape != (d, n):
        raise ValueError(f"dimension mismatch: expected {(d, n)}, got {v.shape}")
    return v


@dataclass(frozen=True)
class SwitchingCostMatrix:
    """Pairwise costs c[i, j] >= 0 of switching from regime i to regime j.

    Diagonal entries are meaningless and stored as zero. A uniform scalar cost
    is the common case; build it with :meth:`uniform`.
    """

    costs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.costs, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"cost matrix must be square, got shape {c.shape}")
        if c.shape[0] < 2:
            raise ValueError("cost matrix needs at least two regimes")
        if not np.all(np.isfinite(c)):
            raise ValueError("cost matrix contains non-finite entries")
        np.fill_diagonal(c, 0.0)
        if np.any(c < 0.0):
            raise ValueError("switching costs must be nonnegative")
        c.flags.writeable = False
        object.__setattr__(self, "costs", c)

    @classmethod
    def uniform(cls, d: int, cost: float) -> "SwitchingCostMatrix":
        """All off-diagonal entries equal to ``cost``."""
        c = np.full((d, d), float(cost))
        np.fill_diagonal(c, 0.0)
        return cls(c)

    @property
    def d(self) -> int:
        return self.costs.shape[0]

    @property
    def min_cost(self) -> float:
        """Smallest off-diagonal cost."""
        off = self.costs[~np.eye(self.d, dtype=bool)]
        return float(off.min())

    @property
    def is_positive(self) -> bool:
        return self.min_cost > 0.0

    @functools.cached_property
    def _cost_tensor(self) -> np.ndarray:
        """Read-only (d, d, 1) tensor of c[i, j] with +inf at i == j: for a
        finite field v, ``v[None] - _cost_tensor`` holds v^j - c[i, j] at
        [i, j] and -inf where j == i, so no regime switches to itself."""
        c = self.costs.copy()
        np.fill_diagonal(c, np.inf)
        c = c[:, :, None]
        c.setflags(write=False)
        return c


def as_costs(costs, d: int) -> SwitchingCostMatrix:
    """Coerce a scalar, matrix, or SwitchingCostMatrix to a cost matrix of size d."""
    if isinstance(costs, SwitchingCostMatrix):
        if costs.d != d:
            raise ValueError(f"cost matrix is {costs.d}x{costs.d}, need {d}x{d}")
        return costs
    if np.isscalar(costs):
        return SwitchingCostMatrix.uniform(d, float(costs))
    return as_costs(SwitchingCostMatrix(np.asarray(costs)), d)


@dataclass(frozen=True)
class NodeBand:
    """A slant in LAPACK band storage over node-major unknowns (index l*d + i).

    ``ab[ku + p - q, q]`` holds entry (p, q), with ``kl`` diagonals below the
    main one and ``ku`` above. The assembled models couple a node only to
    itself and its mesh neighbours, so in this order their slants have
    bandwidth d.
    """

    d: int
    kl: int
    ku: int
    ab: np.ndarray

    @classmethod
    def from_matrix(cls, matrix, d: int) -> "NodeBand":
        """A regime-major square matrix, with d regimes, in node-major band storage."""
        coo = sp.coo_matrix(matrix)
        size = coo.shape[0]
        if coo.shape != (size, size) or size % d:
            raise ValueError(f"need a square matrix of a size that d={d} divides, got {coo.shape}")
        position = _node_major(d, size // d)
        p, q = position[coo.row], position[coo.col]
        kl, ku = int((p - q).max(initial=0)), int((q - p).max(initial=0))
        ab = np.zeros((kl + ku + 1, size))
        np.add.at(ab, (ku + p - q, q), coo.data)
        return cls(d, kl, ku, ab)

    def tocsr(self) -> sp.csr_matrix:
        """The same matrix as CSR in regime-major order (index i*N + l)."""
        size = self.ab.shape[1]
        m = sp.dia_matrix((self.ab, self.ku - np.arange(self.kl + self.ku + 1)), shape=(size, size))
        position = _node_major(self.d, size // self.d)
        return m.tocsr()[position][:, position]


@functools.lru_cache(maxsize=None)
def _diagonal_block(d: int) -> np.ndarray:
    """Read-only eye(d)[:, :, None]: ``_diagonal_block(d) * x[:, None]`` puts
    x[i, l] at [i, i, l] of a (d, d, N) per-node block."""
    eye = np.eye(d)[:, :, None]
    eye.setflags(write=False)
    return eye


@functools.lru_cache(maxsize=16)
def _coupling_index(d: int, n: int, ku: int) -> np.ndarray:
    """Read-only (d, d, N) flat index into a C-ordered band of d*N columns
    and ku upper diagonals: entry [i, j, l] addresses row (i, l), column (j, l)."""
    i, j = np.indices((d, d))[:, :, :, None]
    index = (ku + i - j) * (d * n) + np.arange(n) * d + j
    index.setflags(write=False)
    return index


@functools.lru_cache(maxsize=16)
def _row_index(kl: int, ku: int, size: int) -> np.ndarray:
    """Read-only (kl + ku + 1, size) index r + q into a row mask padded with
    ku entries on top: band entry [r, q] lies on node-major row q + r - ku."""
    index = np.arange(kl + ku + 1)[:, None] + np.arange(size)
    index.setflags(write=False)
    return index


def _node_major(d: int, n: int) -> np.ndarray:
    """Node-major index l*d + i of each regime-major index i*N + l."""
    return np.arange(d * n).reshape(n, d).T.ravel()


class AffineSystem:
    """The model F(u) = A vec(u) - b, with vec regime-major (index i*N + l).

    ``matrix`` is A as CSR and ``rhs`` is b as a flat vector, both copied,
    read-only and finite; ``gamma`` is the monotonicity constant, the linear
    growth rate of F at argmax components (property-tested rather than
    inferred). ``band`` is A as a node-major :class:`NodeBand`, built once;
    the Newton drivers build every slant on it.
    """

    def __init__(self, matrix, rhs, gamma: float):
        b = field_values(rhs)
        d, n = b.shape
        if d < 2 or n < 1:
            raise ValueError(f"need at least two regimes and one grid node, got shape {b.shape}")
        a = sp.csr_matrix(matrix, dtype=float, copy=True)
        if a.shape != (d * n, d * n):
            raise ValueError(f"matrix shape {a.shape} does not match field size {d * n}")
        if not (np.isfinite(gamma) and gamma > 0):
            raise ValueError(f"gamma must be positive, got {gamma}")
        # canonical now: scipy would otherwise sort and merge entries in
        # place later, which the read-only arrays below refuse
        a.sum_duplicates()
        for name, values in (("matrix", a.data), ("rhs", b)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} contains non-finite entries")
        for array in (a.data, a.indices, a.indptr):
            array.setflags(write=False)
        self.d, self.N = d, n
        self.gamma = float(gamma)
        self.matrix = a
        self.rhs = b.flatten()
        self.rhs.setflags(write=False)

    def evaluate(self, u) -> np.ndarray:
        """F(u) as a (d, N) array."""
        v = field_values(u, self.d, self.N)
        return (self.matrix @ v.ravel() - self.rhs).reshape(self.d, self.N)

    @functools.cached_property
    def norm_F0(self) -> float:
        """Sup-norm of F(0) = -b."""
        return sup_norm(self.rhs)

    @functools.cached_property
    def band(self) -> NodeBand:
        """A as a read-only node-major NodeBand."""
        band = NodeBand.from_matrix(self.matrix, self.d)
        band.ab.setflags(write=False)
        return band


@dataclass(frozen=True)
class PenalizedProblem:
    """A system together with switching costs and a penalty weight.

    The penalty is pi(y) = max(y, 0). ``costs`` may be a scalar, a matrix or
    a SwitchingCostMatrix; it is stored as a SwitchingCostMatrix of the
    system's size.
    """

    system: AffineSystem
    costs: SwitchingCostMatrix
    rho: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.rho) and self.rho >= 0):
            raise ValueError(f"penalty weight must be nonnegative, got {self.rho}")
        object.__setattr__(self, "costs", as_costs(self.costs, self.system.d))


@dataclass
class SolveReport:
    """Iteration record of a solve.

    ``increments`` holds the relative increments
    ||u_k - u_{k-1}|| / max(||u_k||, 1) per iteration; ``residuals`` the
    residual sup-norm before the first and after every iteration.
    """

    increments: list
    residuals: list
    elapsed_seconds: float
    converged: bool

    @property
    def iterations(self) -> int:
        """The number of Newton updates performed."""
        return len(self.increments)


def a_priori_bound(system: AffineSystem) -> float:
    """The uniform solution bound ||F(0)|| / gamma."""
    return system.norm_F0 / system.gamma


def _obstacles(v: np.ndarray, costs: SwitchingCostMatrix):
    """``(M, regimes)``: M_i v and its maximizing regime for every i, each (d, N)."""
    cand = v[None, :, :] - costs._cost_tensor
    # argmax returns the first hit, so ties go to the lowest regime
    return cand.max(axis=1), cand.argmax(axis=1)


def qvi_residual(u, system: AffineSystem, costs) -> np.ndarray:
    """min(F_i(u), u^i - M_i u) per regime and node.

    Only defined for strictly positive switching costs; the zero-cost problem
    degenerates and must go through the penalized path instead.
    """
    v = field_values(u, system.d, system.N)
    costs = as_costs(costs, system.d)
    if not costs.is_positive:
        raise ValueError(
            "switching residual needs strictly positive costs; "
            "use the penalized or zero-cost path for c = 0"
        )
    return np.minimum(system.evaluate(v), v - _obstacles(v, costs)[0])


def _penalized(u, prob: PenalizedProblem):
    """``(residual, coupling)``: the penalized residual at u and the coupling
    its slant adds to F's, for :func:`slant_band`.

    Active terms (argument strictly positive) add +rho on the (i, l) diagonal
    and -rho at column (j, l); the kink at zero counts as inactive. At rho = 0
    the residual is F(u) and the coupling None.
    """
    v = field_values(u, prob.system.d, prob.system.N)
    f = prob.system.evaluate(v)
    if prob.rho == 0.0:
        return f, None
    # entry [i, j, l] = v[j, l] - c[i, j] - v[i, l]; max(-inf, 0) = 0 drops i == j
    args = v[None, :, :] - prob.costs._cost_tensor - v[:, None, :]
    active = args > 0.0
    count = _diagonal_block(v.shape[0]) * active.sum(axis=1)[:, None]
    return f - prob.rho * np.maximum(args, 0.0).sum(axis=1), prob.rho * (count - active)


def penalized_residual(u, prob: PenalizedProblem) -> np.ndarray:
    """F(u) - rho * sum_{j != i} pi(u^j - c[i, j] - u^i); equals F(u) at rho=0."""
    return _penalized(u, prob)[0]


def slant_band(system: AffineSystem, keep=None, coupling=None) -> NodeBand:
    """The slant diag(keep) A + C, where A is the system's band.

    ``keep`` is a (d, N) mask of the rows of A to keep (all when None), and
    the (d, d, N) array ``coupling`` puts C[i, j, l] at row (i, l), column
    (j, l), coupling the components of one node. Returns a fresh NodeBand.
    """
    d, n = system.d, system.N
    base = system.band
    ab = base.ab
    if keep is not None:
        rows = np.concatenate([np.zeros(base.ku), np.ravel(keep, order="F"), np.zeros(base.kl)])
        ab = ab * rows[_row_index(base.kl, base.ku, d * n)]
    kl, ku = max(base.kl, d - 1), max(base.ku, d - 1)
    out = np.zeros((kl + ku + 1, d * n))
    out[ku - base.ku:ku + base.kl + 1] = ab
    if coupling is not None:
        out.reshape(-1)[_coupling_index(d, n, ku)] += coupling
    return NodeBand(d, kl, ku, out)


def penalized_slant(u, prob: PenalizedProblem) -> sp.csr_matrix:
    """The penalized slant as regime-major CSR."""
    v = field_values(u, prob.system.d, prob.system.N)
    return slant_band(prob.system, coupling=_penalized(v, prob)[1]).tocsr()
