"""Core types and residual algebra for switching systems with interconnected obstacles.

A field stacks one value vector per regime, shape (d, N). Regimes couple only
through the intervention operator M_i u = max_{j != i} (u^j - c[i, j]) and, in
the penalized form, through the penalty terms rho * pi(u^j - c[i, j] - u^i).

Fields are plain (d, N) float arrays, taken and returned as such by every
operation and solver; :func:`field_values`, the one reader of a field,
checks its shape and finiteness where it enters the package: the public
operations below check their field, and the private kernels the Newton loop
calls on its own iterates (:meth:`AffineSystem._apply`, the linearization
:func:`_penalized` builds, :func:`_sup`) check nothing.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

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
    "field_values",
    "as_costs",
]


def sup_norm(x) -> float:
    """Largest absolute entry of ``x``."""
    a = np.asarray(x, dtype=float)
    return _sup(a) if a.size else 0.0


def _sup(a: np.ndarray) -> float:
    """Largest absolute entry of ``a``, a nonempty float array, unchecked."""
    return float(np.maximum.reduce(np.abs(a), axis=None))


def _number(name: str, value, low: float = -math.inf, high: float = math.inf, *,
            closed: bool = False, integer: bool = False):
    """``value`` as a float, or as an int when ``integer``, if it is a finite
    real number (an integer when asked, never a bool) between low and high,
    the ends excluded unless ``closed``; otherwise a ValueError naming it.
    A value that is not an integer where one is asked for is named as such
    before its range is."""
    if integer and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        x = int(value) if integer else float(value)
        if math.isfinite(x) and (low <= x <= high if closed else low < x < high):
            return x
    noun = "integer" if integer else "finite number"
    a = "an" if integer else "a"
    if high < math.inf:
        what = f"{a} {noun} in {'[' if closed else '('}{low}, {high}{']' if closed else ')'}"
    elif low == 0:
        what = f"a {'nonnegative' if closed else 'positive'} {noun}"
    elif low > -math.inf:
        what = f"{a} {noun} {'at least' if closed else 'greater than'} {low}"
    else:
        what = f"{a} {noun}"
    raise ValueError(f"{name} must be {what}, got {value!r}")


def field_values(u, d: int | None = None, n: int | None = None, name: str = "u") -> np.ndarray:
    """Return ``u``, the field ``name``, as a finite (d, N) float array, of
    (d, n) when given; a ValueError names the field."""
    v = np.asarray(u, dtype=float)
    if v.ndim != 2:
        raise ValueError(f"{name}: expected a (d, N) matrix, got shape {v.shape}")
    if d is not None and v.shape != (d, n):
        raise ValueError(f"{name}: dimension mismatch: expected {(d, n)}, got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class SwitchingCostMatrix:
    """Pairwise costs c[i, j] >= 0 of switching from regime i to regime j.

    Each entry is a finite real number, never a bool, and each off-diagonal
    one nonnegative; the diagonal ones are meaningless and stored as zero.
    A uniform scalar cost is the common case; build it with :meth:`uniform`.
    """

    costs: np.ndarray

    def __post_init__(self) -> None:
        entries = np.array(self.costs, dtype=object)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"cost matrix must be square, got shape {entries.shape}")
        if entries.shape[0] < 2:
            raise ValueError("cost matrix needs at least two regimes")
        # each entry as given, not through a float cast that reads "0.5" and True
        c = np.zeros(entries.shape)
        for (i, j), x in np.ndenumerate(entries):
            cost = _number(f"costs[{i}, {j}]", x, -math.inf if i == j else 0, closed=True)
            if i != j:
                c[i, j] = cost
        c.flags.writeable = False
        object.__setattr__(self, "costs", c)

    @classmethod
    def uniform(cls, d: int, cost: float) -> "SwitchingCostMatrix":
        """All off-diagonal entries equal to ``cost``, a nonnegative finite
        number, for ``d`` regimes, an integer of at least 2."""
        c = np.full((_number("d", d, 2, closed=True, integer=True),) * 2,
                    _number("cost", cost, 0, closed=True))
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
    """Coerce a scalar, matrix, or SwitchingCostMatrix to a cost matrix of size d.

    A 0-d array is a scalar: its one entry is the uniform cost."""
    if isinstance(costs, SwitchingCostMatrix):
        if costs.d != d:
            raise ValueError(f"cost matrix is {costs.d}x{costs.d}, need {d}x{d}")
        return costs
    # as SwitchingCostMatrix reads it, so a ragged list still fails there by shape
    entries = np.array(costs, dtype=object)
    if entries.ndim == 0:
        return SwitchingCostMatrix.uniform(d, entries.item())
    return as_costs(SwitchingCostMatrix(costs), d)


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

    def __post_init__(self) -> None:
        d = _number("d", self.d, 1, closed=True, integer=True)
        kl = _number("kl", self.kl, 0, closed=True, integer=True)
        ku = _number("ku", self.ku, 0, closed=True, integer=True)
        shape = np.shape(self.ab)
        if len(shape) != 2 or shape[0] != kl + ku + 1 or shape[1] % d:
            raise ValueError(f"ab must be 2-D, with kl + ku + 1 = {kl + ku + 1} rows and a "
                             f"column count that d = {d} divides, got shape {shape}")
        if not np.isfinite(self.ab).all():
            raise ValueError("ab contains non-finite entries")

    @classmethod
    def from_matrix(cls, matrix, d: int) -> "NodeBand":
        """A regime-major square matrix, with d regimes, in node-major band
        storage: ``ab`` is Fortran-ordered, the layout of LAPACK's band
        arrays, and both widths are at least d - 1, so that the band also
        holds every d x d block coupling the components of a node. ``d``
        must be an integer of at least 1."""
        d = _number("d", d, 1, closed=True, integer=True)
        coo = sp.coo_matrix(matrix)
        size = coo.shape[0]
        if coo.shape != (size, size) or size % d:
            raise ValueError(f"need a square matrix of a size that d={d} divides, got {coo.shape}")
        position = _node_major(d, size // d)
        p, q = position[coo.row], position[coo.col]
        kl, ku = int((p - q).max(initial=d - 1)), int((q - p).max(initial=d - 1))
        ab = np.zeros((kl + ku + 1, size), order="F")
        np.add.at(ab, (ku + p - q, q), coo.data)
        return cls(d, kl, ku, ab)

    def tocsr(self) -> sp.csr_matrix:
        """The same matrix as CSR in regime-major order (index i*N + l)."""
        size = self.ab.shape[1]
        m = sp.dia_matrix((self.ab, self.ku - np.arange(self.kl + self.ku + 1)), shape=(size, size))
        position = _node_major(self.d, size // self.d)
        return m.tocsr()[position][:, position]


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
        b = field_values(rhs, name="rhs")
        d, n = b.shape
        if d < 2 or n < 1:
            raise ValueError(f"need at least two regimes and one grid node, got shape {b.shape}")
        a = sp.csr_matrix(matrix, dtype=float, copy=True)
        if a.shape != (d * n, d * n):
            raise ValueError(f"matrix shape {a.shape} does not match field size {d * n}")
        gamma = _number("gamma", gamma, 0)
        # canonical now: scipy would otherwise sort and merge entries in
        # place later, which the read-only arrays below refuse
        a.sum_duplicates()
        if not np.isfinite(a.data).all():
            raise ValueError("matrix contains non-finite entries")
        for array in (a.data, a.indices, a.indptr):
            array.setflags(write=False)
        self.d, self.N = d, n
        self.gamma = gamma
        self.matrix = a
        self.rhs = b.flatten()
        self.rhs.setflags(write=False)
        self._csr = (d * n, d * n, a.indptr, a.indices, a.data)

    def evaluate(self, u) -> np.ndarray:
        """F(u) as a fresh (d, N) array."""
        return self._apply(field_values(u, self.d, self.N))

    def _apply(self, v: np.ndarray) -> np.ndarray:
        """F(v) as a fresh (d, N) array, for a (d, N) float array v, unchecked."""
        # the kernel ``matrix @ x`` ends in, without scipy's dispatch around it
        out = np.zeros(self.rhs.size)
        _sparsetools.csr_matvec(*self._csr, v.ravel(), out)
        out -= self.rhs
        return out.reshape(self.d, self.N)

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
    system's size. ``rho`` must be a nonnegative finite number, never a bool,
    and is stored as a float, so an integer weight solves as its float does.
    """

    system: AffineSystem
    costs: SwitchingCostMatrix
    rho: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", _number("rho", self.rho, 0, closed=True))
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
    return np.minimum(system._apply(v), v - _obstacles(v, costs)[0])


def _penalized(prob: PenalizedProblem, frozen=None, epsilon: float = 0.0):
    """The Newton linearization of the penalized residual, as a function
    ``linearize(v) -> (residual, None, coupling)`` of a (d, N) float array v,
    which it does not check: the coupling is what its slant adds to F's.

    Term [i, j] is rho * pi(w^j - c[i, j] - v^i - epsilon (v^i - w^i)), its
    first slot w being v, or ``frozen`` in the sweeps Q_rho and T_rho. Active
    terms (argument strictly positive) add rho (1 + epsilon) on the (i, l)
    diagonal and, when w is v, -rho at column (j, l); the kink at zero counts
    as inactive. At rho = 0 the residual is F(v) and the slant is F's.

    The coupling is one product: a (d^2, d^2) weight matrix, built here once
    per solve, times the signs of the clamped arguments, which are 1 for an
    active term and 0 otherwise. Row [i, j] of the weights holds -rho at
    [i, j] when w is v, and row [i, i] holds rho (1 + epsilon) at every
    [i, j], j != i. A diagonal entry sums up to d - 1 equal terms, which is
    exact up to three, so for d <= 4 it has the bits of the active count
    times rho (1 + epsilon).
    """
    d, rho = prob.system.d, prob.rho
    apply, cost = prob.system._apply, prob.costs._cost_tensor
    weights = np.zeros((d, d, d, d))
    i, j = np.nonzero(~np.eye(d, dtype=bool))
    weights[i, i, i, j] = rho * (1.0 + epsilon)
    if frozen is None:
        weights[i, j, i, j] = -rho
    weights = weights.reshape(d * d, d * d)

    def linearize(v: np.ndarray):
        w = v if frozen is None else frozen
        f = apply(v)
        # entry [i, j, l] = w[j, l] - c[i, j] - v[i, l]; max(-inf, 0) = 0 drops i == j
        args = w[None, :, :] - cost
        args -= v[:, None, :]
        if epsilon:
            args -= epsilon * (v - w)[:, None, :]
        np.maximum(args, 0.0, out=args)
        penalty = np.add.reduce(args, axis=1)
        penalty *= rho
        f -= penalty
        # sign(0) = 0 keeps the kink inactive
        return f, None, weights.dot(np.sign(args.reshape(d * d, -1))).reshape(args.shape)

    return linearize


def penalized_residual(u, prob: PenalizedProblem) -> np.ndarray:
    """F(u) - rho * sum_{j != i} pi(u^j - c[i, j] - u^i); equals F(u) at rho=0."""
    return _penalized(prob)(field_values(u, prob.system.d, prob.system.N))[0]


def penalized_slant(u, prob: PenalizedProblem) -> sp.csr_matrix:
    """The penalized slant as regime-major CSR."""
    from .newton import _slant_band  # newton imports this module
    v = field_values(u, prob.system.d, prob.system.N)
    return _slant_band(prob.system, *_penalized(prob)(v)[1:]).tocsr()
