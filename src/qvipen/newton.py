"""Semismooth Newton driver, direct linear solve, and stopping criterion.

Every Newton problem is one function ``linearize(u) -> (G(u), keep,
coupling)``: the residual at u and the slant of G at the same point,
diag(keep) A + C, in the terms of :func:`_slant_band` (``keep`` a (d, N)
row mask of the system matrix A, None for all rows; ``coupling`` the
(d, d, N) per-node block C, None for none). :func:`_newton` calls it
once per iterate, so F and the obstacle are evaluated once per iterate.
:func:`qvipen.core._penalized` builds the penalty's, once per solve, for
:func:`solve_penalized` and, with its first slot frozen, for the sweeps Q_rho
and T_rho.

Inputs are checked once, where they enter: :func:`qvipen.core.field_values`
checks every field, the start and psi among them. Every iterate is then a
(d, N) float array the loop made itself, so the linearizations evaluate F
through the unchecked :meth:`qvipen.core.AffineSystem._apply`, the penalty's
linearization checks nothing either, and the loop takes the sup-norms of its
step, residual and iterate with the unchecked :func:`qvipen.core._sup`,
without the public :func:`qvipen.core.sup_norm`'s coercion and size check.

The iteration is plain undamped Newton on a piecewise-differentiable residual:
solve L[u_k] x = G(u_k), set u_{k+1} = u_k - x, repeat. It stops once
BOTH the relative increment ||x|| / max(||u||, 1) drops below tol AND the
residual sup-norm is at or below residual_tol; the increment rule alone can
declare victory on a stagnating iteration, and the residual check costs one
evaluation that is needed anyway. The iteration count is the number of
updates performed, including the final confirming one. A step with a
non-finite entry fails as a singular slant does.

Every band system is solved as one step on a workspace: a LAPACK band LU
array, a copy of A^T's band in its layout, from which a step writes its
slant's transpose over the LU array, and a node-major right-hand side.
The band layout lives in :class:`_Workspace` alone: :func:`linear_solve`
takes one step on a fresh workspace, and :func:`_slant_band` writes its
slant on one. Each system holds one, allocated at its first Newton solve; a
solve borrows it for its duration, and a solve that finds it taken, nested
in or concurrent with another on the same system, allocates its own.

A slant L is factored as its transpose, L^T = P L' U', by LAPACK's band LU
``gbtrf``, without iterative refinement: that leaves a backward error near
roundoff. Every slant of these monotone problems is row-diagonally dominant
with nonpositive off-diagonals (F's rows, the penalty's, and the obstacle
and QVI rows), so L^T is column-diagonally dominant and Gaussian
elimination on it interchanges no rows. With P = I, L = U'^T L'^T, and
L x = b is two BLAS ``tbsv`` triangular band solves on the held factors,
U'^T first and then L'^T; they replace ``gbtrs``, whose loop over the
pivots makes a BLAS call per column. A factorization that did interchange
rows, as one of an arbitrary :class:`AffineSystem` may, is back-solved by
``gbtrs`` with its pivots instead.

On these problems Newton is policy iteration, which stops when the policy
repeats, so a step whose keep and coupling have the bytes of those of the
slant the array holds is a back-solve on the held factors alone. The
confirming step of a converged solve usually is one, and so is the first
step of a sweep whose policy is the one the sweep before it ended on: 315
of the 630 steps of the ``sweeps`` benchmark op back-solve.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .core import (
    AffineSystem,
    NodeBand,
    PenalizedProblem,
    SolveReport,
    _number,
    _obstacles,
    _penalized,
    _sup,
    as_costs,
    field_values,
)

__all__ = [
    "NewtonConfig",
    "SingularSlant",
    "MaxIterExceeded",
    "linear_solve",
    "solve_root",
    "solve_penalized",
    "solve_obstacle",
]


@dataclass(frozen=True)
class NewtonConfig:
    """Stopping parameters; the defaults are used for every shipped experiment."""

    tol: float = 1e-9
    residual_tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self) -> None:
        for name in ("tol", "residual_tol", "max_iter"):
            object.__setattr__(self, name, _number(name, getattr(self, name), 0,
                                                   integer=name == "max_iter"))


_DEFAULT_CONFIG = NewtonConfig()


class SingularSlant(Exception):
    """Linear solve failed; carries the zero pivot's regime and node when the
    factorization found one, and a Newton solve's last iterate and report."""

    def __init__(self, message, regime=None, node=None):
        super().__init__(message)
        self.iterate = self.report = None
        self.regime = regime
        self.node = node


class MaxIterExceeded(Exception):
    """Newton hit its iteration cap; carries the solve's last iterate and report."""


_gbtrf, _gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), dtype=np.float64)
_tbsv = get_blas_funcs("tbsv", dtype=np.float64)


def linear_solve(op: NodeBand, rhs: np.ndarray) -> np.ndarray:
    """Direct solve of op x = rhs; rhs and x are in regime-major order.

    One step of a fresh :class:`_Workspace` on ``op``: the band's transpose
    is written into its LU array and factored there, so neither ``op`` nor
    ``rhs`` is changed. A zero pivot raises SingularSlant naming its regime
    and node; so does a non-finite x, without them. ``rhs`` must hold one
    finite entry per unknown of ``op``.
    """
    b = np.asarray(rhs, dtype=float)
    if b.size != op.ab.shape[1]:
        raise ValueError(f"rhs has {b.size} entries for {op.ab.shape[1]} unknowns")
    if not np.isfinite(b).all():
        raise ValueError("rhs contains non-finite entries")
    x = _Workspace(op).step(b.reshape(op.d, -1), None, None)
    if not np.isfinite(x).all():
        raise SingularSlant("linear solve produced non-finite entries")
    return x.ravel()


def _transposed(ab: np.ndarray, kl: int, ku: int, top: int = 0) -> np.ndarray:
    """The band of the transpose of the matrix that ``ab`` holds with kl
    diagonals below the main one and ku above, in the storage of widths ku
    below and kl above, as a new Fortran array below ``top`` zero rows:
    row r is row kl + ku - r of ``ab`` shifted by r - kl columns, zeros
    shifted in."""
    out = np.zeros((top + kl + ku + 1, ab.shape[1]), order="F")
    for r in range(kl + ku + 1):
        lo, hi = max(kl - r, 0), ab.shape[1] + min(kl - r, 0)
        out[top + r, lo:hi] = ab[kl + ku - r, lo + r - kl:hi + r - kl]
    return out


class _Workspace:
    """The buffers of the Newton solves on one band ``base``, allocated once.

    For A, the matrix of ``base``, with kl diagonals below the main one and
    ku above, ``lu`` is the Fortran-ordered LAPACK LU array of A^T's widths,
    (kl + 2ku + 1) x dN, its ku fill rows on top. ``columns`` is its
    per-column view, whose element [q, 0] is column q whole as one void
    scalar, and ``transposed`` the same view of a copy of A^T's band in its
    layout, the fill rows zero. ``blocks`` is the per-node view of ``lu``:
    entry [i, j, l] is L^T's at row (j, l), column (i, l), which is where
    :meth:`write` adds C[i, j, l]. ``lower`` is ``lu`` shifted kl + ku
    elements on, in a buffer that much longer: its rows 1 to ku hold the
    multipliers of the unit lower factor. ``rhs`` is the node-major
    right-hand side and ``flat`` its flat view. ``policy`` holds the bytes
    of the keep and coupling of the slant ``lu`` holds factored, None when
    it holds no factorization, and ``ipiv`` its pivots when they interchange
    rows, else None; ``unpivoted`` holds the bytes of the pivots of a
    factorization that interchanges none. A system keeps one for its Newton
    solves; :func:`linear_solve` takes one step on a fresh one, and
    :func:`_slant_band` writes one slant on a fresh one.
    """

    __slots__ = ("base", "lu", "lower", "columns", "blocks", "transposed", "rhs", "flat",
                 "unpivoted", "policy", "ipiv")

    def __init__(self, base: NodeBand):
        self.base = base
        d, kl, ku = base.d, base.kl, base.ku
        rows, size = kl + 2 * ku + 1, base.ab.shape[1]
        buffer = np.zeros(rows * size + kl + ku)
        self.lu = buffer[:rows * size].reshape((rows, size), order="F")
        self.lower = buffer[kl + ku:].reshape((rows, size), order="F")
        column = np.dtype((np.void, self.lu.itemsize * rows))
        self.columns = self.lu.T.view(column)
        self.transposed = _transposed(base.ab, kl, ku, top=ku).T.view(column)
        row, col = self.lu.strides
        # L^T's entry (l*d + j, l*d + i) sits at lu[ku + kl + j - i, l*d + i]
        self.blocks = as_strided(self.lu[ku + kl:], (d, d, size // d), (col - row, row, d * col))
        self.rhs = np.empty((size // d, d))
        self.flat = self.rhs.reshape(-1)
        # the pivots, 0-based in scipy's wrapper, of a factorization that
        # interchanges no rows
        self.unpivoted = np.arange(size, dtype=np.intc).tobytes()
        self.policy = self.ipiv = None

    def write(self, keep, coupling) -> None:
        """Write the transpose of the slant L = diag(keep) A + C, which is
        A^T diag(keep) + C^T, over every entry of ``lu``; ``keep`` and
        ``coupling`` are those of :func:`_slant_band`. In this orientation a
        dropped row of A is a column of A^T, so it is zeroed as one element
        of ``columns``; ``keep.T`` read flat is the mask in ``lu``'s
        node-major column order."""
        self.columns[...] = self.transposed
        if keep is not None:
            np.putmask(self.columns, ~keep.T, np.zeros((), self.columns.dtype))
        if coupling is not None:
            self.blocks += coupling

    def step(self, g: np.ndarray, keep, coupling) -> np.ndarray:
        """L^{-1} g, the Newton step to subtract, a (d, N) view of ``rhs``,
        for the slant L = diag(keep) A + C, ``keep`` a boolean (d, N) mask
        and ``coupling`` a float (d, d, N) block, either None. L^T is
        assembled in ``lu`` and factored by ``gbtrf`` only when its policy
        differs from the held one; then L x = g is solved on the held
        factors, by the ``tbsv`` pair or, after row interchanges, by
        ``gbtrs``. A zero pivot raises SingularSlant naming its regime and
        node; the step is not checked for non-finite entries."""
        self.rhs[...] = g.T
        kl, ku, rhs = self.base.kl, self.base.ku, self.flat
        policy = (None if keep is None else keep.tobytes(),
                  None if coupling is None else coupling.tobytes())
        if policy != self.policy:
            # a factorization that fails is never held
            self.policy = None
            self.write(keep, coupling)
            _, ipiv, info = _gbtrf(self.lu, ku, kl, overwrite_ab=True)
            if info < 0:
                raise ValueError(f"illegal value in argument {-info} of LAPACK's gbtrf")
            if info > 0:  # U[info-1, info-1] is exactly zero; columns are node-major
                node, regime = divmod(info - 1, self.base.d)
                raise SingularSlant(f"factorization failed: zero pivot at regime {regime}, "
                                    f"node {node}", regime=regime, node=node)
            self.policy = policy
            self.ipiv = None if ipiv.tobytes() == self.unpivoted else ipiv
        if self.ipiv is None:
            # L = U'^T L'^T: U'^T y = g, then L'^T x = y, both in place
            x = _tbsv(kl + ku, self.lu, rhs, trans=1, overwrite_x=True)
            x = _tbsv(ku, self.lower, x, lower=1, trans=1, diag=1, overwrite_x=True)
        else:
            # the arguments gbtrf accepted, so info is 0
            x, _ = _gbtrs(self.lu, ku, kl, rhs, self.ipiv, trans=1, overwrite_b=True)
        return x.reshape(self.rhs.shape).T


def _slant_band(system: AffineSystem, keep=None, coupling=None) -> NodeBand:
    """The slant diag(keep) A + C, where A is the system's band.

    ``keep`` is a boolean (d, N) mask of the rows of A to keep (all when
    None), and the float (d, d, N) array ``coupling`` puts C[i, j, l] at row
    (i, l), column (j, l), coupling the components of one node; neither is
    checked, as a linearization makes both. The slant's transpose is
    written as a Newton step writes it, on a fresh :class:`_Workspace`, and
    transposed back: a fresh NodeBand of A's widths.
    """
    base, workspace = system.band, _Workspace(system.band)
    workspace.write(keep, coupling)
    return NodeBand(base.d, base.kl, base.ku, _transposed(workspace.lu[base.ku:], base.ku, base.kl))


def _newton(system: AffineSystem, linearize, initial, cfg: NewtonConfig | None = None):
    cfg = cfg or _DEFAULT_CONFIG
    u = field_values(initial, system.d, system.N, name="initial iterate").copy()
    start = time.perf_counter()
    g, keep, coupling = linearize(u)
    increments: list = []
    residuals = [_sup(g)]
    # dict.pop is atomic, so no two solves ever hold one workspace
    workspace = system.__dict__.pop("_workspace", None) or _Workspace(system.band)
    try:
        for _ in range(cfg.max_iter):
            x = workspace.step(g, keep, coupling)
            step = _sup(x)
            if not math.isfinite(step):
                raise SingularSlant("linear solve produced non-finite entries")
            u = u - x
            g, keep, coupling = linearize(u)
            residuals.append(_sup(g))
            increments.append(step / max(_sup(u), 1.0))
            if increments[-1] < cfg.tol and residuals[-1] <= cfg.residual_tol:
                return u, SolveReport(increments, residuals, time.perf_counter() - start, True)
        raise MaxIterExceeded(f"no convergence in {cfg.max_iter} iterations "
                              f"(residual {residuals[-1]:.3e})")
    except (SingularSlant, MaxIterExceeded) as exc:
        exc.iterate = u
        exc.report = SolveReport(increments, residuals, time.perf_counter() - start, False)
        raise
    finally:
        system.__dict__["_workspace"] = workspace


def _min_rows(f: np.ndarray, constraint: np.ndarray, coupling: np.ndarray):
    """Linearization of min(f, constraint): F's rows where f is the smaller
    branch (ties go to F, the constraint counting as inactive at equality),
    else the constraint's per-node ``coupling`` row."""
    keep = f <= constraint
    return np.minimum(f, constraint), keep, np.where(keep[:, None], 0.0, coupling)


def solve_root(system: AffineSystem, initial, cfg: NewtonConfig | None = None):
    """Solve F(u) = 0: one exact step plus a confirming one."""
    return _newton(system, lambda u: (system._apply(u), None, None), initial, cfg)


def solve_penalized(prob: PenalizedProblem, initial, cfg: NewtonConfig | None = None):
    """Solve the penalized equation."""
    return _newton(prob.system, _penalized(prob), initial, cfg)


def solve_obstacle(system: AffineSystem, psi, initial):
    """Solve min(F(v), v - psi) = 0 for a fixed (d, N) obstacle psi."""
    psi = field_values(psi, system.d, system.N, name="psi")
    identity = np.eye(system.d)[:, :, None]
    return _newton(system, lambda u: _min_rows(system._apply(u), u - psi, identity), initial)


def _solve_qvi(system: AffineSystem, costs, initial, epsilon: float = 0.0,
               cfg: NewtonConfig | None = None):
    """Solve min(F(v), v - M v + epsilon (v - initial)) = 0 from ``initial``.

    At epsilon = 0 this is the QVI itself, and Newton on it is policy
    iteration; for epsilon > 0 it is one time-marching sweep anchored at
    ``initial``. Costs must be positive.
    """
    anchor = field_values(initial, system.d, system.N, name="initial iterate")
    costs = as_costs(costs, system.d)
    diagonal = (1.0 + epsilon) * np.eye(system.d)[:, :, None]
    targets = np.arange(system.d)[:, None]

    def linearize(v):
        obstacle, regimes = _obstacles(v, costs)
        constraint = v - obstacle + epsilon * (v - anchor)
        # (1 + eps) on the diagonal and -1 at the regime switched to
        switch = diagonal - (regimes[:, None] == targets)
        return _min_rows(system._apply(v), constraint, switch)

    return _newton(system, linearize, anchor, cfg)
