"""Finite-difference assembly of the infinite-horizon optimal-switching model.

One spatial dimension on (0, DOMAIN_RIGHT) with a homogeneous Dirichlet
condition at the right end. Regime i runs the controlled diffusion at
intensity nu = i/(d-1):

    F_i(u)_l = -a_i(x_l) D2 u^i_l - b_i(x_l) D+ u^i_l + R u^i_l - reward(x_l)

with a_i = (SIGMA_VOL * nu)^2 x^2 / 2 and b_i = (R + nu (MU_DRIFT - R)) x.
SIGMA_VOL, MU_DRIFT, R and DOMAIN_RIGHT are module constants, fixed at the
values of the paper's experiments. Drift is discretized with forward
differences (upwind, since MU_DRIFT >= 0 and R > 0 make b_i >= 0) and
diffusion with central differences, so every row is diagonally dominant with
nonpositive off-diagonals and the assembled map is monotone with constant R.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import AffineSystem, _number

__all__ = ["RewardFunction", "PdeParams", "grid", "probe_index", "reward_values", "assemble"]

SIGMA_VOL = 0.2  # volatility at full intensity
MU_DRIFT = 0.06  # drift at full intensity
R = 0.02  # discount rate, the monotonicity constant gamma
DOMAIN_RIGHT = 2.0  # right end of the domain, where u = 0


@dataclass(frozen=True)
class RewardFunction:
    """Piecewise-linear running reward, zero outside the listed pieces.

    Each piece is a sequence of four entries (lo, hi, slope, intercept),
    each a finite real number, never a bool or a string, with lo < hi; it
    claims the half-open interval (lo, hi]. Pieces must not overlap, though
    one may end where the next begins.
    """

    pieces: tuple = ()

    def __post_init__(self) -> None:
        pieces = []
        for k, raw in enumerate(self.pieces):
            try:
                entries = tuple(raw)
            except TypeError:
                entries = ()
            if len(entries) != 4:
                raise ValueError(f"reward piece {k} is {raw!r}: need four entries "
                                 "(lo, hi, slope, intercept)")
            p = tuple(_number(f"reward piece {k} {name}", x)
                      for name, x in zip(("lo", "hi", "slope", "intercept"), entries))
            if not p[0] < p[1]:
                raise ValueError(f"reward piece {k} is {p}: need lo < hi")
            pieces.append(p)
        pieces = tuple(pieces)
        ordered = sorted(pieces)
        for a, b in zip(ordered, ordered[1:]):
            if b[0] < a[1]:
                raise ValueError(f"reward pieces {a} and {b} overlap")
        object.__setattr__(self, "pieces", pieces)

    @classmethod
    def two_regime(cls) -> "RewardFunction":
        return cls(((0.75, 1.0, -2.0, 2.0),))

    @classmethod
    def three_regime(cls) -> "RewardFunction":
        return cls((
            (0.0, 0.5, -1.0, 0.5),
            (0.5, 1.0, 1.0, -0.5),
            (1.0, 1.5, -1.0, 1.5),
            (1.5, 1.75, 1.0, -1.5),
        ))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for lo, hi, slope, intercept in self.pieces:
            mask = (lo < x) & (x <= hi)
            out[mask] = slope * x[mask] + intercept
        return out


@dataclass(frozen=True)
class PdeParams:
    """Regime count, reward and mesh size; N = 100 is the paper's mesh.

    d and N are integers of at least 2, stored as int."""

    d: int
    reward: RewardFunction
    N: int = 100

    def __post_init__(self) -> None:
        for name in ("d", "N"):
            object.__setattr__(self, name, _number(name, getattr(self, name), 2,
                                                   closed=True, integer=True))

    @property
    def h(self) -> float:
        return DOMAIN_RIGHT / self.N


def grid(params: PdeParams) -> np.ndarray:
    """Nodes x_l = l*h for l = 0..N-1; x = DOMAIN_RIGHT is the Dirichlet ghost."""
    return params.h * np.arange(params.N)


def probe_index(params: PdeParams, x: float) -> int:
    """Index of the grid node at x, a finite number; the probe must sit on the mesh."""
    x = _number("x", x)
    l = int(round(x / params.h))
    if not 0 <= l < params.N or abs(l * params.h - x) > 1e-9:
        raise ValueError(f"probe point {x} is not a grid node (h={params.h})")
    return l


def reward_values(params: PdeParams) -> np.ndarray:
    """The reward evaluated at every grid node."""
    return params.reward(grid(params))


def assemble(params: PdeParams) -> AffineSystem:
    """Build the block-diagonal affine system; every regime earns the same reward.

    The l=0 row degenerates to R*u_0 - reward(0) because both coefficient
    functions vanish at x=0; the last row absorbs the zero Dirichlet ghost.
    The matrix is built as CSR directly: row i*N + l holds its lower,
    diagonal and upper entries at columns i*N + l - 1, i*N + l and
    i*N + l + 1, the ones outside regime i's block and the zero ones left out.
    """
    x = grid(params)
    h, d, n = params.h, params.d, params.N
    nu = np.arange(d)[:, None] / (d - 1)
    a = 0.5 * (SIGMA_VOL * nu * x) ** 2
    b = (R + nu * (MU_DRIFT - R)) * x
    entries = np.zeros((d, n, 3))
    entries[:, 1:, 0] = -a[:, 1:] / h**2
    entries[:, :, 1] = 2.0 * a / h**2 + b / h + R
    entries[:, :-1, 2] = -a[:, :-1] / h**2 - b[:, :-1] / h
    entries = entries.reshape(d * n, 3)
    columns = np.arange(d * n)[:, None] + np.arange(-1, 2)
    stored = entries != 0.0
    indptr = np.append(0, np.cumsum(np.count_nonzero(stored, axis=1)))
    matrix = sp.csr_matrix((entries[stored], columns[stored], indptr), shape=(d * n, d * n))
    rhs = np.tile(reward_values(params), (d, 1))
    return AffineSystem(matrix, rhs, gamma=R)
