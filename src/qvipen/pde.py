"""Finite-difference assembly of the infinite-horizon optimal-switching model.

One spatial dimension on (0, 2) with a homogeneous Dirichlet condition at the
right end. Regime i runs the controlled diffusion at intensity nu = i/(d-1):

    F_i(u)_l = -a_i(x_l) D2 u^i_l - b_i(x_l) D+ u^i_l + r u^i_l - reward(x_l)

with a_i = (sigma_vol * nu)^2 x^2 / 2 and b_i = (r + nu (mu_drift - r)) x.
Drift is discretized with forward differences (upwind, since b_i >= 0 here)
and diffusion with central differences, so every row is diagonally dominant
with nonpositive off-diagonals and the assembled map is monotone with
constant r.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import AffineSystem

__all__ = ["RewardFunction", "PdeParams", "grid", "probe_index", "reward_values", "assemble"]


@dataclass(frozen=True)
class RewardFunction:
    """Piecewise-linear running reward, zero outside the listed pieces.

    Each piece is (lo, hi, slope, intercept), four finite numbers with
    lo < hi, and claims the half-open interval (lo, hi]; pieces must not
    overlap, though one may end where the next begins.
    """

    name: str
    pieces: tuple = ()

    def __post_init__(self) -> None:
        pieces = tuple(tuple(map(float, p)) for p in self.pieces)
        for k, p in enumerate(pieces):
            if len(p) != 4 or not np.all(np.isfinite(p)) or not p[0] < p[1]:
                raise ValueError(
                    f"reward piece {k} is {p}: need four finite numbers "
                    "(lo, hi, slope, intercept) with lo < hi"
                )
        ordered = sorted(pieces)
        for a, b in zip(ordered, ordered[1:]):
            if b[0] < a[1]:
                raise ValueError(f"reward pieces {a} and {b} overlap")
        object.__setattr__(self, "pieces", pieces)

    @classmethod
    def two_regime(cls) -> "RewardFunction":
        return cls("two-regime", ((0.75, 1.0, -2.0, 2.0),))

    @classmethod
    def three_regime(cls) -> "RewardFunction":
        return cls(
            "three-regime",
            (
                (0.0, 0.5, -1.0, 0.5),
                (0.5, 1.0, 1.0, -0.5),
                (1.0, 1.5, -1.0, 1.5),
                (1.5, 1.75, 1.0, -1.5),
            ),
        )

    @classmethod
    def custom(cls, pieces) -> "RewardFunction":
        return cls("custom", pieces)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for lo, hi, slope, intercept in self.pieces:
            mask = (lo < x) & (x <= hi)
            out[mask] = slope * x[mask] + intercept
        return out


@dataclass(frozen=True)
class PdeParams:
    """Model and mesh parameters; defaults are the shipped benchmark values."""

    d: int
    reward: RewardFunction
    sigma_vol: float = 0.2
    mu_drift: float = 0.06
    r: float = 0.02
    N: int = 100
    domain_right: float = 2.0

    def __post_init__(self) -> None:
        for name in ("d", "N"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.d < 2:
            raise ValueError(f"need at least two regimes, got d={self.d}")
        if self.N < 2:
            raise ValueError(f"need at least two grid nodes, got N={self.N}")
        if not (self.sigma_vol > 0 and self.r > 0 and self.domain_right > 0):
            raise ValueError("sigma_vol, r, and domain_right must be positive")

    @property
    def h(self) -> float:
        return self.domain_right / self.N


def grid(params: PdeParams) -> np.ndarray:
    """Nodes x_l = l*h for l = 0..N-1; x = domain_right is the Dirichlet ghost."""
    return params.h * np.arange(params.N)


def probe_index(params: PdeParams, x: float) -> int:
    """Index of the grid node at x; the probe must sit on the mesh."""
    l = int(round(x / params.h))
    if not 0 <= l < params.N or abs(l * params.h - x) > 1e-9:
        raise ValueError(f"probe point {x} is not a grid node (h={params.h})")
    return l


def reward_values(params: PdeParams) -> np.ndarray:
    """The reward evaluated at every grid node."""
    return params.reward(grid(params))


def assemble(params: PdeParams) -> AffineSystem:
    """Build the block-diagonal affine system; every regime earns the same reward.

    The l=0 row degenerates to r*u_0 - reward(0) because both coefficient
    functions vanish at x=0; the last row absorbs the zero Dirichlet ghost.
    """
    x = grid(params)
    h = params.h
    blocks = []
    for i in range(params.d):
        nu = i / (params.d - 1)
        a = 0.5 * (params.sigma_vol * nu * x) ** 2
        b = (params.r + nu * (params.mu_drift - params.r)) * x
        diag = 2.0 * a / h**2 + b / h + params.r
        lower = -a[1:] / h**2
        upper = -a[:-1] / h**2 - b[:-1] / h
        blocks.append(sp.diags([lower, diag, upper], [-1, 0, 1]))
    matrix = sp.block_diag(blocks, format="csr")
    rhs = np.tile(reward_values(params), (params.d, 1))
    return AffineSystem(matrix, rhs, gamma=params.r)
