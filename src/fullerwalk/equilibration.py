"""Equilibration analysis: effective dimension, dephased state, and the bound.

The analytic bound on the time-averaged deviation
<|tr(O rho(t)) - tr(O omega)|^2>_tau is compared against a direct
quadrature of the left-hand side. The dephased state omega is always
computed exactly by eigenbasis pinching; quadrature appears only in the
left-hand side, where the integrand is genuinely time dependent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _check_tau_grid
from .graphs import Graph, adjacency
from .spectral import DEGENERACY_TOL, Spectrum, eigendecompose, gap_count

# 32-point Gauss-Legendre integrates e^{i w t} over a panel of length h to
# rounding for every |w| h <= 62 (checked numerically); 50 leaves margin
GL_NODES = 32
GL_PHASE_SPAN = 50.0
# panels evaluated per block: the largest temporary is 256 x n_lambda
PANEL_BLOCK = 8


def effective_dimension(s: Spectrum, rho0) -> float:
    """Inverse participation of rho0 over the energy eigenspaces.

    d_eff = 1 / sum_n tr(P_n rho0)^2. Equals 1 for an eigenstate and the
    number of levels for uniform weights; tr(P_n rho0) is the cluster sum
    of diag(V^T rho0 V), independent of the basis inside each cluster.
    """
    rho0 = np.asarray(rho0, dtype=float)
    tr = float(np.trace(rho0))
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"rho0 must have unit trace, got {tr}")
    v = s.eigenvectors
    weights = s.cluster_sums(np.sum(v * (rho0 @ v), axis=0))
    return float(1.0 / np.sum(weights**2))


def time_averaged_state(s: Spectrum, rho0) -> np.ndarray:
    """omega = sum_n P_n rho0 P_n, the exact infinite-time average of rho(t):
    the same-cluster blocks of V^T rho0 V, rotated back."""
    v = s.eigenvectors
    rt = v.T @ np.asarray(rho0, dtype=float) @ v
    return v @ (rt * s.same_cluster()) @ v.T


def bound_rhs(
    d_eff: float,
    n_lambda: int,
    n_eps: int,
    op_norm_sq: float,
    epsilon: float,
    tau: float,
) -> float:
    """Analytic right-hand side (||O||^2 N(eps)/d_eff)(1 + 8 log2(N_lambda)/(eps tau))."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if min(d_eff, n_lambda, n_eps, op_norm_sq, epsilon) <= 0:
        raise ValueError("all bound ingredients must be positive")
    return (op_norm_sq * n_eps / d_eff) * (1.0 + 8.0 * np.log2(n_lambda) / (epsilon * tau))


def operator_norm_sq(o) -> float:
    """Largest singular value squared of a real symmetric observable."""
    return float(np.max(np.abs(np.linalg.eigvalsh(np.asarray(o, dtype=float)))) ** 2)


def _deviation_signal(s: Spectrum, rho0, o) -> np.ndarray:
    """Per-cluster matrix w with zero diagonal such that
    tr(O rho(t)) - tr(O omega) = sum_jl w[j, l] cos((lam_j - lam_l) t);
    w is symmetric for real symmetric O and rho0, so the signal is real."""
    v = s.eigenvectors
    ot = v.T @ np.asarray(o, dtype=float) @ v
    rt = v.T @ np.asarray(rho0, dtype=float) @ v
    w = ot.T * rt  # w[m, n] multiplies e^{-i(lam_m - lam_n) t}
    w = s.cluster_sums(s.cluster_sums(w, axis=0), axis=1)
    np.fill_diagonal(w, 0.0)
    return w


def empirical_lhs(s: Spectrum, rho0, o, tau_grid) -> np.ndarray:
    """Time average of |tr(O rho(t)) - tr(O omega)|^2 over [0, tau] for
    every tau in tau_grid, for real symmetric O and rho0.

    The signal is an exact finite cosine sum over level differences, so its
    square holds no frequency above B = 2 (lam_max - lam_min). Composite
    32-point Gauss-Legendre on equal panels of length at most 50/B
    integrates it to rounding, with no step size or convergence test. The
    integral is accumulated interval by interval along the grid, so every
    node is evaluated once.

    Raises
    ------
    ValueError
        On a non-finite, non-positive or non-ascending tau grid.
    """
    taus = _check_tau_grid(tau_grid)
    w = _deviation_signal(s, rho0, o)
    # coefficients at rounding-noise scale mean a stationary signal (an
    # eigenstate start, or O commuting with H); quadrature of that noise
    # would report ~1e-30 garbage instead of the exact 0
    noise_floor = 1e-13 * max(
        1e-300, float(np.linalg.norm(o)) * float(np.linalg.norm(rho0))
    )
    if np.max(np.abs(w)) < noise_floor:
        return np.zeros(len(taus))
    levels = s.cluster_values()
    max_panel = GL_PHASE_SPAN / (2.0 * (levels[-1] - levels[0]))
    x, weights = np.polynomial.legendre.leggauss(GL_NODES)
    x, weights = 0.5 * (x + 1.0), 0.5 * weights  # rule on [0, 1]

    out = np.empty(len(taus))
    total, lo = 0.0, 0.0
    for k, hi in enumerate(taus):
        n_panels = math.ceil((hi - lo) / max_panel)
        h = (hi - lo) / max(n_panels, 1)
        for first in range(0, n_panels, PANEL_BLOCK):
            starts = lo + h * np.arange(first, min(first + PANEL_BLOCK, n_panels))
            phase = np.outer(starts[:, None] + h * x, levels)
            cos, sin = np.cos(phase), np.sin(phase)
            f = np.sum((cos @ w) * cos + (sin @ w) * sin, axis=1)
            total += h * float(np.sum((f * f).reshape(-1, GL_NODES) @ weights))
        out[k] = total / hi
        lo = hi
    return out


def default_tau_grid() -> np.ndarray:
    """60 logarithmically spaced time horizons spanning the transient and
    the asymptote, [0.1, 1e3]."""
    return np.logspace(np.log10(0.1), 3.0, 60)


@dataclass(frozen=True)
class EquilibrationReport:
    """All ingredients of the bound next to the measured left-hand side.

    n_eps is always the value computed from the spectrum under the
    pairwise-gap definition; if n_eps_override is not None the rhs column
    was evaluated with the override instead (reported, never silent).
    """

    d_eff: float
    n_lambda: int
    n_eps: int
    epsilon: float
    operator_norm_sq: float
    tau_grid: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    n_eps_override: int | None = None
    start: int | None = None

    @property
    def rhs_asymptote(self) -> float:
        n_eps = self.n_eps if self.n_eps_override is None else self.n_eps_override
        return self.operator_norm_sq * n_eps / self.d_eff


def equilibration_report(
    g: Graph,
    start: int,
    o,
    tau_grid=None,
    epsilon: float = 1.0,
    n_eps_override: int | None = None,
    degeneracy_tol: float = DEGENERACY_TOL,
) -> EquilibrationReport:
    """Assemble the full bound-vs-measurement table for one start node."""
    s = eigendecompose(adjacency(g), degeneracy_tol=degeneracy_tol)
    if not (1 <= start <= s.n):
        raise ValueError(f"start must be in 1..{s.n}, got {start}")
    o = np.asarray(o, dtype=float)
    rho0 = np.zeros((s.n, s.n))
    rho0[start - 1, start - 1] = 1.0

    d_eff = effective_dimension(s, rho0)
    n_eps = gap_count(s, epsilon)
    norm_sq = operator_norm_sq(o)
    taus = default_tau_grid() if tau_grid is None else np.asarray(tau_grid, dtype=float)

    n_eps_used = n_eps if n_eps_override is None else n_eps_override
    lhs = empirical_lhs(s, rho0, o, taus)
    rhs = np.array(
        [bound_rhs(d_eff, s.n_distinct, n_eps_used, norm_sq, epsilon, tau) for tau in taus]
    )
    return EquilibrationReport(
        d_eff=d_eff,
        n_lambda=s.n_distinct,
        n_eps=n_eps,
        epsilon=epsilon,
        operator_norm_sq=norm_sq,
        tau_grid=taus,
        lhs=lhs,
        rhs=rhs,
        n_eps_override=n_eps_override,
        start=start,
    )
