"""Equilibration analysis: effective dimension, dephased state, and the bound.

The analytic bound on the time-averaged deviation
<|tr(O rho(t)) - tr(O omega)|^2>_tau is compared against a direct
quadrature of the left-hand side. The dephased state omega is always
computed exactly by eigenbasis pinching; quadrature appears only in the
left-hand side, where the integrand is genuinely time dependent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, adjacency
from .spectral import DEGENERACY_TOL, Spectrum, cluster_pairs, eigendecompose, gap_count

LHS_REL_TOL = 1e-4
MAX_HALVINGS = 6


class QuadratureError(RuntimeError):
    """Raised when the lhs quadrature fails to converge; carries the last
    two trapezoid estimates for diagnosis."""

    def __init__(self, message, estimates):
        super().__init__(message)
        self.estimates = tuple(estimates)


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


def _deviation_signal(s: Spectrum, rho0, o):
    """Coefficients c and gaps g with tr(O rho(t)) - tr(O omega) =
    sum c_i e^{-i g_i t}, grouped by distinct-cluster pair."""
    v = s.eigenvectors
    ot = v.T @ np.asarray(o, dtype=float) @ v
    rt = v.T @ np.asarray(rho0, dtype=float) @ v
    w = ot.T * rt  # w[m, n] multiplies e^{-i(lam_m - lam_n) t}
    return cluster_pairs(s, s.cluster_sums(s.cluster_sums(w, axis=0), axis=1))


def _lhs_trapezoid(coeffs, gaps, tau: float, dt: float) -> float:
    t = np.arange(0.0, tau + 0.5 * dt, dt)
    if t[-1] < tau:
        t = np.append(t, tau)
    f = np.exp(-1j * np.outer(t, gaps)) @ coeffs
    g = np.abs(f) ** 2
    return float(np.trapezoid(g, t) / tau)


def empirical_lhs(s: Spectrum, rho0, o, tau: float, dt: float) -> float:
    """Trapezoidal time average of |tr(O rho(t)) - tr(O omega)|^2 over [0, tau].

    The integrand is evaluated exactly from the spectral form of rho(t),
    so dt controls only the quadrature of the time average. The step is
    halved until the estimate changes by less than 1e-4 relative.

    Raises
    ------
    ValueError
        If tau <= 0 or dt > tau/100.
    QuadratureError
        If 6 halvings do not reach the relative tolerance; the exception
        carries the last two estimates.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if dt <= 0 or dt > tau / 100.0:
        raise ValueError(f"dt must satisfy 0 < dt <= tau/100 = {tau / 100.0}")
    coeffs, gaps = _deviation_signal(s, rho0, o)
    # coefficients at rounding-noise scale mean a stationary signal (an
    # eigenstate start, or O commuting with H); quadrature of that noise
    # would report ~1e-30 garbage instead of the exact 0
    noise_floor = 1e-13 * max(
        1e-300, float(np.linalg.norm(o)) * float(np.linalg.norm(rho0))
    )
    if len(coeffs) == 0 or np.max(np.abs(coeffs)) < noise_floor:
        return 0.0
    prev = _lhs_trapezoid(coeffs, gaps, tau, dt)
    for _ in range(MAX_HALVINGS):
        dt *= 0.5
        cur = _lhs_trapezoid(coeffs, gaps, tau, dt)
        denom = max(abs(cur), 1e-300)
        if abs(cur - prev) / denom < LHS_REL_TOL:
            return cur
        prev = cur
    raise QuadratureError(
        f"lhs quadrature did not converge after {MAX_HALVINGS} halvings "
        f"(last estimates {prev!r}, {cur!r})",
        estimates=(prev, cur),
    )


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
    """Assemble the full bound-vs-measurement table for one start node.

    The initial quadrature step for each tau is min(tau/100, 0.02) so the
    fastest gap-difference oscillation is resolved before halving begins.
    """
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
    lhs = np.array(
        [empirical_lhs(s, rho0, o, tau, min(tau / 100.0, 0.02)) for tau in taus]
    )
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
