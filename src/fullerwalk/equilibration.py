"""Equilibration analysis: effective dimension, dephased state, and the bound.

The walk starts on a node x, rho0 = |x><x|, so every quantity here is read
from the <y|P_j|x>, summed from rows x and y of V for the y it needs: x for
d_eff, the observable's support for the lhs, all N for omega. An observable
is diagonal on the nodes, O = diag(o), and is passed as o. The analytic bound
on the time-averaged deviation <|tr(O rho(t)) - tr(O omega)|^2>_tau is
compared against a quadrature of the left-hand side; omega is exact.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import _check_tau_grid
from .eth import _check_observable, _less_median
from .graphs import Graph, _check_label
from .spectral import DEGENERACY_TOL, Spectrum, _check_positive, gap_count, graph_spectrum

# 32-point Gauss-Legendre integrates e^{i w t} over a panel of length h to
# rounding for every |w| h <= 62 (checked numerically); 50 leaves margin
GL_NODES = 32
GL_PHASE_SPAN = 50.0
# elements in the largest temporary of one block of panels (at least one
# panel per block, so the cap is 32 N_lambda when N_lambda > 512)
BLOCK_ELEMENTS = 2**14
# quadrature nodes a tau grid may need before it is refused up front: 32 on
# each whole panel of length 50 / B below the largest tau, B = 2 (lam_max -
# lam_min) at most 4 x the largest degree, and 32 on one partial panel per
# grid point. The count never depends on the graph size: no cubic graph
# hits it below tau 4.3e6, C60 near 4.7e6 (lhs 7-8 s for a node, 11 s for
# position), and no grid of more than 2^20 points is accepted
LHS_MAX_NODES = 2**25
# the most points a grid may have: each costs one partial panel of GL_NODES nodes
MAX_GRID_POINTS = LHS_MAX_NODES // GL_NODES
# the default horizon grid, shared with the bound command's defaults
TAU_MIN, TAU_MAX, TAU_COUNT = 0.1, 1000.0, 60


def _gauss_legendre(n: int):
    """n-point Gauss-Legendre rule on [0, 1] by Golub-Welsch: the nodes are the
    eigenvalues of the Legendre recurrence's Jacobi matrix, the weights on [-1, 1]
    twice the squared first components of its unit eigenvectors (at n = 32, 2e-16
    absolute and 1e-14 relative off a 50-digit reference)."""
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    w = v[0] ** 2  # halved for [0, 1]
    # the rule is symmetric about 0; average away the rounding asymmetry
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    return 0.5 * (x + 1.0), w


def effective_dimension(s: Spectrum, start: int) -> float:
    """Inverse participation of the start node over the energy eigenspaces,
    d_eff = 1 / sum_j (P_j)_xx^2 = 1 / u(x, x), independent of the basis
    inside each cluster. (P_j)_xx is summed from row x of V alone."""
    _check_label(start, s.n, "start")
    return float(1.0 / np.square(s.cluster_sums(s.eigenvectors[start - 1] ** 2)).sum())


def time_averaged_state(s: Spectrum, start: int) -> np.ndarray:
    """omega = sum_j P_j |x><x| P_j = B B^T, B_yj = <y|P_j|x> over every node y:
    the exact infinite-time average of rho(t) from the start node x."""
    _check_label(start, s.n, "start")
    b = s.cluster_sums(s.eigenvectors * s.eigenvectors[start - 1])
    return b @ b.T


def bound_rhs(
    d_eff: float,
    n_lambda: int,
    n_eps: int,
    op_norm_sq: float,
    epsilon: float,
    tau: float | np.ndarray,
) -> float | np.ndarray:
    """Analytic right-hand side (||O||^2 N(eps)/d_eff)(1 + 8 log2(N_lambda)/(eps tau)),
    elementwise when tau is an array of horizons.

    An eps tau past the float range leaves 1 + 0, right to rounding; where
    another step overflows, the rhs is summed again from logs. A rhs that
    is itself past the float range raises ValueError.
    """
    tau = np.asarray(tau, dtype=float)
    if not np.all(tau > 0):
        raise ValueError("tau must be positive")
    for name, v in zip(("d_eff", "n_lambda", "n_eps", "op_norm_sq", "epsilon"),
                       (d_eff, n_lambda, n_eps, op_norm_sq, epsilon)):
        if v <= 0:
            raise ValueError(f"{name} must be positive, got {v}")
    c = 8.0 * np.log2(n_lambda)
    with np.errstate(over="ignore", divide="ignore"):
        rhs = (op_norm_sq * n_eps / d_eff) * (1.0 + c / (epsilon * tau))
        if not np.all(np.isfinite(rhs)):
            log_scale = np.log(op_norm_sq) + np.log(float(n_eps)) - np.log(d_eff)
            log_term = log_scale + np.log(c) - np.log(epsilon) - np.log(tau)
            rhs = np.where(np.isfinite(rhs), rhs, np.exp(log_scale) + np.exp(log_term))
    if not np.all(np.isfinite(rhs)):
        raise ValueError(
            f"the rhs exceeds the float range at tau {tau.min():.3g}; raise epsilon "
            "or the smallest tau, or lower n_eps"
        )
    return rhs


def operator_norm_sq(o) -> float:
    """||diag(o)||^2 = max |o|^2 for the node function o."""
    o = np.asarray(o, dtype=float)
    return float(np.max(np.abs(_check_observable(o, len(o))))) ** 2


def _check_point_count(count: int) -> None:
    """Refuse a grid of more than MAX_GRID_POINTS points, whatever the spectrum."""
    if count > MAX_GRID_POINTS:
        raise ValueError(
            f"lhs quadrature too long: {GL_NODES * count:.3g} nodes or more, above the budget of "
            f"{LHS_MAX_NODES} nodes; the grid has {count} points, over the {MAX_GRID_POINTS} allowed"
        )


def _panel_lattice(taus: np.ndarray, levels: np.ndarray, rank: int):
    """Panel length h = GL_PHASE_SPAN / B and the whole-panel counts floor(tau / h).

    Refuses up front a grid whose GL_NODES (m_max + len(taus)) nodes, one
    partial panel per tau included, exceed LHS_MAX_NODES, naming what does.
    """
    _check_point_count(len(taus))
    h = GL_PHASE_SPAN / (2.0 * (levels[-1] - levels[0]))
    with np.errstate(over="ignore"):  # counted in float: a huge tau gives inf
        m = np.floor(taus / h)
        nodes = GL_NODES * (m[-1] + len(taus))
    if nodes > LHS_MAX_NODES:
        count = f"{nodes:.3g}" if np.isfinite(nodes) else f"more than {sys.float_info.max:.3g}"
        raise ValueError(
            f"lhs quadrature too long: {count} nodes over {len(levels)} levels at signal "
            f"rank {rank}, above the budget of {LHS_MAX_NODES} nodes; this spectrum allows "
            f"tau up to about {(MAX_GRID_POINTS - len(taus) + 1) * h:.3g}"
        )
    return h, m.astype(int)


def empirical_lhs(s: Spectrum, start: int, o, tau_grid) -> np.ndarray:
    """Time average of |tr(O rho(t)) - tr(O omega)|^2 over [0, tau] for
    every tau in tau_grid, for O = diag(o) and rho0 = |start><start|.

    The signal is f(t) = z^H W z - tr W with z_j = e^{-i lam_j t} and
    W_jl = <x|P_j O P_l|x> = sum_y o_y b_yj b_yl over the support S of o,
    b_yj = <y|P_j|x> summed from rows x and y of V. W is factored once,
    W = Q diag(mu) Q^T, dropping eigenvalues at rounding level, so
    f = sum_i mu_i |q_i^T z|^2 - sum_i mu_i: rank 1 for a node observable,
    up to N_lambda for a general one. f^2 holds no frequency above
    B = 2 (lam_max - lam_min), so 32-point Gauss-Legendre on panels of at
    most h = 50/B is exact to rounding, with no step size or convergence test.

    The panels lie on one lattice: whole panels [j h, (j + 1) h] up to the
    largest tau, summed cumulatively and read at m = floor(tau / h), plus a
    partial panel [m h, tau] per tau; each node is evaluated once. On whole
    panels, cos and sin at each start t0 (taken directly, so rounding does
    not grow along the lattice) reach every node by angle addition with one
    32 x N_lambda offset table of lam h x_k; partial panels take their node
    phases directly. Two real GEMMs with Q then give q_i^T z at every node.

    f is unchanged by o -> o + c, because tr rho(t) = tr omega = 1, but an
    offset c would enter W's diagonal as c (P_j)_xx and cost about
    N_lambda eps c in the subtraction. The median of o is therefore
    removed first: that cancels a common offset and leaves a mostly zero
    node function, such as a node projector's, as it is.

    Raises
    ------
    ValueError
        On a start outside 1..N, an o that is not a finite length-N
        vector, a non-finite, non-positive or non-ascending tau grid, or
        when the grid needs more than LHS_MAX_NODES quadrature nodes.
    """
    _check_label(start, s.n, "start")
    taus = _check_tau_grid(tau_grid)
    o = _check_observable(o, s.n)
    o = _less_median(o)
    rows = np.flatnonzero(o)
    b = s.eigenvectors[rows]  # a copy, so the product is formed in place
    b = s.cluster_sums(np.multiply(b, s.eigenvectors[start - 1], out=b))
    w = b.T @ (o[rows, None] * b)
    del b  # not held through the eigh and the quadrature: 43 MB for position on F3000
    # coefficients at rounding-noise scale mean a stationary signal (O
    # commuting with H, or o zero wherever the walk goes); quadrature of that
    # noise would report ~1e-30 garbage instead of the exact 0. ||rho0|| = 1,
    # so the scale is ||o||
    noise_floor = 1e-13 * max(1e-300, float(np.linalg.norm(o)))
    if np.max(np.abs(w - np.diag(np.diag(w)))) < noise_floor:
        return np.zeros(len(taus))
    mu, q = np.linalg.eigh(w)
    keep = np.abs(mu) > len(mu) * np.finfo(float).eps * np.abs(mu).max()
    mu, q = mu[keep], q[:, keep]
    levels = s.cluster_values()
    n_lev = len(levels)
    h, m = _panel_lattice(taus, levels, len(mu))
    block = max(1, BLOCK_ELEMENTS // (GL_NODES * n_lev))
    x, weights = _gauss_legendre(GL_NODES)
    offset = np.multiply.outer(h * x, levels)
    ce, se = np.cos(offset), np.sin(offset)

    def mean_square(c, sn):  # the rule's mean of f^2 per panel, from cos and sin at its nodes
        f = ((c @ q) ** 2 + (sn @ q) ** 2) @ mu - mu.sum()
        return (f.reshape(-1, GL_NODES) ** 2) @ weights
    # c and sn stay bound until the next block replaces them; freed at once,
    # glibc trims the heap every block and page-faults it back (63k at tau 1e5)
    whole = np.empty(m[-1])
    for first in range(0, m[-1], block):
        t0 = np.multiply.outer(h * np.arange(first, min(first + block, m[-1])), levels)
        cs, ss = np.cos(t0)[:, None, :], np.sin(t0)[:, None, :]
        # cos and sin of every node phase by angle addition
        c = (cs * ce - ss * se).reshape(-1, n_lev)
        sn = (ss * ce + cs * se).reshape(-1, n_lev)
        whole[first:first + block] = mean_square(c, sn)
    lo, part = h * m, np.empty(len(taus))
    for k in range(0, len(taus), block):
        d = taus[k:k + block] - lo[k:k + block]  # partial panel lengths
        phase = np.multiply.outer(lo[k:k + block, None] + d[:, None] * x, levels)
        c, sn = np.cos(phase).reshape(-1, n_lev), np.sin(phase).reshape(-1, n_lev)
        part[k:k + block] = d * mean_square(c, sn)
    return (np.concatenate(([0.0], np.cumsum(h * whole)))[m] + part) / taus


def default_tau_grid() -> np.ndarray:
    """TAU_COUNT logarithmically spaced time horizons spanning the transient
    and the asymptote, [TAU_MIN, TAU_MAX]."""
    return np.logspace(np.log10(TAU_MIN), np.log10(TAU_MAX), TAU_COUNT)


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
        return float(bound_rhs(self.d_eff, self.n_lambda, n_eps, self.operator_norm_sq,
                               self.epsilon, np.inf))  # the rhs as tau -> inf


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
    _check_label(start, g.n_nodes, "start")  # bad input must not cost an eigh
    o = _check_observable(o, g.n_nodes)
    _check_positive(epsilon, "epsilon")
    k = n_eps_override
    if not (k is None or isinstance(k, (int, np.integer)) and k > 0):
        raise ValueError(f"n_eps_override must be a positive integer, got {k!r}")
    if k is not None and k > sys.float_info.max:  # the rhs scales it as a float
        raise ValueError(f"n_eps_override must fit in a float, got {len(str(k))} digits")
    taus = default_tau_grid() if tau_grid is None else _check_tau_grid(tau_grid)
    _check_point_count(len(taus))  # before the eigh
    s = graph_spectrum(g, degeneracy_tol)
    d_eff = effective_dimension(s, start)
    n_eps = gap_count(s, epsilon)
    norm_sq = operator_norm_sq(o)

    n_eps_used = n_eps if n_eps_override is None else n_eps_override
    rhs = bound_rhs(d_eff, s.n_distinct, n_eps_used, norm_sq, epsilon, taus)  # before the lhs
    lhs = empirical_lhs(s, start, o, taus)
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
