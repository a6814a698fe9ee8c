"""Equilibration analysis: effective dimension, dephased state, and the bound.

The walk starts on a node x, rho0 = |x><x|, so every quantity here depends
only on the vectors P_j|x>, segment sums over row x of V. An observable is
diagonal on the nodes, O = diag(o), and is passed as o. The analytic bound
on the time-averaged deviation <|tr(O rho(t)) - tr(O omega)|^2>_tau is
compared against a quadrature of the left-hand side; omega is exact.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import _check_tau_grid
from .eth import _check_observable
from .graphs import Graph, _check_label
from .spectral import DEGENERACY_TOL, Spectrum, _check_positive, gap_count, graph_spectrum

# 32-point Gauss-Legendre integrates e^{i w t} over a panel of length h to
# rounding for every |w| h <= 62 (checked numerically); 50 leaves margin
GL_NODES = 32
GL_PHASE_SPAN = 50.0
# elements in the largest temporary of one block of panels (at least one
# panel per block, so the cap is 32 N_lambda when N_lambda > 512)
BLOCK_ELEMENTS = 2**14
# quadrature nodes a tau grid may need before it is refused up front. The
# count depends only on the horizon and on B = 2 (lam_max - lam_min), at
# most 4 x the largest degree, never on the graph size: no cubic graph hits
# it below tau 4.3e6; C60 hits it near 4.7e6 (lhs 8 s for a node, 13 s for
# position). Grid intervals are not counted: each costs about 65-80 us of
# Python, so 1e5 of them on C60 (tau to 10) take 6.5-8 s (one BLAS thread,
# 2-vCPU x86 machine)
LHS_MAX_NODES = 2**25
# the default horizon grid, shared with the bound command's defaults
TAU_MIN, TAU_MAX, TAU_COUNT = 0.1, 1000.0, 60


def _gauss_legendre(n: int):
    """n-point Gauss-Legendre rule on [0, 1].

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Legendre recurrence. One Newton step on P_n takes them to rounding, and
    the weights 2 / ((1 - x)(1 + x) P_n'(x)^2) follow with P_n' from its
    own recurrence (1e-14 relative at n = 32 against a 50-digit reference).
    """
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(beta, 1) + np.diag(beta, -1))

    def legendre(x):
        # P_n and P_n' by P_{j+1} = ((2j+1) x P_j - j P_{j-1}) / (j+1)
        # and P'_{j+1} = P'_{j-1} + (2j+1) P_j
        p_prev, p, dp_prev, dp = np.ones_like(x), x, np.zeros_like(x), np.ones_like(x)
        for j in range(1, n):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
            dp_prev, dp = dp, dp_prev + (2 * j + 1) * p_prev
        return p, dp

    p, dp = legendre(x)
    x = x - p / dp
    _, dp = legendre(x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    # the rule is symmetric about 0; average away the rounding asymmetry
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    return 0.5 * (x + 1.0), 0.5 * w


def _start_projections(s: Spectrum, start: int) -> np.ndarray:
    """B, N x N_lambda, whose column j is P_j|x> = sum_{m in j} v_m v_m[x]."""
    _check_label(start, s.n, "start")
    v = s.eigenvectors
    return s.cluster_sums(v * v[start - 1], axis=1)


def effective_dimension(s: Spectrum, start: int) -> float:
    """Inverse participation of the start node over the energy eigenspaces,
    d_eff = 1 / sum_j (P_j)_xx^2; (P_j)_xx is the cluster sum of row x of V
    squared, independent of the basis inside each cluster."""
    _check_label(start, s.n, "start")
    return float(1.0 / np.sum(s.cluster_sums(s.eigenvectors[start - 1] ** 2) ** 2))


def time_averaged_state(s: Spectrum, start: int) -> np.ndarray:
    """omega = sum_j P_j |x><x| P_j = B B^T, the exact infinite-time average
    of rho(t) from the start node x."""
    b = _start_projections(s, start)
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


def _deviation_signal(s: Spectrum, start: int, o) -> np.ndarray:
    """Per-cluster symmetric matrix W = B^T diag(o) B, with
    tr(O rho(t)) - tr(O omega) = z^H W z - tr W for z_j = e^{-i lam_j t}:
    W_jl = <x|P_j O P_l|x>. The off-diagonal entries carry the signal, the
    diagonal (the dephased part) cancels against tr W because |z_j| = 1."""
    b = _start_projections(s, start)
    return b.T @ (o[:, None] * b)


def _panel_counts(taus: np.ndarray, levels: np.ndarray, rank: int) -> np.ndarray:
    """Equal panels of length at most GL_PHASE_SPAN / B per grid interval.

    Refuses, before any quadrature, a grid that needs more than
    LHS_MAX_NODES nodes, stating the node count and the largest horizon the
    spectrum allows.
    """
    max_panel = GL_PHASE_SPAN / (2.0 * (levels[-1] - levels[0]))
    tau_limit = LHS_MAX_NODES // GL_NODES * max_panel
    # float until checked: a huge tau would overflow an int count. A step
    # over 2^32 tau_limit is counted as that, so the count stays finite
    steps, cap = np.diff(taus, prepend=0.0), 2.0**32 * tau_limit
    n_panels = np.ceil(np.minimum(steps, cap) / max_panel)
    nodes = GL_NODES * n_panels.sum()
    if nodes > LHS_MAX_NODES:
        raise ValueError(
            f"lhs quadrature too long: {'more than ' if steps.max() > cap else ''}{nodes:.3g} "
            f"nodes over {len(levels)} levels at signal rank {rank}, above the "
            f"budget of {LHS_MAX_NODES} nodes; this spectrum allows tau up to "
            f"about {tau_limit:.3g}"
        )
    return n_panels.astype(int)


def empirical_lhs(s: Spectrum, start: int, o, tau_grid) -> np.ndarray:
    """Time average of |tr(O rho(t)) - tr(O omega)|^2 over [0, tau] for
    every tau in tau_grid, for O = diag(o) and rho0 = |start><start|.

    The signal is f(t) = z^H W z - tr W with z_j = e^{-i lam_j t}. W is
    factored once, W = Q diag(mu) Q^T, dropping eigenvalues at rounding
    level, so f = sum_i mu_i |q_i^T z|^2 - sum_i mu_i: rank 1 for a node
    observable, up to N_lambda for a general one. f^2 holds no frequency
    above B = 2 (lam_max - lam_min), so composite 32-point Gauss-Legendre
    on equal panels of length at most 50/B integrates it to rounding, with
    no step size or convergence test. The integral accumulates interval by
    interval along the grid, so every node is evaluated once.

    Each node phase is split as lam (t0 + h x_k) = lam t0 + lam h x_k: the
    32 x N_lambda offset table is built once per grid interval, and cos
    and sin are taken only at panel starts t0, each computed directly from
    t0 so rounding does not grow along the grid. Angle addition gives cos
    and sin at every node, and two real GEMMs with Q give q_i^T z. Every
    temporary holds a block of about BLOCK_ELEMENTS values.

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
    taus = _check_tau_grid(tau_grid)
    o = _check_observable(o, s.n)
    # a middle entry of the sorted o: np.median would import numpy.ma
    o = o - np.sort(o)[len(o) // 2]
    w = _deviation_signal(s, start, o)
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
    n_panels = _panel_counts(taus, levels, len(mu))
    block = max(1, BLOCK_ELEMENTS // (GL_NODES * n_lev))

    x, weights = _gauss_legendre(GL_NODES)
    out = np.empty(len(taus))
    total = 0.0
    lo = 0.0
    for k, (hi, n) in enumerate(zip(taus, n_panels)):
        h = (hi - lo) / max(n, 1)
        offset = np.multiply.outer(h * x, levels)
        ce, se = np.cos(offset), np.sin(offset)
        for first in range(0, n, block):
            start = np.multiply.outer(lo + h * np.arange(first, min(first + block, n)), levels)
            cs, ss = np.cos(start)[:, None, :], np.sin(start)[:, None, :]
            # cos and sin of every node phase by angle addition
            c = (cs * ce - ss * se).reshape(-1, n_lev)
            sn = (ss * ce + cs * se).reshape(-1, n_lev)
            f = ((c @ q) ** 2 + (sn @ q) ** 2) @ mu - mu.sum()
            total += h * float(np.sum((f.reshape(-1, GL_NODES) ** 2) @ weights))
        out[k] = total / hi
        lo = hi
    return out


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
