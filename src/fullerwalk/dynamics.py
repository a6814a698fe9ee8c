"""Walk evolution and time-averaged transition probabilities.

Evolution is always spectral: amplitudes are rotated by e^{-i lam_k t} in
the eigenbasis, never by series-expanding the matrix exponential. Time
averages use the exact closed form, with the oscillatory cross terms
grouped by degeneracy-cluster pair so exactly degenerate levels dephase
into the limiting distribution instead of leaving spurious slow terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import _check_label
from .spectral import Spectrum

# (tau, pair) values evaluated at once by cumulative_time_average
TIME_AVERAGE_BLOCK = 2**16


@dataclass(frozen=True)
class WalkState:
    """Amplitude vector of the walker at a fixed time (2-norm 1)."""

    amplitudes: np.ndarray
    time: float


@dataclass(frozen=True)
class LimitingDistribution:
    """Row-stochastic matrix u with u[x-1, y-1] the long-time average
    probability of finding the walker at node y after starting at x."""

    u: np.ndarray

    @property
    def n(self) -> int:
        return self.u.shape[0]

    def row(self, x: int) -> np.ndarray:
        _check_label(x, self.n, "x")
        return self.u[x - 1, :]

    def value(self, x: int, y: int) -> float:
        _check_label(x, self.n, "x")
        _check_label(y, self.n, "y")
        return float(self.u[x - 1, y - 1])


def _check_tau_grid(tau_grid) -> np.ndarray:
    taus = np.asarray(tau_grid, dtype=float)
    if taus.ndim != 1 or len(taus) == 0:
        raise ValueError("tau_grid must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(taus) & (taus > 0)):
        raise ValueError("all tau values must be finite and positive")
    if np.any(np.diff(taus) < 0):
        raise ValueError("tau_grid must be ascending")
    return taus


def evolve(s: Spectrum, start: int, t: float) -> WalkState:
    """Amplitudes alpha_y(t) = sum_k e^{-i lam_k t} <y|lam_k><lam_k|start>."""
    _check_label(start, s.n, "start")
    overlaps = s.eigenvectors[start - 1, :]  # <lam_k|start>, real basis
    phases = np.exp(-1j * s.eigenvalues * float(t))
    amps = s.eigenvectors @ (phases * overlaps)
    return WalkState(amplitudes=amps, time=float(t))


def node_probability(s: Spectrum, start: int, end: int, t: float) -> float:
    """|<end|e^{-iHt}|start>|^2."""
    _check_label(end, s.n, "end")
    state = evolve(s, start, t)
    return float(np.abs(state.amplitudes[end - 1]) ** 2)


def cumulative_time_average(s: Spectrum, start: int, end: int, tau_grid) -> np.ndarray:
    """Exact running time average of the transition probability.

    For each tau in tau_grid returns
    (1/tau) int_0^tau |<end|e^{-iHt}|start>|^2 dt, evaluated in closed form:
    the diagonal (same-cluster) part is the limiting value u(start, end) and
    every distinct-cluster pair (j, l) contributes s_j s_l times
    (e^{-i g tau} - 1)/(-i g tau) with g = lam_j - lam_l. The coefficients
    are symmetric and the gaps antisymmetric in (j, l), so the imaginary
    parts cancel and the average is the real sum
    u(start, end) + sum_{j<l} 2 s_j s_l sin(g tau)/(g tau), evaluated as
    one product over blocks of about 2^16 (tau, pair) values.

    Raises
    ------
    ValueError
        On a non-finite, non-positive or non-ascending tau grid.
    """
    _check_label(start, s.n, "start")
    _check_label(end, s.n, "end")
    taus = _check_tau_grid(tau_grid)

    # per-cluster sums s_j = sum_{k in C_j} <end|lam_k><lam_k|start>
    sums = s.cluster_sums(s.eigenvectors[end - 1, :] * s.eigenvectors[start - 1, :])
    stationary = float(np.sum(sums**2))
    j, l = np.triu_indices(s.n_distinct, 1)
    coeff = 2.0 * sums[j] * sums[l]
    levels = s.cluster_values()
    gap = levels[j] - levels[l]

    out = np.empty(len(taus))
    step = max(1, TIME_AVERAGE_BLOCK // max(len(gap), 1))
    for lo in range(0, len(taus), step):
        x = np.multiply.outer(taus[lo : lo + step], gap)
        out[lo : lo + step] = stationary + (np.sin(x) / x) @ coeff
    return out


def limiting_distribution(s: Spectrum) -> LimitingDistribution:
    """u(x, y) = sum_j |<y|P_j|x>|^2 over the eigenspace projectors P_j.

    Normalized so every row sums to 1 (it is a probability distribution
    over the end node y; with orthonormal eigenvectors this holds exactly,
    no prefactor needed).

    P_j o P_j = sum_{k,l in C_j} (v_k o v_l)(v_k o v_l)^T, so u = Z Z^T with
    one column v_k o v_l per same-cluster pair (k, l), formed N columns at
    a time to keep memory O(N^2) when one cluster holds most levels. numpy
    forms each z @ z.T by a symmetric rank-k update and mirrors it, so u is
    symmetric to the bit; the limiting CSV writer relies on this.
    """
    k, l = np.nonzero(s.same_cluster())
    v = s.eigenvectors
    u = np.zeros((s.n, s.n))
    for lo in range(0, len(k), max(s.n, 1)):
        z = v[:, k[lo : lo + s.n]]
        z *= v[:, l[lo : lo + s.n]]
        u += z @ z.T
    u.flags.writeable = False
    return LimitingDistribution(u=u)
