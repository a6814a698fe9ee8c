"""Walk evolution, the limiting distribution and time averages from a start node x.

A per-start quantity reads the <y|P_j|x> it needs as segment sums over
rows x and y of V, cluster_sums(V[y] * V[x]). Evolution is spectral:
amplitudes are rotated by e^{-i lam_k t} in the eigenbasis. Time averages
use the exact closed form, with cross terms grouped by degeneracy-cluster
pair so exactly degenerate levels dephase into the limiting distribution.
"""

from __future__ import annotations

import numpy as np

from .graphs import _check_label
from .spectral import Spectrum, _orbit_layout

# (tau, pair) values evaluated at once by cumulative_time_average
TIME_AVERAGE_BLOCK = 2**16


def _check_tau_grid(tau_grid) -> np.ndarray:
    taus = np.asarray(tau_grid, dtype=float)
    if taus.ndim != 1 or len(taus) == 0:
        raise ValueError("tau_grid must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(taus) & (taus > 0)):
        raise ValueError("all tau values must be finite and positive")
    if np.any(np.diff(taus) < 0):
        raise ValueError("tau_grid must be ascending")
    return taus


def evolve(s: Spectrum, start: int, t: float) -> np.ndarray:
    """Amplitudes alpha_y(t) = sum_k e^{-i lam_k t} <y|lam_k><lam_k|start>,
    a complex vector of 2-norm 1."""
    _check_label(start, s.n, "start")
    overlaps = s.eigenvectors[start - 1, :]  # <lam_k|start>, real basis
    phases = np.exp(-1j * s.eigenvalues * float(t))
    return s.eigenvectors @ (phases * overlaps)


def node_probability(s: Spectrum, start: int, end: int, t: float) -> float:
    """|<end|e^{-iHt}|start>|^2."""
    _check_label(end, s.n, "end")
    return float(np.abs(evolve(s, start, t)[end - 1]) ** 2)


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

    # s_j = <end|P_j|start> = sum_{k in C_j} <end|lam_k><lam_k|start>
    sums = s.cluster_sums(s.eigenvectors[end - 1] * s.eigenvectors[start - 1])
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


def limiting_distribution(s: Spectrum) -> np.ndarray:
    """u[x-1, y-1] = sum_j |<y|P_j|x>|^2, the long-time average probability
    of finding the walker at node y after starting at x, as a read-only
    N x N array lifted from limiting_orbit_rows; a per-start analysis reads
    its entries from rows of V. Every row sums to 1 exactly with
    orthonormal eigenvectors."""
    return _lift(limiting_orbit_rows(s), s.orbits)


def limiting_orbit_rows(s: Spectrum) -> np.ndarray:
    """The read-only rows of u of the smallest node r of each orbit of the
    node map perm whose powers table is s.orbits: N/10 rows on a tube, N/2
    on C60. A cluster with d^2 > N adds P_j[r]^2 with P_j[r] = V_c[r] V_c^T,
    the others add Z[r] Z^T, with one column v_k o v_l of Z per
    same-cluster pair, N columns at a time. P_j commutes with perm, so
    u(perm^m r, y) = u(r, perm^-m y); the rows are made (u + u^T)/2, u(y, r)
    read as u(q, perm^-p r) for y = perm^p q. u is thus symmetric (float
    addition commutes) and invariant under perm to the bit, so equal
    entries share their bits and their text."""
    n, v, idx, cycle = s.n, s.eigenvectors, s.cluster_index, s.orbits  # cycle[m, x] = perm^m(x)
    reps, orbit, power = _orbit_layout(cycle)
    ur = np.zeros((len(reps), n))
    for c in s.clusters:
        if len(c) ** 2 > n:
            ur += np.square(v[reps, c[0] : c[-1] + 1] @ v[:, c[0] : c[-1] + 1].T)
    big = np.array([len(c) ** 2 > n for c in s.clusters], dtype=bool)[idx]
    k, l = np.nonzero((idx[:, None] == idx) & ~big)
    for lo in range(0, len(k), max(n, 1)):
        z = None  # frees the last chunk before the next is gathered
        z, lz = v[:, k[lo : lo + n]], l[lo : lo + n]
        for a in range(0, len(lz), 64):  # 64 columns at a time: no second N x N temporary
            z[:, a : a + 64] *= v[:, lz[a : a + 64]]
        ur += z[reps] @ z.T
    ur += ur[orbit, cycle[-power, reps[:, None]]]  # u(y, r) = ur[orbit y, perm^-p(y) r]
    ur *= 0.5
    ur.flags.writeable = False
    return ur


def _lift(ur: np.ndarray, cycle: np.ndarray) -> np.ndarray:
    """The read-only N x N u whose orbit rows under the powers table cycle are ur."""
    reps = _orbit_layout(cycle)[0]
    u = np.empty((ur.shape[1],) * 2)
    for m, row in enumerate(cycle):
        u[row[reps]] = ur[:, cycle[-m]]  # perm^-m = perm^(order - m)
    u.flags.writeable = False
    return u
