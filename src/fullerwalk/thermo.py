"""Pentagon subsystem thermodynamics.

Splits a fullerene Hamiltonian into the pentagon system (nodes 1..5), the
bath, and the interaction by masking its adjacency, and builds the
canonical Gibbs state of the isolated pentagon on the 6-dimensional space
spanned by the no-walker state and the five node states, as a real
matrix in closed form. The pentagon Hamiltonian here is the 5-cycle
adjacency divided by its degree 2, so its eigenvalues are cos(2 pi j / 5);
the walk modules keep the raw adjacency convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, adjacency, build_tube_fullerene
from .spectral import DEGENERACY_TOL, graph_spectrum
from .dynamics import limiting_distribution

PENTAGON_CYCLE_EDGES = frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)})

# eigenvalues of the normalized pentagon Hamiltonian, j = 0..4
_PENTAGON_LEVELS = np.cos(2.0 * np.pi * np.arange(5) / 5.0)


@dataclass(frozen=True)
class HamiltonianDecomposition:
    """Edge-disjoint split h_total = h_s + h_b + h_int, all embedded NxN.

    h_s holds the pentagon-internal edges (both endpoints in 1..5), h_b
    the bath-internal edges, h_int the edges with exactly one endpoint in
    the pentagon.
    """

    h_total: np.ndarray
    h_s: np.ndarray
    h_b: np.ndarray
    h_int: np.ndarray


def decompose_hamiltonian(g: Graph) -> HamiltonianDecomposition:
    """Split the adjacency of `g` with pentagon-membership masks.

    Raises
    ------
    ValueError
        If nodes 1..5 do not induce exactly the pentagon 5-cycle.
    """
    pent = frozenset(e for e in g.edges if e[0] <= 5 and e[1] <= 5)
    if pent != PENTAGON_CYCLE_EDGES:
        raise ValueError(
            "nodes 1..5 must induce the pentagon 5-cycle; "
            f"found internal edges {sorted(pent)}"
        )
    a = adjacency(g)
    inside = np.arange(g.n_nodes) < 5
    h_s = a * np.outer(inside, inside)
    h_b = a * np.outer(~inside, ~inside)
    return HamiltonianDecomposition(h_total=a, h_s=h_s, h_b=h_b, h_int=a - h_s - h_b)


@dataclass(frozen=True)
class PentagonGibbs:
    """Canonical state of the isolated pentagon at inverse temperature beta.

    The 6-dimensional basis is (|b0>, |1>, ..., |5|) with |b0> the
    zero-eigenvalue no-walker state. node_probs[0] is p0 and
    node_probs[1..5] are the (equal) pentagon node probabilities.
    """

    beta: float
    z: float
    state: np.ndarray
    node_probs: np.ndarray


def _boltzmann_weights(beta: float):
    """Normalized weights exp(-beta*lam)/Z over the six levels
    (0 for the no-walker state, then cos(2 pi j/5) for j=0..4),
    evaluated via log-sum-exp so large beta cannot overflow."""
    if not (beta >= 0 and np.isfinite(beta)):
        raise ValueError(f"beta must be finite and non-negative, got {beta}")
    exponents = np.concatenate([[0.0], -beta * _PENTAGON_LEVELS])
    shift = exponents.max()
    with np.errstate(over="ignore"):  # a gap past -1.8e308 weighs exp(-inf) = 0, as it should
        unnorm = np.exp(exponents - shift)
    total = unnorm.sum()
    log_z = shift + np.log(total)
    return unnorm / total, log_z


def gibbs_partition_function(beta: float) -> float:
    """Z = tr exp(-beta H_S) over the six levels, via log-sum-exp."""
    _, log_z = _boltzmann_weights(beta)
    with np.errstate(over="ignore"):
        return float(np.exp(log_z))


def gibbs_node_probability(beta: float) -> float:
    """p(j) = (1/Z) sum_l exp(-beta cos(2 pi l/5)) / 5.

    Every pentagon node overlaps every pentagon eigenvector with weight
    exactly 1/5 (Fourier modes), so p(j) does not depend on j. Moves
    monotonically from 1/6 at beta=0 toward 1/5 as beta grows.
    """
    weights, _ = _boltzmann_weights(beta)
    return float(weights[1:].sum() / 5.0)


def pentagon_gibbs(beta: float) -> PentagonGibbs:
    """Gibbs state exp(-beta H_S)/Z, written out as a real matrix.

    Weight 1/Z on |b0><b0|; on the pentagon the block is the real
    circulant sum_j w_j cos(2 pi j (a - b)/5) / 5, w_j the Boltzmann
    weight of Fourier mode j. Finite and exactly symmetric at every beta.
    """
    weights, log_z = _boltzmann_weights(beta)
    d = np.subtract.outer(np.arange(5), np.arange(5))  # a - b
    state = np.zeros((6, 6))
    state[0, 0] = weights[0]
    state[1:, 1:] = np.cos(2.0 * np.pi / 5.0 * d[..., None] * np.arange(5)) @ weights[1:] / 5.0

    probs = np.empty(6)
    probs[0] = weights[0]
    probs[1:] = weights[1:].sum() / 5.0
    with np.errstate(over="ignore"):
        z = float(np.exp(log_z))
    return PentagonGibbs(beta=float(beta), z=z, state=state, node_probs=probs)


@dataclass(frozen=True)
class GibbsComparisonRow:
    """One fullerene size versus the attainable Gibbs probabilities."""

    n: int
    u_nn: float
    p_beta_min: float
    p_beta_max: float
    gibbs_matchable: bool


def gibbs_vs_limiting(family, beta_grid, degeneracy_tol: float = DEGENERACY_TOL):
    """Compare u(N, N) against every Gibbs p(j) on the beta grid.

    For each tube size N in `family` (integers from {30, 40, ..., 130})
    builds F_N, computes the limiting return probability of the last node,
    and flags gibbs_matchable when some beta gives |u(N,N) - p(j)| < 1e-3.
    """
    betas = np.asarray(beta_grid, dtype=float)
    if betas.ndim != 1 or len(betas) == 0:
        raise ValueError("beta_grid must be a non-empty 1-d sequence")
    ps = np.array([gibbs_node_probability(b) for b in betas])
    tubes = []  # every size checked and built before the first eigh
    for n in family:
        if not (isinstance(n, (int, np.integer)) and 30 <= n <= 130):
            raise ValueError(f"family sizes must be integers in 30..130, got {n!r}")
        tubes.append(build_tube_fullerene(n))
    rows = []
    for g in tubes:
        n = g.n_nodes
        u_nn = limiting_distribution(graph_spectrum(g, degeneracy_tol)).value(n, n)
        rows.append(
            GibbsComparisonRow(
                n=n,
                u_nn=u_nn,
                p_beta_min=float(ps.min()),
                p_beta_max=float(ps.max()),
                gibbs_matchable=bool(np.min(np.abs(u_nn - ps)) < 1e-3),
            )
        )
    return rows


def initial_state_dependence(g: Graph, degeneracy_tol: float = DEGENERACY_TOL):
    """Rows x=1 and x=2 of the limiting distribution over the pentagon.

    Returns the two 5-vectors (u(1, 1..5), u(2, 1..5)). They differ from
    each other, while a Gibbs p(j) vector is constant across the pentagon:
    no single thermal state reproduces both starting conditions.
    """
    s = graph_spectrum(g, degeneracy_tol)
    u = limiting_distribution(s)
    return u.row(1)[:5].copy(), u.row(2)[:5].copy()
