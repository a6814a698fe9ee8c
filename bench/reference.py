"""Reference values for the output checks, computed without the library.

The library supplies only the input graphs. Eigenpairs come straight from
numpy, degenerate levels are grouped by rounding to 8 decimals as
tests/oracles.py does, and every time average is taken in closed form.
The lhs is the expansion of tests/oracles.closed_form_lhs, vectorised
over gap pairs so the F60 reference takes 2 s instead of a minute;
bench/test_bench.py checks the two agree.
"""

from __future__ import annotations

import numpy as np

from bench.workloads import TAU_GRIDS, graph_size

GROUP_DECIMALS = 8

# the isolated pentagon: no-walker level plus half the 5-ring adjacency
PENTAGON_H = np.zeros((6, 6))
for _j in range(5):
    PENTAGON_H[1 + _j, 1 + (_j + 1) % 5] = PENTAGON_H[1 + (_j + 1) % 5, 1 + _j] = 0.5


def adjacency(key: str) -> np.ndarray:
    """Dense adjacency of a graph key ('C60' or 'F<N>'), built by the library."""
    from fullerwalk import graphs

    if key == "C60":
        return graphs.adjacency(graphs.build_c60_blocked())
    return graphs.adjacency(graphs.build_tube_fullerene(graph_size(key)))


def tau_grid(lo: float, hi: float, count: int) -> np.ndarray:
    return np.logspace(np.log10(lo), np.log10(hi), count)


def _average_kernel(d, tau):
    """(1/tau) int_0^tau e^{-i d t} dt, without cancellation at small d."""
    x = d * tau
    return np.exp(-0.5j * x) * np.sinc(x / (2.0 * np.pi))


def _groups(a):
    w, v = np.linalg.eigh(np.asarray(a, dtype=float))
    _, inv = np.unique(np.round(w, GROUP_DECIMALS), return_inverse=True)
    member = np.zeros((inv.max() + 1, len(w)))
    member[inv, np.arange(len(w))] = 1.0
    levels = member @ w / member.sum(axis=1)
    return levels, member, v


def closed_form_lhs(a, rho0, o, taus) -> np.ndarray:
    """Time average of |tr(O rho(t)) - tr(O omega)|^2 over [0, tau] for each tau.

    c_mn = tr(P_m rho0 P_n O) for distinct levels m != n, and the average
    is sum_ij c_i conj(c_j) (1/tau) int_0^tau e^{-i(g_i - g_j)t} dt.
    """
    levels, member, v = _groups(a)
    r = v.T @ np.asarray(rho0, dtype=float) @ v
    ot = v.T @ np.asarray(o, dtype=float) @ v
    c = member @ (r * ot.T) @ member.T
    m, n = np.nonzero(~np.eye(len(levels), dtype=bool))
    coef = c[m, n]
    gap = levels[m] - levels[n]
    diff = gap[:, None] - gap[None, :]
    return np.array(
        [float(np.real(coef @ _average_kernel(diff, tau) @ np.conj(coef))) for tau in taus]
    )


def effective_dimension(a, start: int):
    """(1 / sum_n tr(P_n |x><x|)^2, number of distinct levels)."""
    levels, member, v = _groups(a)
    weights = member @ v[start - 1, :] ** 2
    return float(1.0 / np.sum(weights**2)), len(levels)


def time_average(a, start: int, end: int, taus) -> np.ndarray:
    """(1/tau) int_0^tau |<end|e^{-iAt}|start>|^2 dt over single eigenpairs."""
    w, v = np.linalg.eigh(np.asarray(a, dtype=float))
    amp = v[end - 1, :] * v[start - 1, :]
    diff = w[:, None] - w[None, :]
    # the pair sum is symmetric, so only the real part of the kernel survives
    return np.array([amp @ np.sinc(diff * tau / np.pi) @ amp for tau in taus])


def pentagon_gibbs(beta: float):
    """(Z, 6x6 state exp(-beta H)/Z) from a direct eigendecomposition."""
    w, v = np.linalg.eigh(PENTAGON_H)
    weights = np.exp(-beta * w)
    z = float(weights.sum())
    return z, (v * weights) @ v.T / z


def _position_or_node(spec: str, n: int) -> np.ndarray:
    if spec == "position":
        return np.diag(np.arange(1.0, n + 1.0))
    o = np.zeros((n, n))
    x = int(spec.split(":")[1])
    o[x - 1, x - 1] = 1.0
    return o


def compute(ops: list) -> dict:
    """Reference data for every operation that needs one, keyed by op id."""
    refs = {}
    for op in ops:
        chk = op["check"]
        kind = chk["type"]
        if kind == "bound":
            a = adjacency(chk["graph"])
            n = graph_size(chk["graph"])
            start = chk["start"]
            rho0 = np.zeros((n, n))
            rho0[start - 1, start - 1] = 1.0
            taus = tau_grid(*chk["tau"])
            d_eff, n_lambda = effective_dimension(a, start)
            refs[op["id"]] = {
                "tau": taus,
                "lhs": closed_form_lhs(a, rho0, _position_or_node(chk["observable"], n), taus),
                "d_eff": d_eff,
                "n_lambda": n_lambda,
            }
        elif kind == "time_average":
            n = chk["n"]
            taus = tau_grid(*TAU_GRIDS["long"])
            refs[op["id"]] = time_average(adjacency(f"F{n}"), 1, n, taus)
    return refs
