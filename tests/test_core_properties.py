"""Property tests of the spectral core against the Jacobi projector oracle
on random simple graphs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fullerwalk import (
    cumulative_time_average,
    effective_dimension,
    eigendecompose,
    limiting_distribution,
    time_averaged_state,
)
from oracles import eigenpair_time_average, jacobi_projectors


@st.composite
def graphs(draw):
    """Adjacency of a random simple graph on 2 to 10 nodes."""
    n = draw(st.integers(2, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    a = np.zeros((n, n))
    for (i, j), on in zip(pairs, present):
        a[i, j] = a[j, i] = float(on)
    return a


@settings(max_examples=50, deadline=None)
@given(a=graphs(), seed=st.integers(0, 2**32 - 1))
def test_core_matches_projector_oracle(a, seed):
    s = eigendecompose(a)
    levels, projs = jacobi_projectors(a)
    assert s.n_distinct == len(projs)
    assert np.abs(s.cluster_values() - levels).max() < 1e-9

    u = limiting_distribution(s).u
    assert np.abs(u - sum(p * p for p in projs)).max() < 1e-12
    assert np.abs(u.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(u - u.T).max() < 1e-15

    b = np.random.default_rng(seed).standard_normal(a.shape)
    rho = b @ b.T
    rho /= np.trace(rho)
    d_eff = 1.0 / sum(np.trace(p @ rho) ** 2 for p in projs)
    assert abs(effective_dimension(s, rho) - d_eff) < 1e-9 * d_eff

    omega = time_averaged_state(s, rho)
    assert np.abs(omega - sum(p @ rho @ p for p in projs)).max() < 1e-12
    assert np.abs(a @ omega - omega @ a).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    a=graphs(),
    nodes=st.tuples(st.integers(1, 10), st.integers(1, 10)),
    taus=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=4),
)
def test_time_average_matches_eigenpair_sum(a, nodes, taus):
    n = a.shape[0]
    start, end = (min(x, n) for x in nodes)
    taus = sorted(taus)
    lib = cumulative_time_average(eigendecompose(a), start, end, taus)
    assert np.abs(lib - eigenpair_time_average(a, start, end, taus)).max() < 1e-10
