"""Property tests of the spectral core against the Jacobi projector oracle
on random simple graphs."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fullerwalk import (
    adjacency,
    build_tube_fullerene,
    cumulative_time_average,
    default_tau_grid,
    effective_dimension,
    eigendecompose,
    empirical_lhs,
    limiting_distribution,
    time_averaged_state,
)
from oracles import closed_form_lhs, eigenpair_time_average, jacobi_projectors


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


def _rows(*rows):
    return np.array([[float(c) for c in r] for r in rows])


@settings(max_examples=50, deadline=None)
@given(a=graphs())
# an oracle that stopped at an absolute off-diagonal norm of 1e-12 was off
# by 1.07e-12 in u here; the library agrees with mpmath to 1e-15
@example(
    a=_rows("0001001", "0010100", "0100001", "1000111", "0101010", "0001100", "1011000"),
)
def test_core_matches_projector_oracle(a):
    s = eigendecompose(a)
    levels, projs = jacobi_projectors(a)
    assert s.n_distinct == len(projs)
    assert np.abs(s.cluster_values() - levels).max() < 1e-9

    u = limiting_distribution(s)
    assert np.abs(u - sum(p * p for p in projs)).max() < 1e-12
    assert np.abs(u.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(u - u.T).max() < 1e-15

    for x in range(1, len(a) + 1):
        d_eff = 1.0 / sum(p[x - 1, x - 1] ** 2 for p in projs)
        assert abs(effective_dimension(s, x) - d_eff) < 1e-9 * d_eff

        omega = time_averaged_state(s, x)
        assert np.abs(omega - sum(np.outer(p[x - 1], p[x - 1]) for p in projs)).max() < 1e-12
        assert np.abs(a @ omega - omega @ a).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(a=graphs())
def test_effective_dimension_lies_between_one_and_the_level_count(a):
    # sum_j (P_j)_xx = 1 over N_lambda weights, so 1 <= d_eff <= N_lambda,
    # up to rounding at the two ends (one cluster, or equal weights)
    s = eigendecompose(a)
    for x in range(1, len(a) + 1):
        d_eff = effective_dimension(s, x)
        assert 1.0 - 1e-12 <= d_eff <= s.n_distinct * (1.0 + 1e-12)


@settings(max_examples=50, deadline=None)
@given(
    a=graphs(),
    nodes=st.tuples(st.integers(1, 10), st.integers(1, 10)),
    taus=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=4),
)
# 77 clusters: 2926 pairs, so the 60 horizons run in three blocks of (tau, pair)
@example(
    a=adjacency(build_tube_fullerene(130)), nodes=(1, 130), taus=list(default_tau_grid())
)
def test_time_average_matches_eigenpair_sum(a, nodes, taus):
    n = a.shape[0]
    start, end = (min(x, n) for x in nodes)
    taus = sorted(taus)
    lib = cumulative_time_average(eigendecompose(a), start, end, taus)
    assert np.abs(lib - eigenpair_time_average(a, start, end, taus)).max() < 1e-10


def _floor(o):
    # |f(t)| <= 2 ||O|| = 2 max |o|; rounding in f is about 1e-16 of that,
    # so relative agreement to 1e-12 needs lhs above about 1e-6 (2 ||O||)^2
    return 4e-6 * np.abs(o).max() ** 2


def _start_and_observable(n, node, seed):
    """A start node in 1..n and a random node function o, O = diag(o)."""
    return min(node, n), np.random.default_rng(seed).standard_normal(n)


@settings(max_examples=50, deadline=None)
@given(
    a=graphs(),
    node=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    taus=st.lists(st.floats(0.01, 300.0), min_size=1, max_size=4),
)
# with a dense symmetric O drawn from this seed, the oracle's pair sum,
# accumulated in double, was 1.4e-11 relative off a 50-digit quadrature
# here and the library 4.3e-14; the seed now draws a node function, and
# the short-tau case stays
@example(
    a=_rows("001100", "001001", "110000", "100010", "000100", "010000"),
    node=1, seed=0, taus=[0.0625],
)
def test_lhs_is_non_negative_and_matches_closed_form(a, node, seed, taus):
    start, o = _start_and_observable(a.shape[0], node, seed)
    taus = sorted(taus)
    lhs = empirical_lhs(eigendecompose(a), start, o, taus)
    assert np.all(lhs >= 0.0)
    rho = np.zeros(a.shape)
    rho[start - 1, start - 1] = 1.0
    want = closed_form_lhs(a, rho, np.diag(o), taus)
    assert np.all(np.abs(lhs - want) <= 1e-12 * np.maximum(want, _floor(o)))


@settings(max_examples=50, deadline=None)
@given(
    a=graphs(),
    node=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    taus=st.lists(st.floats(0.01, 300.0), min_size=2, max_size=6),
    pick=st.integers(0, 5),
)
def test_lhs_accumulated_along_a_grid_equals_lhs_alone(a, node, seed, taus, pick):
    start, o = _start_and_observable(a.shape[0], node, seed)
    s = eigendecompose(a)
    taus = sorted(taus)
    i = pick % len(taus)
    on_grid = empirical_lhs(s, start, o, taus)[i]
    (alone,) = empirical_lhs(s, start, o, [taus[i]])
    assert abs(on_grid - alone) <= 1e-12 * max(alone, _floor(o))


@settings(max_examples=50, deadline=None)
@given(
    a=graphs(),
    node=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    taus=st.lists(st.floats(0.01, 300.0), min_size=1, max_size=4),
)
def test_lhs_is_unchanged_by_an_offset_observable(a, node, seed, taus):
    # o on a 2^-10 grid and c a power of two near 1e3 ||O||, so o + c is
    # exact and any difference comes from the lhs, not from its input
    start, o = _start_and_observable(a.shape[0], node, seed)
    o = np.round(o * 1024.0) / 1024.0
    c = 2.0 ** np.ceil(np.log2(1e3 * np.abs(o).max()))
    s = eigendecompose(a)
    taus = sorted(taus)
    plain = empirical_lhs(s, start, o, taus)
    shifted = empirical_lhs(s, start, o + c, taus)
    assert np.all(np.abs(shifted - plain) <= 1e-12 * np.maximum(plain, _floor(o)))
