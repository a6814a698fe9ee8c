import numpy as np
import pytest

from fullerwalk import (
    DEGENERACY_TOL,
    adjacency,
    build_c60_blocked,
    build_tube_fullerene,
    cumulative_time_average,
    dynamics,
    effective_dimension,
    eigendecompose,
    equilibration,
    evolve,
    gibbs_vs_limiting,
    graph_from_edges,
    graph_spectrum,
    initial_state_dependence,
    limiting_distribution,
    node_probability,
    spectral,
    thermo,
    time_averaged_state,
)
from oracles import SMALL_GRAPHS, brute_force_limiting, cluster_projectors, expm_evolution


def _small_spectrum(name):
    n, edges = SMALL_GRAPHS[name]
    return eigendecompose(adjacency(graph_from_edges(n, edges)))


def test_evolve_at_zero_is_the_start_state(f30_spectrum):
    amps = evolve(f30_spectrum, 7, 0.0)
    expected = np.zeros(30)
    expected[6] = 1.0
    assert np.abs(amps - expected).max() < 1e-12


@pytest.mark.parametrize("t", [0.0, 0.3, 2.7, 50.0, 1234.5])
def test_evolution_is_unitary(c60_spectrum, t):
    amps = evolve(c60_spectrum, 1, t)
    assert abs(np.vdot(amps, amps).real - 1.0) < 1e-10


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_evolution_matches_expm_oracle(name):
    n, edges = SMALL_GRAPHS[name]
    a = adjacency(graph_from_edges(n, edges))
    s = eigendecompose(a)
    for t in (0.4, 3.1):
        u_t = expm_evolution(a, t)
        amps = evolve(s, 1, t)
        assert np.abs(amps - u_t[:, 0]).max() < 1e-10


def test_node_probability_spot_check_against_expm(c60, c60_spectrum):
    a = adjacency(c60)
    u_t = expm_evolution(a, 1.7)
    got = node_probability(c60_spectrum, 3, 42, 1.7)
    assert abs(got - abs(u_t[41, 2]) ** 2) < 1e-10


def test_node_validation():
    s = _small_spectrum("p3")
    with pytest.raises(ValueError, match="start"):
        evolve(s, 0, 1.0)
    with pytest.raises(ValueError, match="end"):
        node_probability(s, 1, 4, 1.0)


def test_limiting_distribution_rows_sum_to_one(c60_spectrum, f30_spectrum):
    for s in (c60_spectrum, f30_spectrum):
        u = limiting_distribution(s)
        assert np.abs(u.sum(axis=1) - 1.0).max() < 1e-9
        assert np.all(u >= -1e-15)
        assert np.abs(u - u.T).max() < 1e-12


@pytest.mark.parametrize(
    "graph, tol, relabel",
    [("C60", DEGENERACY_TOL, False)]
    + [(f"F{n}", DEGENERACY_TOL, False) for n in (*range(30, 131, 10), 500)]
    + [("F130", 0.03, False), ("F130", 0.3, False), ("F130", DEGENERACY_TOL, True)],
)
def test_limiting_distribution_is_exactly_symmetric(graph, tol, relabel):
    # the limiting CSV formats u[x, y] once for both cells, so u must be
    # symmetric to the bit (signed zeros included), not just to rounding
    g = build_c60_blocked() if graph == "C60" else build_tube_fullerene(int(graph[1:]))
    a = adjacency(g)
    if relabel:
        p = np.random.default_rng(130).permutation(g.n_nodes)
        a = a[np.ix_(p, p)]
    u = limiting_distribution(eigendecompose(a, tol))
    assert np.array_equal(u, u.T)
    assert np.array_equal(u.view(np.uint64), u.T.view(np.uint64))


def _named_graph(name):
    return build_c60_blocked() if name == "C60" else build_tube_fullerene(int(name[1:]))


@pytest.mark.parametrize("tol", [DEGENERACY_TOL, 0.3])
@pytest.mark.parametrize("graph, order", [("C60", 2), ("F30", 10), ("F130", 10)])
def test_limiting_distribution_is_invariant_under_the_solved_symmetry(graph, order, tol):
    # u is formed from one row per orbit and scattered, so u(px, py) = u(x, y) to the bit
    s = graph_spectrum(_named_graph(graph), tol)
    assert len(s.orbits) == order
    perm = s.orbits[1]
    u = limiting_distribution(s)
    assert np.array_equal(u[perm][:, perm].view(np.uint64), u.view(np.uint64))
    assert np.array_equal(u.view(np.uint64), u.T.view(np.uint64))


@pytest.mark.parametrize("tol", [DEGENERACY_TOL, 0.03, 0.3])
@pytest.mark.parametrize("graph", ["C60", "F30", "F130"])
def test_limiting_distribution_matches_the_projector_oracle(graph, tol):
    # sum_j P_j o P_j from each cluster's own projector; C60 at every tol, and
    # F30 and F130 at 0.3, hold a cluster with d^2 > N, which takes the
    # projector route instead of the d^2 columns of Z
    s = graph_spectrum(_named_graph(graph), tol)
    oracle = sum(p * p for p in cluster_projectors(s))
    assert np.abs(limiting_distribution(s) - oracle).max() <= 1e-14
    if tol == 0.3:
        assert max(len(c) for c in s.clusters) ** 2 > s.n


def _whole_u_limiting(s):
    """limiting_distribution in its former form: whole N-column products
    z = v[:, k] * v[:, l], the orbit rows lifted into u, then (u + u^T)/2."""
    n, v, idx, cycle = s.n, s.eigenvectors, s.cluster_index, s.orbits
    reps = spectral._orbit_layout(cycle)[0]
    ur = np.zeros((len(reps), n))
    for c in s.clusters:
        if len(c) ** 2 > n:
            ur += np.square(v[reps, c[0] : c[-1] + 1] @ v[:, c[0] : c[-1] + 1].T)
    big = np.array([len(c) ** 2 > n for c in s.clusters], dtype=bool)[idx]
    k, l = np.nonzero((idx[:, None] == idx) & ~big)
    for lo in range(0, len(k), max(n, 1)):
        z = v[:, k[lo : lo + n]]
        z *= v[:, l[lo : lo + n]]
        ur += z[reps] @ z.T
    u = np.empty((n, n))
    for m, row in enumerate(cycle):
        u[row[reps]] = ur[:, cycle[-m]]
    return (u + u.T) * 0.5


@pytest.mark.parametrize("n, tol", [
    (60, DEGENERACY_TOL),
    (130, 0.3),  # two clusters with d^2 > N: the projector route
    (1000, DEGENERACY_TOL),
])
def test_limiting_distribution_keeps_the_bits_of_the_whole_u_form(n, tol):
    g = build_c60_blocked() if n == 60 else build_tube_fullerene(n)
    s = graph_spectrum(g, tol)
    if tol == 0.3:
        assert sum(len(c) ** 2 > n for c in s.clusters) == 2
    assert limiting_distribution(s).tobytes() == _whole_u_limiting(s).tobytes()


def test_limiting_distribution_is_basis_independent(c60_spectrum, c60_sym_spectrum):
    u_plain = limiting_distribution(c60_spectrum)
    u_sym = limiting_distribution(c60_sym_spectrum)
    assert np.abs(u_plain - u_sym).max() < 1e-10


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_limiting_matches_brute_force_quadrature(name):
    n, edges = SMALL_GRAPHS[name]
    a = adjacency(graph_from_edges(n, edges))
    u = limiting_distribution(eigendecompose(a))
    u_brute = brute_force_limiting(a, t_max=1.0e4, dt=1.0e-2)
    assert np.abs(u - u_brute).max() < 5e-3


def test_k2_cumulative_average_closed_form():
    # P(1 -> 1, t) = cos^2 t, so the running average is 1/2 + sin(2 tau)/(4 tau)
    s = _small_spectrum("k2")
    taus = np.array([0.5, 1.0, 3.0, 10.0, 200.0])
    got = cumulative_time_average(s, 1, 1, taus)
    expected = 0.5 + np.sin(2 * taus) / (4 * taus)
    assert np.abs(got - expected).max() < 1e-12


def test_cumulative_average_tends_to_limiting(c60_spectrum):
    u11 = limiting_distribution(c60_spectrum)[0, 0]
    taus = np.array([1.0e4, 1.0e5])
    avg = cumulative_time_average(c60_spectrum, 1, 1, taus)
    assert abs(avg[-1] - u11) < 1e-4
    assert abs(avg[0] - u11) < 1e-3


def test_cumulative_average_against_direct_quadrature():
    s = _small_spectrum("c5")
    tau = 7.3
    t = np.arange(0.0, tau + 5e-4, 1e-3)
    probs = np.array([node_probability(s, 1, 2, ti) for ti in t])
    direct = np.trapezoid(probs, t) / tau
    closed = cumulative_time_average(s, 1, 2, np.array([tau]))[0]
    assert abs(closed - direct) < 1e-5


def test_f30_average_settles_at_the_limiting_value(f30_spectrum):
    # the running average decays onto u(1, 1) like 1/tau; small gaps keep
    # the transient alive to tau of order 100
    u11 = limiting_distribution(f30_spectrum)[0, 0]
    taus = np.array([100.0, 1000.0])
    avg = cumulative_time_average(f30_spectrum, 1, 1, taus)
    dev = np.abs(avg - u11)
    assert dev[0] < 0.02
    assert dev[1] < 1e-3
    assert dev[1] < dev[0]


def test_cumulative_average_grid_validation(f30_spectrum):
    with pytest.raises(ValueError, match="positive"):
        cumulative_time_average(f30_spectrum, 1, 1, [0.0, 1.0])
    with pytest.raises(ValueError, match="ascending"):
        cumulative_time_average(f30_spectrum, 1, 1, [2.0, 1.0])
    with pytest.raises(ValueError, match="non-empty"):
        cumulative_time_average(f30_spectrum, 1, 1, [])


def test_limiting_matrix_is_frozen(c60_spectrum):
    u = limiting_distribution(c60_spectrum)
    with pytest.raises(ValueError):
        u[0, 0] = 1.0


@pytest.mark.parametrize("tol", [DEGENERACY_TOL, 0.03, 0.3])
@pytest.mark.parametrize("graph", ["c60", "f30", "f130"])
def test_start_node_values_agree_with_the_full_limiting_matrix(graph, tol):
    # effective_dimension reads (P_j)_xx from row x of V; the full u is Z Z^T
    g = build_c60_blocked() if graph == "c60" else build_tube_fullerene(int(graph[1:]))
    s = eigendecompose(adjacency(g), tol)
    u = limiting_distribution(s)
    for x in (1, 7, s.n):
        assert abs(effective_dimension(s, x) * u[x - 1, x - 1] - 1.0) < 2e-15


@pytest.mark.parametrize("graph", ["c60", "f30", "f130"])
def test_initial_state_dependence_reads_rows_of_the_limiting_matrix(graph):
    # u(x, y) for x = 1, 2 and y = 1..5, summed from rows 1..5 and x of V alone
    g = build_c60_blocked() if graph == "c60" else build_tube_fullerene(int(graph[1:]))
    u = limiting_distribution(graph_spectrum(g))
    for x, row in enumerate(initial_state_dependence(g), start=1):
        assert row.shape == (5,)
        assert np.abs(row - u[x - 1, :5]).max() < 1e-15


def test_per_start_analyses_form_no_limiting_matrix(
    monkeypatch, f30, f30_spectrum, n_row_sums
):
    def refuse(s):
        raise AssertionError("a per-start analysis formed the N x N limiting matrix")

    for module in (dynamics, equilibration, thermo):
        if hasattr(module, "limiting_distribution"):
            monkeypatch.setattr(module, "limiting_distribution", refuse)
    # one entry of u, or one row of B, is read from rows of V alone
    rows = gibbs_vs_limiting([30, 130], np.linspace(0.0, 1.0, 5))
    assert [r.n for r in rows] == [30, 130]
    assert effective_dimension(f30_spectrum, 1) > 1.0
    assert cumulative_time_average(f30_spectrum, 1, 30, [1.0, 10.0]).shape == (2,)
    row1, row2 = initial_state_dependence(f30)
    assert row1.shape == row2.shape == (5,)
    assert n_row_sums == []
    time_averaged_state(f30_spectrum, 1)  # omega = B B^T does sum every row
    assert n_row_sums == [(30, 30)]
