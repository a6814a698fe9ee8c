import re

import numpy as np
import pytest

from fullerwalk import (
    Spectrum,
    adjacency,
    build_c60_blocked,
    build_tube_fullerene,
    eigendecompose,
    eth_report,
    eth_symmetry_check,
    graph_from_edges,
    graph_spectrum,
    haar_entropy_baseline,
    haar_orthogonal_state,
    node_entropies,
    observable_in_energy_basis,
    position_observable,
    projector_eth_stats,
)
from fullerwalk import eth
from oracles import entropy_of, haar_rotate_within_clusters, jacobi_eigh, node_projector_widths


def _node(n, x):
    """e_x, the node function of |x><x|."""
    e = np.zeros(n)
    e[x - 1] = 1.0
    return e


def test_identity_is_identity_in_any_basis(c60_spectrum):
    o_mn = observable_in_energy_basis(c60_spectrum, np.ones(60))
    assert np.abs(o_mn - np.eye(60)).max() < 1e-12


def test_energy_basis_trace_is_invariant(c60_spectrum):
    o = position_observable(60)
    o_mn = observable_in_energy_basis(c60_spectrum, o)
    assert abs(np.trace(o_mn) - o.sum()) < 1e-9


def test_energy_basis_shape_mismatch(c60_spectrum):
    for o, got in ((np.ones(59), "(59,)"), (np.eye(60), "(60, 60)")):
        with pytest.raises(ValueError, match=re.escape(f"shape (60,), got {got}")):
            observable_in_energy_basis(c60_spectrum, o)
    with pytest.raises(ValueError, match="finite"):
        observable_in_energy_basis(c60_spectrum, np.full(60, np.nan))


def test_position_observable_contents():
    o = position_observable(4)
    assert o.shape == (4,)
    assert np.array_equal(o, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        position_observable(0)


def test_projector_diag_mean_is_exactly_one_over_n(c60_spectrum):
    means, _ = projector_eth_stats(c60_spectrum)
    assert means.shape == (60,)
    for x in (1, 2, 17, 60):
        assert means[x - 1] == pytest.approx(1.0 / 60.0, abs=1e-15)


def test_dichotomy_nodes_fluctuate_position_does_not(c60, c60_spectrum):
    # a node's width depends on the basis inside degenerate clusters, so it
    # is checked against what every basis shares: the attainable interval
    # [0, sigma_max], the cluster-averaged diagonal 1/60, and the Haar mean
    # over rotations inside the clusters, which is rough (rms 0.017); the
    # position diagonal is flat at 30.5 in every basis
    widths = node_projector_widths(np.array(adjacency(c60)))
    _, stds = projector_eth_stats(c60_spectrum)
    for x in range(1, 6):
        assert 0.0 <= stds[x - 1] <= widths.sigma_max[x - 1] + 1e-12
        avg = eth_report(c60_spectrum, _node(60, x)).cluster_averaged_diagonal
        assert np.abs(avg - 1.0 / 60.0).max() < 1e-12
    assert widths.sigma_haar[:5].min() > 0.01

    rng = np.random.default_rng(1)
    sq = np.empty((200, 5))
    for i in range(200):
        v = haar_rotate_within_clusters(c60_spectrum.eigenvectors, c60_spectrum.clusters, rng)
        r = Spectrum(c60_spectrum.eigenvalues, v, c60_spectrum.clusters, c60_spectrum.degeneracy_tol)
        sq[i] = projector_eth_stats(r)[1][:5] ** 2
        assert eth_report(r, position_observable(60)).diag_std < 1e-8
    # five standard errors: one rotation's squared width has a relative
    # std of at most 0.21 around its Haar mean
    rel_dev = np.abs(sq.mean(axis=0) / widths.sigma_haar[:5] ** 2 - 1.0)
    assert rel_dev.max() < 5 * 0.21 / np.sqrt(200)

    rep = eth_report(c60_spectrum, position_observable(60))
    assert rep.diag_std < 1e-8
    assert rep.diag_mean == pytest.approx(30.5, abs=1e-9)


def test_eth_report_offdiagonal_fields(c60_spectrum):
    rep = eth_report(c60_spectrum, _node(60, 2))
    assert rep.diag_mean == pytest.approx(1.0 / 60.0, abs=1e-15)
    assert 0.0 < rep.offdiag_rms < rep.diag_std
    assert rep.basis_tag == "plain"


@pytest.mark.parametrize("graph", ["C60", "F30", "F130", "F130-relabelled"])
def test_eth_report_matches_the_energy_basis_matrix(graph):
    # the report reads the diagonal from V*V and the off-diagonal rms from
    # the Frobenius norm; both must agree with the full V^T diag(o) V
    g = build_c60_blocked() if graph == "C60" else build_tube_fullerene(int(graph[1:4]))
    a = adjacency(g)
    if graph.endswith("relabelled"):
        p = np.random.default_rng(130).permutation(g.n_nodes)
        a = a[np.ix_(p, p)]
    s = eigendecompose(a)
    n = s.n
    rng = np.random.default_rng(7)
    for o in (position_observable(n), _node(n, 1), _node(n, n), rng.standard_normal(n)):
        o_mn = observable_in_energy_basis(s, o)
        diag = np.diag(o_mn)
        rms = np.sqrt(((o_mn - np.diag(diag)) ** 2).sum() / (n * n - n))
        rep = eth_report(s, o)
        assert np.abs(rep.diagonal - diag).max() <= 1e-12 * np.abs(diag).max()
        assert abs(rep.offdiag_rms - rms) <= 1e-12 * rms


def test_eth_report_offdiagonal_rms_ignores_a_constant_shift(c60_spectrum, f30_spectrum):
    for s in (c60_spectrum, f30_spectrum):
        assert eth_report(s, np.full(s.n, 7.3)).offdiag_rms == 0.0
        pos = position_observable(s.n)
        assert eth_report(s, pos + 1e8).offdiag_rms == eth_report(s, pos).offdiag_rms


def test_projector_eth_stats_match_each_row(c60_spectrum, c60_sym_spectrum, f30_spectrum):
    # the eth JSON node table prints these values, so they must keep the
    # bits of the per-row reductions in both memory layouts of V
    for s in (c60_spectrum, c60_sym_spectrum, f30_spectrum):
        means, stds = projector_eth_stats(s)
        v = s.eigenvectors
        assert np.array_equal(means, [(v[x] ** 2).mean() for x in range(s.n)])
        assert np.array_equal(stds, [(v[x] ** 2).std() for x in range(s.n)])


def test_cluster_averaged_diagonal_is_basis_independent(
    c60_spectrum, c60_sym_spectrum, c60
):
    o = position_observable(60)
    a_plain = eth_report(c60_spectrum, o).cluster_averaged_diagonal
    a_sym = eth_report(c60_sym_spectrum, o).cluster_averaged_diagonal
    assert np.abs(a_plain - 30.5).max() < 1e-9
    assert np.abs(a_sym - 30.5).max() < 1e-9
    # and the same through a foreign eigensolver on a small graph
    ring = graph_from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    a4 = adjacency(ring)
    s4 = eigendecompose(a4)
    w, v = jacobi_eigh(np.array(a4))
    diag = np.diag(v.T @ np.diag(position_observable(4)) @ v)
    oracle = np.array([diag[list(c)].mean() for c in s4.clusters])
    lib = eth_report(s4, position_observable(4)).cluster_averaged_diagonal
    assert np.abs(lib - oracle).max() < 1e-9


def test_measurement_entropy_bounds_and_extremes(c60_spectrum):
    ents = node_entropies(c60_spectrum)
    assert ents.shape == (60,)
    assert np.all(ents >= 0.0)
    assert np.all(ents <= np.log(60.0) + 1e-12)
    # a delta distribution has zero entropy
    s1 = eigendecompose(np.diag([1.0, 2.0, 3.0]))
    assert node_entropies(s1)[0] == pytest.approx(0.0, abs=1e-12)


def test_haar_states_are_unit_and_reproducible():
    v1 = haar_orthogonal_state(60, seed=5)
    v2 = haar_orthogonal_state(60, seed=5)
    v3 = haar_orthogonal_state(60, seed=6)
    assert np.array_equal(v1, v2)
    assert not np.array_equal(v1, v3)
    assert abs(np.linalg.norm(v1) - 1.0) < 1e-12


def test_haar_baseline_is_reproducible_and_in_range():
    m1, s1 = haar_entropy_baseline(60, 200, seed=0)
    m2, s2 = haar_entropy_baseline(60, 200, seed=0)
    assert (m1, s1) == (m2, s2)
    assert 3.2 < m1 < 3.5
    assert 0.05 < s1 < 0.2
    m3, _ = haar_entropy_baseline(60, 200, seed=1000)
    assert m3 != m1


class _Drawn(Exception):
    """Raised in place of the first Haar draw."""


def test_haar_baseline_refuses_n_times_samples_over_the_budget_before_drawing(monkeypatch):
    def draw(n, seeds):
        raise _Drawn

    monkeypatch.setattr(eth, "_haar_states", draw)
    # min(2^20, 2^26 // N) samples: the count cap on C60, the draw budget on F1000
    for n, limit in ((60, 2**20), (1000, 67108)):
        with pytest.raises(_Drawn):
            haar_entropy_baseline(n, limit)
        with pytest.raises(ValueError, match=f"N {n} allows at most {limit} samples, got {limit + 1}$"):
            haar_entropy_baseline(n, limit + 1)


def test_haar_baseline_validation():
    with pytest.raises(ValueError):
        haar_entropy_baseline(60, 0)
    with pytest.raises(ValueError):
        haar_orthogonal_state(0, seed=1)
    with pytest.raises(ValueError):
        haar_entropy_baseline(0, 4)
    with pytest.raises(ValueError):
        haar_entropy_baseline(60, 4, seed=-1)
    # keys 2**128 - 2, ..., 2**128 + 1: the third leaves the Philox key range
    with pytest.raises(ValueError):
        haar_entropy_baseline(60, 4, seed=2**128 - 2)


@pytest.mark.parametrize("n", [1, 7, 60, 130])
@pytest.mark.parametrize("seed", [0, 2**31 - 5, 2**64 - 2, 2**128 - 4])
def test_haar_baseline_is_the_mean_over_haar_states(n, seed):
    ents = []
    for i in range(4):
        p = haar_orthogonal_state(n, seed + i) ** 2
        p = p[p > 1e-15]
        ents.append(float(-(p * np.log(p)).sum()))
    ents = np.array(ents)
    assert haar_entropy_baseline(n, 4, seed) == (float(ents.mean()), float(ents.std()))


@pytest.mark.parametrize("n", [1, 60, 130])
def test_haar_baseline_is_bitwise_the_per_sample_loop_on_both_sides_of_a_block(n):
    rows = max(1, eth.ENTROPY_BLOCK // n)  # samples per block
    ents = np.array([entropy_of(haar_orthogonal_state(n, 11 + i) ** 2)
                     for i in range(rows + 1)])
    for count in (rows, rows + 1):
        expected = (float(ents[:count].mean()), float(ents[:count].std()))
        assert haar_entropy_baseline(n, count, seed=11) == expected


@pytest.mark.parametrize("graph", ["C60", "F130", "F1000"])
def test_node_entropies_are_bitwise_the_entropy_of_each_row_of_w(graph):
    """The tubes' sector lifts hold exact zeros, so rows keep different counts."""
    g = build_c60_blocked() if graph == "C60" else build_tube_fullerene(int(graph[1:]))
    s = graph_spectrum(g)
    expected = np.array([entropy_of(p) for p in s.eigenvectors**2])
    assert node_entropies(s).view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_row_entropies_are_bitwise_the_entropy_of_each_row():
    floor, rng = eth.ENTROPY_FLOOR, np.random.default_rng(5)
    p = rng.random((6, 9))
    p[0, 3] = floor  # at the floor: dropped
    p[1, [0, 8]] = [np.nextafter(floor, 1.0), np.nextafter(floor, 0.0)]
    p[2, :] = 0.0
    p[3, 4] = 5e-324
    p[4, 0] = 1.0
    q = rng.random((40, 300))  # past numpy's 128-value pairwise blocks, counts 200-260
    q[q < 0.2] = 0.0
    for rows in (p, q, np.ones((2, 1))):
        expected = np.array([entropy_of(row) for row in rows])
        assert eth._row_entropies(rows).view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_symmetry_check_passes_on_the_adapted_basis(c60_sym_spectrum):
    chk = eth_symmetry_check(c60_sym_spectrum)
    assert chk.passed
    assert chk.mirror_residual < 1e-10
    assert chk.position_diag_deviation < 1e-9


def test_symmetry_check_distinguishes_mirror_from_no_mirror():
    # the path 1-2-3-4 is symmetric under x -> 5-x, the star around
    # node 1 is not
    s_path = eigendecompose(adjacency(graph_from_edges(4, [(1, 2), (2, 3), (3, 4)])))
    assert eth_symmetry_check(s_path).passed
    s_star = eigendecompose(
        adjacency(graph_from_edges(4, [(1, 2), (1, 3), (1, 4)]))
    )
    chk = eth_symmetry_check(s_star)
    assert not chk.passed
    assert chk.mirror_residual > 1e-3


def test_symmetry_check_applies_the_u_mirror_threshold(c60_sym_spectrum, monkeypatch):
    chk = eth_symmetry_check(c60_sym_spectrum)
    assert chk.passed and chk.u_mirror_residual < 1e-9
    # every residual is at least 0, so a threshold of 0 alone fails the check
    monkeypatch.setitem(eth.SYMMETRY_THRESHOLDS, "u_mirror_residual", 0.0)
    assert eth_symmetry_check(c60_sym_spectrum) == chk._replace(passed=False)


def test_symmetry_check_needs_even_n():
    s = eigendecompose(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="even"):
        eth_symmetry_check(s)
