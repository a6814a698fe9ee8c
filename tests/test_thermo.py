import re

import numpy as np
import pytest

from fullerwalk import (
    adjacency,
    build_tube_fullerene,
    decompose_hamiltonian,
    eigendecompose,
    gibbs_node_probability,
    gibbs_partition_function,
    gibbs_vs_limiting,
    graph_from_edges,
    initial_state_dependence,
    limiting_distribution,
    pentagon_gibbs,
    thermo,
)
from oracles import pentagon_gibbs_expm

SQRT5 = np.sqrt(5.0)


def closed_form_z(beta):
    # six levels: 0, 1, 2 cos(2 pi/5) = (sqrt 5 - 1)/2, 2 cos(4 pi/5) twice
    return (
        1.0
        + np.exp(-beta)
        + 2.0 * np.exp(-(SQRT5 - 1.0) * beta / 4.0)
        + 2.0 * np.exp((1.0 + SQRT5) * beta / 4.0)
    )


def test_decomposition_splits_edges_exactly(f30):
    dec = decompose_hamiltonian(f30)
    assert np.abs(dec.h_s + dec.h_b + dec.h_int - dec.h_total).max() == 0.0
    # every edge lands in exactly one block
    count = lambda m: int(np.count_nonzero(m)) // 2
    assert count(dec.h_s) == 5
    assert count(dec.h_int) == 5
    assert count(dec.h_b) == 35
    assert count(dec.h_total) == 45


@pytest.mark.parametrize("n", [30, 60, 100])
def test_decomposition_edge_conservation_across_sizes(n):
    g = build_tube_fullerene(n)
    dec = decompose_hamiltonian(g)
    count = lambda m: int(np.count_nonzero(m)) // 2
    assert count(dec.h_s) + count(dec.h_b) + count(dec.h_int) == g.n_edges
    assert count(dec.h_s) == 5
    assert count(dec.h_int) == 5


def test_decomposition_interface_edges_are_size_independent():
    expected = {(1, 6), (2, 8), (3, 10), (4, 12), (5, 14)}
    for n in (30, 70, 130):
        dec = decompose_hamiltonian(build_tube_fullerene(n))
        rows, cols = np.nonzero(np.triu(dec.h_int))
        got = {(int(r) + 1, int(c) + 1) for r, c in zip(rows, cols)}
        assert got == expected


def test_decomposition_works_on_the_buckyball(c60):
    dec = decompose_hamiltonian(c60)
    count = lambda m: int(np.count_nonzero(m)) // 2
    assert count(dec.h_s) == 5
    assert count(dec.h_s) + count(dec.h_b) + count(dec.h_int) == 90


def test_decomposition_rejects_non_pentagon_head():
    path = graph_from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    with pytest.raises(ValueError, match="pentagon"):
        decompose_hamiltonian(path)


def test_gibbs_infinite_temperature_is_uniform():
    pg = pentagon_gibbs(0.0)
    assert np.all(pg.node_probs == pytest.approx(1.0 / 6.0, abs=0.0))
    assert pg.z == pytest.approx(6.0, abs=1e-12)


def test_gibbs_zero_temperature_concentrates_on_the_pentagon():
    pg = pentagon_gibbs(200.0)
    assert np.abs(pg.node_probs[1:] - 0.2).max() < 1e-10
    assert pg.node_probs[0] < 1e-10


def test_gibbs_partition_function_closed_form():
    for beta in (0.1, 1.0, 5.0):
        z = gibbs_partition_function(beta)
        assert abs(z - closed_form_z(beta)) / closed_form_z(beta) < 1e-12


def test_gibbs_probability_survives_extreme_beta():
    # log-sum-exp keeps p finite even where Z itself overflows
    assert np.isfinite(gibbs_node_probability(5000.0))
    assert gibbs_node_probability(5000.0) == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("beta", [0.0, 0.5, 5.0, 50.0, 317.0, 700.0])
def test_gibbs_state_matches_expm_oracle(beta):
    pg = pentagon_gibbs(beta)
    z_o, state_o = pentagon_gibbs_expm(beta)
    assert np.abs(pg.state - state_o).max() < 1e-10
    if beta < 10:  # oracle Z overflows long before the state does
        assert abs(pg.z - z_o) / z_o < 1e-10


def test_gibbs_state_is_a_density_matrix():
    for beta in (0.0, 0.7, 8.0, 317.0, 1e3, 1e6):
        pg = pentagon_gibbs(beta)
        assert abs(np.trace(pg.state) - 1.0) < 1e-12
        assert np.abs(pg.state - pg.state.T).max() < 1e-14
        assert np.linalg.eigvalsh(pg.state).min() > -1e-14
        assert abs(pg.node_probs.sum() - 1.0) < 1e-12
        assert np.abs(np.diag(pg.state) - pg.node_probs).max() < 1e-14


def test_gibbs_probability_is_monotone_in_beta():
    betas = np.linspace(0.0, 200.0, 100)
    ps = np.array([gibbs_node_probability(b) for b in betas])
    assert np.all(np.diff(ps) >= 0)
    assert ps[0] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert ps[-1] <= 0.2 + 1e-12


def test_gibbs_beta_validation():
    with pytest.raises(ValueError):
        gibbs_node_probability(-1.0)
    with pytest.raises(ValueError):
        gibbs_partition_function(np.inf)


def test_boltzmann_over_a_grid_is_bitwise_one_beta_at_a_time():
    rng = np.random.default_rng(11)
    draw = np.exp(rng.uniform(np.log(1e-300), np.log(1.7e308), 2000))  # log-uniform
    betas = np.concatenate([[0.0, 5e-324, 1e308, 1.7e308], draw])
    weights, p_j, z = thermo._boltzmann(betas)
    assert weights.shape == (len(betas), 6) and p_j.shape == z.shape == (len(betas),)
    assert np.isinf(z[3])  # Z overflows; the weights stay finite
    for i, beta in enumerate(betas.tolist()):
        for grid, one in zip((weights, p_j, z), thermo._boltzmann([beta])):
            assert grid[i].tobytes() == one[0].tobytes(), beta


@pytest.mark.parametrize(
    "betas, named",
    [([0.5, 1.0, -2.0, float("nan")], "-2.0"), ([0.5, float("nan"), -1.0], "nan"),
     ([float("inf")], "inf"), ([0.0, -5e-324], "-5e-324")],
)
def test_boltzmann_names_the_first_bad_beta_of_a_grid(betas, named):
    message = re.escape(f"beta must be finite and non-negative, got {named}")
    with pytest.raises(ValueError, match=message):
        thermo._boltzmann(np.array(betas))


def test_gibbs_vs_limiting_takes_the_beta_grid_in_one_call(monkeypatch):
    grids = []

    def counted(betas):
        grids.append(len(betas))
        return boltzmann(betas)

    boltzmann = thermo._boltzmann
    monkeypatch.setattr(thermo, "_boltzmann", counted)
    gibbs_vs_limiting([30, 40], np.linspace(0.0, 200.0, 201))
    assert grids == [201]


def test_gibbs_vs_limiting_row_contents(f30):
    betas = np.linspace(0.0, 200.0, 51)
    rows = gibbs_vs_limiting([30], betas)
    assert len(rows) == 1
    row = rows[0]
    u = limiting_distribution(eigendecompose(adjacency(f30)))
    assert row.n == 30
    assert row.u_nn == pytest.approx(u[29, 29], abs=1e-12)
    assert row.p_beta_min == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert row.p_beta_max == pytest.approx(gibbs_node_probability(200.0), abs=1e-15)
    assert row.gibbs_matchable is False


def test_gibbs_vs_limiting_validation():
    with pytest.raises(ValueError, match="30..130"):
        gibbs_vs_limiting([20], np.linspace(0, 1, 5))
    with pytest.raises(ValueError, match="30..130"):
        gibbs_vs_limiting([140], np.linspace(0, 1, 5))
    with pytest.raises(ValueError, match="beta_grid"):
        gibbs_vs_limiting([30], [])


def test_gibbs_vs_limiting_checks_every_size_before_the_first_solve(eigh_calls):
    # 135 fails the range check, 35 the builder's multiple-of-10 rule
    with pytest.raises(ValueError, match="30..130, got 135"):
        gibbs_vs_limiting([30, 135], np.linspace(0, 1, 5))
    with pytest.raises(ValueError, match="multiple of 10 with n >= 30, got 35"):
        gibbs_vs_limiting([30, 35], np.linspace(0, 1, 5))
    assert eigh_calls == []
    gibbs_vs_limiting([30, 40], np.linspace(0, 1, 5))
    assert len(eigh_calls) == 2


@pytest.mark.parametrize("n", [30.9, "40", np.float64(30.0)])
def test_gibbs_vs_limiting_refuses_sizes_that_are_not_integers(n, eigh_calls):
    with pytest.raises(ValueError, match=re.escape(f"integers in 30..130, got {n!r}")):
        gibbs_vs_limiting([30, n], np.linspace(0, 1, 5))
    assert eigh_calls == []


def test_gibbs_vs_limiting_takes_numpy_integer_sizes():
    (row,) = gibbs_vs_limiting([np.int64(30)], np.linspace(0, 1, 5))
    assert row.n == 30 and type(row.n) is int


def test_initial_state_dependence_rows_differ(f30):
    row1, row2 = initial_state_dependence(f30)
    assert row1.shape == (5,)
    assert row2.shape == (5,)
    assert np.abs(row1 - row2).max() > 1e-3
    u = limiting_distribution(eigendecompose(adjacency(f30)))
    assert np.abs(row1 - u[0, :5]).max() < 1e-15
    # no constant vector can match both rows: the walk remembers its start
    assert row1.max() - row1.min() > 1e-3
