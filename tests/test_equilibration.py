import re
import sys

import numpy as np
import pytest

from fullerwalk import (
    Spectrum,
    adjacency,
    bound_rhs,
    build_tube_fullerene,
    default_tau_grid,
    effective_dimension,
    eigendecompose,
    empirical_lhs,
    equilibration_report,
    graph_from_edges,
    operator_norm_sq,
    position_observable,
    symmetry_adapted_c60_basis,
    time_averaged_state,
)
from fullerwalk.equilibration import (
    GL_NODES,
    _deviation_signal,
    _gauss_legendre,
    _panel_counts,
)
from oracles import SMALL_GRAPHS, closed_form_lhs, expm_evolution, jacobi_eigh


def _node(n, x):
    """e_x: the node function of |x><x|, and the diagonal of rho0."""
    e = np.zeros(n)
    e[x - 1] = 1.0
    return e


def test_effective_dimension_c60_node_is_3600_over_284(c60_spectrum):
    # C60 is vertex transitive, so (P_n)_11 = d_n/60 and
    # d_eff = 3600 / sum_n d_n^2 = 3600/284; 1/d_eff = 0.0789 = u(1,1)
    d = effective_dimension(c60_spectrum, 1)
    assert abs(d - 3600.0 / 284.0) < 1e-9


def test_effective_dimension_is_basis_invariant(c60_spectrum, c60_sym_spectrum):
    d_plain = effective_dimension(c60_spectrum, 1)
    d_sym = effective_dimension(c60_sym_spectrum, 1)
    assert abs(d_plain - d_sym) < 1e-10


def test_effective_dimension_survives_a_foreign_eigensolver(f30):
    # a Spectrum rebuilt from the Jacobi oracle basis gives the same answer
    a = adjacency(f30)
    s = eigendecompose(a)
    w, v = jacobi_eigh(np.array(a))
    foreign = Spectrum(w, v, s.clusters, s.degeneracy_tol)
    d_oracle = effective_dimension(foreign, 1)
    d_lib = effective_dimension(s, 1)
    assert abs(d_lib - d_oracle) < 1e-8


@pytest.mark.parametrize("start", [0, 61, -1, 1.0])
def test_start_node_functions_reject_a_bad_label(c60_spectrum, start):
    match = rf"start must be in 1\.\.60, got {start}"
    for call in (
        lambda: effective_dimension(c60_spectrum, start),
        lambda: time_averaged_state(c60_spectrum, start),
        lambda: _deviation_signal(c60_spectrum, start, _node(60, 1)),
        lambda: empirical_lhs(c60_spectrum, start, _node(60, 1), [1.0]),
    ):
        with pytest.raises(ValueError, match=match):
            call()


def test_omega_is_a_fixed_point_of_the_evolution(c60, c60_spectrum):
    omega = time_averaged_state(c60_spectrum, 1)
    assert abs(np.trace(omega) - 1.0) < 1e-12
    u = expm_evolution(adjacency(c60), 1.3)
    rotated = u @ omega @ u.conj().T
    assert np.abs(rotated - omega).max() < 1e-10


def test_omega_commutes_with_the_hamiltonian(f30, f30_spectrum):
    omega = time_averaged_state(f30_spectrum, 5)
    a = adjacency(f30)
    assert np.abs(a @ omega - omega @ a).max() < 1e-10


def test_bound_rhs_quoted_instantiation_algebra():
    # d_eff = 12.5, N_lambda = 15, N(eps) = 1, ||O||^2 = 1, eps = 1:
    # rhs(tau) = 0.08 (1 + 8 log2(15) / tau)
    for tau in (0.5, 2.0, 31.0, 1e4):
        expected = 0.08 * (1.0 + 8.0 * np.log2(15.0) / tau)
        assert abs(bound_rhs(12.5, 15, 1, 1.0, 1.0, tau) - expected) < 1e-15
    assert abs(bound_rhs(12.5, 15, 1, 1.0, 1.0, 1e15) - 0.08) < 1e-12


def test_bound_rhs_is_finite_wherever_its_value_is():
    # eps tau past the float range leaves the asymptote, to rounding
    assert bound_rhs(12.5, 15, 1, 1.0, 1e308, 1e3) == 0.08
    # one step overflows while the value fits: 8 log2(15) / 12.5 / 1e-307
    rhs = bound_rhs(12.5, 15, 1, 1.0, 1e-306, np.array([0.1, 1.0]))
    expected = 0.08 + 0.64 * np.log2(15.0) / 1e-306 / np.array([0.1, 1.0])
    assert np.isfinite(expected).all()
    assert np.allclose(rhs, expected, rtol=1e-13, atol=0.0)
    # ||O||^2 N(eps) overflows while ||O||^2 N(eps) / d_eff fits
    assert bound_rhs(12.5, 15, 10**305, 3600.0, 1e300, 1e5) == pytest.approx(
        3600.0 * (1e305 / 12.5), rel=1e-13
    )
    for eps, tau in ((1e-308, 0.1), (1.0, 1e-308), (5e-324, 5e-324)):
        with pytest.raises(ValueError, match="rhs exceeds the float range at tau"):
            bound_rhs(12.5, 15, 1, 1.0, eps, tau)
    with pytest.raises(ValueError, match="lower n_eps"):
        bound_rhs(12.5, 15, int(sys.float_info.max), 1.0, 1.0, 0.1)


def test_bound_rhs_validation():
    with pytest.raises(ValueError, match="tau"):
        bound_rhs(12.5, 15, 1, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        bound_rhs(-1.0, 15, 1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        bound_rhs(12.5, 15, 0, 1.0, 1.0, 1.0)
    # the message names the first non-positive ingredient and its value
    good = (12.5, 15, 1, 1.0, 1.0)
    for k, name in enumerate(("d_eff", "n_lambda", "n_eps", "op_norm_sq", "epsilon")):
        args = [*good[:k], 0, *good[k + 1:]]
        with pytest.raises(ValueError, match=f"^{name} must be positive, got 0$"):
            bound_rhs(*args, 1.0)
    with pytest.raises(ValueError, match="^d_eff must be positive, got -1.0$"):
        bound_rhs(-1.0, 15, 0, 1.0, 1.0, 1.0)


def test_report_on_a_one_level_spectrum_names_n_eps():
    # an edgeless graph has the single level 0, so no gap fits any window
    g = graph_from_edges(4, [])
    with pytest.raises(ValueError, match="^n_eps must be positive, got 0$"):
        equilibration_report(g, 1, _node(4, 1), tau_grid=[1.0])
    rep = equilibration_report(g, 1, _node(4, 1), tau_grid=[1.0], n_eps_override=1)
    assert rep.n_eps == 0


def test_bound_rhs_over_a_grid_is_the_per_tau_value():
    taus = default_tau_grid()
    rhs = bound_rhs(12.676, 15, 3, 1.0, 0.5, taus)
    scalar = [bound_rhs(12.676, 15, 3, 1.0, 0.5, tau) for tau in taus.tolist()]
    assert rhs.shape == taus.shape
    assert rhs.tobytes() == np.array(scalar).tobytes()
    for bad in (0.0, -1.0):
        grid = taus.copy()
        grid[7] = bad
        with pytest.raises(ValueError, match="tau must be positive"):
            bound_rhs(12.676, 15, 3, 1.0, 0.5, grid)


def test_operator_norm_sq():
    assert operator_norm_sq(_node(60, 1)) == 1.0
    assert operator_norm_sq(position_observable(60)) == 3600.0
    assert operator_norm_sq(np.array([-2.0, 1.0, 0.5])) == 4.0
    # a dense matrix is refused, not read as its largest entry
    with pytest.raises(ValueError, match=re.escape("shape (2,), got (2, 2)")):
        operator_norm_sq([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        operator_norm_sq([1.0, np.inf])


@pytest.mark.parametrize("graph", ["c60", "f30"])
def test_empirical_lhs_vanishes_for_an_observable_commuting_with_h(graph, request):
    # a constant o is a multiple of the identity, which commutes with H, so
    # tr(O rho(t)) is constant: the signal is stationary from every start
    # and the lhs is exactly 0
    s = request.getfixturevalue(f"{graph}_spectrum")
    for start in (1, 2, s.n):
        lhs = empirical_lhs(s, start, np.full(s.n, 3.0), [1.0, 10.0])
        assert np.array_equal(lhs, np.zeros(2))


def test_empirical_lhs_vanishes_for_an_observable_the_start_cannot_reach():
    # on the disjoint triangles 1-3-5 and 2-4-6 a walk from 1, 3 or 5 never
    # reaches 2, 4 or 6, so an o supported there reads 0 at every time: the
    # lhs is exactly 0 although diag(o) does not commute with H. The
    # interleaved labels let the eigenbasis mix the two triangles, so W is
    # rounding noise (about 1e-32), not exactly 0, and only the noise floor
    # gives the exact 0
    triangles = graph_from_edges(6, [(1, 3), (3, 5), (1, 5), (2, 4), (4, 6), (2, 6)])
    s = eigendecompose(adjacency(triangles))
    o = np.array([0.0, 1.0, 0.0, 2.0, 0.0, -3.0])
    for start in (1, 3, 5):
        lhs = empirical_lhs(s, start, o, [1.0, 10.0])
        assert np.array_equal(lhs, np.zeros(2))


@pytest.mark.parametrize("tau", [1.0, 10.0, 100.0, 1000.0])
def test_empirical_lhs_matches_closed_form_oracle(c60, c60_spectrum, tau):
    o = _node(60, 1)  # also the diagonal of rho0
    (got,) = empirical_lhs(c60_spectrum, 1, o, [tau])
    want = closed_form_lhs(adjacency(c60), np.diag(o), np.diag(o), tau)
    assert abs(got - want) < 1e-12 * abs(want)


def test_empirical_lhs_c60_long_horizons_match_closed_form_oracle(c60, c60_spectrum):
    # start phases are taken directly at every panel, so rounding does not
    # grow with the horizon; the closed form has only 91 distinct gaps here
    taus = np.logspace(-1.0, 5.0, 13)
    o = _node(60, 1)
    got = empirical_lhs(c60_spectrum, 1, o, taus)
    want = closed_form_lhs(adjacency(c60), np.diag(o), np.diag(o), taus)
    assert np.all(np.abs(got - want) < 1e-12 * np.abs(want))


def test_gauss_legendre_rule_matches_numpy():
    x, w = _gauss_legendre(GL_NODES)
    x_ref, w_ref = np.polynomial.legendre.leggauss(GL_NODES)
    assert np.abs(x - 0.5 * (x_ref + 1.0)).max() < 1e-15
    # leggauss's own end weights are 6e-14 off a 50-digit reference
    assert np.abs(w / (0.5 * w_ref) - 1.0).max() < 1e-13


@pytest.mark.parametrize("graph", ["c60", "f30"])
@pytest.mark.parametrize("x", [1, 15])
def test_deviation_signal_rank(graph, x, request):
    # a node observable from a node start gives W = a a^T with
    # a_j = (P_j)_xx; the position observable gives a full-rank W
    s = request.getfixturevalue(f"{graph}_spectrum")
    w_node = _deviation_signal(s, x, _node(s.n, x))
    w_pos = _deviation_signal(s, x, position_observable(s.n))
    assert np.linalg.matrix_rank(w_node, hermitian=True) == 1
    assert np.linalg.matrix_rank(w_pos, hermitian=True) == s.n_distinct


@pytest.mark.parametrize("tau", [1e8, 1e300])
def test_empirical_lhs_refuses_an_over_long_horizon(c60_spectrum, tau):
    with pytest.raises(
        ValueError,
        match=r"nodes over 15 levels at signal rank 1, above the budget of 33554432 "
        r"nodes; this spectrum allows tau up to about 4\.67e\+06",
    ):
        empirical_lhs(c60_spectrum, 1, _node(60, 1), [tau])


def test_horizon_budget_does_not_grow_with_the_graph():
    # the default grid on 20000 levels spread over the widest cubic
    # spectrum, at full rank, needs as many nodes as on C60 and is not
    # refused; 4.3e6 on the same spectrum is
    levels = np.linspace(-3.0, 3.0, 20000)
    n_panels = _panel_counts(default_tau_grid(), levels, len(levels))
    assert GL_NODES * n_panels.sum() < 1e4
    _panel_counts(np.array([4.3e6]), levels, len(levels))
    with pytest.raises(ValueError, match="lhs quadrature too long"):
        _panel_counts(np.array([4.4e6]), levels, len(levels))


def test_empirical_lhs_small_graph_against_oracle():
    n, edges = SMALL_GRAPHS["c5"]
    a = adjacency(graph_from_edges(n, edges))
    s = eigendecompose(a)
    o = np.array([1.0, 0.0, -1.0, 0.5, 0.0])
    taus = [2.0, 20.0]
    got = empirical_lhs(s, 1, o, taus)
    want = closed_form_lhs(a, np.diag(_node(5, 1)), np.diag(o), taus)
    assert np.all(np.abs(got - want) < 1e-12 * np.abs(want))


@pytest.mark.parametrize("start", [15, 16])
def test_empirical_lhs_f30_position_against_oracle(f30, f30_spectrum, start):
    # the adaptive trapezoid this rule replaced was off by 1.15e-3 here
    taus = np.logspace(-1.0, 1.0, 20)
    o = position_observable(30)
    got = empirical_lhs(f30_spectrum, start, o, taus)
    want = closed_form_lhs(adjacency(f30), np.diag(_node(30, start)), np.diag(o), taus)
    assert np.all(np.abs(got - want) < 1e-12 * np.abs(want))


@pytest.mark.parametrize("start", [1, 2, 60])
def test_empirical_lhs_c60_position_against_oracle(c60, c60_spectrum, start):
    taus = np.logspace(-1.0, 3.0, 9)
    o = position_observable(60)
    got = empirical_lhs(c60_spectrum, start, o, taus)
    want = closed_form_lhs(adjacency(c60), np.diag(_node(60, start)), np.diag(o), taus)
    assert np.all(np.abs(got - want) < 1e-12 * np.abs(want))


def test_empirical_lhs_validation(c60_spectrum):
    o = _node(60, 1)
    with pytest.raises(ValueError, match="positive"):
        empirical_lhs(c60_spectrum, 1, o, [-1.0])
    with pytest.raises(ValueError, match="positive"):
        empirical_lhs(c60_spectrum, 1, o, [0.0, 1.0])
    with pytest.raises(ValueError, match="ascending"):
        empirical_lhs(c60_spectrum, 1, o, [2.0, 1.0])
    with pytest.raises(ValueError, match="1-d"):
        empirical_lhs(c60_spectrum, 1, o, [])
    for shape in ((59,), (61,), (60, 60), (60, 1), ()):
        with pytest.raises(ValueError, match=re.escape(f"shape (60,), got {shape}")):
            empirical_lhs(c60_spectrum, 1, np.zeros(shape), [1.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="observable values must be finite"):
            empirical_lhs(c60_spectrum, 1, np.where(o > 0, bad, 0.0), [1.0])


def test_default_tau_grid_shape():
    grid = default_tau_grid()
    assert len(grid) == 60
    assert grid[0] == pytest.approx(0.1)
    assert grid[-1] == pytest.approx(1000.0)
    assert np.all(np.diff(grid) > 0)


def test_report_on_f30_bound_holds(f30):
    o = _node(30, 1)
    taus = np.array([0.5, 2.0, 10.0, 50.0, 300.0])
    rep = equilibration_report(f30, 1, o, tau_grid=taus)
    assert np.all(rep.lhs <= rep.rhs)
    assert rep.n_eps_override is None
    assert rep.start == 1
    assert rep.rhs_asymptote == pytest.approx(
        rep.operator_norm_sq * rep.n_eps / rep.d_eff
    )
    # rhs decreases monotonically onto its asymptote
    assert np.all(np.diff(rep.rhs) < 0)
    assert np.all(rep.rhs > rep.rhs_asymptote)


def test_report_c60_override_matches_quoted_constants(c60):
    o = _node(60, 1)
    taus = np.array([1.0, 10.0, 100.0])
    rep = equilibration_report(c60, 1, o, tau_grid=taus, n_eps_override=1)
    assert rep.n_lambda == 15
    assert rep.n_eps == 33  # computed pairwise count is reported unchanged
    assert rep.n_eps_override == 1
    assert abs(rep.d_eff - 3600.0 / 284.0) < 1e-9
    assert rep.rhs_asymptote == pytest.approx(284.0 / 3600.0)
    assert np.all(rep.lhs <= rep.rhs)


def test_report_start_validation(f30):
    with pytest.raises(ValueError, match="start"):
        equilibration_report(f30, 31, _node(30, 1))


def test_report_rejects_a_bad_start_before_the_solve(eigh_calls):
    g = build_tube_fullerene(1000)
    for start in (0, 1001):
        with pytest.raises(ValueError, match=rf"start must be in 1\.\.1000, got {start}"):
            equilibration_report(g, start, position_observable(1000))
    assert eigh_calls == []
    # the counter does see the solve a good start needs
    equilibration_report(build_tube_fullerene(30), 30, _node(30, 1), tau_grid=[1.0])
    assert len(eigh_calls) == 1


def test_report_rejects_a_bad_tau_grid_before_the_solve(eigh_calls):
    g, o = build_tube_fullerene(1000), position_observable(1000)
    for taus, message in (([float("nan"), 1.0], "all tau values must be finite and positive"),
                          ([1.0, float("inf")], "all tau values must be finite and positive"),
                          ([2.0, 1.0], "tau_grid must be ascending")):
        with pytest.raises(ValueError, match=message):
            equilibration_report(g, 1, o, tau_grid=taus)
    assert eigh_calls == []


def test_report_rejects_a_bad_epsilon_or_override_before_the_solve(eigh_calls):
    g = build_tube_fullerene(1000)
    o = position_observable(1000)
    for epsilon in (0.0, -1.0, float("inf"), float("nan")):
        message = re.escape(f"epsilon must be finite and positive, got {epsilon}")
        with pytest.raises(ValueError, match=message):
            equilibration_report(g, 1, o, epsilon=epsilon)
    for k in (0, -3, 2.5, np.float64(2.0)):
        message = re.escape(f"n_eps_override must be a positive integer, got {k!r}")
        with pytest.raises(ValueError, match=message):
            equilibration_report(g, 1, o, n_eps_override=k)
    assert eigh_calls == []


def test_report_refuses_an_override_no_float_holds_before_the_solve(eigh_calls):
    # the rhs scales N(eps) as a float; the largest float itself is taken
    big = int(sys.float_info.max)
    with pytest.raises(ValueError, match="n_eps_override must fit in a float, got 309 digits"):
        equilibration_report(build_tube_fullerene(1000), 1, _node(1000, 1), n_eps_override=big + 1)
    assert eigh_calls == []
    # taken where the rhs still fits in a float, refused where it does not
    g, o = build_tube_fullerene(30), _node(30, 1)
    rep = equilibration_report(g, 1, o, tau_grid=[1.0], epsilon=1e300, n_eps_override=big)
    assert rep.n_eps_override == big and np.isfinite(rep.rhs).all()
    assert rep.rhs_asymptote == pytest.approx(big / rep.d_eff, rel=1e-15)
    with pytest.raises(ValueError, match=r"rhs exceeds the float range at tau 1; .* n_eps"):
        equilibration_report(g, 1, o, tau_grid=[1.0], n_eps_override=big)


def test_report_rejects_a_bad_observable_before_the_solve(eigh_calls):
    g = build_tube_fullerene(1000)
    for o, got in ((np.ones(999), "(999,)"), (np.eye(1000), "(1000, 1000)")):
        with pytest.raises(ValueError, match=re.escape(f"shape (1000,), got {got}")):
            equilibration_report(g, 1, o)
    assert eigh_calls == []
