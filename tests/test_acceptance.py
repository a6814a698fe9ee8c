"""Acceptance gate: the quantitative anchors, one test per criterion.

Each test prints a single `[acceptance N] PASS/FAIL` line next to the
numbers it checked. Two criteria compare against quoted reference
constants that disagree slightly with what this implementation actually
measures (the effective dimension in criterion 1 and the x=1 fluctuation
width in criterion 7). The deliberate choice here is to keep the quoted
tolerances and let those checks fail loudly rather than widen anything;
the measured values themselves are pinned green in the module test
suites, and README.md discusses the discrepancies.
"""

import numpy as np
import pytest

from fullerwalk import (
    adjacency,
    bound_rhs,
    build_tube_fullerene,
    cumulative_time_average,
    decompose_hamiltonian,
    default_tau_grid,
    effective_dimension,
    eigendecompose,
    eigenspace_projectors,
    empirical_lhs,
    equilibration_report,
    eth_report,
    gibbs_node_probability,
    gibbs_partition_function,
    gibbs_vs_limiting,
    graph_from_edges,
    haar_entropy_baseline,
    limiting_distribution,
    node_entropies,
    pentagon_gibbs,
    position_observable,
    projector_eth_stats,
    time_averaged_state,
)
from oracles import (
    SMALL_GRAPHS,
    brute_force_limiting,
    expm_evolution,
    pentagon_gibbs_expm,
)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def _node_rho(n, x):
    rho = np.zeros((n, n))
    rho[x - 1, x - 1] = 1.0
    return rho


def test_acceptance_01_c60_equilibration_constants(c60_spectrum):
    """d_eff = 12.5 +- 0.1 and log2(N_lambda) = 3.90 +- 0.02 for rho0 = |1><1|."""
    d_eff = effective_dimension(c60_spectrum, _node_rho(60, 1))
    n_lambda = c60_spectrum.n_distinct
    log2n = float(np.log2(n_lambda))

    ok_log = n_lambda == 15 and abs(log2n - 3.90) <= 0.02
    ok_deff = abs(d_eff - 12.5) <= 0.1
    _line(
        1,
        ok_log and ok_deff,
        f"d_eff={d_eff:.4f} (target 12.5+-0.1), "
        f"N_lambda={n_lambda}, log2={log2n:.4f} (target 3.90+-0.02)",
    )
    assert ok_log, f"log2(N_lambda)={log2n:.4f}, N_lambda={n_lambda}"
    # measured d_eff is exactly 3600/284 = 12.676; the 12.5 target is the
    # reciprocal of the rounded asymptote 0.08 and sits outside what the
    # level weights of |1><1| can produce
    assert ok_deff, f"d_eff={d_eff:.6f} is 3600/284, outside 12.5+-0.1"


def test_acceptance_02_bound_asymptote_and_lhs(c60):
    """rhs -> 0.08 exactly; measured lhs <= rhs on the whole default grid."""
    # exact algebra of the quoted instantiation: d_eff 12.5, N_lambda 15,
    # N(eps) 1, ||O||^2 1, eps 1
    asym_dev = abs(bound_rhs(12.5, 15, 1, 1.0, 1.0, 1.0e15) - 0.08)
    slope = 1.0e4 * (bound_rhs(12.5, 15, 1, 1.0, 1.0, 1.0e4) - 0.08)
    slope_dev = abs(slope - 0.08 * 8.0 * np.log2(15.0))

    rep = equilibration_report(
        c60, 1, _node_rho(60, 1), tau_grid=default_tau_grid(), n_eps_override=1
    )
    quoted_rhs = 0.08 * (1.0 + 8.0 * np.log2(15.0) / rep.tau_grid)
    violations = int(np.sum(rep.lhs > quoted_rhs))
    ok = asym_dev < 1e-12 and slope_dev < 1e-12 and violations == 0
    _line(
        2,
        ok,
        f"asymptote dev {asym_dev:.2e}, lhs<=rhs violations "
        f"{violations}/{len(rep.tau_grid)}, max lhs {rep.lhs.max():.4f}",
    )
    assert asym_dev < 1e-12
    assert slope_dev < 1e-12
    assert violations == 0
    assert np.all(rep.lhs <= rep.rhs)


def test_acceptance_03_limiting_rows(c60_spectrum):
    """First two rows of u over the pentagon match the quoted vectors to 5e-4."""
    u = limiting_distribution(c60_spectrum)
    want1 = np.array([0.079, 0.024, 0.021, 0.021, 0.024])
    want2 = np.array([0.024, 0.079, 0.024, 0.021, 0.021])
    dev1 = np.abs(u.row(1)[:5] - want1).max()
    dev2 = np.abs(u.row(2)[:5] - want2).max()
    ok = dev1 < 5e-4 and dev2 < 5e-4
    _line(3, ok, f"row1 dev {dev1:.2e}, row2 dev {dev2:.2e} (tol 5e-4)")
    assert dev1 < 5e-4
    assert dev2 < 5e-4


def test_acceptance_04_symmetry_suite(c60_sym_spectrum):
    """Mirror relation, u mirror symmetry, and the flat 30.5 diagonal."""
    v = c60_sym_spectrum.eigenvectors
    mirror = np.abs(np.abs(v) - np.abs(v[::-1, :])).max()
    u = limiting_distribution(c60_sym_spectrum).u
    u_mirror = np.abs(u - u[:, ::-1]).max()
    diag = np.diag(v.T @ position_observable(60) @ v)
    pos_dev = np.abs(diag - 30.5).max()
    ok = mirror < 1e-10 and u_mirror < 1e-9 and pos_dev < 1e-9
    _line(
        4,
        ok,
        f"mirror {mirror:.2e} (<1e-10), u mirror {u_mirror:.2e} (<1e-9), "
        f"position diag dev {pos_dev:.2e} (<1e-9)",
    )
    assert mirror < 1e-10
    assert u_mirror < 1e-9
    assert pos_dev < 1e-9


def test_acceptance_05_pentagon_gibbs_limits():
    """1/6 at beta=0, 0.2 at beta=200, closed-form Z, expm oracle."""
    p0 = gibbs_node_probability(0.0)
    p200 = gibbs_node_probability(200.0)
    sqrt5 = np.sqrt(5.0)
    z_rel = max(
        abs(
            gibbs_partition_function(b)
            - (
                1.0
                + np.exp(-b)
                + 2.0 * np.exp(-(sqrt5 - 1.0) * b / 4.0)
                + 2.0 * np.exp((1.0 + sqrt5) * b / 4.0)
            )
        )
        / gibbs_partition_function(b)
        for b in (0.1, 1.0, 5.0)
    )
    oracle_dev = max(
        np.abs(pentagon_gibbs(b).state - pentagon_gibbs_expm(b)[1]).max()
        for b in (0.0, 0.1, 1.0, 5.0, 50.0)
    )
    ok = p0 == 1.0 / 6.0 and abs(p200 - 0.2) <= 1e-10 and z_rel < 1e-12 and oracle_dev < 1e-10
    _line(
        5,
        ok,
        f"p(0)={p0} (exact 1/6: {p0 == 1.0 / 6.0}), |p(200)-0.2|={abs(p200 - 0.2):.1e}, "
        f"Z rel dev {z_rel:.1e}, expm dev {oracle_dev:.1e}",
    )
    assert p0 == 1.0 / 6.0
    assert abs(p200 - 0.2) <= 1e-10
    assert z_rel < 1e-12
    assert oracle_dev < 1e-10


def test_acceptance_06_family_never_gibbs():
    """u(N, N) misses every attainable Gibbs probability for all 11 sizes."""
    betas = np.linspace(0.0, 200.0, 201)
    rows = gibbs_vs_limiting(range(30, 131, 10), betas)
    ps = np.array([gibbs_node_probability(b) for b in betas])
    margins = {r.n: float(np.min(np.abs(r.u_nn - ps))) for r in rows}
    ok = len(rows) == 11 and all(not r.gibbs_matchable for r in rows)
    worst = min(margins.values())
    _line(
        6,
        ok and worst > 1e-3,
        f"{len(rows)} sizes, matchable={sum(r.gibbs_matchable for r in rows)}, "
        f"smallest margin {worst:.4f} (>1e-3)",
    )
    assert len(rows) == 11
    for r in rows:
        assert not r.gibbs_matchable, f"N={r.n} unexpectedly matchable"
        assert margins[r.n] > 1e-3
    assert all(1.0 / 6.0 - 1e-12 <= p <= 0.2 + 1e-12 for p in ps)


def test_acceptance_07_eth_dichotomy(c60_spectrum):
    """Node projector diagonals rough at the quoted widths; position flat."""
    quoted = [0.028, 0.018, 0.018, 0.015, 0.017]
    stats = [projector_eth_stats(c60_spectrum, x) for x in range(1, 6)]
    mean_ok = all(m == pytest.approx(1.0 / 60.0, abs=1e-14) for m, _ in stats)
    devs = [abs(sd - q) for (_, sd), q in zip(stats, quoted)]
    stds_ok = all(d <= 0.003 for d in devs)
    pos_std = eth_report(c60_spectrum, position_observable(60)).diag_std
    ok = mean_ok and stds_ok and pos_std < 1e-8
    _line(
        7,
        ok,
        f"stds {[round(sd, 4) for _, sd in stats]} vs {quoted} +-0.003 "
        f"(max dev {max(devs):.4f}), position std {pos_std:.1e}",
    )
    assert mean_ok
    assert pos_std < 1e-8
    # x=1 measures 0.0322 in this (and every principled) basis, 0.0012
    # beyond the quoted 0.028 +- 0.003; kept failing instead of widened
    assert stds_ok, f"std devs from quoted values: {[round(d, 4) for d in devs]}"


def test_acceptance_08_entropy_baselines(c60_spectrum):
    """Node-state entropies and the seeded Haar-orthogonal baseline."""
    ents = node_entropies(c60_spectrum)
    mean, std = float(ents.mean()), float(ents.std())
    haar_mean, haar_std = haar_entropy_baseline(60, 1000, seed=0)
    ok = (
        abs(mean - 3.57) <= 0.03
        and abs(std - 0.16) <= 0.03
        and abs(haar_mean - 3.39) <= 0.05
    )
    _line(
        8,
        ok,
        f"nodes {mean:.4f}+-{std:.4f} (targets 3.57+-0.03, 0.16+-0.03), "
        f"haar {haar_mean:.4f}+-{haar_std:.4f} (target mean 3.39+-0.05)",
    )
    assert abs(mean - 3.57) <= 0.03
    assert abs(std - 0.16) <= 0.03
    assert abs(haar_mean - 3.39) <= 0.05


def test_acceptance_09_property_suite(c60, c60_spectrum, c60_sym_spectrum):
    """Structural properties: stochasticity, projector algebra, unitarity,
    quadrature agreement, omega fixed point, d_eff invariance, edge split."""
    failures = []

    u = limiting_distribution(c60_spectrum).u
    if np.abs(u.sum(axis=1) - 1.0).max() > 1e-9:
        failures.append("row stochasticity")

    projs = eigenspace_projectors(c60_spectrum)
    total = sum(projs)
    if np.abs(total - np.eye(60)).max() > 1e-9:
        failures.append("projector completeness")
    for i, p in enumerate(projs):
        if np.abs(p @ p - p).max() > 1e-9:
            failures.append(f"projector {i} idempotence")
        for q in projs[i + 1 :]:
            if np.abs(p @ q).max() > 1e-9:
                failures.append("projector orthogonality")
                break

    for t in (0.7, 13.0):
        w = c60_spectrum.eigenvalues
        v = c60_spectrum.eigenvectors
        u_t = v @ np.diag(np.exp(-1j * w * t)) @ v.T
        if np.abs(u_t @ u_t.conj().T - np.eye(60)).max() > 1e-9:
            failures.append(f"unitarity at t={t}")

    for name, (n, edges) in sorted(SMALL_GRAPHS.items()):
        a = adjacency(graph_from_edges(n, edges))
        u_small = limiting_distribution(eigendecompose(a)).u
        dev = np.abs(u_small - brute_force_limiting(a)).max()
        if dev > 5e-3:
            failures.append(f"quadrature agreement on {name} (dev {dev:.1e})")

    rho = _node_rho(60, 1)
    omega = time_averaged_state(c60_spectrum, rho)
    u_rot = expm_evolution(adjacency(c60), 2.1)
    if np.abs(u_rot @ omega @ u_rot.conj().T - omega).max() > 1e-10:
        failures.append("omega fixed point")

    d_plain = effective_dimension(c60_spectrum, rho)
    d_sym = effective_dimension(c60_sym_spectrum, rho)
    if abs(d_plain - d_sym) > 1e-10:
        failures.append("d_eff basis invariance")

    for n in (30, 130):
        g = build_tube_fullerene(n)
        dec = decompose_hamiltonian(g)
        split = sum(
            int(np.count_nonzero(m)) // 2 for m in (dec.h_s, dec.h_b, dec.h_int)
        )
        if split != g.n_edges:
            failures.append(f"edge conservation on F{n}")

    _line(9, not failures, "all structural properties" if not failures else ", ".join(failures))
    assert not failures, failures
