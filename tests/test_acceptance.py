"""Acceptance gate: the quantitative anchors, one test per criterion.

Each test prints a single `[acceptance N] PASS/FAIL` line next to the
numbers it checked. Where a quantity depends on the eigenbasis chosen
inside degenerate clusters (the per-eigenvector diagonal of a node
projector, criterion 7), the criterion checks what holds in every valid
eigenbasis: the attainable interval, the cluster-averaged diagonal and the
Haar average over rotations inside each cluster. Cluster dimensions and
cluster weights come from the Jacobi oracle in tests/oracles.py, not from
the library.
"""

import numpy as np
import pytest

from fullerwalk import (
    Spectrum,
    adjacency,
    bound_rhs,
    build_tube_fullerene,
    cumulative_time_average,
    decompose_hamiltonian,
    default_tau_grid,
    effective_dimension,
    eigendecompose,
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
    cluster_projectors,
    expm_evolution,
    haar_rotate_within_clusters,
    node_projector_widths,
    pentagon_gibbs_expm,
)

# Criterion 7's Monte Carlo check: HAAR_ROTATIONS seeded rotations inside
# every cluster. One rotation's squared width scatters around its Haar mean
# with a relative std of at most 0.21 (nodes 1-5, 50 seeds of 400
# rotations), so the sample mean may miss the closed form by five standard
# errors, 5 * 0.21 / sqrt(400) = 0.0525 relative, before the check fails.
HAAR_ROTATIONS = 400
HAAR_SEED = 0
HAAR_REL_TOL = 5 * 0.21 / np.sqrt(HAAR_ROTATIONS)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def _node(n, x):
    """e_x, the node function of |x><x|."""
    e = np.zeros(n)
    e[x - 1] = 1.0
    return e


@pytest.fixture(scope="module")
def c60_widths(c60):
    return node_projector_widths(np.array(adjacency(c60)))


def test_acceptance_01_c60_equilibration_constants(c60_spectrum, c60_widths):
    """d_eff = 3600 / sum_n d_n^2 for rho0 = |1><1| and log2(N_lambda) = 3.90 +- 0.02.

    d_eff = 1 / sum_n tr(P_n rho0)^2 (Short & Farrelly 2012). C60 is vertex
    transitive, so tr(P_n rho0) = d_n / 60 and d_eff = 3600 / 284 = 12.676.
    The same sum is u(1,1), so d_eff * u(1,1) = 1, and the quoted asymptote
    0.08 of criterion 2 is 1/d_eff to two decimals.
    """
    d_eff = effective_dimension(c60_spectrum, 1)
    n_lambda = c60_spectrum.n_distinct
    log2n = float(np.log2(n_lambda))
    want = 3600.0 / c60_widths.sum_d2
    weight_dev = float(np.abs(c60_widths.weights[:, 0] - c60_widths.dims / 60.0).max())
    u11 = float(limiting_distribution(c60_spectrum)[0, 0])

    ok_log = n_lambda == 15 and abs(log2n - 3.90) <= 0.02
    ok_deff = abs(d_eff - want) < 1e-9 and weight_dev < 1e-12
    ok_u11 = abs(d_eff * u11 - 1.0) < 1e-12
    ok_quote = round(1.0 / d_eff, 2) == 0.08
    _line(
        1,
        ok_log and ok_deff and ok_u11 and ok_quote,
        f"d_eff={d_eff:.6f} vs 3600/{c60_widths.sum_d2}={want:.6f} (tol 1e-9), "
        f"|d_eff*u(1,1)-1|={abs(d_eff * u11 - 1.0):.1e}, 1/d_eff={1.0 / d_eff:.4f}, "
        f"N_lambda={n_lambda}, log2={log2n:.4f} (target 3.90+-0.02)",
    )
    assert ok_log, f"log2(N_lambda)={log2n:.4f}, N_lambda={n_lambda}"
    assert c60_widths.sum_d2 == 284
    assert weight_dev < 1e-12, "node 1 cluster weights are not d_n/60"
    assert abs(d_eff - want) < 1e-9, f"d_eff={d_eff!r}, 3600/sum d^2={want!r}"
    assert ok_u11, f"d_eff * u(1,1) = {d_eff * u11!r}"
    assert ok_quote, f"1/d_eff={1.0 / d_eff:.6f} does not round to the quoted 0.08"


def test_acceptance_02_bound_asymptote_and_lhs(c60):
    """rhs -> 0.08 exactly; measured lhs <= rhs on the whole default grid."""
    # exact algebra of the quoted instantiation: d_eff 12.5, N_lambda 15,
    # N(eps) 1, ||O||^2 1, eps 1
    asym_dev = abs(bound_rhs(12.5, 15, 1, 1.0, 1.0, 1.0e15) - 0.08)
    slope = 1.0e4 * (bound_rhs(12.5, 15, 1, 1.0, 1.0, 1.0e4) - 0.08)
    slope_dev = abs(slope - 0.08 * 8.0 * np.log2(15.0))

    rep = equilibration_report(
        c60, 1, _node(60, 1), tau_grid=default_tau_grid(), n_eps_override=1
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
    dev1 = np.abs(u[0, :5] - want1).max()
    dev2 = np.abs(u[1, :5] - want2).max()
    ok = dev1 < 5e-4 and dev2 < 5e-4
    _line(3, ok, f"row1 dev {dev1:.2e}, row2 dev {dev2:.2e} (tol 5e-4)")
    assert dev1 < 5e-4
    assert dev2 < 5e-4


def test_acceptance_04_symmetry_suite(c60_sym_spectrum):
    """Mirror relation, u mirror symmetry, and the flat 30.5 diagonal."""
    v = c60_sym_spectrum.eigenvectors
    mirror = np.abs(np.abs(v) - np.abs(v[::-1, :])).max()
    u = limiting_distribution(c60_sym_spectrum)
    u_mirror = np.abs(u - u[:, ::-1]).max()
    diag = np.diag(v.T @ np.diag(position_observable(60)) @ v)
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


def test_acceptance_07_eth_dichotomy(c60_spectrum, c60_sym_spectrum, c60_widths):
    """Node projector diagonals are rough in every eigenbasis; position is flat.

    One node's width depends on the basis inside each degenerate cluster:
    valid solvers give node 1 anything from 0 to sigma_max = 0.0322. So
    every width must lie in [0, sigma_max], the quoted widths must be
    attainable, the cluster-averaged diagonal must be 1/60, and over Haar
    rotations inside the clusters the mean squared width must match its
    closed form while the position diagonal stays flat.
    """
    quoted = [0.028, 0.018, 0.018, 0.015, 0.017]
    sigma_max = c60_widths.sigma_max
    assert [len(c) for c in c60_spectrum.clusters] == c60_widths.dims.tolist()
    mean_ok, in_range = True, {}
    for s in (c60_spectrum, c60_sym_spectrum):
        stats = np.column_stack(projector_eth_stats(s))
        mean_ok &= bool(np.all(np.abs(stats[:, 0] - 1.0 / 60.0) <= 1e-14))
        sds = stats[:, 1]
        in_range[s.basis_tag] = bool(np.all((sds >= 0.0) & (sds <= sigma_max + 1e-12)))
    quoted_ok = all(0.0 <= q <= sigma_max[x - 1] for x, q in enumerate(quoted, 1))
    avg_dev = max(
        np.abs(eth_report(c60_spectrum, _node(60, x)).cluster_averaged_diagonal - 1.0 / 60.0).max()
        for x in range(1, 6)
    )
    pos_std = eth_report(c60_spectrum, position_observable(60)).diag_std

    rng = np.random.default_rng(HAAR_SEED)
    sq = np.empty((HAAR_ROTATIONS, 5))
    rot_pos_std = 0.0
    for i in range(HAAR_ROTATIONS):
        r = Spectrum(
            c60_spectrum.eigenvalues,
            haar_rotate_within_clusters(c60_spectrum.eigenvectors, c60_spectrum.clusters, rng),
            c60_spectrum.clusters,
            c60_spectrum.degeneracy_tol,
            "haar-rotated",
        )
        sq[i] = projector_eth_stats(r)[1][:5] ** 2
        rot_pos_std = max(rot_pos_std, eth_report(r, position_observable(60)).diag_std)
    haar_sq = c60_widths.sigma_haar[:5] ** 2
    haar_dev = float(np.abs(sq.mean(axis=0) / haar_sq - 1.0).max())

    ok = (
        mean_ok
        and all(in_range.values())
        and quoted_ok
        and avg_dev < 1e-12
        and pos_std < 1e-8
        and haar_dev < HAAR_REL_TOL
        and rot_pos_std < 1e-8
    )
    _line(
        7,
        ok,
        f"widths within [0, {sigma_max[0]:.5f}] {in_range}, quoted attainable {quoted_ok}, "
        f"cluster-average dev {avg_dev:.1e}, Haar rms "
        f"{np.sqrt(sq.mean(axis=0)).round(5).tolist()} vs {c60_widths.sigma_haar[0]:.5f} "
        f"(squares rel dev {haar_dev:.4f} < {HAAR_REL_TOL:.4f}), "
        f"position std {pos_std:.1e}, rotated {rot_pos_std:.1e}",
    )
    assert mean_ok
    assert pos_std < 1e-8
    assert all(in_range.values()), in_range
    assert quoted_ok, f"quoted widths {quoted} outside [0, sigma_max]"
    assert avg_dev < 1e-12
    assert haar_dev < HAAR_REL_TOL, f"mean squared widths {sq.mean(axis=0)} vs {haar_sq}"
    assert rot_pos_std < 1e-8


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

    u = limiting_distribution(c60_spectrum)
    if np.abs(u.sum(axis=1) - 1.0).max() > 1e-9:
        failures.append("row stochasticity")

    projs = cluster_projectors(c60_spectrum)
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
        u_small = limiting_distribution(eigendecompose(a))
        dev = np.abs(u_small - brute_force_limiting(a)).max()
        if dev > 5e-3:
            failures.append(f"quadrature agreement on {name} (dev {dev:.1e})")

    omega = time_averaged_state(c60_spectrum, 1)
    u_rot = expm_evolution(adjacency(c60), 2.1)
    if np.abs(u_rot @ omega @ u_rot.conj().T - omega).max() > 1e-10:
        failures.append("omega fixed point")

    d_plain = effective_dimension(c60_spectrum, 1)
    d_sym = effective_dimension(c60_sym_spectrum, 1)
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
