import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullerwalk import (
    DEGENERACY_TOL,
    Spectrum,
    adjacency,
    build_c60_blocked,
    build_tube_fullerene,
    cluster_eigenvalues,
    eigendecompose,
    gap_count,
    graph_from_edges,
    graph_spectrum,
    limiting_distribution,
    load_graph,
    save_graph,
)
from fullerwalk import spectral
from oracles import (
    SMALL_GRAPHS,
    brute_force_gap_count,
    cluster_projectors,
    jacobi_eigh,
    mirror_sector_eigh,
)

C60_DEGENERACIES = [3, 4, 4, 5, 3, 5, 3, 3, 5, 9, 4, 3, 5, 3, 1]


def test_eigendecompose_rejects_nonsquare_and_asymmetric():
    with pytest.raises(ValueError, match="square"):
        eigendecompose(np.zeros((2, 3)))
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match="asymmetry"):
        eigendecompose(bad)


def test_eigendecompose_reconstruction_and_ordering(c60):
    a = adjacency(c60)
    s = eigendecompose(a)
    v, w = s.eigenvectors, s.eigenvalues
    assert np.all(np.diff(w) >= 0)
    assert np.abs(v @ np.diag(w) @ v.T - a).max() < 1e-8
    assert np.abs(v.T @ v - np.eye(60)).max() < 1e-12
    assert abs(w.sum()) < 1e-10  # traceless adjacency
    assert abs(w[-1] - 3.0) < 1e-10  # Perron value of a cubic graph


def test_cluster_eigenvalues_greedy_merge():
    vals = [0.0, 0.5e-6, 2.0, 2.0 + 1e-7, 5.0]
    assert cluster_eigenvalues(vals, 1e-6) == ((0, 1), (2, 3), (4,))
    assert cluster_eigenvalues([], 1e-6) == ()
    with pytest.raises(ValueError):
        cluster_eigenvalues(vals, 0.0)
    with pytest.raises(ValueError):
        cluster_eigenvalues(vals, -1e-6)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_cluster_eigenvalues_rejects_non_finite_tol(tol):
    with pytest.raises(ValueError, match="finite"):
        cluster_eigenvalues([0.0, 1.0], tol)


def test_spectrum_rejects_non_contiguous_clusters():
    w = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="contiguous"):
        Spectrum(w, np.eye(3), ((0, 2), (1,)), DEGENERACY_TOL)


def test_a_spectrum_built_without_orbits_gets_the_identity_table():
    s = Spectrum(np.array([0.0, 1.0, 2.0]), np.eye(3), ((0,), (1,), (2,)), DEGENERACY_TOL)
    assert s.orbits.shape == (1, 3) and s.orbits.tolist() == [[0, 1, 2]]
    with pytest.raises(ValueError):
        s.orbits[0, 0] = 1


def test_the_orbit_layout_of_two_three_cycles():
    # the table of test_distinct_rows_lifts_each_orbit_from_its_smallest_node
    reps, orbit, power = spectral._orbit_layout(spectral._powers(np.array([1, 2, 0, 4, 5, 3]), 3))
    assert reps.tolist() == [0, 3]
    assert orbit.tolist() == [0, 0, 0, 1, 1, 1]
    assert power.tolist() == [0, 1, 2, 0, 1, 2]  # x = perm^power(x)(reps[orbit(x)])


def test_c60_degeneracy_pattern(c60_spectrum):
    s = c60_spectrum
    assert s.n_distinct == 15
    assert [len(c) for c in s.clusters] == C60_DEGENERACIES
    # the 9 is an accidental near-coincidence of two levels at lambda = 1
    big = max(s.clusters, key=len)
    assert np.allclose(s.eigenvalues[list(big)], 1.0, atol=1e-9)


def test_projector_algebra(c60_spectrum):
    projs = cluster_projectors(c60_spectrum)
    total = np.zeros((60, 60))
    for i, p in enumerate(projs):
        assert np.abs(p @ p - p).max() < 1e-9
        assert np.abs(p - p.T).max() < 1e-12
        rank = np.trace(p)
        assert abs(rank - len(c60_spectrum.clusters[i])) < 1e-9
        total += p
        for q in projs[i + 1 :]:
            assert np.abs(p @ q).max() < 1e-9
    assert np.abs(total - np.eye(60)).max() < 1e-9


def test_projectors_commute_with_hamiltonian(c60, c60_spectrum):
    a = adjacency(c60)
    for p in cluster_projectors(c60_spectrum):
        assert np.abs(a @ p - p @ a).max() < 1e-8


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_eigendecompose_matches_jacobi_oracle(name):
    n, edges = SMALL_GRAPHS[name]
    a = adjacency(graph_from_edges(n, edges))
    s = eigendecompose(a)
    w_o, v_o = jacobi_eigh(a)
    assert np.abs(s.eigenvalues - w_o).max() < 1e-10
    # bases may differ inside degenerate clusters; compare projectors
    for c, p in zip(s.clusters, cluster_projectors(s)):
        cols = v_o[:, list(c)]
        assert np.abs(cols @ cols.T - p).max() < 1e-8


def test_hamiltonian_is_diagonal_in_its_own_basis(c60, c60_spectrum):
    v = c60_spectrum.eigenvectors
    a_mn = v.T @ adjacency(c60) @ v
    off = a_mn - np.diag(np.diag(a_mn))
    assert np.abs(off).max() < 1e-10
    assert np.abs(np.diag(a_mn) - c60_spectrum.eigenvalues).max() < 1e-10


def test_jacobi_oracle_offdiagonal_below_tolerance(f30):
    a = np.array(adjacency(f30))
    w, v = jacobi_eigh(a, tol=1e-12)
    assert np.abs(v @ np.diag(w) @ v.T - a).max() < 1e-10


def test_symmetry_adapted_basis_matches_plain_spectrum(c60_spectrum, c60_sym_spectrum):
    assert c60_sym_spectrum.basis_tag == "symmetry-adapted"
    assert np.abs(
        c60_sym_spectrum.eigenvalues - c60_spectrum.eigenvalues
    ).max() < 1e-9
    v = c60_sym_spectrum.eigenvectors
    assert np.abs(v.T @ v - np.eye(60)).max() < 1e-12
    assert [len(c) for c in c60_sym_spectrum.clusters] == C60_DEGENERACIES


def test_symmetry_adapted_basis_mirror_exact(c60_sym_spectrum):
    v = c60_sym_spectrum.eigenvectors
    mirrored = np.abs(v[::-1, :])
    assert np.abs(np.abs(v) - mirrored).max() == 0.0


@pytest.mark.parametrize("name, tag", [("C60", "symmetry-adapted"), ("F30", "c10-sectors"),
                                       ("F130", "c10-sectors"), ("F500", "c10-sectors"),
                                       ("F1000", "c10-sectors")])
def test_sectored_spectrum_matches_the_dense_solve(name, tag, solves):
    g = build_c60_blocked() if name == "C60" else build_tube_fullerene(int(name[1:]))
    a = adjacency(g)
    s, dense = graph_spectrum(g), eigendecompose(a)
    assert s.basis_tag == tag
    v, w = s.eigenvectors, s.eigenvalues
    assert np.abs(w - dense.eigenvalues).max() <= 1e-13
    assert np.abs(a @ v - v * w).max() <= 1e-13
    assert np.abs(v.T @ v - np.eye(g.n_nodes)).max() <= 1e-13
    assert s.clusters == dense.clusters
    u = limiting_distribution(s)
    assert np.abs(u - limiting_distribution(dense)).max() <= 1e-14
    assert np.array_equal(u, u.T)


def test_the_mirror_sectors_are_the_b_minus_plus_c_construction(c60):
    w, v = mirror_sector_eigh(adjacency(c60))
    s = graph_spectrum(c60)
    assert np.array_equal(s.eigenvalues, w)
    assert np.array_equal(s.eigenvectors, v)


def test_a_tube_with_two_labels_swapped_gets_the_plain_solve(f30, solves):
    swap = {1: 2, 2: 1}
    g = graph_from_edges(30, [(swap.get(a, a), swap.get(b, b)) for a, b in f30.edges])
    s = graph_spectrum(g)
    assert s.basis_tag == "plain" and solves == [1]
    dense = eigendecompose(adjacency(g))
    assert np.array_equal(s.eigenvalues, dense.eigenvalues)
    assert np.array_equal(s.eigenvectors, dense.eigenvectors)


def test_only_a_reversal_without_a_fixed_node_is_sectored(solves):
    # x -> N+1-x maps both paths onto themselves, but fixes the middle node of the odd one
    odd = graph_spectrum(graph_from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)]))
    even = graph_spectrum(graph_from_edges(4, [(1, 2), (2, 3), (3, 4)]))
    assert (odd.basis_tag, even.basis_tag) == ("plain", "symmetry-adapted")
    assert solves == [1, 2]


def test_a_loaded_tube_gets_the_same_sectored_basis(tmp_path, solves):
    # the blocks are summed in sorted edge order, whatever order the set holds
    g = build_tube_fullerene(130)
    built = graph_spectrum(g)
    save_graph(g, tmp_path / "f130.txt")
    spectral._solve.cache_clear()
    loaded = graph_spectrum(load_graph(tmp_path / "f130.txt"))
    assert solves == [10, 10] and loaded is not built
    assert np.array_equal(loaded.eigenvectors, built.eigenvectors)


def _column_scatter_eigh(g, cycle):
    """_sectored_eigh with its former lift: each sector's whole N x N/order
    lift scattered into V's columns of the ascending order, its real and
    imaginary parts apart."""
    order = len(cycle)
    n, m = g.n_nodes, g.n_nodes // order
    _, orb, pw = spectral._orbit_layout(cycle)
    e = np.array(sorted(g.edges), dtype=int).reshape(-1, 2) - 1
    x, y = np.concatenate([e, e[:, ::-1]]).T
    v, sectors = np.empty((n, n)), []
    for k in range(order // 2 + 1):
        phase = np.exp(2j * np.pi * k * np.arange(order) / order)
        copies = 1 if 2 * k % order == 0 else 2
        phase = phase.real if copies == 1 else phase
        h = np.zeros((m, m), phase.dtype)
        np.add.at(h, (orb[x], orb[y]), phase[(pw[y] - pw[x]) % order] / order)
        sectors.append((*np.linalg.eigh(h), phase, copies))
    values = np.concatenate([np.repeat(w, copies) for w, _, _, copies in sectors])
    by_value = np.argsort(values, kind="stable")
    column = np.empty(n, dtype=int)
    column[by_value] = np.arange(n)
    start = 0
    for w, c, phase, copies in sectors:
        lift = c[orb] * phase[pw][:, None] / np.sqrt(order / copies)
        cols, start = column[start:start + copies * m], start + copies * m
        for j, part in enumerate([lift] if copies == 1 else [lift.real, lift.imag]):
            v[:, cols[j::copies]] = part
    return values[by_value], v


def _relabelled_f130(tmp_path):
    """F130 under a fixed random relabelling, read back from its file."""
    g = build_tube_fullerene(130)
    label = np.random.default_rng(5).permutation(130) + 1
    save_graph(graph_from_edges(130, [(label[a - 1], label[b - 1]) for a, b in g.edges]),
               tmp_path / "f130.txt")
    return load_graph(tmp_path / "f130.txt")


@pytest.mark.parametrize("name, tag", [
    ("C60", "symmetry-adapted"), ("F30", "c10-sectors"),
    ("F130", "c10-sectors"),  # 64 + 64 + 2 rows: a partial last block
    ("F1000", "c10-sectors"), ("relabelled F130", "plain"),
])
def test_the_row_block_lift_keeps_the_bits_of_the_column_scatter(c60, tmp_path, name, tag):
    graphs = {"C60": lambda: c60, "F30": lambda: build_tube_fullerene(30),
              "F130": lambda: build_tube_fullerene(130),
              "F1000": lambda: build_tube_fullerene(1000),
              "relabelled F130": lambda: _relabelled_f130(tmp_path)}
    g = graphs[name]()
    cycle, found = spectral._symmetry(g)
    assert found == tag
    w, v = spectral._sectored_eigh(g, cycle)
    w0, v0 = _column_scatter_eigh(g, cycle)
    assert w.tobytes() == w0.tobytes()
    assert v.shape == v0.shape and v.tobytes() == v0.tobytes()


def test_the_tube_swap_is_a_free_involution_commuting_with_the_rotation():
    # every tube F30..F3000, so both parities of the ring count N/10 - 1
    for n in range(30, 3001, 10):
        swap, rot = spectral._tube_swap(n), spectral._tube_rotation(n)
        assert np.array_equal(swap[swap], np.arange(n))
        assert np.array_equal(swap[rot], rot[swap])
        assert not np.any(swap == np.arange(n))
        assert spectral._is_automorphism(build_tube_fullerene(n), swap)


def test_every_level_inside_a_c10_sector_is_simple(monkeypatch):
    # each within-sector gap exceeds the solver's backward error (about
    # eps ||A||, ||A|| = 3 on a cubic graph) a thousandfold, so by Weyl's
    # inequality the exact levels of a sector are distinct; F1000's
    # smallest gap is 1.3e-3
    gaps, eigh = [], np.linalg.eigh

    def recorded(h):
        w, c = eigh(h)
        gaps.append(np.diff(w).min())
        return w, c

    spectral._solve.cache_clear()
    monkeypatch.setattr(np.linalg, "eigh", recorded)
    sizes = range(30, 1001, 10)
    assert {graph_spectrum(build_tube_fullerene(n)).basis_tag for n in sizes} == {"c10-sectors"}
    assert len(gaps) == 6 * len(sizes)  # sectors 0..5
    assert min(gaps) > 1e3 * np.finfo(float).eps * 3


@pytest.mark.parametrize("n", [30, 130, 500, 1000])
def test_the_c10_solve_keeps_the_clusters_and_u_of_the_c5_solve(n):
    g = build_tube_fullerene(n)
    s, rot = graph_spectrum(g), spectral._powers(spectral._tube_rotation(n), 5)
    c5 = spectral._spectrum(*spectral._sectored_eigh(g, rot), DEGENERACY_TOL, "c5", rot)
    assert len(s.orbits) == 10 and s.clusters == c5.clusters
    assert np.abs(s.eigenvalues - c5.eigenvalues).max() <= 3e-14
    assert np.abs(limiting_distribution(s) - limiting_distribution(c5)).max() <= 1e-15


def test_gap_count_small_hand_case():
    # levels 0, 1, 3 -> gaps {1, 2, 3}
    a = np.diag([0.0, 1.0, 3.0])
    s = eigendecompose(a)
    assert gap_count(s, 0.5) == 1
    assert gap_count(s, 1.1) == 2
    assert gap_count(s, 2.5) == 3
    with pytest.raises(ValueError):
        gap_count(s, 0.0)


def test_gap_count_single_level_is_zero():
    s = eigendecompose(np.zeros((3, 3)))
    assert s.n_distinct == 1
    assert gap_count(s, 1.0) == 0


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
def test_gap_count_rejects_bad_epsilon(epsilon):
    s = eigendecompose(np.diag([0.0, 1.0, 3.0]))
    with pytest.raises(ValueError, match="finite and positive"):
        gap_count(s, epsilon)


def test_gap_count_window_is_half_open():
    # gaps {1, 2, 3}: a window of width 1 or 2 starting at a gap excludes
    # the gap at its right end, and one of width 1e-300 (g + 1e-300 rounds
    # to g) still holds the gap it starts at
    s = eigendecompose(np.diag([0.0, 1.0, 3.0]))
    for epsilon, expected in ((1.0, 1), (2.0, 2), (1e-300, 1)):
        assert gap_count(s, epsilon) == expected
        assert brute_force_gap_count(s.cluster_values(), epsilon) == expected


@pytest.mark.parametrize("name", ["c60"] + [f"f{n}" for n in range(30, 140, 10)])
def test_gap_count_matches_brute_force_scan(name):
    g = build_c60_blocked() if name == "c60" else build_tube_fullerene(int(name[1:]))
    s = eigendecompose(adjacency(g))
    levels = s.cluster_values()
    gaps = np.sort(np.subtract.outer(levels, levels).ravel())
    gaps = gaps[gaps > 0]
    # the last epsilon equals an actual gap, so the open window end lands
    # exactly on gaps at that distance
    for epsilon in (0.1, 1.0, 3.0, gaps[len(gaps) // 3], 1e-18, 1e-300):
        assert gap_count(s, epsilon) == brute_force_gap_count(levels, epsilon)


def test_c60_gap_count_at_unit_window(c60_spectrum):
    # 15 distinct levels give 105 positive pairwise gaps; the densest unit
    # window holds 32 of them, whatever the last bits the dense solve gives
    assert gap_count(c60_spectrum, 1.0) == 32


def test_c60_unit_window_count_is_exact_in_the_mirror_sectors(c60):
    # 42 pairs of C60 gaps differ by exactly 1, so a count that read the
    # last bit of the levels would turn on it. Reading differences within
    # 1e-9 of 0 or 1 as exact ties, the half-open window holds 32, the count
    # in 40-digit arithmetic too
    s = graph_spectrum(c60)
    levels = s.cluster_values()
    gaps = np.sort(np.subtract.outer(levels, levels)[np.tril_indices(15, -1)])
    d = np.subtract.outer(gaps, gaps)  # d[h, g] = gap h - gap g
    assert int(((d > -1e-9) & (d < 1.0 - 1e-9)).sum(axis=0).max()) == 32
    assert gap_count(s, 1.0) == 32


@pytest.mark.parametrize("name", ["c60", "f30", "f40", "f60", "f130"])
def test_both_solvers_give_the_same_gap_count(name):
    # the two solves round the levels differently; ties absorb that at both window edges
    g = build_c60_blocked() if name == "c60" else build_tube_fullerene(int(name[1:]))
    dense, sectored = eigendecompose(adjacency(g)), graph_spectrum(g)
    assert dense.n_distinct == sectored.n_distinct
    for epsilon in (0.5, 1.0, 2.0, 1e-18):
        assert gap_count(dense, epsilon) == gap_count(sectored, epsilon)
    if name == "c60":
        assert gap_count(dense, 1.0) == gap_count(sectored, 1.0) == 32


def test_spectrum_arrays_are_frozen(c60_spectrum):
    with pytest.raises(ValueError):
        c60_spectrum.eigenvalues[0] = 99.0
    with pytest.raises(ValueError):
        c60_spectrum.eigenvectors[0, 0] = 99.0


def test_degeneracy_tol_is_carried(c60):
    s = eigendecompose(adjacency(c60), degeneracy_tol=1e-3)
    assert s.degeneracy_tol == 1e-3
    assert s.n_distinct <= 15
    assert s.degeneracy_tol == pytest.approx(1e-3)
    assert eigendecompose(adjacency(c60)).degeneracy_tol == DEGENERACY_TOL


@pytest.fixture
def solves(monkeypatch):
    """Empty the graph_spectrum slot and record the order of each solve it
    makes (spectral._sectored_eigh)."""
    calls = []
    solve = spectral._sectored_eigh

    def counted(g, cycle):
        calls.append(len(cycle))
        return solve(g, cycle)

    spectral._solve.cache_clear()
    monkeypatch.setattr(spectral, "_sectored_eigh", counted)
    return calls


def test_graph_spectrum_hits_on_an_equal_graph(solves):
    s = graph_spectrum(build_tube_fullerene(30))
    assert graph_spectrum(build_tube_fullerene(30)) is s
    assert graph_spectrum(build_tube_fullerene(30), degeneracy_tol=DEGENERACY_TOL) is s
    assert len(solves) == 1
    spectral._solve.cache_clear()
    direct = graph_spectrum(build_tube_fullerene(30))
    assert len(solves) == 2 and direct is not s
    assert np.array_equal(s.eigenvalues, direct.eigenvalues)
    assert np.array_equal(s.eigenvectors, direct.eigenvectors)
    assert s.clusters == direct.clusters


def test_graph_spectrum_hits_on_a_loaded_graph(solves, tmp_path):
    g = build_tube_fullerene(40)
    s = graph_spectrum(g)
    save_graph(g, tmp_path / "f40.txt", header=["F40"])
    assert graph_spectrum(load_graph(tmp_path / "f40.txt")) is s
    assert len(solves) == 1


def test_graph_spectrum_misses_on_another_tolerance(c60, solves):
    s = graph_spectrum(c60)
    coarse = graph_spectrum(c60, 1e-1)
    assert coarse is not s
    assert coarse.degeneracy_tol == 1e-1
    assert coarse.clusters == eigendecompose(adjacency(c60), 1e-1).clusters
    assert coarse.n_distinct < s.n_distinct
    # equal in value but not in type: the Spectrum carries the tolerance as passed
    one = graph_spectrum(c60, 1)
    assert type(one.degeneracy_tol) is int
    assert type(graph_spectrum(c60, 1.0).degeneracy_tol) is float
    assert solves == [2, 2, 2, 2]  # each a mirror-sector solve


def test_graph_spectrum_keeps_one_graph(c60, solves):
    f30 = build_tube_fullerene(30)
    first = graph_spectrum(c60)
    graph_spectrum(f30)
    again = graph_spectrum(c60)
    assert again is not first
    assert np.array_equal(again.eigenvectors, first.eigenvectors)
    assert len(solves) == 3


def test_graph_spectrum_failure_leaves_the_slot(c60, solves, monkeypatch):
    s = graph_spectrum(c60)
    kept = spectral._solve.cache_info()
    with pytest.raises(ValueError, match="tol"):
        graph_spectrum(c60, float("nan"))
    assert spectral._solve.cache_info() == kept
    assert graph_spectrum(c60) is s
    assert len(solves) == 1  # the bad tolerance is refused before the solve

    def no_memory(*args):
        raise MemoryError("solve refused")

    monkeypatch.setattr(spectral, "_sectored_eigh", no_memory)
    with pytest.raises(MemoryError):
        graph_spectrum(build_tube_fullerene(30))  # a miss whose solve raises
    assert spectral._solve.cache_info().currsize == 1
    assert graph_spectrum(c60) is s


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
def test_a_bad_tol_is_refused_before_the_solve(c60, solves, monkeypatch, tol):
    def no_eigh(a):
        raise AssertionError("eigh reached")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    message = re.escape(f"tol must be finite and positive, got {tol}")
    with pytest.raises(ValueError, match=message):
        eigendecompose(adjacency(c60), tol)
    with pytest.raises(ValueError, match=message):
        graph_spectrum(c60, tol)
    assert solves == []


def test_graph_spectrum_arrays_are_read_only(c60, solves):
    for s in (graph_spectrum(c60), graph_spectrum(c60)):
        with pytest.raises(ValueError):
            s.eigenvalues[0] = 99.0
        with pytest.raises(ValueError):
            s.eigenvectors[0, 0] = 99.0
    assert len(solves) == 1


@pytest.mark.parametrize("name, rows", [("F30", 10), ("C60", 2), ("P5", 1)])
def test_graph_spectrum_carries_a_read_only_orbit_table(c60, name, rows):
    path = graph_from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])  # odd N: no symmetry tried
    g = {"F30": build_tube_fullerene(30), "C60": c60, "P5": path}[name]
    cycle = graph_spectrum(g).orbits
    assert cycle.shape == (rows, g.n_nodes)
    assert sorted(cycle[-1].tolist()) == list(range(g.n_nodes))
    with pytest.raises(ValueError):
        cycle[0, 0] = 1


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf, 1e300, -1e300, 1e-300]


@settings(max_examples=300, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=8),
    data=st.data(),
)
def test_cluster_means_keep_the_bits_of_numpys_own_mean(sizes, data):
    """The summation order the per-size pass relies on: a row mean along the
    contiguous last axis sums as the 1-D mean of that row."""
    n = sum(sizes)
    values = st.floats(allow_nan=False, width=64) | st.sampled_from(EDGE_VALUES)
    x = np.array(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=float)
    bounds = np.cumsum([0, *sizes]).tolist()
    clusters = tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
    s = Spectrum(x, np.eye(n), clusters, DEGENERACY_TOL)
    with np.errstate(all="ignore"):  # inf - inf and overflow, on both sides alike
        expected = np.array([x[list(c)].mean() for c in clusters])
        means = s.cluster_means(x)
    assert means.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_cluster_means_keep_the_bits_of_numpys_own_mean_on_long_clusters():
    """Past 8 values numpy splits the sum pairwise, past 128 recursively and
    past 8192 by buffer: the row means must follow it there too."""
    sizes = [129, 3, 1000, 129, 9000, 1]
    bounds = np.cumsum([0, *sizes]).tolist()
    clusters = tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
    rng = np.random.default_rng(5)
    x = rng.standard_normal(bounds[-1]) * 10.0 ** rng.integers(-8, 8, bounds[-1])
    means = Spectrum(x, np.eye(1), clusters, DEGENERACY_TOL).cluster_means(x)
    expected = np.array([x[list(c)].mean() for c in clusters])
    assert means.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
