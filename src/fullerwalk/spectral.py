"""Symmetric eigendecomposition and degeneracy bookkeeping.

Everything downstream (limiting distributions, dephasing, the equilibration
bound) depends on eigenspaces, not on the basis inside them, so the Spectrum
value carries the degeneracy clustering alongside the raw eigenpairs.
Clusters are contiguous runs of the eigen-index, so per-eigenspace
quantities are segment sums (Spectrum.cluster_sums); no projector is
formed.

A graph's spectrum (graph_spectrum) is solved in the sectors of a cyclic
label symmetry read off N and verified on the edge list: the tube
builder's C10, its C5 rotation after the cap-to-cap swap, gives ten
sectors of N/10 ("c10-sectors"), in each of which every level is simple;
the reversal x -> N+1-x of an even N gives two of N/2
("symmetry-adapted"; C60's blocked labels take this route, and its mirror
relation |<x|lam_k>| = |<N+1-x|lam_k>| then holds exactly by
construction), and a graph with neither gets one dense solve ("plain").
eigendecompose solves any symmetric matrix densely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import Graph

# matches the degeneracy threshold used to produce the reference data
DEGENERACY_TOL = 1e-6

# eigendecompose rejects input whose asymmetry exceeds this
SYMMETRY_TOL = 1e-12

LIFT_ROWS = 64  # rows of V that _sectored_eigh lifts from the sectors at a time


@dataclass(frozen=True)
class Spectrum:
    """Eigensystem of a real symmetric matrix with degeneracy clusters.

    Fields
    ------
    eigenvalues : (N,) ascending
    eigenvectors : (N, N), column k belongs to eigenvalues[k], orthonormal
    clusters : tuple of index tuples, contiguous in the sorted order;
        eigenvalues within a cluster agree to degeneracy_tol
    degeneracy_tol : float
    basis_tag : str
        "plain" for the dense solver's basis, "c10-sectors" for real lifts
        of the sectors of the tube's C10, "symmetry-adapted" for the
        reversal's two sectors, in which |<x|lam_k>| = |<N+1-x|lam_k>|
        exactly (C60). Per-vector quantities inside degenerate clusters
        depend on this choice; projectors do not.
    orbits : (order, N) read-only int table, row p mapping node x to perm^p(x)
        The powers of the verified 0-based label map perm solved in, whose
        orbits all have `order` nodes, so it commutes with every P_j. Left
        out, it is the identity's one row.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: tuple
    degeneracy_tol: float
    basis_tag: str = "plain"
    orbits: np.ndarray = None

    def __post_init__(self):
        if [k for c in self.clusters for k in c] != list(range(len(self.eigenvalues))):
            raise ValueError("clusters must be contiguous runs covering 0..N-1 in order")
        if self.orbits is None:
            object.__setattr__(self, "orbits", _powers(np.arange(self.n), 1))

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def n_distinct(self) -> int:
        return len(self.clusters)

    @property
    def cluster_index(self) -> np.ndarray:
        """Cluster number of each eigen-index (column of eigenvectors)."""
        return np.repeat(np.arange(self.n_distinct), [len(c) for c in self.clusters])

    def cluster_sums(self, x) -> np.ndarray:
        """Segment sums of x over each cluster's eigen-indices along its last axis."""
        starts = [c[0] for c in self.clusters]
        return np.add.reduceat(np.asarray(x, dtype=float), starts, axis=-1)

    def cluster_means(self, x: np.ndarray) -> np.ndarray:
        """Mean of the length-N float array x over each cluster, with the
        bits of numpy's own x[list(c)].mean() (reduceat's order differs in
        the last bit). The clusters of each size m are gathered as the rows
        of one (clusters x m) array; a mean along its contiguous last axis
        sums each row as the 1-D mean of that row does."""
        x = np.asarray(x)
        starts = np.array([c[0] for c in self.clusters])
        sizes = np.diff(starts, append=self.n)
        means = np.empty(len(starts))
        for m in np.flatnonzero(np.bincount(sizes)).tolist():
            rows = np.flatnonzero(sizes == m)
            means[rows] = x[starts[rows, None] + np.arange(m)].mean(axis=1)
        return means

    def cluster_values(self) -> np.ndarray:
        """Representative (mean) eigenvalue of each cluster."""
        return self.cluster_means(self.eigenvalues)


def _check_positive(x: float, name: str) -> None:
    """Reject a value that is not a finite positive number, naming the argument it came in."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"{name} must be finite and positive, got {x}")


def cluster_eigenvalues(values, tol: float) -> tuple:
    """Greedy adjacent-merge clustering of an ascending value sequence.

    A new cluster starts whenever the gap to the previous value exceeds
    tol. Returns a tuple of index tuples covering 0..len(values)-1.
    """
    values = np.asarray(values, dtype=float)
    _check_positive(tol, "tol")
    if len(values) == 0:
        return ()
    splits = np.flatnonzero(np.diff(values) > tol) + 1
    return tuple(tuple(c.tolist()) for c in np.split(np.arange(len(values)), splits))


def _spectrum(w, v, degeneracy_tol: float, basis_tag: str, orbits=None) -> Spectrum:
    """Read-only Spectrum of ascending eigenvalues w and eigenvector columns v."""
    w.flags.writeable = v.flags.writeable = False
    clusters = cluster_eigenvalues(w, degeneracy_tol)
    return Spectrum(w, v, clusters, degeneracy_tol, basis_tag, orbits)


def eigendecompose(a, degeneracy_tol: float = DEGENERACY_TOL) -> Spectrum:
    """Full eigendecomposition of a real symmetric matrix.

    Uses the dense LAPACK symmetric solver, which is deterministic for
    identical input. Within exactly degenerate eigenspaces the returned
    basis is one valid orthonormal choice among many; quantities that
    depend only on the eigenspace projectors are insensitive to it.

    Raises
    ------
    ValueError
        If the input is not symmetric to within 1e-12, or degeneracy_tol
        is not finite and positive (checked before the solve).
    """
    _check_positive(degeneracy_tol, "tol")
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    asym = np.abs(a - a.T).max() if a.size else 0.0
    if asym > SYMMETRY_TOL:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
    w, v = np.linalg.eigh(a)
    return _spectrum(w, v, degeneracy_tol, "plain")


def _is_automorphism(g: Graph, perm: np.ndarray) -> bool:
    """True when the 0-based node map perm takes the edge set of g onto itself."""
    p = [0, *(perm + 1).tolist()]  # the image of each 1-based label
    return g.edges == {(p[a], p[b]) if p[a] < p[b] else (p[b], p[a]) for a, b in g.edges}


def _tube_rotation(n: int) -> np.ndarray:
    """build_tube_fullerene's C5 rotation as a 0-based node map (n a multiple
    of 10): the pentagon and the far cap shift by 1, each ring of ten by 2."""
    layers = [(0, 5, 1), *((s, 10, 2) for s in range(5, n - 14, 10)), (n - 5, 5, 1)]
    return np.array([first + (o + step) % size for first, size, step in layers for o in range(size)])


def _tube_swap(n: int) -> np.ndarray:
    """build_tube_fullerene's cap-to-cap swap as a 0-based node map (n a
    multiple of 10): with R = n/10 - 1 rings, the pentagon's offset o goes to
    the far cap's (o + 3R) mod 5 and the far cap back by the inverse, ring k
    (1-based) to ring R + 1 - k with o -> (o + 6R - 11 - 2(k - 1)) mod 10.
    An involution that commutes with _tube_rotation and fixes no node."""
    r, o5, o10 = n // 10 - 1, np.arange(5), np.arange(10)
    rings = [5 + 10 * (r - k) + (o10 + 6 * r - 11 - 2 * (k - 1)) % 10 for k in range(1, r + 1)]
    return np.concatenate([n - 5 + (o5 + 3 * r) % 5, *rings, (o5 - 3 * r) % 5])


def _symmetry(g: Graph):
    """(powers table, basis tag) of the first label map read off N that maps
    the edges of g onto themselves: the tube's C10, the C5 rotation after
    the cap swap, then for even N the reversal; else the identity."""
    n = g.n_nodes
    if n % 10 == 0 and _is_automorphism(g, c10 := _tube_rotation(n)[_tube_swap(n)]):
        return _powers(c10, 10), "c10-sectors"
    if n % 2 == 0 and _is_automorphism(g, rev := np.arange(n)[::-1]):  # x -> N+1-x
        return _powers(rev, 2), "symmetry-adapted"
    return _powers(np.arange(n), 1), "plain"


def _powers(perm: np.ndarray, order: int) -> np.ndarray:
    """Read-only (order, N) table whose row p maps each node x to perm^p(x)."""
    cycle = np.array([np.arange(len(perm))] * order)
    for p in range(1, order):
        cycle[p] = perm[cycle[p - 1]]
    cycle.flags.writeable = False
    return cycle


def _orbit_layout(cycle: np.ndarray):
    """(reps, orbit, power) of the powers table cycle of a node map perm
    (cycle[p, x] = perm^p(x)) whose orbits all have len(cycle) nodes: the
    smallest node of each orbit, ascending; the orbit number of each node;
    and the p of each node x with x = perm^p(reps[orbit[x]])."""
    reps, orbit = np.unique(cycle.min(axis=0), return_inverse=True)
    return reps, orbit, -cycle.argmin(axis=0) % len(cycle)


def _sectored_eigh(g: Graph, cycle: np.ndarray):
    """Ascending eigenvalues and orthonormal eigenvector columns of
    adjacency(g), one symmetry sector at a time.

    cycle is the powers table of an automorphism perm of g whose orbits all
    have order = len(cycle) nodes; x is perm^pw(r) for r the smallest label
    of its orbit orb (_orbit_layout). With omega = e^{2 pi i / order},
    sector k is the Hermitian block that adds omega^{k (pw(y) - pw(x))} /
    order for each directed edge x -> y between their orbits, and its
    eigenvector c lifts to c[orb x] omega^{k pw(x)} / sqrt(order). Sectors
    k = 0 and order/2 are real; sector order - k is the conjugate of k, so
    a complex level lifts to its float view sqrt 2 (Re, Im). V is filled
    LIFT_ROWS rows at a time, the sectors' lifts side by side taken into
    ascending (stable) order. A tube's C10 gives blocks of N/10; at order 1
    the one block is adjacency(g): np.linalg.eigh's result, bit for bit.
    """
    order = len(cycle)
    n, m = g.n_nodes, g.n_nodes // order
    _, orb, pw = _orbit_layout(cycle)
    e = np.array(sorted(g.edges), dtype=int).reshape(-1, 2) - 1  # sorted: one summation order
    x, y = np.concatenate([e, e[:, ::-1]]).T
    v, sectors = np.empty((n, n)), []  # the largest array first, so a refusal comes at once
    for k in range(order // 2 + 1):
        phase = np.exp(2j * np.pi * k * np.arange(order) / order)
        copies = 1 if 2 * k % order == 0 else 2
        phase = phase.real if copies == 1 else phase  # exactly 1 and -1
        h = np.zeros((m, m), phase.dtype)
        np.add.at(h, (orb[x], orb[y]), phase[(pw[y] - pw[x]) % order] / order)
        sectors.append((*np.linalg.eigh(h), phase, copies))
    values = np.concatenate([np.repeat(w, copies) for w, _, _, copies in sectors])
    by_value = np.argsort(values, kind="stable")
    for lo in range(0, n, LIFT_ROWS):
        r = slice(lo, lo + LIFT_ROWS)
        block = np.concatenate([(c[orb[r]] * phase[pw[r]][:, None] / np.sqrt(order / copies))
                                .view(float) for _, c, phase, copies in sectors], axis=1)
        np.take(block, by_value, axis=1, out=v[r], mode="clip")  # "raise" buffers out
    return values[by_value], v


def graph_spectrum(g: Graph, degeneracy_tol: float = DEGENERACY_TOL) -> Spectrum:
    """The Spectrum of adjacency(g), solved in the sectors of the symmetry
    _symmetry finds on g, tagged with it and carrying its powers table as
    orbits, keeping the last result.

    A graph equal to the last one with an equal tolerance of the same type
    (the Spectrum carries it as passed) gets the same Spectrum back without
    a solve. Both values are immutable and the solve is deterministic, so
    a hit returns what a solve would; a call that raises keeps the slot.
    """
    _check_positive(degeneracy_tol, "tol")  # before the solve
    return _solve(g, degeneracy_tol)


# analyses of one graph run back to back, and one slot pins only one N x N basis
@lru_cache(maxsize=1, typed=True)
def _solve(g: Graph, degeneracy_tol: float) -> Spectrum:
    cycle, tag = _symmetry(g)
    return _spectrum(*_sectored_eigh(g, cycle), degeneracy_tol, tag, cycle)


def gap_count(s: Spectrum, epsilon: float) -> int:
    """Maximum number of distinct-level gaps inside any window of width epsilon.

    Forms all positive differences between representative eigenvalues of
    distinct clusters and slides a half-open window [x, x+epsilon) over the
    sorted gap multiset; the maximum is attained with the window anchored
    at some gap, so only those anchors are scanned. Gaps closer than tie =
    64 eps max|lam| (4.3e-14 on a cubic graph) are ties at both window edges,
    so the count does not turn on the last bits of the levels: anchored at
    g, the window holds each h with g - tie < h < max(g + epsilon, g + 2 tie) - tie.
    """
    _check_positive(epsilon, "epsilon")
    levels = s.cluster_values()
    diffs = np.subtract.outer(levels, levels)
    gaps = np.sort(diffs[diffs > 0])
    tie = 64 * np.finfo(float).eps * np.abs(levels).max(initial=0.0)
    ends = np.searchsorted(gaps, np.maximum(gaps + epsilon - tie, gaps + tie))
    return int((ends - np.searchsorted(gaps, gaps - tie, "right")).max(initial=0))
