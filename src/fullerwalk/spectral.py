"""Dense symmetric eigendecomposition and degeneracy bookkeeping.

Everything downstream (limiting distributions, dephasing, the equilibration
bound) depends on eigenspaces, not on the basis inside them, so the Spectrum
value carries the degeneracy clustering alongside the raw eigenpairs.
Clusters are contiguous runs of the eigen-index, so per-eigenspace
quantities are segment sums (Spectrum.cluster_sums); no projector is
formed. The C60 buckyball additionally gets a symmetry-adapted basis: its
mirror x -> 61-x is a row reversal that commutes with the adjacency, so
the two half-size sectors lift to eigenvectors for which the mirror
relation |<x|lam_k>| = |<61-x|lam_k>| holds exactly by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, adjacency, build_c60_blocked

# matches the degeneracy threshold used to produce the reference data
DEGENERACY_TOL = 1e-6

# eigendecompose rejects input whose asymmetry exceeds this
SYMMETRY_TOL = 1e-12


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
        "plain" for a generic solver basis, "symmetry-adapted" for the C60
        mirror-symmetric construction. Per-vector quantities inside
        degenerate clusters depend on this choice; projectors do not.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: tuple
    degeneracy_tol: float
    basis_tag: str = "plain"

    def __post_init__(self):
        if [k for c in self.clusters for k in c] != list(range(len(self.eigenvalues))):
            raise ValueError("clusters must be contiguous runs covering 0..N-1 in order")

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

    def cluster_sums(self, x, axis: int = -1) -> np.ndarray:
        """Segment sums of x over each cluster's eigen-indices along axis."""
        starts = [c[0] for c in self.clusters]
        return np.add.reduceat(np.asarray(x, dtype=float), starts, axis=axis)

    def same_cluster(self) -> np.ndarray:
        """(N, N) mask, True where two eigen-indices share a cluster."""
        return self.cluster_index[:, None] == self.cluster_index

    def cluster_means(self, x: np.ndarray) -> np.ndarray:
        """Mean of the length-N array x over each cluster, each by numpy's
        own reduction so reported means keep their bits (reduceat's
        sequential order differs in the last bit)."""
        return np.array([x[list(c)].mean() for c in self.clusters])

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


def _spectrum(w: np.ndarray, v: np.ndarray, degeneracy_tol: float, basis_tag: str) -> Spectrum:
    """Read-only Spectrum of ascending eigenvalues w and eigenvector columns v."""
    w.flags.writeable = v.flags.writeable = False
    clusters = cluster_eigenvalues(w, degeneracy_tol)
    return Spectrum(w, v, clusters, degeneracy_tol, basis_tag)


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


# ((graph, type(tol), tol), spectrum) of the last solve: analyses of one
# graph run back to back, and one slot pins only one N x N basis
_last = None


def graph_spectrum(g: Graph, degeneracy_tol: float = DEGENERACY_TOL) -> Spectrum:
    """eigendecompose(adjacency(g), degeneracy_tol), keeping the last result.

    A graph equal to the last one with an equal tolerance of the same type
    (the Spectrum carries it as passed) gets the same Spectrum back without
    a solve. Both values are immutable and the solver is deterministic, so
    a hit returns what a solve would; a call that raises keeps the slot.
    """
    global _last
    _check_positive(degeneracy_tol, "tol")  # before the adjacency is built
    key = (g, type(degeneracy_tol), degeneracy_tol)
    if _last is not None and _last[0] == key:
        return _last[1]
    s = eigendecompose(adjacency(g), degeneracy_tol)
    _last = (key, s)
    return s


def symmetry_adapted_c60_basis(degeneracy_tol: float = DEGENERACY_TOL) -> Spectrum:
    """Eigenbasis of the blocked C60 adjacency with exact mirror symmetry.

    The mirror x -> 61-x reverses the rows, and it commutes with the
    adjacency, so with B the first half's block and C the cross block with
    its rows reversed, A decouples into B - C and B + C. Their eigenvectors
    u, v lift to the full space as (1/sqrt 2)[u; -u reversed] and
    (1/sqrt 2)[v; v reversed], giving <x|lam_k> = +-<61-x|lam_k> exactly
    for every column. The combined spectrum is re-sorted ascending (stable,
    minus-lift first on exact ties).
    """
    _check_positive(degeneracy_tol, "tol")
    a = adjacency(build_c60_blocked())
    b, c = a[:30, :30], a[30:, :30][::-1]
    w_minus, u = np.linalg.eigh(b - c)
    w_plus, v = np.linalg.eigh(b + c)
    vals = np.concatenate([w_minus, w_plus])
    vecs = np.vstack([np.hstack([u, v]), np.hstack([-u[::-1], v[::-1]])]) / np.sqrt(2.0)
    order = np.argsort(vals, kind="stable")
    return _spectrum(vals[order], vecs[:, order], degeneracy_tol, "symmetry-adapted")


def gap_count(s: Spectrum, epsilon: float) -> int:
    """Maximum number of distinct-level gaps inside any window of width epsilon.

    Forms all positive differences between representative eigenvalues of
    distinct clusters and slides a half-open window [x, x+epsilon) over the
    sorted gap multiset; the maximum is attained with the window anchored
    at some gap, so only those anchors are scanned.
    """
    _check_positive(epsilon, "epsilon")
    levels = s.cluster_values()
    diffs = np.subtract.outer(levels, levels)
    gaps = np.sort(diffs[diffs > 0])
    # first gap outside [g, g + eps); g itself is inside even where g + eps rounds to g
    ends = np.maximum(np.searchsorted(gaps, gaps + epsilon), np.searchsorted(gaps, gaps, "right"))
    return int((ends - np.arange(len(gaps))).max(initial=0))
