"""Energy-eigenbasis observable diagnostics.

Checks the thermalization dichotomy on the buckyball: the position
observable is exactly flat (every diagonal entry 30.5 in a mirror
symmetric basis) while node projectors fluctuate wildly, resembling
states drawn from the orthogonal-group Haar measure. Per-vector numbers
inside degenerate clusters depend on the eigenbasis, which is why results
carry the spectrum's basis_tag and why the cluster-averaged diagonal is
the basis-independent quantity.

Every energy-basis diagonal is read from W = V*V (entrywise), W[x, k] =
|<x|lam_k>|^2: o @ W for diag(o), row x for |x><x|. Only
observable_in_energy_basis forms the N x N matrix V^T diag(o) V.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .dynamics import limiting_distribution
from .graphs import _check_label
from .spectral import Spectrum

ENTROPY_FLOOR = 1e-15
HAAR_MAX_DRAWS = 2**26  # N normals per Haar sample: 67,108 samples on F1000
HAAR_MAX_SAMPLES = 2**20  # the cap where the draws allow more: on N < 64, C60 among them
ENTROPY_BLOCK = 2**16  # values per block of rows scored at once by _row_entropies

# a symmetry residual passes strictly below its threshold
SYMMETRY_THRESHOLDS = {
    "mirror_residual": 1e-10,
    "position_diag_deviation": 1e-9,
    "u_mirror_residual": 1e-9,
}


def _check_observable(o, n: int) -> np.ndarray:
    """The node function o of O = diag(o) as floats: shape (n,), all finite."""
    o = np.asarray(o, dtype=float)
    if o.shape != (n,):
        raise ValueError(f"observable must be a node function of shape ({n},), got {o.shape}")
    if not np.all(np.isfinite(o)):
        raise ValueError("observable values must be finite")
    return o


def observable_in_energy_basis(s: Spectrum, o) -> np.ndarray:
    """<lam_m|O|lam_n> = V^T diag(o) V, rows and columns ordered by
    ascending eigenvalue, in the basis named by s.basis_tag."""
    o = _check_observable(o, s.n)
    return np.multiply(s.eigenvectors.T, o, order="C") @ s.eigenvectors


def position_observable(n: int) -> np.ndarray:
    """(1, 2, ..., n): the node function of the node-label observable."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return np.arange(1.0, n + 1.0)


def _node_projector(n: int, x: int, name: str) -> np.ndarray:
    """e_x, the node function of |x><x|, x a 1-based label passed as `name`."""
    _check_label(x, n, name)
    o = np.zeros(n)
    o[x - 1] = 1.0
    return o


def projector_eth_stats(s: Spectrum):
    """Mean and population std of the diagonal of |x><x| in the energy
    basis, row x of W, for every node x: two arrays, entry x-1 for node x.

    Each row sums to 1, so every mean is 1/N. The std depends on the basis
    chosen inside degenerate clusters (see basis_tag). With cluster weights
    w_j = (P_j)_xx and ranks d_j, every eigenbasis gives a std in
    [sigma_min, sigma_max], and each value in between is reached by some
    basis: sigma_max^2 = sum_j w_j^2 / N - 1/N^2 (each cluster's weight on
    one vector) and sigma_min^2 = sum_j w_j^2 / (N d_j) - 1/N^2 (weight
    spread evenly), which is 0 on vertex-transitive graphs such as C60.
    The basis-independent quantity is the cluster-averaged diagonal
    w_j / d_j (EthReport.cluster_averaged_diagonal).
    """
    w = np.square(s.eigenvectors, order="C")  # each row reduces as that 1-D row would
    return w.mean(axis=1), w.std(axis=1)


def node_entropies(s: Spectrum) -> np.ndarray:
    """Measurement entropy of every node: entry x-1 is -sum_k p_k ln p_k with
    p_k = |<lam_k|x>|^2, terms below 1e-15 dropped; each lies in [0, ln N].
    Rows of V are scored ENTROPY_BLOCK values at a time."""
    v, rows = s.eigenvectors, max(1, ENTROPY_BLOCK // s.n)
    return np.concatenate([_row_entropies(v[lo:lo + rows] ** 2) for lo in range(0, s.n, rows)])


def _haar_states(n: int, seeds):
    """Per seed, n iid standard normals from a counter-based Philox keyed by
    it, normalized to unit 2-norm; one generator is rekeyed per seed, since
    building a Philox costs more than drawing n normals from it."""
    if n < 1:
        raise ValueError("n must be at least 1")
    bg = np.random.Philox(key=0)
    rng = np.random.Generator(bg)
    state = bg.state
    for seed in seeds:
        key = int(seed)
        if not 0 <= key < 2**128:
            raise ValueError(f"seed {key} must lie in [0, 2**128)")
        state["state"]["key"] = [key & (2**64 - 1), key >> 64]
        bg.state = state
        v = rng.standard_normal(n)
        v /= np.sqrt(v.dot(v))  # np.linalg.norm's own arithmetic on a 1-D float array
        yield v


def haar_orthogonal_state(n: int, seed: int) -> np.ndarray:
    """Uniform random unit vector on the real (n-1)-sphere, deterministic per
    (n, seed) for a seed in [0, 2**128), so sample sets aggregate reproducibly."""
    return next(_haar_states(n, [seed]))


def _row_entropies(p: np.ndarray) -> np.ndarray:
    """-sum p ln p over the terms of each row of the 2-D array p with p above
    ENTROPY_FLOOR, with the bits of summing that row's kept terms as one 1-D
    array. One pass per count m of kept terms: the rows keeping m terms are
    gathered into a (rows x m) array of their kept terms, whose row sums run
    in numpy's pairwise order over m values, as the 1-D sums would."""
    keep = p > ENTROPY_FLOOR
    terms = np.where(keep, p, 1.0)
    np.log(terms, out=terms)
    terms *= p
    counts = keep.sum(axis=1)
    ents = np.empty(len(p))
    for m in np.flatnonzero(np.bincount(counts)).tolist():  # np.unique would import numpy.ma
        rows = np.flatnonzero(counts == m)
        ents[rows] = -terms[rows][keep[rows]].reshape(len(rows), m).sum(axis=1)
    return ents


def haar_entropy_baseline(n: int, n_samples: int, seed: int = 0):
    """Mean and population std of the coordinate-distribution entropy over
    the n_samples Haar-orthogonal states of seeds seed, seed+1, ..., at most
    min(HAAR_MAX_SAMPLES, HAAR_MAX_DRAWS // n) of them, refused before a draw.

    The states are scored in blocks of at most ENTROPY_BLOCK values
    (_row_entropies), so the memory beyond the n_samples entropies is one
    block, however many samples are drawn."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if n_samples > (limit := min(HAAR_MAX_SAMPLES, HAAR_MAX_DRAWS // max(n, 1))):
        raise ValueError(f"Haar baseline too long: N {n} allows at most {limit} samples, "
                         f"got {n_samples}")
    states = _haar_states(n, (seed + i for i in range(n_samples)))
    rows = max(1, ENTROPY_BLOCK // max(n, 1))
    ents = np.empty(n_samples)
    for start in range(0, n_samples, rows):
        block = np.array([*islice(states, rows)])
        block *= block
        ents[start:start + len(block)] = _row_entropies(block)
    return float(ents.mean()), float(ents.std())


@dataclass(frozen=True)
class EthReport:
    """Summary statistics of one observable in the energy eigenbasis, with
    its diagonal and that diagonal averaged over each degeneracy cluster,
    tr(P_n O) / rank(P_n), which is the same in every eigenbasis."""

    diag_mean: float
    diag_std: float
    offdiag_rms: float
    basis_tag: str
    diagonal: np.ndarray
    cluster_averaged_diagonal: np.ndarray


def eth_report(s: Spectrum, o) -> EthReport:
    """Diagonal statistics and off-diagonal rms of diag(o) in the energy basis.
    The diagonal is o @ W; V is orthogonal, so the off-diagonal sum of
    squares is sum o^2 - sum diag^2, taken for o less its median: a shift
    moves only the diagonal, and a large one would cancel the rest away."""
    o = _check_observable(o, s.n)
    n, w = s.n, s.eigenvectors**2
    diag = o @ w
    oc = _less_median(o)
    off_sq = max(0.0, float((oc**2).sum() - ((oc @ w) ** 2).sum()))
    rms = float(np.sqrt(off_sq / (n * n - n))) if n > 1 else 0.0
    return EthReport(
        diag_mean=float(diag.mean()),
        diag_std=float(diag.std()),
        offdiag_rms=rms,
        basis_tag=s.basis_tag,
        diagonal=diag,
        cluster_averaged_diagonal=s.cluster_means(diag),
    )


def _less_median(o: np.ndarray) -> np.ndarray:
    """o less its middle sorted entry, its median at odd length (np.median imports numpy.ma)."""
    return o - np.sort(o)[len(o) // 2]


def _mirror_residual(a: np.ndarray, axis: int) -> float:
    """max |a - a reversed along axis|, 0 where the label reversal x -> N+1-x fixes a."""
    return float(np.abs(a - np.flip(a, axis)).max())


class SymmetryCheck(NamedTuple):
    passed: bool
    mirror_residual: float
    position_diag_deviation: float
    u_mirror_residual: float


def eth_symmetry_check(s: Spectrum) -> SymmetryCheck:
    """Verify the mirror mechanism behind the flat position diagonal.

    For a symmetry-adapted C60 basis, checks |<x|lam_k>| = |<61-x|lam_k>|
    for all x, k (max residual), that consequently every diagonal entry of
    the position observable in the energy basis equals (N+1)/2 = 30.5, and
    that the limiting distribution has u(x, y) = u(x, 61-y). It passes when
    each residual lies strictly below its SYMMETRY_THRESHOLDS entry.
    """
    if s.n % 2 != 0:
        raise ValueError("mirror check needs an even number of nodes")
    v = s.eigenvectors
    flat = position_observable(s.n) @ v**2 - (s.n + 1) / 2.0
    residuals = {
        "mirror_residual": _mirror_residual(np.abs(v), 0),
        "position_diag_deviation": float(np.abs(flat).max()),
        "u_mirror_residual": _mirror_residual(limiting_distribution(s), 1),
    }
    passed = all(r < SYMMETRY_THRESHOLDS[k] for k, r in residuals.items())
    return SymmetryCheck(passed=passed, **residuals)
