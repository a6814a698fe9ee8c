"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the library's own code paths: the
eigensolver is a textbook cyclic Jacobi, time evolution goes through
scipy's expm, the limiting distribution through brute-force time
averaging, and the bound's left-hand side through a closed-form double
sum over gap pairs, whose quadrature rule is checked against a 50-digit
Gauss-Legendre rule in stdlib decimal. Slow is fine; independent is the
point.
"""

import math
from decimal import Decimal, localcontext
from typing import NamedTuple

import numpy as np
import scipy.linalg


def jacobi_eigh(a, tol=np.finfo(float).eps, max_sweeps=100):
    """Cyclic Jacobi diagonalization of a real symmetric matrix.

    Returns (eigenvalues ascending, eigenvector columns). Sweeps rotate
    every upper-triangle pair in fixed row-major order until the
    off-diagonal Frobenius norm is at most tol times ||A||_F. The default
    is rounding level: an absolute 1e-12 leaves projector errors above
    1e-12 on some 7-node graphs, and convergence is quadratic, so rounding
    level costs about one sweep more.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    stop = tol * np.linalg.norm(a)
    converged = False
    for _ in range(max_sweeps):
        off = np.sqrt((np.triu(a, 1) ** 2).sum())
        if off <= stop:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                if theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    if not converged and np.sqrt((np.triu(a, 1) ** 2).sum()) > stop:
        raise RuntimeError("jacobi sweep limit reached")
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def expm_evolution(a, t):
    """Unitary e^{-iAt} via scipy's Pade-based matrix exponential."""
    return scipy.linalg.expm(-1j * float(t) * np.asarray(a, dtype=float))


def brute_force_limiting(a, t_max=1.0e4, dt=1.0e-2):
    """Time-averaged transition matrix by direct quadrature.

    Averages |<y|e^{-iAt}|x>|^2 over a uniform t grid; entry [x, y].
    Converges to the limiting distribution like 1/t_max.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    w, v = np.linalg.eigh(a)
    t = np.arange(0.0, t_max, dt)
    acc = np.zeros((n, n))
    for chunk in np.array_split(t, max(1, len(t) // 20000)):
        phases = np.exp(-1j * np.outer(chunk, w))
        u_t = np.einsum("yk,tk,xk->txy", v, phases, v)
        acc += (np.abs(u_t) ** 2).sum(axis=0)
    return acc / len(t)


def _grouped_projectors(a, decimals=8):
    """Eigenprojectors with degenerate levels grouped by rounding."""
    w, v = np.linalg.eigh(np.asarray(a, dtype=float))
    keys = np.round(w, decimals)
    levels = []
    projectors = []
    for key in np.unique(keys):
        cols = v[:, keys == key]
        levels.append(w[keys == key].mean())
        projectors.append(cols @ cols.T)
    return np.array(levels), projectors


def cluster_projectors(s):
    """P_j = V_c V_c^T for each degeneracy cluster c of a Spectrum, formed
    from its own eigenvectors (the library never forms projectors)."""
    blocks = [s.eigenvectors[:, list(c)] for c in s.clusters]
    return [v @ v.T for v in blocks]


def mirror_sector_eigh(a):
    """Eigenpairs of a 2h x 2h matrix that commutes with the row reversal.

    With B the first half's block and C the cross block with its rows
    reversed, A decouples into B - C and B + C; their eigenvectors u, v lift
    to [u; -u reversed] / sqrt 2 and [v; v reversed] / sqrt 2. Returned
    ascending (stable, the minus lift first on exact ties).
    """
    h = len(a) // 2
    b, c = a[:h, :h], a[h:, :h][::-1]
    w_minus, u = np.linalg.eigh(b - c)
    w_plus, v = np.linalg.eigh(b + c)
    vals = np.concatenate([w_minus, w_plus])
    vecs = np.vstack([np.hstack([u, v]), np.hstack([-u[::-1], v[::-1]])]) / np.sqrt(2.0)
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def greedy_clusters(values, tol=1e-6):
    """Index lists of an ascending sequence, split wherever the step
    between neighbours exceeds tol."""
    groups = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > tol:
            groups.append([])
        groups[-1].append(i)
    return groups


def jacobi_projectors(a, tol=1e-6):
    """Mean level and eigenprojector of each greedy cluster of the Jacobi
    oracle's spectrum."""
    w, v = jacobi_eigh(a)
    groups = greedy_clusters(w, tol)
    levels = np.array([w[g].mean() for g in groups])
    return levels, [v[:, g] @ v[:, g].T for g in groups]


class NodeProjectorWidths(NamedTuple):
    """Basis-independent facts about the energy-basis diagonal of |x><x|.

    dims[j] is the rank d_j of cluster j and weights[j, x-1] the cluster
    weight (P_j)_xx; sum_d2 is sum_j d_j^2. sigma_max[x-1] is the largest
    population std of |<lam_k|x>|^2 over all eigenbases, reached by putting
    each cluster's weight on one vector: sigma_max^2 = sum_j (P_j)_xx^2 / N
    - 1/N^2. sigma_haar[x-1] is the rms of that std over Haar-random
    rotations inside every cluster: a unit vector uniform on the d-sphere
    has E[u_k^4] = 3 / (d (d + 2)), so the mean square is
    sum_j 3 (P_j)_xx^2 / (N (d_j + 2)) - 1/N^2.
    """

    dims: np.ndarray
    weights: np.ndarray
    sum_d2: int
    sigma_max: np.ndarray
    sigma_haar: np.ndarray


def node_projector_widths(a, tol=1e-6):
    """NodeProjectorWidths for every node, from the Jacobi oracle's
    cluster projectors."""
    _, projectors = jacobi_projectors(a, tol)
    n = len(projectors[0])
    dims = np.array([int(round(np.trace(p))) for p in projectors])
    w = np.array([np.diag(p) for p in projectors])
    return NodeProjectorWidths(
        dims=dims,
        weights=w,
        sum_d2=int((dims**2).sum()),
        sigma_max=np.sqrt((w**2).sum(axis=0) / n - 1.0 / n**2),
        sigma_haar=np.sqrt((3.0 * w**2 / (dims[:, None] + 2)).sum(axis=0) / n - 1.0 / n**2),
    )


def entropy_of(p, floor=1e-15):
    """-sum p ln p over the entries of the 1-D p above floor, summed as one
    array of the kept terms: the per-row definition that the library's
    blocked entropies must match bit for bit."""
    kept = p[p > floor]
    return float(-(kept * np.log(kept)).sum())


def haar_rotate_within_clusters(v, clusters, rng):
    """Copy of the eigenvector columns v with each cluster's block turned
    by its own Haar-random orthogonal matrix (QR of a Gaussian matrix with
    R's diagonal made positive). The eigenspaces, and so every projector,
    stay the same; only the basis inside each cluster changes."""
    v = np.array(v, dtype=float)
    for c in clusters:
        c = list(c)
        q, r = np.linalg.qr(rng.standard_normal((len(c), len(c))))
        v[:, c] = v[:, c] @ (q * np.sign(np.diag(r)))
    return v


def eigenpair_time_average(a, start, end, taus):
    """(1/tau) int_0^tau |<end|e^{-iAt}|start>|^2 dt as a double sum over
    eigenpairs (k, l) of the Jacobi basis, each integrated in closed form."""
    w, v = jacobi_eigh(a)
    c = v[end - 1, :] * v[start - 1, :]
    out = []
    for tau in taus:
        total = 0.0 + 0.0j
        for k in range(len(w)):
            for l in range(len(w)):
                g = w[k] - w[l]
                kernel = 1.0 if g == 0.0 else (np.exp(-1j * g * tau) - 1.0) / (-1j * g * tau)
                total += c[k] * c[l] * kernel
        out.append(total.real)
    return np.array(out)


def brute_force_gap_count(levels, epsilon):
    """Largest number of positive level differences inside one half-open
    window [x, x + epsilon), by a two-pointer scan anchored at each gap g.
    A difference d = h - g within 1e-9 of 0 or of epsilon is read as an
    exact tie, so the window at g holds each h with -1e-9 < d < epsilon -
    1e-9, or |d| < 1e-9."""
    tie = 1e-9
    gaps = sorted(a - b for a in levels for b in levels if a > b)
    best = lo = hi = 0
    for g in gaps:
        while gaps[lo] - g <= -tie:
            lo += 1
        while hi < len(gaps) and (gaps[hi] - g < epsilon - tie or abs(gaps[hi] - g) < tie):
            hi += 1
        best = max(best, hi - lo)
    return best


def closed_form_lhs(a, rho0, o, tau, decimals=8):
    """Exact time average of |tr(O rho(t)) - tr(O omega)|^2 over [0, tau].

    Expands the signal as sum_{m != n} c_mn e^{-i(lam_m - lam_n)t} with
    c_mn = tr(P_m rho0 P_n O) and integrates each pair product
    analytically: (1/tau) int_0^tau e^{-i g t} dt = (e^{-i g tau}-1)/(-i g tau),
    whose imaginary part cancels between the pairs (g1, g2) and (g2, g1),
    leaving sin(g tau)/(g tau). At short tau the pair sum is far smaller
    than its terms (it tends to f(0)^2), so it is accumulated in extended
    precision: in double it lost 1.4e-11 relative on a 6-node graph at
    tau = 1/16, against a 50-digit quadrature. A sequence of taus gives an
    array, one value per tau.
    """
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    rho0 = np.asarray(rho0, dtype=float)
    o = np.asarray(o, dtype=float)
    levels, projectors = _grouped_projectors(a, decimals)
    terms = []
    for m, pm in enumerate(projectors):
        for n, pn in enumerate(projectors):
            if m == n:
                continue
            c = np.trace(pm @ rho0 @ pn @ o)
            terms.append((levels[m] - levels[n], c))
    wide = np.longdouble
    taus_wide = taus.astype(wide)
    total = np.zeros(len(taus), dtype=wide)
    for g1, c1 in terms:
        for g2, c2 in terms:
            delta = wide(g1) - wide(g2)
            if abs(delta) < 1e-12:
                kernel = 1.0
            else:
                kernel = np.sin(delta * taus_wide) / (delta * taus_wide)
            total += wide(c1) * wide(c2) * kernel
    return float(total[0]) if np.ndim(tau) == 0 else total.astype(float)


PENTAGON_RING = np.array(
    [
        [0, 1, 0, 0, 1],
        [1, 0, 1, 0, 0],
        [0, 1, 0, 1, 0],
        [0, 0, 1, 0, 1],
        [1, 0, 0, 1, 0],
    ],
    dtype=float,
)


def pentagon_gibbs_expm(beta):
    """6x6 Gibbs state over (b0, pentagon nodes) from expm(-beta H).

    H is zero on the no-walker state and half the ring adjacency on the
    pentagon block. Returns (Z, state).
    """
    h = np.zeros((6, 6))
    h[1:, 1:] = PENTAGON_RING / 2.0
    m = scipy.linalg.expm(-float(beta) * h)
    z = float(np.trace(m))
    return z, m / z


SMALL_GRAPHS = {
    "k2": (2, [(1, 2)]),
    "p3": (3, [(1, 2), (2, 3)]),
    "c4": (4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "k4": (4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    "c5": (5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
    "c6": (6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]),
}


def gauss_legendre_reference(n, digits=50):
    """n-point Gauss-Legendre rule on [0, 1] to `digits` digits, as two lists
    of Decimals (ascending nodes, weights).

    Newton's method on P_n from the float guesses cos(pi (i + 3/4) / (n + 1/2)),
    with P_n and P_{n-1} from the three-term recurrence in decimal arithmetic,
    P_n' = n (x P_n - P_{n-1}) / (x^2 - 1), and weights 2 / ((1 - x^2) P_n'^2)
    on [-1, 1], halved for [0, 1].
    """
    with localcontext() as ctx:
        ctx.prec = digits + 15
        tiny = Decimal(10) ** -(digits + 5)

        def legendre(x):
            p_prev, p = Decimal(1), x
            for j in range(1, n):
                p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
            return p, n * (x * p - p_prev) / (x * x - 1)

        nodes, weights = [], []
        for i in range(n):
            x = Decimal(math.cos(math.pi * (i + 0.75) / (n + 0.5)))
            for _ in range(100):
                p, dp = legendre(x)
                step = p / dp
                x -= step
                if abs(step) < tiny:
                    break
            else:
                raise RuntimeError(f"Newton did not converge on node {i}")
            _, dp = legendre(x)
            nodes.append((x + 1) / 2)
            weights.append(1 / ((1 - x * x) * dp * dp))
    return nodes[::-1], weights[::-1]
