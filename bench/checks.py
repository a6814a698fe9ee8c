"""Output checks: each operation's output against independent references.

check_op never raises. A failed check, a missing output, a nonzero exit
code or an exception in the operation all come back as failure messages,
so one bad operation counts in the error rate and the run goes on.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from bench import reference

LHS_REL_TOL = 1e-3
C60_D_EFF = 3600.0 / 284.0
C60_N_LAMBDA = 15
# the library merges levels closer than 1e-6; over tau <= 1e3 that moves a
# time average by at most (1e-6 * 1e3)^2 / 6
TIME_AVERAGE_TOL = 1e-6


def _close(value, target, rel, what):
    if not abs(value - target) <= rel * max(abs(target), 1.0):
        return [f"{what} = {value!r}, expected {target!r} (rel tol {rel:g})"]
    return []


def _spectrum_sums(eigenvalues, n):
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.shape != (n,):
        return [f"{lam.size} eigenvalues for N={n}"]
    out = []
    if np.any(np.diff(lam) < 0):
        out.append("eigenvalues not ascending")
    out += _close(float(lam.sum()), 0.0, 1e-9 * n, "sum of eigenvalues")
    out += _close(float((lam**2).sum()), 3.0 * n, 1e-9, "sum of squared eigenvalues")
    return out


def _stochastic(u, n):
    u = np.asarray(u, dtype=float)
    if u.shape != (n, n):
        return [f"u has shape {u.shape}, expected {(n, n)}"]
    out = []
    row_dev = float(np.abs(u.sum(axis=1) - 1.0).max())
    if row_dev > 1e-9:
        out.append(f"u rows deviate from sum 1 by {row_dev:.3e}")
    asym = float(np.abs(u - u.T).max())
    if asym > 1e-12:
        out.append(f"u asymmetric by {asym:.3e}")
    if u.min() < -1e-12:
        out.append(f"u has a negative entry {u.min():.3e}")
    return out


def _check_gen(path, chk, ref, diag):
    n = chk["n"]
    body = [ln.split() for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    if int(body[0][0]) != n:
        return [f"graph file declares {body[0][0]} nodes, expected {n}"]
    edges = {tuple(sorted((int(a), int(b)))) for a, b in body[1:]}
    out = []
    if len(edges) != len(body) - 1 or len(edges) != 3 * n // 2:
        out.append(f"{len(body) - 1} edge lines, {len(edges)} distinct, expected {3 * n // 2}")
    deg = np.zeros(n + 1, dtype=int)
    adj = [[] for _ in range(n + 1)]
    for a, b in edges:
        if a == b:
            out.append(f"self-loop at {a}")
        deg[a] += 1
        deg[b] += 1
        adj[a].append(b)
        adj[b].append(a)
    if np.any(deg[1:] != 3):
        out.append("graph is not 3-regular")
    seen, stack = {1}, [1]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != n:
        out.append(f"graph is disconnected ({len(seen)} of {n} nodes reachable)")
    return out


def _check_spectrum(path, chk, ref, diag):
    doc = json.loads(path.read_text())
    out = _spectrum_sums(doc["eigenvalues"], chk["n"])
    if sum(doc["degeneracies"]) != chk["n"] or doc["n_distinct"] != len(doc["degeneracies"]):
        out.append("degeneracies do not partition the spectrum")
    return out


def _check_limiting_json(path, chk, ref, diag):
    return _stochastic(json.loads(path.read_text())["u"], chk["n"])


def _check_limiting_csv(path, chk, ref, diag):
    n = chk["n"]
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    if lines[0].strip() != "x,y,u":
        return [f"limiting CSV header {lines[0].strip()!r}"]
    rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if rows.shape != (n * n, 3):
        return [f"limiting CSV has {rows.shape[0]} rows, expected {n * n}"]
    labels = np.arange(1, n + 1)
    if not (
        np.array_equal(rows[:, 0], np.repeat(labels, n))
        and np.array_equal(rows[:, 1], np.tile(labels, n))
    ):
        return ["limiting CSV rows are not in (x, y) order"]
    return _stochastic(rows[:, 2].reshape(n, n), n)


def _check_eth(path, chk, ref, diag):
    doc = json.loads(path.read_text())
    n = chk["n"]
    spec = chk["observable"]
    # tr O / N: the position observable diag(1..N), or one node projector
    mean = (n + 1) / 2.0 if spec == "position" else 1.0 / n
    out = _close(doc["diag_mean"], mean, 1e-9, "diag_mean")
    if len(doc["diagonal"]) != n:
        out.append(f"{len(doc['diagonal'])} diagonal entries for N={n}")
    else:
        out += _close(float(np.mean(doc["diagonal"])), mean, 1e-9, "mean of the diagonal")
    ents = np.asarray(doc.get("node_entropies", []), dtype=float)
    if ents.shape != (n,) or ents.min() < -1e-12 or ents.max() > math.log(n) + 1e-9:
        out.append("node entropies missing or outside [0, ln N]")
    if chk["haar"]:
        hmean = doc.get("haar_entropy_mean")
        if hmean is None or not 0.0 < hmean <= math.log(n):
            out.append(f"Haar entropy mean {hmean!r} outside (0, ln N]")
    return out


def _check_bound(path, chk, ref, diag):
    doc = json.loads(path.read_text())
    table = doc["table"]
    tau = np.asarray(table["tau"], dtype=float)
    lhs = np.asarray(table["lhs"], dtype=float)
    rhs = np.asarray(table["rhs"], dtype=float)
    if tau.shape != ref["tau"].shape or not np.allclose(tau, ref["tau"], rtol=1e-12, atol=0):
        return ["tau grid differs from the requested one"]
    err = float(np.max(np.abs(lhs - ref["lhs"]) / np.abs(ref["lhs"])))
    diag["lhs_max_rel_err"] = max(diag.get("lhs_max_rel_err", 0.0), err)
    out = []
    if not err <= LHS_REL_TOL:
        out.append(f"lhs differs from the closed form by {err:.3e} relative")
    if not np.all(lhs <= rhs) or doc["bound_holds"] is not True:
        out.append("lhs exceeds rhs")
    out += _close(doc["d_eff"], ref["d_eff"], 1e-9, "d_eff")
    if doc["n_lambda"] != ref["n_lambda"]:
        out.append(f"n_lambda = {doc['n_lambda']}, expected {ref['n_lambda']}")
    if chk["graph"] == "C60":
        out += _close(doc["d_eff"], C60_D_EFF, 1e-12, "C60 d_eff")
        if doc["n_lambda"] != C60_N_LAMBDA:
            out.append(f"C60 n_lambda = {doc['n_lambda']}, expected {C60_N_LAMBDA}")
    return out


def _check_gibbs_family(path, chk, ref, diag):
    doc = json.loads(path.read_text())
    out = []
    if [r["n"] for r in doc["rows"]] != chk["sizes"]:
        out.append("gibbs --family rows do not match the requested sizes")
    if doc["any_matchable"] is not False:
        out.append("gibbs --family reports a Gibbs-matchable size")
    return out


def _check_gibbs_sweep(path, chk, ref, diag):
    table = json.loads(path.read_text())["table"]
    out = []
    for beta, z, p_j, p_0 in zip(table["beta"], table["z"], table["p_j"], table["p_0"]):
        z_ref, state = reference.pentagon_gibbs(beta)
        out += _close(z, z_ref, 1e-9, f"Z(beta={beta})")
        out += _close(p_j, state[1, 1], 1e-12, f"p_j(beta={beta})")
        out += _close(p_0, state[0, 0], 1e-12, f"p_0(beta={beta})")
    if len(table["beta"]) < 2:
        out.append("beta sweep is empty")
    return out


def _check_symmetry(path, chk, ref, diag):
    if json.loads(path.read_text())["passed"] is not True:
        return ["symmetry suite did not pass"]
    return []


def _check_time_average(value, chk, ref):
    got = np.asarray(value, dtype=float)
    if got.shape != ref.shape:
        return [f"{got.size} time averages, expected {ref.size}"]
    dev = float(np.abs(got - ref).max())
    if not dev <= TIME_AVERAGE_TOL:
        return [f"time average differs from the eigenpair sum by {dev:.3e}"]
    return []


_FILE_CHECKS = {
    "gen": _check_gen,
    "spectrum": _check_spectrum,
    "limiting_json": _check_limiting_json,
    "limiting_csv": _check_limiting_csv,
    "eth": _check_eth,
    "bound": _check_bound,
    "gibbs_family": _check_gibbs_family,
    "gibbs_sweep": _check_gibbs_sweep,
    "symmetry": _check_symmetry,
}


def check_op(op: dict, record: dict | None, outdir: Path, ref, diag: dict) -> list:
    """Failure messages for one operation (empty when it passed).

    record is the worker's entry for the operation (None if the worker
    never reported it). Diagnostics such as the lhs error go into diag.
    """
    if record is None:
        return ["operation did not report (worker died or timed out)"]
    if record["error"] is not None:
        return [f"raised {record['error']}"]
    if record["rc"] != 0:
        return [f"exit code {record['rc']}"]
    chk = op["check"]
    try:
        if op["kind"] == "time_average":
            return _check_time_average(record["value"], chk, ref)
        path = Path(outdir) / op["out"]
        if not path.is_file():
            return [f"no output file {op['out']}"]
        return _FILE_CHECKS[chk["type"]](path, chk, ref, diag)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return [f"check raised {type(exc).__name__}: {exc}"]
