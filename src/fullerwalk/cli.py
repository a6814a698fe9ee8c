"""Command-line front end: one subcommand per analysis, data files out.

Every command writes a JSON or CSV data file, never an image; plots are
left to downstream tooling and each output is the table behind one. The
JSON header echoes the exact flag set plus the graph checksum so a run
can be reproduced from its own output. CSV files carry the same metadata
as '#' comment lines. Commands only compute; main adds the metadata and
writes each file, JSON through one streaming emitter and CSV through one
row-template writer. Timing appears only in JSON (timing_seconds); CSV
and graph files are byte-identical across reruns of the same command with
the same number of BLAS threads. Another count moves the last digits of u
and may pick another basis inside a degenerate cluster, which changes the
per-vector outputs outright (spectrum --vectors, the eth CSV and JSON).

Exit codes: 0 success, 2 usage or validation error, an allocation
refused for lack of memory or a bound horizon over the lhs node budget,
3 numerical failure (an ArithmeticError that validation did not catch;
no code path raises one on purpose).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .dynamics import limiting_distribution
from .equilibration import TAU_COUNT, TAU_MAX, TAU_MIN, equilibration_report
from .eth import (
    SYMMETRY_THRESHOLDS,
    _node_projector,
    eth_report,
    eth_symmetry_check,
    haar_entropy_baseline,
    node_entropies,
    observable_in_energy_basis,
    position_observable,
    projector_eth_stats,
)
from .graphs import (
    _check_label,
    build_c60_blocked,
    build_tube_fullerene,
    edge_checksum,
    load_graph,
    save_graph,
)
from .spectral import (
    DEGENERACY_TOL,
    graph_spectrum,
    symmetry_adapted_c60_basis,
)
from .thermo import (
    gibbs_node_probability,
    gibbs_partition_function,
    gibbs_vs_limiting,
    pentagon_gibbs,
)

# argparse bookkeeping that is not part of the reproducible configuration
_NOT_CONFIG = {"func", "command", "parser"}

# flags only some runs read: command -> dest -> (those runs, is args one of them)
_JSON = ("--format json", lambda a: a.format == "json")
_GRID = ("--beta-sweep or --family", lambda a: a.beta is None)
_READ_ONLY_WITH = {
    "limiting": {"layout": ("--format csv", lambda a: a.format == "csv")},
    "gibbs": {"beta_min": _GRID, "beta_max": _GRID, "beta_count": _GRID,
              "tol": ("--family", lambda a: a.family is not None)},
    "eth": {"entropies": _JSON, "haar_samples": _JSON,
            "seed": ("--haar-samples > 0", lambda a: a.haar_samples > 0)},
}


def _config_echo(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in _NOT_CONFIG}


def _meta(args, checksum) -> dict:
    return {
        "tool": "fullerwalk",
        "version": __version__,
        "command": args.command,
        "config": _config_echo(args),
        "graph_checksum": checksum,
    }


# json's spelling of the non-finite floats, keyed by their repr
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(v: float) -> str:
    text = float.__repr__(v)
    return _NON_FINITE.get(text, text)


def _scalar_text(v) -> str:
    if isinstance(v, (float, np.floating)):
        return _float_text(float(v))
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return int.__repr__(int(v))
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _json_chunks(obj, nl="\n"):
    """The text of obj, in pieces, as json.dump(obj, indent=2,
    sort_keys=True) writes it once arrays and numpy scalars are plain
    Python; nl is the line break and indent of the line obj starts on.

    A numeric array is written one 1-D row at a time, each joined in C
    from float.__repr__ (the repr json uses), so no N^2 list is formed.
    Dict keys are strings.
    """
    inner = nl + "  "
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind in "fiu" and len(obj):
            if obj.dtype.kind != "f":
                text = int.__repr__
            elif np.isfinite(obj).all():
                text = float.__repr__
            else:
                text = _float_text
            yield "[" + inner + ("," + inner).join(map(text, obj.tolist())) + nl + "]"
            return
        obj = list(obj) if obj.ndim > 1 else obj.tolist()
    if isinstance(obj, dict):
        items = [(encode_basestring_ascii(k) + ": ", v) for k, v in sorted(obj.items())]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [("", v) for v in obj]
        brackets = "[]"
    else:
        yield _scalar_text(obj)
        return
    if not items:
        yield brackets
        return
    sep = brackets[0]
    for key, value in items:
        if isinstance(value, (dict, list, tuple, np.ndarray)):
            yield sep + inner + key
            yield from _json_chunks(value, inner)
        else:
            yield sep + inner + key + _scalar_text(value)
        sep = ","
    yield nl + brackets[1]


def _meta_comment_lines(meta) -> list:
    return [
        f"# tool: {meta['tool']} {meta['version']}",
        f"# command: {meta['command']}",
        "# config: " + json.dumps(meta["config"], sort_keys=True),
        f"# graph_checksum: {meta['graph_checksum']}",
    ]


def _write_csv(path, header, template, rows) -> None:
    """Header lines, then one `template % row` per row.

    An N x N table is formatted one row at a time, so the formatter holds
    N Python values, never N^2. '%.17g' is the routine behind
    format(v, '.17g'), so each value reads exactly as that gives it, and
    '%r' of a Python float is its repr.
    """
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for row in rows:
            fh.write(template % row)


def _matrix_table(m, *lines):
    """CSV table of a full N x N matrix, one row per line, 17 significant digits."""
    template = ",".join(["%.17g"] * m.shape[1]) + "\n"
    return list(lines), template, (tuple(r.tolist()) for r in m)


def _resolve_graph(args):
    if args.tube is not None:
        return build_tube_fullerene(args.tube)
    if args.c60:
        return build_c60_blocked()
    return load_graph(args.graph)


def _parse_observable(spec: str, n: int) -> np.ndarray:
    """The node function o of 'position' or 'node:K', O = diag(o)."""
    if spec == "position":
        return position_observable(n)
    if spec.startswith("node:"):
        try:
            x = int(spec[5:])
        except ValueError:
            raise ValueError(f"bad node index in observable {spec!r}") from None
        return _node_projector(n, x, "observable node")
    raise ValueError(
        f"observable must be 'position' or 'node:K', got {spec!r}"
    )


def _parse_family(spec: str):
    """Family sizes: 'LO..HI' as a lazy range (step 10) or a comma-separated list."""
    try:
        if ".." in spec:
            lo_s, hi_s = spec.split("..", 1)
            sizes = range(int(lo_s), int(hi_s) + 1, 10)  # read only up to its first bad size
        else:
            sizes = [int(tok) for tok in spec.split(",") if tok]
    except ValueError:
        raise ValueError(f"bad family spec {spec!r}") from None
    if not sizes:
        raise ValueError(f"empty family spec {spec!r}")
    return sizes


def _linear_grid(lo: float, hi: float, count: int, name: str) -> np.ndarray:
    if not (math.isfinite(lo) and math.isfinite(hi - lo)):  # numpy would overflow on hi - lo
        raise ValueError(f"{name} grid endpoints and their span must be finite")
    if hi <= lo:
        raise ValueError(f"{name} grid needs max > min, got [{lo}, {hi}]")
    if count < 2:
        raise ValueError(f"{name} grid needs at least 2 points, got {count}")
    return np.linspace(lo, hi, count)


def _log_grid(lo: float, hi: float, count: int, name: str) -> np.ndarray:
    if lo <= 0:
        raise ValueError(f"{name} grid must start above 0, got {lo}")
    _linear_grid(lo, hi, count, name)
    return np.logspace(np.log10(lo), np.log10(hi), count)


def _mirror_residual(u: np.ndarray) -> float:
    return float(np.abs(u - u[:, ::-1]).max())


# Each _cmd_* computes and writes nothing. It returns (graph, payload,
# table, *csv_files): the graph the meta checksum names, or None; the JSON
# payload, or None where the output has no JSON form; the CSV table, or
# None where it has no CSV form; then one (path, table) pair per further
# CSV file. A table is (its lines after the meta header, a '%' template of
# one row, an iterator over the rows). With neither a payload nor a table
# the output is the graph file.


def _cmd_gen(args):
    return _resolve_graph(args), None, None


def _cmd_spectrum(args):
    g = _resolve_graph(args)
    s = graph_spectrum(g, args.tol)
    cluster_index = s.cluster_index
    payload = {
        "n_nodes": g.n_nodes,
        "eigenvalues": s.eigenvalues,
        "cluster_index": cluster_index,
        "cluster_values": s.cluster_values(),
        "degeneracies": np.bincount(cluster_index),
        "n_distinct": s.n_distinct,
        "degeneracy_tol": s.degeneracy_tol,
    }
    table = (
        ["# k is 1-based, clusters 0-based, both ascending", "k,eigenvalue,cluster"],
        "%d,%.17g,%d\n",
        zip(range(1, s.n + 1), s.eigenvalues.tolist(), cluster_index.tolist()),
    )
    comment = "# rows are vertices 1..N, columns eigenvectors in ascending order"
    more = [(args.vectors, _matrix_table(s.eigenvectors, comment))] if args.vectors else []
    return g, payload, table, *more


def _cmd_limiting(args):
    g = _resolve_graph(args)
    s = graph_spectrum(g, args.tol)
    u = limiting_distribution(s).u
    payload = {
        "n_nodes": g.n_nodes,
        "u": u,
        "row_sum_max_dev": float(np.abs(u.sum(axis=1) - 1.0).max()),
    }
    if args.c60:
        payload["mirror_residual"] = _mirror_residual(u)
    if args.layout == "matrix":
        return g, payload, _matrix_table(u)
    # one line per cell with 1-based x and y; one template fills a matrix row
    template = "".join(f"%d,{y},%.17g\n" for y in range(1, u.shape[1] + 1))
    rows = (
        tuple(chain.from_iterable(zip(repeat(x), r.tolist())))
        for x, r in enumerate(u, start=1)
    )
    return g, payload, (["x,y,u"], template, rows)


def _cmd_bound(args):
    g = _resolve_graph(args)
    _check_label(args.start, g.n_nodes, "start")
    obs_spec = args.observable if args.observable else f"node:{args.start}"
    o = _parse_observable(obs_spec, g.n_nodes)
    taus = _log_grid(args.tau_min, args.tau_max, args.tau_count, "tau")

    rep = equilibration_report(
        g,
        args.start,
        o,
        tau_grid=taus,
        epsilon=args.epsilon,
        n_eps_override=args.n_eps_override,
        degeneracy_tol=args.tol,
    )
    payload = {
        "start": rep.start,
        "observable": obs_spec,
        "d_eff": rep.d_eff,
        "n_lambda": rep.n_lambda,
        "log2_n_lambda": math.log2(rep.n_lambda),
        "n_eps": rep.n_eps,
        "n_eps_override": rep.n_eps_override,
        "epsilon": rep.epsilon,
        "operator_norm_sq": rep.operator_norm_sq,
        "rhs_asymptote": rep.rhs_asymptote,
        "bound_holds": bool(np.all(rep.lhs <= rep.rhs)),
        "table": {"tau": rep.tau_grid, "lhs": rep.lhs, "rhs": rep.rhs},
    }
    rows = zip(rep.tau_grid.tolist(), rep.lhs.tolist(), rep.rhs.tolist())
    return g, payload, (["tau,lhs,rhs"], "%r,%r,%r\n", rows)


def _cmd_gibbs(args):
    if args.beta is not None:
        pg = pentagon_gibbs(args.beta)
        payload = {
            "beta": pg.beta,
            "z": pg.z,
            "node_probs": pg.node_probs,
            "state": pg.state,
        }
        table = (
            ["# node 0 is the no-walker state b0", "node,probability"],
            "%d,%r\n",
            enumerate(pg.node_probs.tolist()),
        )
        return None, payload, table

    betas = _linear_grid(args.beta_min, args.beta_max, args.beta_count, "beta").tolist()
    if args.beta_sweep:
        p_j = [gibbs_node_probability(beta) for beta in betas]
        columns = {
            "beta": betas,
            "z": [gibbs_partition_function(beta) for beta in betas],
            "p_j": p_j,
            "p_0": [1.0 - 5.0 * p for p in p_j],
        }
        table = ([",".join(columns)], "%r,%r,%r,%r\n", zip(*columns.values()))
        return None, {"table": columns}, table

    sizes = _parse_family(args.family)
    rows = gibbs_vs_limiting(sizes, betas, degeneracy_tol=args.tol)
    payload = {
        "rows": [asdict(r) for r in rows],
        "any_matchable": bool(any(r.gibbs_matchable for r in rows)),
    }
    table = (
        ["N,u_NN,p_beta_min,p_beta_max,gibbs_matchable"],
        "%d,%r,%r,%r,%s\n",
        [
            (r.n, r.u_nn, r.p_beta_min, r.p_beta_max, "true" if r.gibbs_matchable else "false")
            for r in rows
        ],
    )
    return None, payload, table


def _cmd_eth(args):
    if args.haar_samples < 0:
        raise ValueError(f"--haar-samples must be >= 0, got {args.haar_samples}")
    g = _resolve_graph(args)
    o = _parse_observable(args.observable, g.n_nodes)  # before the eigh
    haar = {}
    if args.haar_samples > 0:  # needs only N and the seed
        mean, std = haar_entropy_baseline(g.n_nodes, args.haar_samples, seed=args.seed)
        haar = {"haar_entropy_mean": mean, "haar_entropy_std": std}
    s = graph_spectrum(g, args.tol)

    # the CSV is the whole energy-basis matrix, the JSON the report on it
    if args.format == "csv":
        tag = f"# O in the energy eigenbasis, basis {s.basis_tag}"
        return g, None, _matrix_table(observable_in_energy_basis(s, o), tag)

    rep = eth_report(s, o)
    payload = {
        "observable": args.observable,
        "basis": rep.basis_tag,
        "diag_mean": rep.diag_mean,
        "diag_std": rep.diag_std,
        "offdiag_rms": rep.offdiag_rms,
        "diagonal": rep.diagonal,
        "cluster_averaged_diagonal": rep.cluster_averaged_diagonal,
        "node_table": [
            {"x": x, "diag_mean": m, "diag_std": sd}
            for x in range(1, s.n + 1)
            for m, sd in [projector_eth_stats(s, x)]
        ],
        **haar,
    }
    if args.entropies:
        ents = node_entropies(s)
        payload["node_entropies"] = ents
        payload["entropy_mean"] = float(ents.mean())
        payload["entropy_std"] = float(ents.std())
    return g, payload, None


def _cmd_symmetry(args):
    s = symmetry_adapted_c60_basis(degeneracy_tol=args.tol)
    chk = eth_symmetry_check(s)
    u_resid = _mirror_residual(limiting_distribution(s).u)
    payload = {
        "basis": s.basis_tag,
        "mirror_residual": chk.mirror_residual,
        "position_diag_deviation": chk.position_diag_deviation,
        "u_mirror_residual": u_resid,
        "passed": bool(chk.passed and u_resid < SYMMETRY_THRESHOLDS["u_mirror_residual"]),
        "thresholds": SYMMETRY_THRESHOLDS,
    }
    return build_c60_blocked(), payload, None


def _add_graph_source(p, with_file: bool = True) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument(
        "--tube",
        type=int,
        metavar="N",
        help="tube-isomer fullerene on N vertices (multiple of 10, N >= 30)",
    )
    grp.add_argument("--c60", action="store_true", help="the C60 buckyball")
    if with_file:
        grp.add_argument("--graph", metavar="PATH", help="read an edge-list graph file")


def _add_output(p, formats=("json", "csv")) -> None:
    p.add_argument("-o", "--output", required=True, metavar="PATH", help="output file")
    if formats:
        p.add_argument(
            "--format", choices=formats, default=formats[0], help="output format"
        )


def _add_tol(p) -> None:
    p.add_argument(
        "--tol",
        type=float,
        default=DEGENERACY_TOL,
        metavar="T",
        help="eigenvalue clustering tolerance",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fullerwalk",
        description="Continuous-time quantum walks on fullerene graphs.",
    )
    parser.add_argument(
        "--version", action="version", version=f"fullerwalk {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("gen", help="generate a fullerene graph file")
    _add_graph_source(p, with_file=False)
    _add_output(p, formats=())
    p.set_defaults(func=_cmd_gen, parser=p)

    p = sub.add_parser("spectrum", help="eigenvalues and degeneracy clusters")
    _add_graph_source(p)
    _add_tol(p)
    p.add_argument(
        "--vectors", metavar="PATH", help="also write eigenvectors as CSV"
    )
    _add_output(p)
    p.set_defaults(func=_cmd_spectrum, parser=p)

    p = sub.add_parser("limiting", help="limiting distribution u(x, y)")
    _add_graph_source(p)
    _add_tol(p)
    p.add_argument(
        "--layout",
        choices=("triples", "matrix"),
        default="triples",
        help="CSV layout: (x, y, u) triples or the full N x N matrix",
    )
    _add_output(p)
    p.set_defaults(func=_cmd_limiting, parser=p)

    p = sub.add_parser("bound", help="equilibration bound versus measured deviation")
    _add_graph_source(p)
    _add_tol(p)
    p.add_argument("--start", type=int, required=True, metavar="X", help="start node")
    p.add_argument(
        "--observable",
        metavar="SPEC",
        help="'position' or 'node:K' (default: projector on the start node)",
    )
    p.add_argument("--epsilon", type=float, default=1.0, help="gap-count window")
    p.add_argument(
        "--n-eps-override",
        type=int,
        default=None,
        metavar="K",
        help="use K instead of the computed N(epsilon) in the rhs",
    )
    p.add_argument("--tau-min", type=float, default=TAU_MIN, help="smallest horizon")
    p.add_argument("--tau-max", type=float, default=TAU_MAX, help="largest horizon")
    p.add_argument("--tau-count", type=int, default=TAU_COUNT, help="grid size")
    _add_output(p)
    p.set_defaults(func=_cmd_bound, parser=p)

    p = sub.add_parser("gibbs", help="pentagon Gibbs states and the family comparison")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--beta", type=float, metavar="B", help="single inverse temperature")
    mode.add_argument(
        "--beta-sweep", action="store_true", help="sweep beta over the grid"
    )
    mode.add_argument(
        "--family",
        metavar="SPEC",
        help="compare u(N, N) against the Gibbs range for sizes 'LO..HI' or a comma list",
    )
    p.add_argument("--beta-min", type=float, default=0.0, help="grid start")
    p.add_argument("--beta-max", type=float, default=200.0, help="grid end")
    p.add_argument("--beta-count", type=int, default=201, help="grid size")
    _add_tol(p)
    _add_output(p)
    p.set_defaults(func=_cmd_gibbs, parser=p)

    p = sub.add_parser("eth", help="observable statistics in the energy eigenbasis")
    _add_graph_source(p)
    _add_tol(p)
    p.add_argument(
        "--observable",
        required=True,
        metavar="SPEC",
        help="'position' or 'node:K'",
    )
    p.add_argument(
        "--entropies",
        action="store_true",
        help="include per-node measurement entropies (JSON only)",
    )
    p.add_argument(
        "--haar-samples",
        type=int,
        default=0,
        metavar="M",
        help="include a Haar-orthogonal entropy baseline over M samples (JSON only)",
    )
    p.add_argument("--seed", type=int, default=0, help="base seed for the Haar baseline")
    _add_output(p)
    p.set_defaults(func=_cmd_eth, parser=p)

    p = sub.add_parser("symmetry", help="C60 mirror-symmetry consistency suite")
    _add_tol(p)
    _add_output(p, formats=())
    p.set_defaults(func=_cmd_symmetry, parser=p)

    return parser


def _run(args) -> None:
    """Run one command and write what it returns, with meta added."""
    t0 = time.perf_counter()
    for dest, (runs, reads) in _READ_ONLY_WITH.get(args.command, {}).items():
        flag, value = "--" + dest.replace("_", "-"), getattr(args, dest)
        if value != args.parser.get_default(dest) and not reads(args):
            raise ValueError(f"{flag} is read only with {runs}, got {flag} {value}")
    g, payload, table, *csv_files = args.func(args)
    meta = _meta(args, None if g is None else edge_checksum(g))
    header = _meta_comment_lines(meta)
    if payload is None and table is None:
        save_graph(g, args.output, header=header)
    elif payload is not None and (table is None or args.format == "json"):
        meta["timing_seconds"] = round(time.perf_counter() - t0, 6)
        with open(args.output, "w") as fh:
            fh.writelines(_json_chunks(dict(payload, meta=meta)))
            fh.write("\n")
    else:
        csv_files.insert(0, (args.output, table))
    for path, (lines, template, rows) in csv_files:
        _write_csv(path, header + lines, template, rows)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _run(args)
        return 0
    except ValueError as exc:
        print(f"fullerwalk: error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"fullerwalk: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"fullerwalk: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"fullerwalk: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
