"""Command-line front end: one subcommand per analysis, data files out.

Every command writes a JSON or CSV data file, never an image; plots are
left to downstream tooling and each output is the table behind one. The
JSON header echoes the exact flag set plus the graph checksum so a run
can be reproduced from its own output. CSV files carry the same metadata
as '#' comment lines. Commands only compute; main adds the metadata and
writes each file: JSON by its structure, numeric vectors and u's text
rows streamed, and CSV as bytes, one filled '%' template per row. u's
writers read its orbit rows, one per orbit of the spectrum's orbits
table (the symmetry it was solved in), and format each distinct value
once; only the JSON lifts the N x N u, for its row sums and mirror
residual. Timing is only in JSON (timing_seconds);
CSV and graph files are byte-identical across reruns of the same command
with the same number of BLAS threads. Another count moves the last digits
of u and may pick another basis inside a degenerate cluster, which changes
the per-vector outputs outright (spectrum --vectors, the eth CSV and JSON).
Every graph is solved through graph_spectrum, whose basis_tag names the
basis: C10 sectors for a tube, the mirror sectors for C60 (also behind
symmetry), the dense solve for a graph with neither symmetry.

Exit codes: 0 success, 2 usage or validation error, an allocation
refused for lack of memory or a bound grid over the lhs node budget,
3 numerical failure (an ArithmeticError that validation did not catch;
no code path raises one on purpose).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections.abc import Iterator
from dataclasses import asdict
from functools import cache

import numpy as np

from . import __version__
from .dynamics import _lift, limiting_orbit_rows
from .equilibration import MAX_GRID_POINTS, TAU_COUNT, TAU_MAX, TAU_MIN
from .equilibration import _check_point_count, equilibration_report
from .eth import (
    SYMMETRY_THRESHOLDS,
    _mirror_residual,
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
from .spectral import DEGENERACY_TOL, _is_automorphism, _orbit_layout, graph_spectrum
from .thermo import _boltzmann, gibbs_vs_limiting, pentagon_gibbs

# gen's peak bytes per node, build and write (tracemalloc: 512 on F10000, 554 on F100000)
GEN_NODE_BYTES = 600

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


def _json_text(a: np.ndarray):
    """The function that gives json's text of each number of the numeric array a."""
    if a.dtype.kind != "f":
        return int.__repr__
    return float.__repr__ if np.isfinite(a).all() else json.dumps


def _json_chunks(doc, nl="\n"):
    """The text of doc, in pieces, as json.dump(doc, indent=2,
    sort_keys=True) writes it once arrays and numpy scalars are plain
    Python and each iterator of text rows is the matrix its texts spell;
    nl is the line break and indent of the line doc starts on. A non-empty
    dict goes key by key, each value by a recursive call; a non-empty
    numeric vector as one join in C of json's reprs; a non-empty iterator
    one row of texts at a time, so u of the limiting JSON (_distinct_rows)
    never forms an N^2 list. Any other value is json.dumps' text: flat for
    a scalar (json's C encoder), at indent 2 for a list, tuple or array."""
    inner, cell = nl + "  ", nl + "    "
    if isinstance(doc, dict) and doc:
        for i, key in enumerate(sorted(doc)):
            yield ("," if i else "{") + inner + json.dumps(key) + ": "
            yield from _json_chunks(doc[key], inner)
        yield nl + "}"
    elif isinstance(doc, np.ndarray) and doc.ndim == 1 and doc.size > 0 and doc.dtype.kind in "fiu":
        yield "[" + inner + ("," + inner).join(map(_json_text(doc), doc.tolist())) + nl + "]"
    elif isinstance(doc, Iterator):
        for i, row in enumerate(doc):
            yield ("," if i else "[") + inner + "[" + cell + ("," + cell).join(row) + inner + "]"
        yield nl + "]"
    else:
        indent = 2 if isinstance(doc, (list, tuple, np.ndarray)) else None
        text = json.dumps(doc, indent=indent, sort_keys=True, default=lambda v: v.tolist())
        yield text.replace("\n", nl)


def _meta_comment_lines(meta) -> list:
    return [
        f"# tool: {meta['tool']} {meta['version']}",
        f"# command: {meta['command']}",
        "# config: " + json.dumps(meta["config"], sort_keys=True),
        f"# graph_checksum: {meta['graph_checksum']}",
    ]


def _write_csv(path, header, template, rows) -> None:
    """Header lines, then one `template % row` per row, all as bytes.

    Rows are filled one at a time, so a matrix table holds N Python values
    and the limiting table one text per distinct value of its orbit rows,
    never N^2. Bytes '%.17g' is the routine behind format(v, '.17g'), so
    each value reads exactly as that gives it, and b'%r' of a Python float
    is its repr.
    """
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        for row in rows:
            fh.write(template % row)


def _matrix_table(m, *lines):
    """CSV table of a full N x N matrix, one row per line, 17 significant digits."""
    template = b",".join([b"%.17g"] * m.shape[1]) + b"\n"
    return list(lines), template, (tuple(r.tolist()) for r in m)


def _distinct_rows(ur, text, cycle):
    """Each row of the float matrix u as a tuple of text(v) for its entries,
    u invariant to the bit under the node map whose powers table is cycle
    (cycle[p, x] = perm^p(x)) and ur its non-empty rows of the smallest node
    r of each orbit. Row perm^p(r) is row r read at cycle[-p], one index
    gather per row, a row with p = 0 as it is. text is called once per
    distinct bit pattern of ur (-0.0 keeps its own); one np.unique gives
    each entry its text index, about 45 bytes per entry of ur at the peak."""
    reps, orbit, power = _orbit_layout(cycle)
    bits = np.ascontiguousarray(ur, dtype=float).view(np.uint64)
    keys, inv = np.unique(bits, return_inverse=True)  # unlike np.unique(bits), no numpy.ma import
    texts = np.array([*map(text, keys.view(float).tolist())], dtype=object)
    inv = inv.reshape(len(reps), -1)
    for o, p in zip(orbit.tolist(), power.tolist()):
        yield tuple(texts[inv[o] if p == 0 else inv[o, cycle[-p]]].tolist())


def _resolve_graph(args):
    if args.tube is not None:
        _check_memory(args.tube, args.command == "gen")
        return build_tube_fullerene(args.tube)
    if args.c60:
        return build_c60_blocked()
    return load_graph(args.graph)


def _check_memory(n: int, gen: bool) -> None:
    """Refuse, before the graph is built, an N whose build and write (gen)
    or N x N float eigenvectors (every other command) alone take more than
    the machine's physical memory."""
    need = GEN_NODE_BYTES * n if gen else 8 * n * n
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        what = f"to build the {n}-node graph" if gen else f"for the ({n}, {n}) eigenvectors"
        raise MemoryError(f"Unable to allocate {need / 2**30:.3g} GiB {what}, "
                          f"more than the {have / 2**30:.3g} GiB of memory")


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


# Each _cmd_* computes and writes nothing. It returns (graph, payload,
# table, *csv_files): the graph the meta checksum names, or None; the JSON
# payload, or None where the run writes none; the CSV table, or None
# where it has no CSV form; then one (path, table) pair per further
# CSV file. A table is (its lines after the meta header, a bytes '%'
# template of one row, an iterator over the rows). With neither a payload
# nor a table the output is the graph file.


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
        b"%d,%.17g,%d\n",
        zip(range(1, s.n + 1), s.eigenvalues.tolist(), cluster_index.tolist()),
    )
    comment = "# rows are vertices 1..N, columns eigenvectors in ascending order"
    more = [(args.vectors, _matrix_table(s.eigenvectors, comment))] if args.vectors else []
    return g, payload, table, *more


def _cmd_limiting(args):
    g = _resolve_graph(args)
    s = graph_spectrum(g, args.tol)
    ur = limiting_orbit_rows(s)
    if args.format == "json":
        u = _lift(ur, s.orbits)
        payload = {
            "n_nodes": g.n_nodes,
            "u": _distinct_rows(ur, _json_text(ur), s.orbits),
            "row_sum_max_dev": float(np.abs(u.sum(axis=1) - 1.0).max()),
        }
        if _is_automorphism(g, np.arange(g.n_nodes)[::-1]):  # x -> N+1-x is a symmetry
            payload["mirror_residual"] = _mirror_residual(u, 1)
        return g, payload, None
    texts = _distinct_rows(ur, b"%.17g".__mod__, s.orbits)
    if args.layout == "matrix":
        return g, None, ([], b",".join([b"%s"] * g.n_nodes) + b"\n", texts)
    line = b"".join(b"\0,%d,%%s\n" % y for y in range(1, g.n_nodes + 1))  # x goes in at \0
    rows = ((line.replace(b"\0", b"%d" % x) % t,) for x, t in enumerate(texts, start=1))
    return g, None, (["x,y,u"], b"%s", rows)


def _cmd_bound(args):
    _check_point_count(args.tau_count)  # before the grid, the graph and the eigh
    g = _resolve_graph(args)
    _check_label(args.start, g.n_nodes, "start")
    obs_spec = args.observable if args.observable is not None else f"node:{args.start}"
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
    payload = asdict(rep)
    payload.update(
        observable=obs_spec,
        log2_n_lambda=math.log2(rep.n_lambda),
        rhs_asymptote=rep.rhs_asymptote,
        bound_holds=bool(np.all(rep.lhs <= rep.rhs)),
        table={"tau": payload.pop("tau_grid"), **{k: payload.pop(k) for k in ("lhs", "rhs")}},
    )
    rows = zip(rep.tau_grid.tolist(), rep.lhs.tolist(), rep.rhs.tolist())
    return g, payload, (["tau,lhs,rhs"], b"%r,%r,%r\n", rows)


def _cmd_gibbs(args):
    if args.beta is not None:
        pg = pentagon_gibbs(args.beta)
        table = (
            ["# node 0 is the no-walker state b0", "node,probability"],
            b"%d,%r\n",
            enumerate(pg.node_probs.tolist()),
        )
        return None, asdict(pg), table

    if args.beta_count > MAX_GRID_POINTS:  # the --tau-count cap, from the count alone
        raise ValueError(f"--beta-count must be at most {MAX_GRID_POINTS}, got {args.beta_count}")
    betas = _linear_grid(args.beta_min, args.beta_max, args.beta_count, "beta")
    if args.beta_sweep:
        weights, p_j, z = _boltzmann(betas)
        columns = {"beta": betas, "z": z, "p_j": p_j, "p_0": weights[:, 0]}
        table = ([",".join(columns)], b"%r,%r,%r,%r\n", zip(*(c.tolist() for c in columns.values())))
        return None, {"table": columns}, table

    sizes = _parse_family(args.family)
    rows = gibbs_vs_limiting(sizes, betas, degeneracy_tol=args.tol)
    payload = {
        "rows": [asdict(r) for r in rows],
        "any_matchable": bool(any(r.gibbs_matchable for r in rows)),
    }
    table = (
        ["N,u_NN,p_beta_min,p_beta_max,gibbs_matchable"],
        b"%d,%r,%r,%r,%s\n",
        [
            (r.n, r.u_nn, r.p_beta_min, r.p_beta_max, b"true" if r.gibbs_matchable else b"false")
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

    payload = asdict(eth_report(s, o))
    payload.update(
        observable=args.observable,
        basis=payload.pop("basis_tag"),
        node_table=[
            {"x": x, "diag_mean": m, "diag_std": sd}
            for x, m, sd in zip(range(1, s.n + 1), *(a.tolist() for a in projector_eth_stats(s)))
        ],
        **haar,
    )
    if args.entropies:
        ents = node_entropies(s)
        payload["node_entropies"] = ents
        payload["entropy_mean"] = float(ents.mean())
        payload["entropy_std"] = float(ents.std())
    return g, payload, None


def _cmd_symmetry(args):
    g = build_c60_blocked()
    s = graph_spectrum(g, args.tol)
    payload = {"basis": s.basis_tag, **eth_symmetry_check(s)._asdict(),
               "thresholds": SYMMETRY_THRESHOLDS}
    return g, payload, None


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


_parser = cache(build_parser)  # built on the first main call, then reused


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
