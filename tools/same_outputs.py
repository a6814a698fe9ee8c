"""Check that this checkout's CLI writes the same files as another revision.

    python tools/same_outputs.py --base REV

Extracts REV's src/ with `git archive`, then runs one fixed list of
fullerwalk commands twice, once under REV's src/ and once under this
checkout's src/ (the working tree, uncommitted edits included). Each
command runs in its own process at one BLAS thread, since another thread
count may move the last digits of a matrix product. The list covers every
subcommand, both formats and both limiting layouts, --vectors, C60, F30,
F130, a --graph file, the C60 graph file, F1000 (spectrum, also with
--vectors, limiting in both formats and both CSV layouts, the bound with
the start node, with node 500, a one-node support away from the start,
and with the position observable, and the position observable's
energy-basis matrix), a 1,100-sample Haar baseline on F130 (more than one
block of Haar states), the F40 and F2000 graph files, --tol 1e-3, the
limiting CSV and JSON at --tol 0.3 (clusters of more than sqrt(N) levels),
all three gibbs modes (--beta 1000 too), a 100,000-point beta sweep in
both formats, a bound at epsilon 1e-18, a 5,000-point bound grid in both
formats, a bound to tau 1e5, a Haar baseline seeded near 2**128,
symmetry, and thirteen commands that must fail.

CSV and graph files must be byte-identical. JSON files must be
byte-identical apart from the digits of meta.timing_seconds. Exit codes
must agree. Prints one line per difference and exits 1 if there is any.
Under each differing file it says what moved: for JSON every key path
whose value differs (list indices written as []), with the largest
relative change |head - base| / |base| over that path's numbers; for CSV
every column that moved, with how many rows differ and the largest
relative change, and the columns that stayed byte-identical; for the
other files, or CSVs whose lines do not pair up, the first differing line
and column, and how many lines differ. Last it prints the line count of
the *.py files under src/ at REV and here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ONE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
TIMING = re.compile(rb'"timing_seconds": [^,\n]*')
GRAPH = "{graph}"  # stands for the shared --graph input file
C60_GRAPH = "{c60}"  # stands for the graph file gen --c60 writes

SOURCES = {
    "c60": ["--c60"],
    "f30": ["--tube", "30"],
    "f130": ["--tube", "130"],
    "file": ["--graph", GRAPH],
}


def commands() -> list:
    """(name, argv) pairs; every output file name starts with the name."""
    cmds = []

    def add(name, *argv, ext="json"):
        cmds.append((name, [*argv, "-o", f"{name}.{ext}"]))

    big = ("f1000", ["--tube", "1000"])
    gens = [(tag, SOURCES[tag]) for tag in ("c60", "f30", "f130")] + [big]
    gens += [(f"f{n}", ["--tube", str(n)]) for n in (40, 2000)]  # F40 has three rings
    for tag, src in gens:
        add(f"gen-{tag}", "gen", *src, ext="txt")  # gen reads no --graph
    for tag, src in [*SOURCES.items(), big]:
        add(f"spectrum-{tag}", "spectrum", *src)
        add(f"spectrum-{tag}", "spectrum", *src, "--format", "csv", ext="csv")
        add(f"limiting-{tag}", "limiting", *src)
        add(f"limiting-{tag}-triples", "limiting", *src, "--format", "csv", ext="csv")
        add(f"eth-{tag}-position", "eth", *src, "--observable", "position")
    for tag, src in SOURCES.items():
        add(f"limiting-{tag}-matrix", "limiting", *src, "--format", "csv",
            "--layout", "matrix", ext="csv")
        add(f"eth-{tag}-node1", "eth", *src, "--observable", "node:1", "--entropies")
        add(f"eth-{tag}-position", "eth", *src, "--observable", "position",
            "--format", "csv", ext="csv")
        add(f"bound-{tag}", "bound", *src, "--start", "1")
        add(f"bound-{tag}", "bound", *src, "--start", "1", "--format", "csv", ext="csv")
    for tag, src in [("c60", SOURCES["c60"]), ("f130", SOURCES["f130"]), big]:
        name = f"{tag}-vectors"  # F1000's V: 15 full blocks of lifted rows and a partial one
        cmds.append((name, ["spectrum", *src, "--vectors", f"{name}.vec.csv",
                            "-o", f"{name}.json"]))
    tol = ["--tol", "1e-3"]
    add("spectrum-f130-tol", "spectrum", *SOURCES["f130"], *tol)
    add("limiting-f130-tol", "limiting", *SOURCES["f130"], *tol, "--format", "csv", ext="csv")
    add("limiting-f130-tol-matrix", "limiting", *SOURCES["f130"], *tol, "--format", "csv",
        "--layout", "matrix", ext="csv")
    add("limiting-f130-tol", "limiting", *SOURCES["f130"], *tol)
    add("limiting-f130-coarse", "limiting", *SOURCES["f130"], "--tol", "0.3", "--format", "csv",
        ext="csv")  # two clusters with d^2 > N: u's projector route
    add("limiting-f130-coarse", "limiting", *SOURCES["f130"], "--tol", "0.3")  # and its JSON lift
    add("limiting-f1000-matrix", "limiting", *big[1], "--format", "csv", "--layout", "matrix",
        ext="csv")
    add("bound-f130-tol", "bound", *SOURCES["f130"], "--start", "1", *tol)
    add("eth-f130-tol", "eth", *SOURCES["f130"], "--observable", "position", *tol)
    add("gibbs-family-tol", "gibbs", "--family", "30,60", *tol)
    add("symmetry-tol", "symmetry", *tol)
    add("bound-c60-position", "bound", "--c60", "--start", "7", "--observable", "position")
    add("bound-c60-node9", "bound", "--c60", "--start", "2", "--observable", "node:9",
        "--format", "csv", ext="csv")
    add("bound-f30-override", "bound", *SOURCES["f30"], "--start", "3", "--n-eps-override", "3",
        "--epsilon", "0.5", "--tau-min", "1", "--tau-max", "100", "--tau-count", "20")
    add("bound-f1000", "bound", "--tube", "1000", "--start", "1")
    add("bound-f1000-position", "bound", "--tube", "1000", "--start", "1",
        "--observable", "position")
    add("bound-f1000-node500", "bound", "--tube", "1000", "--start", "1",
        "--observable", "node:500")
    add("eth-f1000-node1", "eth", "--tube", "1000", "--observable", "node:1", "--entropies")
    add("eth-f1000-position", "eth", "--tube", "1000", "--observable", "position",
        "--format", "csv", ext="csv")
    add("eth-c60-haar", "eth", "--c60", "--observable", "node:2", "--entropies",
        "--haar-samples", "25", "--seed", "3")
    add("eth-f130-node130", "eth", *SOURCES["f130"], "--observable", "node:130")
    add("eth-f130-haar", "eth", *SOURCES["f130"], "--observable", "node:3", "--entropies",
        "--haar-samples", "1100", "--seed", "9")  # 143,000 values: three blocks of Haar states
    for fmt, ext in (("json", "json"), ("csv", "csv")):
        add("gibbs-beta", "gibbs", "--beta", "0.7", "--format", fmt, ext=ext)
        add("gibbs-sweep", "gibbs", "--beta-sweep", "--format", fmt, ext=ext)
        add("gibbs-family", "gibbs", "--family", "30..130", "--format", fmt, ext=ext)
        add("gibbs-sweep-large", "gibbs", "--beta-sweep", "--beta-count", "100000",
            "--format", fmt, ext=ext)  # a long column on the JSON writer's vector path
    add("gibbs-beta0", "gibbs", "--beta", "0")
    add("gibbs-beta1000", "gibbs", "--beta", "1000")
    add("bound-c60-tiny-eps", "bound", "--c60", "--start", "1", "--epsilon", "1e-18")
    dense = ("bound", "--c60", "--start", "1", "--tau-max", "10", "--tau-count", "5000")
    add("bound-c60-dense", *dense)  # the largest nested arrays in a JSON
    add("bound-c60-dense", *dense, "--format", "csv", ext="csv")
    add("bound-f130-long", "bound", *SOURCES["f130"], "--start", "1", "--tau-max", "1e5")
    add("gibbs-sweep-short", "gibbs", "--beta-sweep", "--beta-min", "1", "--beta-max", "5",
        "--beta-count", "9", "--format", "csv", ext="csv")
    add("symmetry", "symmetry")
    add("limiting-c60-file", "limiting", "--graph", C60_GRAPH)
    add("eth-c60-haar-high", "eth", "--c60", "--observable", "node:2", "--haar-samples", "5",
        "--seed", str(2**128 - 56))  # the last keys use the high word of the Philox key
    # these must fail, with the same exit code on both sides
    add("fail-bound-start", "bound", *SOURCES["f30"], "--start", "31")
    add("fail-eth-node", "eth", "--c60", "--observable", "node:99")
    add("fail-eth-f1000-node", "eth", "--tube", "1000", "--observable", "node:0")
    add("fail-spectrum-size", "spectrum", "--tube", "35")
    add("fail-bound-override", "bound", "--tube", "1000", "--start", "1", "--n-eps-override", "0")
    add("fail-spectrum-tol", "spectrum", "--tube", "1000", "--tol", "0")
    add("fail-eth-seed", "eth", "--tube", "1000", "--observable", "position",
        "--haar-samples", "5", "--seed", "-1")
    add("fail-eth-csv-flags", "eth", "--tube", "30", "--observable", "position",
        "--format", "csv", "--haar-samples", "5", "--seed", "3", "--entropies", ext="csv")
    add("fail-gibbs-family-overflow", "gibbs", "--family", "30..1" + "0" * 30)
    add("fail-gibbs-beta-count", "gibbs", "--beta", "0.7", "--beta-count", "3")
    add("fail-bound-tau-count", "bound", "--c60", "--start", "1", "--tau-count", "3000000")
    add("fail-bound-tau-count-huge", "bound", "--c60", "--start", "1",
        "--tau-count", "1000000000000")
    add("fail-limiting-json-layout", "limiting", "--c60", "--format", "json", "--layout", "matrix")
    return cmds


def run_all(src: Path, out: Path, graphs: dict) -> dict:
    """Run every command with `src` first on the path, the graph files
    `graphs` maps each stand-in to put in; returns {name: exit codes}."""
    env = dict(os.environ, PYTHONPATH=str(src), **ONE_THREAD)
    out.mkdir()
    codes = {}
    for name, argv in commands():
        argv = [str(graphs.get(a, a)) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "fullerwalk.cli", *argv],
            cwd=out, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        codes.setdefault(name, []).append(proc.returncode)
    return codes


def _relative_change(a, b) -> float:
    """|b - a| / |a| for two numbers; inf from 0 or to a non-finite value."""
    return abs(b - a) / abs(a) if a and math.isfinite(a) and math.isfinite(b) else math.inf


def _json_changes(a, b, path, changes) -> None:
    """Fill changes with what differs between the JSON values a (base) and
    b (head): key path -> the largest relative change of its numbers, or a
    note for anything else that differs. meta.timing_seconds is skipped."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if sub == "meta.timing_seconds":
                continue
            if key in a and key in b:
                _json_changes(a[key], b[key], sub, changes)
            else:
                changes[sub] = f"written only by {'base' if key in a else 'head'}"
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            changes[path + "[]"] = f"length {len(a)} at base, {len(b)} here"
            return
        for x, y in zip(a, b):
            _json_changes(x, y, path + "[]", changes)
    elif {type(a), type(b)} <= {int, float}:
        if a == b or (a != a and b != b):  # NaN at both sides is no change
            return
        if isinstance(changes.get(path, 0.0), float):
            changes[path] = max(changes.get(path, 0.0), _relative_change(a, b))
    elif a != b or type(a) is not type(b):
        changes.setdefault(path, f"{a!r} at base, {b!r} here")


def _number(cell: str):
    """The float a CSV cell holds, or None for text."""
    try:
        return float(cell)
    except ValueError:
        return None


def _cell_change(a: str, b: str) -> float:
    """The relative change between two differing CSV cells; inf for text."""
    p, q = _number(a), _number(b)
    return math.inf if p is None or q is None else _relative_change(p, q)


def _column_summary(xs: list, ys: list):
    """Per-column lines for two CSVs whose comment lines and cells pair up
    one to one, or None when they do not. Columns take their header names
    when both files share a header with a non-numeric cell, else numbers."""
    if len(xs) != len(ys):
        return None
    comments = [(p, q) for p, q in zip(xs, ys) if p[:1] == "#" or q[:1] == "#"]
    rows = [(p, q) for p, q in zip(xs, ys) if p[:1] != "#"]
    if any(p[:1] != q[:1] for p, q in comments) or not rows:
        return None
    first = rows[0][0].split(",")
    names = [f"column {j + 1}" for j in range(len(first))]
    if rows[0][0] == rows[0][1] and None in map(_number, first):
        names, rows = first, rows[1:]
    changes = [[] for _ in names]  # per column, the relative change of each differing cell
    for p, q in rows:
        if p != q:
            a, b = p.split(","), q.split(",")
            if len(a) != len(names) or len(b) != len(names):
                return None
            for j, (c, d) in enumerate(zip(a, b)):
                if c != d:
                    changes[j].append(_cell_change(c, d))
    n_comments = sum(p != q for p, q in comments)
    lines = [f"  {n_comments} comment lines differ"] if n_comments else []
    lines += [
        f"  {name}: {len(c)} of {len(rows)} rows differ, largest relative change {max(c):.3g}"
        for name, c in zip(names, changes) if c
    ]
    same = [name for name, c in zip(names, changes) if not c]
    return lines + ([f"  byte-identical columns: {', '.join(same)}"] if same else [])


def _what_moved(name: str, x: bytes, y: bytes) -> list:
    """Indented lines saying what differs between the base and head bytes
    of one output file."""
    if name.endswith(".json"):
        changes = {}
        _json_changes(json.loads(x), json.loads(y), "", changes)
        if not changes:
            return ["  same values, other text"]
        return [
            f"  {path}: largest relative change {note:.3g}" if isinstance(note, float)
            else f"  {path}: {note}"
            for path, note in changes.items()
        ]
    xs, ys = x.decode().splitlines(), y.decode().splitlines()
    summary = _column_summary(xs, ys) if name.endswith(".csv") else None
    if summary is not None:
        return summary
    n_diff = sum(p != q for p, q in zip(xs, ys)) + abs(len(xs) - len(ys))
    i = next((i for i, (p, q) in enumerate(zip(xs, ys)) if p != q), min(len(xs), len(ys)))
    if i == min(len(xs), len(ys)):
        return [f"  {len(xs)} lines at base, {len(ys)} here; the first {i} agree"]
    p, q = xs[i].split(","), ys[i].split(",")
    j = next((j for j, (c, d) in enumerate(zip(p, q)) if c != d), min(len(p), len(q)))
    a, b = (repr(cols[j]) if j < len(cols) else "no cell" for cols in (p, q))
    return [
        f"  line {i + 1}, column {j + 1}: {a} at base, {b} here "
        f"({n_diff} of {max(len(xs), len(ys))} lines differ)"
    ]


def differences(base: Path, head: Path, skip=()) -> list:
    """One entry per output file that is missing on one side or differs,
    apart from the files of the commands named in skip; the entry of a
    differing file goes on to say what moved in it."""
    lines = []
    for name in sorted({p.name for p in base.iterdir()} | {p.name for p in head.iterdir()}):
        if name.startswith(tuple(f"{cmd}." for cmd in skip)):
            continue
        a, b = base / name, head / name
        if not (a.exists() and b.exists()):
            lines.append(f"{name}: written only by {'base' if a.exists() else 'head'}")
            continue
        x, y = a.read_bytes(), b.read_bytes()
        same = x == y
        if name.endswith(".json"):
            same = TIMING.sub(b"", x) == TIMING.sub(b"", y)
        if not same:
            lines.append("\n".join([f"{name}: differs", *_what_moved(name, x, y)]))
    return lines


def src_lines(src: Path) -> int:
    """Lines of the *.py files under src, as wc -l counts them."""
    return sum(p.read_bytes().count(b"\n") for p in src.rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--base", required=True, metavar="REV", help="git revision to compare against"
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", args.base, "src"],
            check=True, capture_output=True,
        ).stdout
        (tmp / "base").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "base")], input=archive, check=True)

        graphs = {GRAPH: tmp / "f50.txt", C60_GRAPH: tmp / "c60.txt"}
        for path, src in zip(graphs.values(), (["--tube", "50"], ["--c60"])):
            subprocess.run(
                [sys.executable, "-m", "fullerwalk.cli", "gen", *src, "-o", str(path)],
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
            )
        base_codes = run_all(tmp / "base" / "src", tmp / "out-base", graphs)
        head_codes = run_all(ROOT / "src", tmp / "out-head", graphs)

        # a command whose exit code differs is reported once, not per file
        moved = [name for name in base_codes if base_codes[name] != head_codes[name]]
        report = [
            f"{name}: exit codes {base_codes[name]} at base, {head_codes[name]} here"
            for name in moved
        ]
        report += differences(tmp / "out-base", tmp / "out-head", skip=moved)
        n_files = len(list((tmp / "out-head").iterdir()))
        lines = src_lines(tmp / "base" / "src"), src_lines(ROOT / "src")

    for line in report:
        print(line)
    n_cmds = len(commands())
    verdict = f"{len(report)} differences" if report else "all identical"
    print(f"{n_cmds} commands, {n_files} output files against {args.base}: {verdict}")
    print(f"src/: {lines[0]} lines at base, {lines[1]} here")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
