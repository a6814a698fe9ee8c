"""Check that this checkout's CLI writes the same files as another revision.

    python tools/same_outputs.py --base REV

Extracts REV's src/ with `git archive`, then runs one fixed list of
fullerwalk commands twice, once under REV's src/ and once under this
checkout's src/ (the working tree, uncommitted edits included). Each
command runs in its own process at one BLAS thread, since another thread
count may move the last digits of a matrix product. The list covers every
subcommand, both formats and both limiting layouts, --vectors, C60, F30,
F130, a --graph file, F1000 (the bound with both a node and the position
observable, and the position observable's energy-basis matrix), the F40
and F2000 graph files, --tol 1e-3, all three gibbs modes (--beta 1000
too), a bound at epsilon 1e-18, symmetry, and eleven commands that must
fail.

CSV and graph files must be byte-identical. JSON files must be
byte-identical apart from the digits of meta.timing_seconds. Exit codes
must agree. Prints one line per difference and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
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
    for name in ("c60-vectors", "f130-vectors"):
        src = SOURCES[name.split("-")[0]]
        cmds.append((name, ["spectrum", *src, "--vectors", f"{name}.vec.csv",
                            "-o", f"{name}.json"]))
    tol = ["--tol", "1e-3"]
    add("spectrum-f130-tol", "spectrum", *SOURCES["f130"], *tol)
    add("limiting-f130-tol", "limiting", *SOURCES["f130"], *tol, "--format", "csv", ext="csv")
    add("limiting-f130-tol", "limiting", *SOURCES["f130"], *tol)
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
    add("eth-f1000-node1", "eth", "--tube", "1000", "--observable", "node:1", "--entropies")
    add("eth-f1000-position", "eth", "--tube", "1000", "--observable", "position",
        "--format", "csv", ext="csv")
    add("eth-c60-haar", "eth", "--c60", "--observable", "node:2", "--entropies",
        "--haar-samples", "25", "--seed", "3")
    add("eth-f130-node130", "eth", *SOURCES["f130"], "--observable", "node:130")
    for fmt, ext in (("json", "json"), ("csv", "csv")):
        add("gibbs-beta", "gibbs", "--beta", "0.7", "--format", fmt, ext=ext)
        add("gibbs-sweep", "gibbs", "--beta-sweep", "--format", fmt, ext=ext)
        add("gibbs-family", "gibbs", "--family", "30..130", "--format", fmt, ext=ext)
    add("gibbs-beta0", "gibbs", "--beta", "0")
    add("gibbs-beta1000", "gibbs", "--beta", "1000")
    add("bound-c60-tiny-eps", "bound", "--c60", "--start", "1", "--epsilon", "1e-18")
    add("gibbs-sweep-short", "gibbs", "--beta-sweep", "--beta-min", "1", "--beta-max", "5",
        "--beta-count", "9", "--format", "csv", ext="csv")
    add("symmetry", "symmetry")
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
    add("fail-limiting-json-layout", "limiting", "--c60", "--format", "json", "--layout", "matrix")
    return cmds


def run_all(src: Path, out: Path, graph: Path) -> dict:
    """Run every command with `src` first on the path; returns {name: exit codes}."""
    env = dict(os.environ, PYTHONPATH=str(src), **ONE_THREAD)
    out.mkdir()
    codes = {}
    for name, argv in commands():
        argv = [str(graph) if a == GRAPH else a for a in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "fullerwalk.cli", *argv],
            cwd=out, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        codes.setdefault(name, []).append(proc.returncode)
    return codes


def differences(base: Path, head: Path, skip=()) -> list:
    """One line per output file that is missing on one side or differs,
    apart from the files of the commands named in skip."""
    lines = []
    for name in sorted({p.name for p in base.iterdir()} | {p.name for p in head.iterdir()}):
        if name.startswith(tuple(f"{cmd}." for cmd in skip)):
            continue
        a, b = base / name, head / name
        if not (a.exists() and b.exists()):
            lines.append(f"{name}: written only by {'base' if a.exists() else 'head'}")
            continue
        x, y = a.read_bytes(), b.read_bytes()
        if name.endswith(".json"):
            x, y = TIMING.sub(b"", x), TIMING.sub(b"", y)
        if x != y:
            lines.append(f"{name}: differs")
    return lines


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

        graph = tmp / "f50.txt"
        subprocess.run(
            [sys.executable, "-m", "fullerwalk.cli", "gen", "--tube", "50", "-o", str(graph)],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
        )
        base_codes = run_all(tmp / "base" / "src", tmp / "out-base", graph)
        head_codes = run_all(ROOT / "src", tmp / "out-head", graph)

        # a command whose exit code differs is reported once, not per file
        moved = [name for name in base_codes if base_codes[name] != head_codes[name]]
        report = [
            f"{name}: exit codes {base_codes[name]} at base, {head_codes[name]} here"
            for name in moved
        ]
        report += differences(tmp / "out-base", tmp / "out-head", skip=moved)
        n_files = len(list((tmp / "out-head").iterdir()))

    for line in report:
        print(line)
    n_cmds = len(commands())
    verdict = f"{len(report)} differences" if report else "all identical"
    print(f"{n_cmds} commands, {n_files} output files against {args.base}: {verdict}")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
