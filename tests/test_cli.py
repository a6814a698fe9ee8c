import argparse
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fullerwalk
from fullerwalk import (
    __version__,
    adjacency,
    build_c60_blocked,
    build_tube_fullerene,
    edge_checksum,
    equilibration_report,
    gibbs_node_probability,
    gibbs_partition_function,
    gibbs_vs_limiting,
    graph_spectrum,
    limiting_distribution,
    limiting_orbit_rows,
    load_graph,
    pentagon_gibbs,
    position_observable,
    save_graph,
)
from fullerwalk import cli, dynamics
from fullerwalk.cli import (
    _READ_ONLY_WITH,
    _distinct_rows,
    _json_chunks,
    build_parser,
    main,
)
from fullerwalk.spectral import _orbit_layout, _powers
from oracles import node_projector_widths

REFERENCE_ROW1 = [0.079, 0.024, 0.021, 0.021, 0.024]
SRC = os.path.dirname(os.path.dirname(fullerwalk.__file__))


def run(*argv):
    return main(list(argv))


def run_process(*argv, cap=None, timeout=300):
    """The CLI in a fresh interpreter, optionally under an address-space cap
    in bytes. One BLAS thread keeps the per-thread buffers of the
    interpreter itself well under any cap used here."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return run_python(
        "-m", "fullerwalk.cli", *argv,
        preexec_fn=None if cap is None else limit,
        timeout=timeout,
    )


def run_python(*args, **kwargs):
    """A fresh interpreter on this checkout's fullerwalk with one BLAS thread."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(
        os.environ,
        PYTHONPATH=path,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, **kwargs
    )


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def assert_json_dump_layout(path):
    """The file is laid out as json.dump(indent=2, sort_keys=True) lays out
    its own content, with one line break at the end."""
    text = path.read_text()
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


def g17(v):
    return format(v, ".17g")


def matrix_body(m):
    """CSV text of a matrix, one row per line, formatted cell by cell."""
    return "".join(",".join(g17(v) for v in row) + "\n" for row in m.tolist())


def triples_body(m):
    """CSV text of (x, y, value) lines with 1-based x and y."""
    return "".join(
        ",".join((str(x + 1), str(y + 1), g17(v))) + "\n"
        for x, row in enumerate(m.tolist())
        for y, v in enumerate(row)
    )


def assert_csv_is(path, body, columns=None):
    """The file is its '#' header lines, the optional column line, then body."""
    text = path.read_text()
    header = [ln for ln in text.splitlines(keepends=True) if ln.startswith("#")]
    assert len(header) >= 4
    if columns is not None:
        header.append(columns + "\n")
    assert text == "".join(header) + body


def plain(obj):
    """obj with arrays and numpy scalars turned into the Python values json encodes."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


# non-ASCII, quotes, backslashes and control characters
TEXT = st.text(st.characters(codec="utf-8"), max_size=6) | st.sampled_from(
    ["", "\x00\x1f\n\t", 'q"\\/', "\u00e9\u2603\U0001f600"]
)
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
INT64 = st.integers(-(2**63), 2**63 - 1)
ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.int64]),
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
    elements={"allow_nan": True, "allow_infinity": True},
) | hnp.arrays(np.float64, st.sampled_from([(0,), (3, 0), (0, 3)]))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    INT64,
    INT64.map(np.int64),
    FLOATS,
    FLOATS.map(np.float64),
    TEXT,
    ARRAYS,
)
DOCS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)


NAN, INF = float("nan"), float("inf")
TABLE = [  # rows like eth's node_table, with every kind of value json spells its own way
    {"b": True, "i": -3, "f": NAN, "g": -0.0, "p": 5e-324},
    {"b": False, "i": 2**70, "f": INF, "g": 1e300, "p": 0.1},
    {"b": True, "i": 0, "f": -INF, "g": 0.0, "p": -5e-324},
]


@settings(max_examples=200, deadline=None)
@given(doc=DOCS)
@example(
    doc={
        "\u00e9\x01": [np.zeros(0), np.zeros((3, 0)), np.zeros((0, 3)), [], {}],
        "n": np.array([[1.5, np.nan], [np.inf, -np.inf]]),
        "z": np.array([[0.0, -0.0], [-0.0, 0.0]]),
        "s": (float("nan"), float("inf"), -float("inf"), np.float64(-0.0)),
    }
)
@example(doc={"": np.array([[0]])})  # an int matrix is left to json
@example(doc={"a": '\n  "u": null', "u": np.array([[0.5, 2.0], [1.0, -0.0]])})
@example(doc={"d": {"n": None, "u": np.array([[0.5]]), "v": np.arange(3)}, "n": None})
@example(doc={"e": {}, "f": 1.5})
@example(doc={"t": TABLE, "d": {"t": TABLE[::-1]}})
@example(doc={"m": np.array([[NAN, INF, -INF], [-0.0, 5e-324, -5e-324]]), "v": np.zeros(2)})
def test_json_emitter_writes_what_json_dump_writes(doc):
    want = json.dumps(plain(doc), indent=2, sort_keys=True)
    assert "".join(_json_chunks(doc)) == want
    if isinstance(doc, dict):  # each non-empty float matrix as an iterator of its text rows
        rows = {k: _distinct_rows(v, cli._json_text(v), np.arange(len(v))[None])
                for k, v in doc.items() if isinstance(v, np.ndarray) and v.ndim == 2
                and v.size > 0 and v.dtype.kind == "f"}
        assert "".join(_json_chunks({**doc, **rows})) == want


# each source with the fixture of its graph; the CLI solves through graph_spectrum
GRAPH_SOURCES = [(("--c60",), "c60"), (("--tube", "30"), "f30")]


def test_gen_tube_writes_a_loadable_file(tmp_path):
    out = tmp_path / "f30.graph"
    assert run("gen", "--tube", "30", "-o", str(out)) == 0
    g = load_graph(out)
    assert g.n_nodes == 30
    assert g.n_edges == 45
    text = out.read_text()
    assert f"# graph_checksum: {edge_checksum(g)}" in text


def test_gen_c60(tmp_path):
    out = tmp_path / "c60.graph"
    assert run("gen", "--c60", "-o", str(out)) == 0
    assert load_graph(out).n_edges == 90


def test_gen_rejects_non_multiple_of_ten(tmp_path, capsys):
    rc = run("gen", "--tube", "25", "-o", str(tmp_path / "x.graph"))
    assert rc == 2
    assert "multiple of 10" in capsys.readouterr().err


def test_gen_output_is_byte_identical_across_runs(tmp_path):
    # identical command line (same output path) must reproduce exactly
    out = tmp_path / "f40.graph"
    run("gen", "--tube", "40", "-o", str(out))
    first = out.read_bytes()
    run("gen", "--tube", "40", "-o", str(out))
    assert out.read_bytes() == first


def test_missing_graph_source_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        run("spectrum", "-o", str(tmp_path / "s.json"))
    assert info.value.code == 2


def test_unreadable_graph_file(tmp_path, capsys):
    rc = run(
        "spectrum", "--graph", str(tmp_path / "missing.graph"),
        "-o", str(tmp_path / "s.json"),
    )
    assert rc == 2


def test_undecodable_graph_file_names_the_file_without_traceback(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_bytes(b"\xff\xfe60\n")
    out = tmp_path / "s.json"
    proc = run_process("spectrum", "--graph", str(bad), "-o", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"fullerwalk: error: {bad}: byte 0 is not UTF-8")
    assert not out.exists()


def test_spectrum_json_and_vectors(tmp_path, request):
    out = tmp_path / "s.json"
    vecs = tmp_path / "v.csv"
    assert run("spectrum", "--c60", "-o", str(out), "--vectors", str(vecs)) == 0
    assert_json_dump_layout(out)
    doc = read_json(out)
    assert doc["n_distinct"] == 15
    assert sorted(doc["degeneracies"]) == sorted([3, 4, 4, 5, 3, 5, 3, 3, 5, 9, 4, 3, 5, 3, 1])
    assert len(doc["eigenvalues"]) == 60
    meta = doc["meta"]
    assert meta["tool"] == "fullerwalk"
    assert meta["version"] == __version__
    assert meta["command"] == "spectrum"
    assert meta["config"]["c60"] is True
    assert isinstance(meta["timing_seconds"], float)
    assert len(meta["graph_checksum"]) == 64

    rows = [ln for ln in vecs.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 60
    assert len(rows[0].split(",")) == 60

    for source, fixture in GRAPH_SOURCES:
        s = graph_spectrum(request.getfixturevalue(fixture))
        assert run("spectrum", *source, "-o", str(out), "--vectors", str(vecs)) == 0
        assert_csv_is(vecs, matrix_body(s.eigenvectors))


def test_spectrum_csv(tmp_path):
    out = tmp_path / "s.csv"
    assert run("spectrum", "--tube", "30", "-o", str(out), "--format", "csv") == 0
    lines = out.read_text().splitlines()
    meta_lines = [ln for ln in lines if ln.startswith("#")]
    assert any("graph_checksum" in ln for ln in meta_lines)
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "k,eigenvalue,cluster"
    assert len(data) == 31


def test_limiting_json_matches_quoted_row(tmp_path):
    out = tmp_path / "u.json"
    assert run("limiting", "--c60", "-o", str(out)) == 0
    assert_json_dump_layout(out)
    doc = read_json(out)
    row1 = doc["u"][0][:5]
    assert np.abs(np.array(row1) - REFERENCE_ROW1).max() < 5e-4
    assert doc["row_sum_max_dev"] < 1e-9
    assert doc["mirror_residual"] < 1e-9


def test_limiting_reports_the_mirror_residual_of_any_reversal_symmetric_graph(tmp_path):
    # C60 read from its gen file is the graph --c60 builds, so the output is
    # the same apart from the flags echoed; no tube maps onto itself under
    # x -> N+1-x, so a tube gets no mirror residual
    graph = tmp_path / "c60.txt"
    assert run("gen", "--c60", "-o", str(graph)) == 0
    docs = []
    for src in (["--c60"], ["--graph", str(graph)], ["--tube", "30"]):
        out = tmp_path / "u.json"
        assert run("limiting", *src, "-o", str(out)) == 0
        docs.append(read_json(out))
        del docs[-1]["meta"]["config"], docs[-1]["meta"]["timing_seconds"]
    assert docs[1] == docs[0]
    assert docs[0]["mirror_residual"] < 1e-9
    assert "mirror_residual" not in docs[2]


def test_limiting_reports_the_mirror_residual_of_a_graph_solved_in_rotation_sectors(tmp_path):
    # every label map preserves a graph with no edges: it solves in the C10
    # sectors of the tube rotation and cap swap, the first symmetry tried, and
    # also has the reversal x -> N+1-x, which the spectrum's symmetry does not name
    graph = tmp_path / "empty30.txt"
    graph.write_text("30\n")
    assert graph_spectrum(load_graph(graph)).basis_tag == "c10-sectors"
    out = tmp_path / "u.json"
    assert run("limiting", "--graph", str(graph), "-o", str(out)) == 0
    # u is the identity up to the rounding of the lifts (the C5 lifts happened to give it exactly)
    assert read_json(out)["mirror_residual"] == pytest.approx(1.0, rel=0, abs=1e-15)


def test_the_limiting_csv_builds_no_json_payload(tmp_path, monkeypatch):
    calls, residual = [], cli._mirror_residual

    def counted(u, x):
        calls.append(x)
        return residual(u, x)

    monkeypatch.setattr(cli, "_mirror_residual", counted)
    assert run("limiting", "--c60", "--format", "csv", "-o", str(tmp_path / "u.csv")) == 0
    assert calls == []
    assert run("limiting", "--c60", "-o", str(tmp_path / "u.json")) == 0
    assert calls == [1]
    assert read_json(tmp_path / "u.json")["mirror_residual"] < 1e-9


def test_limiting_csv_triples_and_matrix(tmp_path, request):
    tri = tmp_path / "u_tri.csv"
    assert run("limiting", "--tube", "30", "-o", str(tri), "--format", "csv") == 0
    data = [ln for ln in tri.read_text().splitlines() if not ln.startswith("#")]
    assert data[0] == "x,y,u"
    assert len(data) == 1 + 900
    x, y, u = data[1].split(",")
    assert (x, y) == ("1", "1")
    assert float(u) == pytest.approx(0.1024870095, abs=1e-9)

    mat = tmp_path / "u_mat.csv"
    assert run(
        "limiting", "--tube", "30", "-o", str(mat),
        "--format", "csv", "--layout", "matrix",
    ) == 0
    rows = [ln for ln in mat.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 30
    assert len(rows[0].split(",")) == 30

    # the writer formats each distinct value once and shares its text; every
    # cell must still read as format(v, '.17g') of its own entry, which reads
    # back to its bits
    f130 = build_tube_fullerene(130)
    cases = [(source, graph_spectrum(request.getfixturevalue(f))) for source, f in GRAPH_SOURCES]
    cases += [(("--tube", "130"), graph_spectrum(f130))]
    cases += [(("--tube", "130", "--tol", "1e-3"), graph_spectrum(f130, 1e-3))]
    cases += [(("--tube", "130", "--tol", "0.3"), graph_spectrum(f130, 0.3))]
    for source, s in cases:
        u = limiting_distribution(s)
        assert len(np.unique(u)) < u.size // 4  # values repeat across the symmetry orbits
        assert run("limiting", *source, "-o", str(tri), "--format", "csv") == 0
        assert_csv_is(tri, triples_body(u), columns="x,y,u")
        assert run(
            "limiting", *source, "-o", str(mat), "--format", "csv", "--layout", "matrix"
        ) == 0
        assert_csv_is(mat, matrix_body(u))


def test_distinct_rows_formats_each_bit_pattern_once():
    m = np.array([[0.1, -0.0, 0.1], [0.0, 0.1, 5e-324], [np.inf, -0.0, 0.0]])
    calls = []

    def text(v):
        calls.append(v)
        return repr(v)

    trivial = np.arange(3)[None]  # each row its own orbit
    assert list(_distinct_rows(m, text, trivial)) == [tuple(map(repr, row)) for row in m.tolist()]
    assert len(calls) == 5  # 0.1, -0.0, 0.0, 5e-324, inf
    assert list(_distinct_rows(np.array([[2.5]]), repr, trivial[:, :1])) == [("2.5",)]


def test_distinct_rows_lifts_each_orbit_from_its_smallest_node():
    # a 3-cycle on 0..2 and on 3..5; row perm^p(r) is row r read at cycle[-p]
    cycle = _powers(np.array([1, 2, 0, 4, 5, 3]), 3)
    ur = np.array([[0.1, -0.0, 0.0, 5e-324, np.inf, 0.1], [2.5, 0.1, -0.0, 1e300, 0.0, 7.0]])
    m = np.empty((6, 6))
    for p in (0, 1, 2):
        m[cycle[p, [0, 3]]] = ur[:, cycle[-p]]
    assert np.array_equal(m[cycle[1]][:, cycle[1]], m)  # invariant under perm
    calls = []

    def text(v):
        calls.append(v)
        return repr(v)

    assert list(_distinct_rows(ur, text, cycle)) == [tuple(map(repr, row)) for row in m.tolist()]
    assert len(calls) == 8  # 0.1, -0.0, 0.0, 5e-324, inf, 2.5, 1e300, 7.0 of rows 0 and 3

    # the limiting writers' own cases: the C10 orbits of F130 and C60's mirror pairs
    for g, order in [(build_tube_fullerene(130), 10), (build_c60_blocked(), 2)]:
        s = graph_spectrum(g)
        assert len(s.orbits) == order
        ur, u = limiting_orbit_rows(s), limiting_distribution(s)
        assert not ur.flags.writeable
        assert ur.tobytes() == u[_orbit_layout(s.orbits)[0]].tobytes()
        calls.clear()
        want = [tuple(map(repr, r)) for r in u.tolist()]
        assert list(_distinct_rows(ur, text, s.orbits)) == want
        assert len(calls) == len(np.unique(ur.view(np.uint64)))  # each row permutes an orbit row


def test_the_limiting_json_reads_one_row_of_u_per_orbit(tmp_path, monkeypatch):
    reads, read_rows = [], cli._distinct_rows

    def spy(m, text, cycle):  # a generator: counts only the rows a writer reads
        reads.append(int((cycle.min(axis=0) == np.arange(cycle.shape[1])).sum()))
        yield from read_rows(m, text, cycle)

    monkeypatch.setattr(cli, "_distinct_rows", spy)
    out = tmp_path / "u.json"
    assert run("limiting", "--tube", "130", "-o", str(out)) == 0
    assert reads == [13]  # the C10 orbits of F130
    u = limiting_distribution(graph_spectrum(build_tube_fullerene(130)))
    assert json.loads(out.read_text())["u"] == u.tolist()


ONE_NODE_CHECKSUM = "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"


@pytest.mark.parametrize("layout, fmt, body", [
    ("triples", "csv", "x,y,u\n1,1,1\n"),
    ("matrix", "csv", "1\n"),
    ("triples", "json", None),
], ids=["triples", "matrix", "json"])
def test_a_one_node_graph_file_gets_the_limiting_bytes_of_the_per_row_writer(
    tmp_path, monkeypatch, layout, fmt, body
):
    # the bytes the limiting writers gave before u was written from its orbit
    # rows: a 1 x 1 table is one orbit, and the matrix layout's one lifted row
    # is a tuple of one text
    monkeypatch.chdir(tmp_path)
    Path("g.txt").write_text("1\n")
    out = f"u.{fmt}"
    assert run("limiting", "--graph", "g.txt", "--format", fmt, "--layout", layout, "-o", out) == 0
    meta = {"command": "limiting", "config": {
        "c60": False, "format": fmt, "graph": "g.txt", "layout": layout, "output": out,
        "tol": 1e-06, "tube": None}, "graph_checksum": ONE_NODE_CHECKSUM,
        "tool": "fullerwalk", "version": fullerwalk.__version__}
    text = Path(out).read_bytes().decode()
    if fmt == "json":
        text = re.sub(r'"timing_seconds": [^,\n]*', '"timing_seconds": 0', text)
        doc = {"meta": dict(meta, timing_seconds=0), "mirror_residual": 0.0, "n_nodes": 1,
               "row_sum_max_dev": 0.0, "u": [[1.0]]}
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        return
    assert text == (f"# tool: fullerwalk {fullerwalk.__version__}\n# command: limiting\n"
                    f"# config: {json.dumps(meta['config'])}\n"
                    f"# graph_checksum: {ONE_NODE_CHECKSUM}\n{body}")


@pytest.mark.parametrize(
    "argv, data_lines",
    [
        (("--format", "csv"), 1 + 1000 * 1000),
        (("--format", "csv", "--layout", "matrix"), 1000),
        (("--format", "json"), None),
    ],
    ids=["triples", "matrix", "json"],
)
def test_limiting_triples_csv_on_f1000_streams_under_320_mib(tmp_path, argv, data_lines):
    # the N x N float arrays, not one Python object per cell; with numpy 2.4
    # the per-cell writer needed 442 MiB of address space, the streaming one 180
    out = tmp_path / "u.out"
    proc = run_process("limiting", "--tube", "1000", *argv, "-o", str(out), cap=320 << 20)
    assert proc.returncode == 0, proc.stderr
    if data_lines is None:
        u = read_json(out)["u"]
        assert len(u) == 1000 and all(len(row) == 1000 for row in u)
        return
    with open(out) as fh:
        assert sum(1 for ln in fh if not ln.startswith("#")) == data_lines


def test_the_limiting_csv_forms_no_n_by_n_u(tmp_path, monkeypatch):
    # V is solved before the trace; the orbit rows, one N x N pair chunk and
    # the row texts stay below 1.5 x 8 N^2 bytes, where a u held through the
    # write (8 N^2 more) would not, and no u is lifted at all
    def refuse(ur, cycle):
        raise AssertionError("the limiting CSV lifted u")

    monkeypatch.setattr(cli, "_lift", refuse)
    monkeypatch.setattr(dynamics, "_lift", refuse)  # limiting_distribution's
    n = 1000
    graph_spectrum(build_tube_fullerene(n))
    tracemalloc.start()
    try:
        out = str(tmp_path / "u.csv")
        assert run("limiting", "--tube", str(n), "--format", "csv", "-o", out) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n


def test_limiting_rejects_non_finite_tol(tmp_path, capsys):
    out = tmp_path / "u.json"
    assert run("limiting", "--c60", "--tol", "nan", "-o", str(out)) == 2
    assert "tol must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_limiting_outputs_are_deterministic(tmp_path):
    csv = tmp_path / "u.csv"
    run("limiting", "--c60", "-o", str(csv), "--format", "csv")
    first = csv.read_bytes()
    run("limiting", "--c60", "-o", str(csv), "--format", "csv")
    assert csv.read_bytes() == first

    js = tmp_path / "u.json"
    run("limiting", "--c60", "-o", str(js))
    da = read_json(js)
    run("limiting", "--c60", "-o", str(js))
    db = read_json(js)
    # timing is the one field allowed to differ between identical runs
    da["meta"].pop("timing_seconds")
    db["meta"].pop("timing_seconds")
    assert da == db


def test_commands_in_one_process_write_what_fresh_processes_write(tmp_path):
    # graph_spectrum keeps the last spectrum between commands of one
    # process: F130 is solved once for four commands, then F30 at two
    # tolerances. main keeps one parser, and a usage error between two
    # runs must leave nothing behind in it. No output may depend on what
    # ran before it.
    g = str(tmp_path / "f130.txt")
    steps = [
        ["gen", "--tube", "130", "-o", g],
        ["spectrum", "--graph", g, "--vectors", str(tmp_path / "v.csv"), "-o"],
        ["limiting", "--tube", "130", "--format", "csv", "-o"],
        ["limiting", "--tube", "130", "--c60", "--layout", "matrix", "--format", "csv", "-o"],
        ["eth", "--tube", "130", "--observable", "position", "--entropies", "-o"],
        ["bound", "--tube", "30", "--start", "1", "-o"],
        ["limiting", "--tube", "30", "--tol", "1e-3", "-o"],
    ]
    codes = [0, 0, 0, 2, 0, 0, 0]  # argparse refuses --tube with --c60
    for k, argv in enumerate(steps[1:], start=1):
        argv.append(str(tmp_path / f"{k}-{argv[0]}.{'csv' if 'csv' in argv else 'json'}"))
    outputs = [argv[-1] for argv, code in zip(steps, codes) if code == 0]
    outputs.append(str(tmp_path / "v.csv"))

    # one fresh process for the sequence too: the BLAS thread count of the
    # test process may differ, and with it the last bits of a GEMM
    proc = run_python(
        "-c",
        "import json, sys\n"
        "from fullerwalk.cli import main\n"
        "def code(argv):\n"
        "    try:\n"
        "        return main(argv)\n"
        "    except SystemExit as exc:\n"
        "        return exc.code\n"
        "print(json.dumps([code(argv) for argv in json.loads(sys.argv[1])]))",
        json.dumps(steps),
        timeout=300,
    )
    assert json.loads(proc.stdout) == codes, proc.stderr
    assert not os.path.exists(steps[3][-1])
    in_sequence = {path: Path(path).read_bytes() for path in outputs}
    for argv, code in zip(steps, codes):
        proc = run_process(*argv)
        assert proc.returncode == code, proc.stderr

    for path, before in in_sequence.items():
        if path.endswith(".json"):
            docs = [json.loads(before), read_json(path)]
            for doc in docs:
                doc["meta"].pop("timing_seconds")
            assert docs[0] == docs[1], path
        else:
            assert Path(path).read_bytes() == before, path


def test_bound_json_report(tmp_path):
    out = tmp_path / "b.json"
    rc = run(
        "bound", "--tube", "30", "--start", "1",
        "--tau-min", "0.5", "--tau-max", "100", "--tau-count", "6",
        "-o", str(out),
    )
    assert rc == 0
    doc = read_json(out)
    assert doc["bound_holds"] is True
    assert doc["observable"] == "node:1"
    assert doc["n_eps_override"] is None
    assert len(doc["table"]["tau"]) == 6
    assert doc["rhs_asymptote"] == pytest.approx(
        doc["operator_norm_sq"] * doc["n_eps"] / doc["d_eff"]
    )


def test_bound_csv_and_override(tmp_path):
    out = tmp_path / "b.csv"
    rc = run(
        "bound", "--c60", "--start", "1", "--n-eps-override", "1",
        "--tau-min", "1", "--tau-max", "10", "--tau-count", "4",
        "-o", str(out), "--format", "csv",
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "tau,lhs,rhs"
    assert len(data) == 5
    tau, lhs, rhs = (float(tok) for tok in data[-1].split(","))
    assert lhs <= rhs


def spectrum_rows():
    s = graph_spectrum(build_tube_fullerene(30))
    ks = range(1, s.n + 1)
    return [
        (str(k), g17(v), str(c))
        for k, v, c in zip(ks, s.eigenvalues.tolist(), s.cluster_index.tolist())
    ]


def bound_rows():
    taus = np.logspace(np.log10(0.1), np.log10(10.0), 5)
    node_7 = np.eye(60)[6]
    rep = equilibration_report(build_c60_blocked(), 7, node_7, tau_grid=taus)
    rows = zip(rep.tau_grid.tolist(), rep.lhs.tolist(), rep.rhs.tolist())
    return [tuple(map(repr, row)) for row in rows]


def beta_rows():
    return [(str(j), repr(p)) for j, p in enumerate(pentagon_gibbs(2.5).node_probs.tolist())]


def sweep_rows():
    rows = []
    for beta in np.linspace(0.0, 200.0, 7).tolist():
        p_0 = pentagon_gibbs(beta).node_probs[0].item()  # the Boltzmann weight of b0
        rows.append((beta, gibbs_partition_function(beta), gibbs_node_probability(beta), p_0))
    return [tuple(map(repr, row)) for row in rows]


def family_rows():
    return [
        (str(r.n), repr(r.u_nn), repr(r.p_beta_min), repr(r.p_beta_max),
         "true" if r.gibbs_matchable else "false")
        for r in gibbs_vs_limiting([30, 40], np.linspace(0.0, 200.0, 201))
    ]


@pytest.mark.parametrize(
    "argv, columns, expected_rows",
    [
        (("spectrum", "--tube", "30"), "k,eigenvalue,cluster", spectrum_rows),
        (("bound", "--c60", "--start", "7", "--tau-max", "10", "--tau-count", "5"),
         "tau,lhs,rhs", bound_rows),
        (("gibbs", "--beta", "2.5"), "node,probability", beta_rows),
        (("gibbs", "--beta-sweep", "--beta-count", "7"), "beta,z,p_j,p_0", sweep_rows),
        (("gibbs", "--family", "30,40"),
         "N,u_NN,p_beta_min,p_beta_max,gibbs_matchable", family_rows),
    ],
    ids=["spectrum", "bound", "beta", "beta-sweep", "family"],
)
def test_small_csv_tables_are_byte_exact(tmp_path, argv, columns, expected_rows):
    # integers as str, eigenvalues to 17 significant digits, the other
    # floats as their repr, booleans as true/false
    out = tmp_path / "t.csv"
    assert run(*argv, "--format", "csv", "-o", str(out)) == 0
    body = "".join(",".join(row) + "\n" for row in expected_rows())
    assert_csv_is(out, body, columns=columns)


def test_bound_start_out_of_range(tmp_path, capsys):
    rc = run("bound", "--tube", "30", "--start", "31", "-o", str(tmp_path / "b.json"))
    assert rc == 2
    assert "start" in capsys.readouterr().err


def test_bound_rejects_non_finite_epsilon(tmp_path, capsys):
    out = tmp_path / "b.json"
    rc = run("bound", "--c60", "--start", "1", "--epsilon", "nan", "-o", str(out))
    assert rc == 2
    assert "epsilon must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_bound_bad_tau_grid(tmp_path):
    rc = run(
        "bound", "--tube", "30", "--start", "1",
        "--tau-min", "10", "--tau-max", "1", "-o", str(tmp_path / "b.json"),
    )
    assert rc == 2


def test_bound_refuses_an_over_long_horizon_up_front(tmp_path, capsys):
    out = tmp_path / "b.csv"
    t0 = time.perf_counter()
    rc = run("bound", "--c60", "--start", "1", "--tau-max", "1e8", "-o", str(out))
    elapsed = time.perf_counter() - t0
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("fullerwalk: error: lhs quadrature too long: 7.19e+08 nodes")
    assert "at signal rank 1, above the budget of 33554432 nodes" in err
    assert "Traceback" not in err
    assert elapsed < 2.0
    assert not out.exists()
    # a grid of more points than the budget has panels is refused as such
    assert run("bound", "--c60", "--start", "1", "--tau-count", "3000000", "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("fullerwalk: error: lhs quadrature too long: 9.6e+07 nodes")
    assert err.rstrip().endswith("the grid has 3000000 points, over the 1048576 allowed")
    assert not out.exists()


def test_bound_refuses_a_grid_too_large_for_memory_on_its_count_alone(tmp_path, capsys, eigh_calls):
    # 10^12 points would be an 8 TB grid: the count is refused before the
    # grid, the graph or the eigh is built
    out = tmp_path / "b.json"
    argv = ["bound", "--c60", "--start", "1", "--tau-count", "1000000000000"]
    assert run(*argv, "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert err == (
        "fullerwalk: error: lhs quadrature too long: 3.2e+13 nodes or more, above the budget "
        "of 33554432 nodes; the grid has 1000000000000 points, over the 1048576 allowed\n"
    )
    assert eigh_calls == []
    assert not out.exists()


class _Reached(Exception):
    """Raised in place of the first costly step of a run."""


@pytest.mark.parametrize("argv, first_step", [
    (["gibbs", "--beta-sweep", "--beta-count"], "_linear_grid"),
    (["gibbs", "--family", "30", "--beta-count"], "_linear_grid"),
])
def test_a_count_over_the_tau_count_cap_is_refused_on_the_count_alone(
    tmp_path, capsys, monkeypatch, argv, first_step
):
    # --beta-count shares the cap of 2^20 points of --tau-count
    def reached(*args):
        raise _Reached

    monkeypatch.setattr(f"fullerwalk.cli.{first_step}", reached)
    out = tmp_path / "out.json"
    with pytest.raises(_Reached):  # the cap itself is accepted
        run(*argv, "1048576", "-o", str(out))
    assert run(*argv, "1048577", "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"fullerwalk: error: {argv[-1]} must be at most 1048576, got 1048577\n"
    assert not out.exists()


def test_bound_imports_neither_numpy_polynomial_nor_ma(tmp_path):
    # each costs about 5-10 ms of import in a cold process, as much as the
    # whole C60 lhs
    code = (
        "import sys\n"
        "from fullerwalk.cli import main\n"
        f"rc = main(['bound', '--c60', '--start', '1', '-o', {str(tmp_path / 'b.csv')!r}])\n"
        "print(rc, 'numpy.polynomial' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.stdout.split() == ["0", "False", "False"], proc.stderr


def test_arithmetic_error_exits_3(tmp_path, monkeypatch, capsys):
    def fail(beta):
        raise ArithmeticError("forced")

    monkeypatch.setattr("fullerwalk.cli.pentagon_gibbs", fail)
    rc = run("gibbs", "--beta", "1", "-o", str(tmp_path / "g.json"))
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_bound_on_f80_default_grid_fits_in_1_gib(tmp_path):
    # the lhs keeps O(N^2) temporaries
    out = tmp_path / "b.json"
    proc = run_process("bound", "--tube", "80", "--start", "1", "-o", str(out), cap=1 << 30)
    assert proc.returncode == 0, proc.stderr
    doc = read_json(out)
    assert doc["bound_holds"] is True
    lhs = np.array(doc["table"]["lhs"])
    assert len(lhs) == 60
    assert np.all(np.isfinite(lhs)) and np.all(lhs >= 0.0)


def test_out_of_memory_exits_2_without_traceback(tmp_path):
    # the 40000 x 40000 adjacency is refused at once, so nothing large is touched
    out = tmp_path / "u.json"
    proc = run_process("limiting", "--tube", "40000", "-o", str(out), cap=1 << 30)
    assert proc.returncode == 2
    assert proc.stderr.startswith("fullerwalk: out of memory: Unable to allocate")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("n", [10**8, 10**20])
def test_an_oversized_tube_is_refused_before_the_build(tmp_path, n):
    # the O(N) builder alone would run out of memory, slowly
    out = tmp_path / "s.json"
    proc = run_process("spectrum", "--tube", str(n), "-o", str(out), cap=1 << 30, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("fullerwalk: out of memory: Unable to allocate")
    assert f"for the ({n}, {n}) eigenvectors" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("n", [10**8, 10**20])
def test_gen_refuses_an_oversized_tube_before_the_build(tmp_path, n):
    # about 550 bytes per node: 10**8 nodes would take 52 GiB
    out = tmp_path / "g.txt"
    proc = run_process("gen", "--tube", str(n), "-o", str(out), cap=1 << 30, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("fullerwalk: out of memory: Unable to allocate")
    assert f"to build the {n}-node graph" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["spectrum"], ["limiting", "--format", "csv"], ["bound", "--start", "1"],
    ["eth", "--observable", "position"],
], ids=lambda argv: argv[0])
def test_every_solving_command_refuses_an_oversized_tube(tmp_path, monkeypatch, capsys, argv):
    def refuse(n):
        raise AssertionError("the tube was built")

    monkeypatch.setattr(cli, "build_tube_fullerene", refuse)
    assert run(*argv, "--tube", str(10**8), "-o", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("fullerwalk: out of memory: Unable to allocate")


def test_a_tube_that_fits_in_memory_but_not_the_cap_is_refused_at_the_solve(tmp_path):
    # V of F20000 is 3 GiB: passed by the physical-memory check on most machines,
    # then refused by numpy under a 1 GiB cap
    out = tmp_path / "s.json"
    proc = run_process("spectrum", "--tube", "20000", "-o", str(out), cap=1 << 30)
    assert proc.returncode == 2
    assert proc.stderr.startswith("fullerwalk: out of memory: Unable to allocate")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_gen_tube_40000_fits_in_1_gib(tmp_path):
    # the tube builder keeps an edge set, not an (n+1) x (n+1) scratch matrix
    out = tmp_path / "f40000.graph"
    proc = run_process("gen", "--tube", "40000", "-o", str(out), cap=1 << 30)
    assert proc.returncode == 0, proc.stderr
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert body[0] == "40000"
    assert len(body) == 1 + 60000


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--c60", "--start", "7", "--tau-max", "10", "--tau-count", "5"),
        ("bound", "--c60", "--start", "1", "--observable", "position",
         "--tau-max", "10", "--tau-count", "5"),
        ("gibbs", "--beta-sweep", "--beta-count", "7"),
        ("gibbs", "--family", "30..50"),
    ],
)
def test_json_layout_is_json_dump_indent_2(tmp_path, argv):
    out = tmp_path / "doc.json"
    assert run(*argv, "-o", str(out)) == 0
    assert_json_dump_layout(out)


def test_gibbs_single_beta(tmp_path):
    out = tmp_path / "g.json"
    assert run("gibbs", "--beta", "0", "-o", str(out)) == 0
    assert_json_dump_layout(out)
    doc = read_json(out)
    assert np.abs(np.array(doc["node_probs"]) - 1.0 / 6.0).max() < 1e-12
    assert doc["z"] == pytest.approx(6.0)
    assert doc["meta"]["graph_checksum"] is None


def test_gibbs_sweep_csv_monotone(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run(
        "gibbs", "--beta-sweep", "--beta-min", "0", "--beta-max", "50",
        "--beta-count", "11", "-o", str(out), "--format", "csv",
    )
    assert rc == 0
    data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert data[0] == "beta,z,p_j,p_0"
    ps = [float(ln.split(",")[2]) for ln in data[1:]]
    assert len(ps) == 11
    assert all(b >= a for a, b in zip(ps, ps[1:]))


def test_gibbs_sweep_takes_the_beta_grid_in_one_call(tmp_path, monkeypatch):
    grids = []

    def counted(betas):
        grids.append(len(betas))
        return boltzmann(betas)

    boltzmann = cli._boltzmann
    monkeypatch.setattr(cli, "_boltzmann", counted)
    assert run("gibbs", "--beta-sweep", "--beta-count", "301", "-o", str(tmp_path / "s.json")) == 0
    assert grids == [301]


def test_gibbs_sweep_p0_is_the_boltzmann_weight_at_large_beta(tmp_path):
    # p_0 = 1 / (1 + sum_j exp(-beta cos(2 pi j / 5))), evaluated at 40
    # digits from the closed forms cos(2 pi/5) = (sqrt5 - 1)/4 and
    # cos(4 pi/5) = -(sqrt5 + 1)/4; 1 - 5 p_j cancels to 0 here
    out = tmp_path / "sweep.csv"
    rc = run(
        "gibbs", "--beta-sweep", "--beta-min", "20", "--beta-max", "200",
        "--beta-count", "10", "-o", str(out), "--format", "csv",
    )
    assert rc == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")]
    p_0 = {float(r[0]): float(r[3]) for r in rows[1:]}
    with localcontext() as ctx:
        ctx.prec = 40
        root5 = Decimal(5).sqrt()
        levels = [Decimal(1)] + [(root5 - 1) / 4] * 2 + [-(root5 + 1) / 4] * 2
        for beta in (20.0, 40.0, 100.0, 200.0):
            exact = 1 / (1 + sum((-Decimal(beta) * c).exp() for c in levels))
            assert abs(Decimal(p_0[beta]) - exact) <= Decimal("1e-13") * exact, beta


def test_gibbs_family_table(tmp_path):
    out = tmp_path / "fam.json"
    assert run("gibbs", "--family", "30,40", "-o", str(out)) == 0
    doc = read_json(out)
    assert [r["n"] for r in doc["rows"]] == [30, 40]
    assert doc["any_matchable"] is False
    assert all(r["gibbs_matchable"] is False for r in doc["rows"])


def test_gibbs_family_validation(tmp_path, capsys):
    assert run("gibbs", "--family", "20", "-o", str(tmp_path / "f.json")) == 2
    assert run("gibbs", "--family", "abc", "-o", str(tmp_path / "f.json")) == 2


def test_gibbs_negative_beta(tmp_path):
    assert run("gibbs", "--beta", "-1", "-o", str(tmp_path / "g.json")) == 2


def test_gibbs_at_large_beta_writes_the_pentagon_ground_state(tmp_path):
    # the Gibbs state is finite at every beta; node 0 is the no-walker state
    out = tmp_path / "g.csv"
    assert run("gibbs", "--beta", "1000", "--format", "csv", "-o", str(out)) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == ["node", "probability"]
    probs = [float(p) for _, p in rows[1:]]
    assert probs[0] == 0.0
    assert probs[1:] == [0.2] * 5


def test_gibbs_refuses_flags_it_would_not_read(tmp_path, capsys):
    out = tmp_path / "g.out"
    for argv, message in (
        (("--beta", "0.7", "--beta-count", "3"),
         "--beta-count is read only with --beta-sweep or --family, got --beta-count 3"),
        (("--beta", "0.7", "--beta-min", "5"),
         "--beta-min is read only with --beta-sweep or --family, got --beta-min 5.0"),
        (("--beta", "0.7", "--beta-max", "9"),
         "--beta-max is read only with --beta-sweep or --family, got --beta-max 9.0"),
        (("--beta", "0.7", "--tol", "1e-3"),
         "--tol is read only with --family, got --tol 0.001"),
        (("--beta-sweep", "--tol", "1e-3"),
         "--tol is read only with --family, got --tol 0.001"),
    ):
        assert run("gibbs", *argv, "-o", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    # the flags each mode does read still run, and the family reads --tol
    argv = ("--beta-sweep", "--beta-min", "1", "--beta-max", "2", "--beta-count", "3")
    assert run("gibbs", *argv, "-o", str(out)) == 0
    argv = ("--family", "30", "--tol", "1e-3", "--beta-count", "5")
    assert run("gibbs", *argv, "-o", str(out)) == 0


def test_overflowing_family_and_override_exit_2_before_the_solve(tmp_path, capsys, eigh_calls):
    out = tmp_path / "o.json"
    family = ("gibbs", "--family", "30.." + "1" + "0" * 30)
    override = ("bound", "--c60", "--start", "1", "--n-eps-override", "1" + "0" * 400)
    for argv, message in (
        (family, "family sizes must be integers in 30..130, got 140"),
        (override, "n_eps_override must fit in a float, got 401 digits"),
    ):
        assert run(*argv, "-o", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    assert eigh_calls == []


def test_a_long_family_range_is_never_materialised(tmp_path):
    # as a list, 30..1000000000 would be 10^8 ints; the range stops at 140
    out = tmp_path / "f.json"
    proc = run_process("gibbs", "--family", "30..1000000000", "-o", str(out), cap=1 << 30)
    assert proc.returncode == 2
    assert "got 140" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_bound_at_a_tiny_epsilon_counts_the_repeated_gap(tmp_path):
    # g + 1e-18 rounds to g, yet the window [g, g + eps) still holds g
    out = tmp_path / "b.json"
    assert run("bound", "--c60", "--start", "1", "--epsilon", "1e-18", "-o", str(out)) == 0
    assert read_json(out)["n_eps"] == 2


def test_eth_position_flat_diagonal(tmp_path):
    out = tmp_path / "eth.json"
    assert run("eth", "--c60", "--observable", "position", "-o", str(out)) == 0
    doc = read_json(out)
    assert doc["diag_mean"] == pytest.approx(30.5, abs=1e-9)
    assert doc["diag_std"] < 1e-8
    assert np.abs(np.array(doc["cluster_averaged_diagonal"]) - 30.5).max() < 1e-9
    assert len(doc["node_table"]) == 60


def test_eth_node_projector_fluctuates(tmp_path, c60):
    out = tmp_path / "eth2.json"
    rc = run(
        "eth", "--c60", "--observable", "node:2", "--entropies",
        "--haar-samples", "100", "--seed", "0", "-o", str(out),
    )
    assert rc == 0
    assert_json_dump_layout(out)
    doc = read_json(out)
    # the width depends on the basis inside degenerate clusters; what every
    # basis shares is the interval [0, sigma_max], the cluster-averaged
    # diagonal 1/60 and the cluster weights (P_j)_22, which fix the Haar mean
    widths = node_projector_widths(np.array(adjacency(c60)))
    diag = np.array(doc["diagonal"])
    assert doc["diag_std"] == pytest.approx(diag.std(), abs=1e-15)
    assert 0.0 <= doc["diag_std"] <= widths.sigma_max[1] + 1e-12
    for row in doc["node_table"]:
        assert 0.0 <= row["diag_std"] <= widths.sigma_max[row["x"] - 1] + 1e-12
    assert np.abs(np.array(doc["cluster_averaged_diagonal"]) - 1.0 / 60.0).max() < 1e-12
    starts = np.concatenate(([0], np.cumsum(widths.dims)[:-1]))
    assert np.abs(np.add.reduceat(diag, starts) - widths.weights[:, 1]).max() < 1e-12
    assert doc["diag_mean"] == pytest.approx(1.0 / 60.0, abs=1e-12)
    assert len(doc["node_entropies"]) == 60
    assert 3.2 < doc["haar_entropy_mean"] < 3.5

    out2 = tmp_path / "eth3.json"
    run(
        "eth", "--c60", "--observable", "node:2", "--entropies",
        "--haar-samples", "100", "--seed", "0", "-o", str(out2),
    )
    doc2 = read_json(out2)
    assert doc2["haar_entropy_mean"] == doc["haar_entropy_mean"]


def test_eth_rejects_negative_haar_samples(tmp_path, capsys):
    out = tmp_path / "e.json"
    rc = run(
        "eth", "--c60", "--observable", "node:1", "--haar-samples", "-5", "-o", str(out)
    )
    assert rc == 2
    assert "--haar-samples must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_eth_refuses_a_haar_baseline_over_its_draw_budget_before_the_solve(
    tmp_path, capsys, monkeypatch, eigh_calls
):
    # one limit, min(2^20, 2^26 // N): the draw budget on F1000
    _assert_haar_limit(tmp_path, capsys, monkeypatch, ["--tube", "1000"], 1000, 67108)
    assert eigh_calls == []


def test_eth_refuses_a_haar_count_over_the_count_cap_where_the_draws_allow_more(
    tmp_path, capsys, monkeypatch, eigh_calls
):
    # the same limit and message where 2^20, the --tau-count cap, is the
    # tighter term: every N < 64, C60 among them
    _assert_haar_limit(tmp_path, capsys, monkeypatch, ["--c60"], 60, 2**20)
    assert eigh_calls == []


def _assert_haar_limit(tmp_path, capsys, monkeypatch, src, n, limit):
    def draw(n, seeds):
        raise _Reached

    monkeypatch.setattr("fullerwalk.eth._haar_states", draw)
    out = tmp_path / "e.json"
    argv = ["eth", *src, "--observable", "position", "--haar-samples"]
    with pytest.raises(_Reached):  # the limit itself is accepted
        run(*argv, str(limit), "-o", str(out))
    assert run(*argv, str(limit + 1), "-o", str(out)) == 2
    assert capsys.readouterr().err == (
        f"fullerwalk: error: Haar baseline too long: N {n} allows at most {limit} samples, "
        f"got {limit + 1}\n"
    )
    assert not out.exists()


def test_eth_rejects_a_negative_seed_without_traceback(tmp_path):
    out = tmp_path / "e.json"
    argv = ["eth", "--c60", "--observable", "node:1", "--haar-samples", "1"]
    proc = run_process(*argv, "--seed", "-1", "-o", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "seed" in proc.stderr
    assert not out.exists()


def test_eth_refuses_flags_it_would_not_read_before_the_solve(tmp_path, capsys, eigh_calls):
    base = ("eth", "--tube", "1000", "--observable", "position")
    for extra, message in (
        (("--format", "csv", "--entropies"),
         "--entropies is read only with --format json, got --entropies True"),
        (("--format", "csv", "--haar-samples", "5"),
         "--haar-samples is read only with --format json, got --haar-samples 5"),
        (("--format", "csv", "--haar-samples", "5", "--seed", "3", "--entropies"),
         "--entropies is read only with --format json"),
        (("--seed", "3"), "--seed is read only with --haar-samples > 0, got --seed 3"),
        (("--format", "csv", "--seed", "3"), "--seed is read only with --haar-samples > 0"),
    ):
        out = tmp_path / "e.out"
        assert run(*base, *extra, "-o", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    assert eigh_calls == []


(SUBPARSERS,) = [
    a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
]
# argv that make each command a valid run, apart from its format, output
# and conditionally read flags
MODES = {
    "limiting": [["--c60"], ["--tube", "30"]],
    "gibbs": [["--beta", "0.7"], ["--beta-sweep"], ["--family", "30"]],
    "eth": [[*src, "--observable", "node:2", *haar]
            for src in (["--c60"], ["--tube", "30"]) for haar in ([], ["--haar-samples", "2"])],
}


# numbers any run that reads the flag accepts, none of them a default
READ = {int: st.integers(2, 4), float: st.floats(0.5, 4.0)}
BOUNDARY = {
    float: st.sampled_from(["5e-324", "1e-308", "0.5", "1e308", "inf", "nan", "-1", "0"]),
    # small, since every count is work, or just over the count cap
    int: st.sampled_from(["-1", "0", "1", "3", "30", "35", "1048577"]),
}
# valid values of the text flags, {graph} standing for a small graph file
TEXT_VALUES = {
    "--graph": ["{graph}"], "--family": ["30,40"], "--observable": ["node:2", "position"]
}


def _flag_values(action, numbers):
    """Argv setting one action's flag: the bare flag for a switch, a choice
    other than the default, numbers[type] for a number, else a valid text."""
    flag = action.option_strings[-1]
    if action.nargs == 0:
        return st.just([flag])
    if action.choices:
        values = st.sampled_from([c for c in action.choices if c != action.default])
    elif action.type in numbers:
        values = numbers[action.type]
    else:
        values = st.sampled_from(TEXT_VALUES[flag])
    return values.map(lambda v: [f"{flag}={v}"])


@st.composite
def one_conditional_flag(draw):
    """(argv, dest): one mode of a command, plus one of its conditionally
    read flags off its default."""
    command = draw(st.sampled_from(sorted(_READ_ONLY_WITH)))
    dest = draw(st.sampled_from(sorted(_READ_ONLY_WITH[command])))
    actions = {a.dest: a for a in SUBPARSERS[command]._actions}
    fmt = draw(st.sampled_from(actions["format"].choices))
    # the Haar baseline is itself read only by the JSON report
    modes = [m for m in MODES[command] if fmt == "json" or "--haar-samples" not in m]
    mode = draw(st.sampled_from(modes))
    return [command, *mode, "--format", fmt, *draw(_flag_values(actions[dest], READ))], dest


def _echoed_config(path):
    text = path.read_text()
    if text.startswith("{"):
        return json.loads(text)["meta"]["config"]
    (line,) = [ln for ln in text.splitlines() if ln.startswith("# config: ")]
    return json.loads(line[len("# config: "):])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=one_conditional_flag())
@example(case=(["limiting", "--c60", "--format", "json", "--layout", "matrix"], "layout"))
@example(case=(["eth", "--c60", "--observable", "node:2", "--format", "json", "--seed", "3"],
               "seed"))
def test_a_flag_is_refused_exactly_where_its_run_does_not_read_it(
    tmp_path, capsys, eigh_calls, case
):
    argv, dest = case
    out = tmp_path / "out"
    argv = [*argv, "-o", str(out)]
    read = set()

    class Reads(argparse.Namespace):
        def __getattribute__(self, name):
            if reading:
                read.add(name)
            return super().__getattribute__(name)

    reading = False
    args = build_parser().parse_args(argv, namespace=Reads())
    eigh_calls.clear()
    capsys.readouterr()
    try:
        if not _READ_ONLY_WITH[args.command][dest][1](args):
            flag = "--" + dest.replace("_", "-")
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"fullerwalk: error: {flag} is read only")
            assert not out.exists()
            assert eigh_calls == []
            return
        command = args.func

        def traced(a):
            nonlocal reading
            reading = True
            return command(a)

        args.func = traced
        cli._run(args)  # main returns 0 exactly when this returns
        defaults = SUBPARSERS[args.command]
        set_flags = {k for k, v in _echoed_config(out).items() if v != defaults.get_default(k)}
        assert dest in set_flags
        assert set_flags <= read, set_flags - read
    finally:
        out.unlink(missing_ok=True)


def _numbers_off_z(path):
    """Every number the output file holds outside a column or key named z."""
    text = path.read_text()
    if text.startswith("{"):
        def walk(v, key):
            if isinstance(v, dict):
                for k, x in v.items():
                    yield from walk(x, k)
            elif isinstance(v, list):
                for x in v:
                    yield from walk(x, key)
            elif isinstance(v, float) and key != "z":
                yield v

        yield from walk(json.loads(text), None)
        return
    header, *rows = [ln.split(",") for ln in text.splitlines() if not ln.startswith("#")]
    for row in rows:
        for name, v in zip(header, row):
            if name != "z" and v not in ("true", "false"):
                yield float(v)


@st.composite
def boundary_run(draw):
    """Argv for any command, read off its parser: one member of each
    required group, every required flag, and some optional flags, numbers
    at boundary values. Graphs are C60, F30 or a small graph file."""
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    sub = SUBPARSERS[command]
    grouped = set()
    argv = [command]
    for group in sub._mutually_exclusive_groups:
        grouped.update(group._group_actions)
        action = draw(st.sampled_from(group._group_actions))
        tube = action.option_strings == ["--tube"]
        argv += ["--tube", "30"] if tube else draw(_flag_values(action, BOUNDARY))
    for action in sub._actions:
        if action in grouped or not action.option_strings or action.dest in ("help", "output"):
            continue
        if action.dest == "vectors":  # a second output file
            continue
        if action.required or draw(st.integers(0, 2)) == 0:
            argv += draw(_flag_values(action, BOUNDARY))
    return argv


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=boundary_run())
@example(argv=["limiting", "--c60", "--format", "json", "--layout", "matrix"])
@example(argv=["bound", "--c60", "--start", "1", "--tau-min", "1e-308"])
@example(argv=["bound", "--c60", "--start", "1", "--tau-min", "5e-324", "--format", "csv"])
@example(argv=["bound", "--c60", "--start", "1", "--epsilon", "1e-308"])
@example(argv=["bound", "--c60", "--start", "1", "--epsilon", "5e-324", "--format", "csv"])
@example(argv=["bound", "--c60", "--start", "1", "--epsilon", "1e308"])
@example(argv=["bound", "--c60", "--start", "1", "--epsilon", "1e-300"])
@example(argv=["bound", "--c60", "--start", "1", "--n-eps-override", str(int(1.7e308))])
@example(argv=["bound", "--c60", "--start", "1", "--tau-max", "1e308"])
@example(argv=["gibbs", "--beta", "1e308"])
@example(argv=["gibbs", "--beta", "1000"])
@example(argv=["gibbs", "--beta-sweep", "--beta-max", "1e308", "--format", "csv"])
@example(argv=["gibbs", "--family", "30,40", "--beta-max", "1e308"])
@example(argv=["gibbs", "--beta-sweep", "--beta-min=-1e308", "--beta-max", "1e308"])
def test_a_run_exits_clean_with_finite_numbers_or_exits_2(tmp_path, capsys, argv):
    # RuntimeWarning is an error in this suite, so a warning fails main itself
    out, graph = tmp_path / "out", tmp_path / "f50.txt"
    if not graph.exists():
        save_graph(build_tube_fullerene(50), graph)
    capsys.readouterr()
    try:
        rc = main([a.replace("{graph}", str(graph)) for a in argv] + ["-o", str(out)])
        err = capsys.readouterr().err
        assert rc in (0, 2)
        if rc == 0:
            assert err == ""
            if argv[0] != "gen":  # a graph file holds only integers
                assert all(math.isfinite(v) for v in _numbers_off_z(out))
        else:
            assert not out.exists()
            assert err.startswith("fullerwalk: error: ") and err.count("\n") == 1
    finally:
        out.unlink(missing_ok=True)


def test_limiting_refuses_a_layout_json_never_reads_before_the_solve(tmp_path, capsys, eigh_calls):
    out = tmp_path / "u.json"
    assert run("limiting", "--c60", "--format", "json", "--layout", "matrix", "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert err == (
        "fullerwalk: error: --layout is read only with --format csv, got --layout matrix\n"
    )
    assert not out.exists()
    assert eigh_calls == []
    # the default layout, given or not, is no refusal
    assert run("limiting", "--c60", "--layout", "triples", "-o", str(out)) == 0


def test_bound_inputs_past_the_float_range_exit_2_naming_the_flag(tmp_path, capsys):
    out = tmp_path / "b.json"
    for extra, message in (
        (("--tau-min", "1e-308"), "the rhs exceeds the float range at tau 1e-308; raise"),
        (("--epsilon", "1e-308"), "the rhs exceeds the float range at tau 0.1; raise epsilon"),
        (("--n-eps-override", str(int(1.7e308))), "or lower n_eps"),
        (("--tau-max", "1e308"), "lhs quadrature too long: more than 1.8e+308 nodes"),
    ):
        assert run("bound", "--c60", "--start", "1", *extra, "-o", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_bound_on_a_one_level_graph_names_n_eps(tmp_path, capsys):
    g = tmp_path / "edgeless.txt"
    g.write_text("4\n")
    out = tmp_path / "b.json"
    assert run("bound", "--graph", str(g), "--start", "1", "-o", str(out)) == 2
    assert "n_eps must be positive, got 0" in capsys.readouterr().err
    assert not out.exists()
    argv = ("bound", "--graph", str(g), "--start", "1", "--n-eps-override", "1")
    assert run(*argv, "-o", str(out)) == 0
    assert read_json(out)["bound_holds"] is True


def test_eth_energy_basis_matrix_csv(tmp_path, request):
    out = tmp_path / "omn.csv"
    rc = run(
        "eth", "--c60", "--observable", "position",
        "-o", str(out), "--format", "csv",
    )
    assert rc == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 60
    first = [float(tok) for tok in rows[0].split(",")]
    assert len(first) == 60

    for source, fixture in GRAPH_SOURCES:
        s = graph_spectrum(request.getfixturevalue(fixture))
        v = s.eigenvectors
        rc = run("eth", *source, "--observable", "position", "-o", str(out), "--format", "csv")
        assert rc == 0
        assert_csv_is(out, matrix_body(v.T @ np.diag(position_observable(s.n)) @ v))


def test_eth_json_and_symmetry_form_no_energy_basis_matrix(tmp_path, monkeypatch):
    # their diagonals come from V*V; only the eth CSV writes V^T diag(o) V
    class Formed(Exception):
        pass

    def formed(s, o):
        raise Formed

    monkeypatch.setattr("fullerwalk.eth.observable_in_energy_basis", formed)
    monkeypatch.setattr("fullerwalk.cli.observable_in_energy_basis", formed)
    out = tmp_path / "e.json"
    for spec in ("position", "node:2"):
        assert run("eth", "--c60", "--observable", spec, "--entropies", "-o", str(out)) == 0
    assert run("symmetry", "-o", str(out)) == 0
    with pytest.raises(Formed):
        run("eth", "--c60", "--observable", "position", "--format", "csv", "-o", str(out))


def test_eth_observable_validation(tmp_path, capsys):
    base = ["eth", "--c60", "-o", str(tmp_path / "e.json"), "--observable"]
    assert run(*base, "momentum") == 2
    assert run(*base, "node:99") == 2
    assert run(*base, "node:zz") == 2


def test_eth_rejects_a_bad_observable_before_the_solve(tmp_path, capsys, eigh_calls):
    out = tmp_path / "e.json"
    for spec, message in (
        ("node:0", "observable node must be in 1..1000, got 0"),
        ("node:1001", "observable node must be in 1..1000, got 1001"),
        ("bogus", "observable must be 'position' or 'node:K', got 'bogus'"),
        ("", "observable must be 'position' or 'node:K', got ''"),
    ):
        for cmd in (("eth",), ("bound", "--start", "1")):
            assert run(*cmd, "--tube", "1000", "--observable", spec, "-o", str(out)) == 2
            assert message in capsys.readouterr().err
    assert eigh_calls == []
    assert not out.exists()


def test_bad_numeric_flags_are_refused_before_the_solve(tmp_path, capsys, eigh_calls):
    out = tmp_path / "o.json"
    bound = ("bound", "--tube", "1000", "--start", "1")
    spectrum = ("spectrum", "--tube", "1000")
    for argv, message in (
        ((*bound, "--n-eps-override", "0"), "n_eps_override must be a positive integer, got 0"),
        ((*bound, "--epsilon", "0"), "epsilon must be finite and positive, got 0.0"),
        ((*bound, "--epsilon", "inf"), "epsilon must be finite and positive, got inf"),
        ((*spectrum, "--tol", "0"), "tol must be finite and positive, got 0.0"),
        ((*spectrum, "--tol", "nan"), "tol must be finite and positive, got nan"),
        (
            ("eth", "--tube", "1000", "--observable", "position",
             "--haar-samples", "5", "--seed", "-1"),
            "seed -1 must lie in [0, 2**128)",
        ),
    ):
        assert run(*argv, "-o", str(out)) == 2
        assert message in capsys.readouterr().err
    assert eigh_calls == []
    assert not out.exists()


def test_symmetry_suite_passes(tmp_path):
    out = tmp_path / "sym.json"
    assert run("symmetry", "-o", str(out)) == 0
    assert_json_dump_layout(out)
    doc = read_json(out)
    assert doc["passed"] is True
    assert doc["basis"] == "symmetry-adapted"
    assert doc["mirror_residual"] < 1e-10
    assert doc["u_mirror_residual"] < 1e-9
    assert doc["position_diag_deviation"] < 1e-9


def test_console_entry_point_runs():
    proc = run_process("--version")
    assert proc.returncode == 0
    assert __version__ in proc.stdout
