"""tools/same_outputs.py says, per CSV column, what moved between two outputs,
and counts the lines of src/."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "same_outputs", Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

BASE = b"# command: gibbs\nN,u_NN,p_beta_max,gibbs_matchable\n30,0.1,0.2,false\n40,0.5,0.2,false\n"


def test_a_moved_column_is_named_with_its_row_count_and_largest_change():
    head = BASE.replace(b"0.1,", b"0.10000000000000002,").replace(b"0.5,", b"0.5000000000000001,")
    assert same_outputs._what_moved("gibbs.csv", BASE, head) == [
        "  u_NN: 2 of 2 rows differ, largest relative change 2.22e-16",
        "  byte-identical columns: N, p_beta_max, gibbs_matchable",
    ]


def test_text_cells_and_comment_lines_are_counted():
    head = BASE.replace(b"gibbs\n", b"gibbs --family\n")
    head = head.replace(b"40,0.5,0.2,false", b"40,0.5,0.2,true")
    assert same_outputs._what_moved("gibbs.csv", BASE, head) == [
        "  1 comment lines differ",
        "  gibbs_matchable: 1 of 2 rows differ, largest relative change inf",
        "  byte-identical columns: N, u_NN, p_beta_max",
    ]


def test_a_csv_without_header_numbers_its_columns():
    base, head = b"# u\n0.5,0.25\n0.25,0.5\n", b"# u\n0.5,0.25\n0.25,0.75\n"
    assert same_outputs._what_moved("limiting-matrix.csv", base, head) == [
        "  column 2: 1 of 2 rows differ, largest relative change 0.5",
        "  byte-identical columns: column 1",
    ]


def test_csvs_that_do_not_pair_up_get_the_first_differing_line():
    longer = BASE + b"50,0.3,0.2,false\n"
    assert same_outputs._what_moved("gibbs.csv", BASE, longer) == [
        "  4 lines at base, 5 here; the first 4 agree"
    ]
    wider = BASE.replace(b"40,0.5,0.2,false", b"40,0.5,0.2,false,1")
    assert same_outputs._what_moved("gibbs.csv", BASE, wider) == [
        "  line 4, column 5: no cell at base, '1' here (1 of 4 lines differ)"
    ]


def test_src_lines_counts_the_python_files_below_a_directory(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n\n")
    (tmp_path / "pkg" / "b.py").write_text("z = 3\nw = 4")  # no final line break
    (tmp_path / "pkg" / "notes.txt").write_text("not code\n")
    assert same_outputs.src_lines(tmp_path) == 4
