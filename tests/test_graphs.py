import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullerwalk import (
    Graph,
    adjacency,
    build_c60_blocked,
    build_tube_fullerene,
    degrees,
    edge_checksum,
    graph_from_edges,
    is_connected,
    load_graph,
    save_graph,
    validate_fullerene,
)
from fullerwalk import spectral


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(n_nodes=3, edges=frozenset({(1, 4)}))
    with pytest.raises(ValueError):
        Graph(n_nodes=3, edges=frozenset({(2, 2)}))
    with pytest.raises(ValueError):
        Graph(n_nodes=0, edges=frozenset())


def test_graph_from_edges_rejects_duplicates_and_loops():
    with pytest.raises(ValueError, match="duplicate"):
        graph_from_edges(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match="self-loop"):
        graph_from_edges(3, [(1, 1)])


def test_graph_from_edges_normalizes_order():
    g = graph_from_edges(3, [(3, 1), (2, 3)])
    assert g.edges == frozenset({(1, 3), (2, 3)})
    assert g.n_edges == 2


def test_adjacency_is_symmetric_readonly_zero_diagonal(f30):
    a = adjacency(f30)
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    with pytest.raises(ValueError):
        a[0, 0] = 5.0


def test_degrees_and_connectivity():
    path = graph_from_edges(3, [(1, 2), (2, 3)])
    assert degrees(path).tolist() == [1, 2, 1]
    assert is_connected(path)
    split = graph_from_edges(4, [(1, 2), (3, 4)])
    assert not is_connected(split)


def test_validate_fullerene_failures():
    with pytest.raises(ValueError, match="even"):
        validate_fullerene(graph_from_edges(3, [(1, 2), (2, 3), (1, 3)]))
    square = graph_from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(ValueError, match="edges"):
        validate_fullerene(square)
    split = graph_from_edges(
        6,
        [(1, 2), (1, 3), (2, 3)] + [(4, 5), (4, 6), (5, 6)],
    )
    # K3 + K3 is 2-regular, so the degree check fires before connectivity
    with pytest.raises(ValueError):
        validate_fullerene(split)


@pytest.mark.parametrize("n", range(30, 131, 10))
def test_tube_family_is_cubic_and_connected(n):
    g = build_tube_fullerene(n)
    assert g.n_nodes == n
    assert g.n_edges == 3 * n // 2
    assert np.all(degrees(g) == 3)
    assert is_connected(g)
    validate_fullerene(g)


# edge-list checksums of the tube builder's output, recorded when it still
# filled an (n+1) x (n+1) scratch matrix; the builder must keep every edge set
TUBE_CHECKSUMS = {
    30: "3a1dabcd964b22c167fe291a5577b5cc888a94be7fb7b26ac6058c575f4fe1ea",
    40: "e625ac1d05e398e4ca2f87668d254606c64d1c32843ec8e015bd65fef5428ad6",
    50: "adab931e7f97c9a325702416409dfe86e985401400e508298c8c8fc6c645145e",
    60: "f94bf4e1326d29c9a5ecc33d35df4397b51cdcf94adcbece7247fd0a77423edb",
    70: "0117ae57d8cfa3999626901f1006a96c25c699403a407a2141dca1aec1bf7a29",
    80: "a1f495303cc505288b16cb890d59ccde023bcb792b938503b5152b469d69815a",
    90: "379e881e14826790e1fc9f0736f74bbf555a84917f3d39b009cee406f436e983",
    100: "dbcde5a5a7813b34ec6ca95f186e5342544dbc22cdd77b270596c4493e068868",
    110: "406193257e8109a3ab46e86a989c50d9bd32494c84168aeb621624a07eded7a5",
    120: "c42a0c5eb34cd3135f62f95b9ecb208a618f957d964546102b4f1b084b343491",
    130: "0485a8317fef8494098c9c36345fcf7348fad4df37f3328c29a25b5601e00c1d",
    500: "68dc9fb64c0daef7b749bc1d92f336a3a280739336934d89dbec595bddabf35f",
    1000: "75951b1a7fbc90cf367db1fab063292171b27956710196065dbf2c17c3b548a4",
    2000: "0e46b1cc6debf10ce87d5ccc40685bac2668a4dd4d1d0c011419fbf46717ad1c",
}

# edge-list checksum of C60, recorded when it was still assembled from a
# 12 x 12 grid of 5 x 5 circulant, identity and exchange blocks
C60_CHECKSUM = "5d952e1068e1fca5bc325a1b8682ad28769c795f41ff230d5c6f0daa4c23a7c9"


@pytest.mark.parametrize("n", sorted(TUBE_CHECKSUMS))
def test_tube_edge_sets_are_pinned(n):
    assert edge_checksum(build_tube_fullerene(n)) == TUBE_CHECKSUMS[n]


def test_c60_edge_set_is_pinned(c60):
    assert edge_checksum(c60) == C60_CHECKSUM


@pytest.mark.parametrize("n", [25, 35, 20, 0, -10, 30.7, "40", np.float64(30.0)])
def test_tube_rejects_bad_sizes(n):
    with pytest.raises(ValueError, match=re.escape(f"multiple of 10 with n >= 30, got {n!r}")):
        build_tube_fullerene(n)


def test_tube_accepts_numpy_integer_sizes():
    assert build_tube_fullerene(np.int64(40)) == build_tube_fullerene(40)


def _c5_rotation(n):
    """The tube's C5 rotation as a label map: each layer turns by one port,
    so the pentagon and the far cap shift by 1 and every ring by 2."""
    layers = [(1, 5, 1), *((s, 10, 2) for s in range(6, n - 13, 10)), (n - 4, 5, 1)]
    return {
        first + o: first + (o + step) % size
        for first, size, step in layers
        for o in range(size)
    }


def _assert_free_automorphism(g, perm):
    """perm is a fixed-point-free permutation of 1..N that maps edges onto edges."""
    assert sorted(perm) == sorted(perm.values()) == list(range(1, g.n_nodes + 1))
    assert all(perm[x] != x for x in perm)
    assert {tuple(sorted((perm[a], perm[b]))) for a, b in g.edges} == g.edges


@pytest.mark.parametrize("n", [*range(30, 131, 10), 500, 1000])
def test_tube_c5_rotation_is_an_automorphism(n):
    _assert_free_automorphism(build_tube_fullerene(n), _c5_rotation(n))


@pytest.mark.parametrize("n", [10, 20, 30, 60, 130, 1000])
def test_the_solver_reads_the_same_c5_rotation(n):
    lib = spectral._tube_rotation(n) + 1
    assert dict(zip(range(1, n + 1), lib.tolist())) == _c5_rotation(n)


def test_c60_c5_rotation_and_mirror_are_commuting_automorphisms(c60):
    # node i of block k is 5k + 1 + (i mod 5) on 1..30; the C5 turns i -> i+1
    # there and does the mirror image of that on 31..60
    half = {5 * k + 1 + i: 5 * k + 1 + (i + 1) % 5 for k in range(6) for i in range(5)}
    rot = {**half, **{61 - x: 61 - y for x, y in half.items()}}
    mirror = {x: 61 - x for x in range(1, 61)}
    _assert_free_automorphism(c60, rot)
    _assert_free_automorphism(c60, mirror)
    assert all(rot[mirror[x]] == mirror[rot[x]] for x in range(1, 61))


def test_tube_f30_has_45_edges(f30):
    assert f30.n_nodes == 30
    assert f30.n_edges == 45


def test_tube_pentagon_is_a_five_cycle(f30):
    inner = {(a, b) for a, b in f30.edges if a <= 5 and b <= 5}
    assert inner == {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}


def test_tube_pentagon_boundary_edges_fixed_across_sizes():
    expected = {(1, 6), (2, 8), (3, 10), (4, 12), (5, 14)}
    for n in (30, 50, 70):
        g = build_tube_fullerene(n)
        crossing = {
            (a, b) for a, b in g.edges if (a <= 5) != (b <= 5)
        }
        assert crossing == expected


def test_c60_is_centrosymmetric_cubic(c60):
    assert c60.n_nodes == 60
    assert c60.n_edges == 90
    validate_fullerene(c60)
    a = adjacency(c60)
    flipped = a[::-1, ::-1]
    assert np.array_equal(a, flipped)


def test_tube_60_differs_from_buckyball(c60):
    tube60 = build_tube_fullerene(60)
    assert edge_checksum(tube60) != edge_checksum(c60)
    # different spectra, so they are not even isomorphic
    w_tube = np.linalg.eigvalsh(adjacency(tube60))
    w_ball = np.linalg.eigvalsh(adjacency(c60))
    assert np.abs(w_tube - w_ball).max() > 0.1


def test_save_load_round_trip(tmp_path, f30):
    path = tmp_path / "f30.graph"
    save_graph(f30, path, header=["written by the round-trip test"])
    g2 = load_graph(path)
    assert g2 == f30
    text = path.read_text()
    assert text.splitlines()[0].startswith("#")


def test_load_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("3\n1 2 3\n")
    with pytest.raises(ValueError, match="malformed"):
        load_graph(bad)
    bad.write_text("3\n1 9\n")
    with pytest.raises(ValueError, match="out of range"):
        load_graph(bad)
    bad.write_text("zzz\n")
    with pytest.raises(ValueError, match="node count"):
        load_graph(bad)
    bad.write_text("# only comments\n")
    with pytest.raises(ValueError, match="empty"):
        load_graph(bad)
    bad.write_text("3\n1 2\n2 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_graph(bad)
    bad.write_bytes(b"\xff\xfe3\n1 2\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad}: byte 0 is not UTF-8")):
        load_graph(bad)


# bytes, or lines drawn from the characters the format uses and a few it does not
_GRAPH_FILES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.text(alphabet="0123456789 -#\t+.eé\x00", max_size=12), max_size=8).map(
        lambda lines: "\n".join(lines).encode()
    ),
)


@settings(max_examples=300, deadline=None)
@given(data=_GRAPH_FILES)
def test_load_graph_raises_only_value_error(data):
    fd, path = tempfile.mkstemp(suffix=".graph")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        try:
            g = load_graph(path)
        except ValueError:
            return
        assert all(1 <= a < b <= g.n_nodes for a, b in g.edges)
    finally:
        os.remove(path)


def test_edge_checksum_is_order_independent(f30):
    shuffled = list(f30.edges)[::-1]
    g2 = graph_from_edges(30, shuffled)
    assert edge_checksum(g2) == edge_checksum(f30)
    other = build_tube_fullerene(40)
    assert edge_checksum(other) != edge_checksum(f30)
