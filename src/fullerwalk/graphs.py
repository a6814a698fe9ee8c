"""Graph construction, validation, and serialization for the fullerene family.

Two builders are provided. The tube-isomer generator states F_N, N a
multiple of 10, layer by layer: the pentagon 1..5, rings of ten, the
far-cap pentagon, each layer joined to the next through five ports. Its
edge sets are the original MATLAB generator's, pinned by checksum. The
C60 buckyball is written as six blocks of five nodes (1..30), the 45 bonds
of that half, their mirror images under x -> 61-x, and the belt bonds
that join the halves. Node labels are 1-based on the whole public surface;
only ndarray indices are 0-based.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with 1-based node labels.

    Parameters
    ----------
    n_nodes : int
        Number of nodes, labelled 1..n_nodes.
    edges : frozenset of (int, int)
        Unordered edges stored as sorted pairs (a, b) with a < b.
    """

    n_nodes: int
    edges: frozenset

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("graph needs at least one node")
        for a, b in self.edges:
            if not (1 <= a <= self.n_nodes and 1 <= b <= self.n_nodes):
                raise ValueError(f"edge ({a},{b}) out of range 1..{self.n_nodes}")
            if a == b:
                raise ValueError(f"self-loop at node {a}")
            if a > b:
                raise ValueError(f"edge ({a},{b}) not stored as sorted pair")

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def _check_label(x: int, n: int, name: str) -> None:
    """Reject a node label that is not an integer in 1..n, naming the argument it came in."""
    if not (isinstance(x, (int, np.integer)) and 1 <= x <= n):
        raise ValueError(f"{name} must be in 1..{n}, got {x}")


def graph_from_edges(n_nodes: int, edge_list) -> Graph:
    """Build a Graph from an iterable of (a, b) pairs, rejecting duplicates."""
    seen = set()
    for a, b in edge_list:
        a, b = int(a), int(b)
        if a == b:
            raise ValueError(f"self-loop at node {a}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
    return Graph(n_nodes=int(n_nodes), edges=frozenset(seen))


def adjacency(g: Graph) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix of `g` (the walk Hamiltonian).

    Entry [a-1, b-1] is 1 exactly when {a, b} is an edge; the diagonal is 0.
    The returned array is marked read-only.
    """
    a = np.zeros((g.n_nodes, g.n_nodes))
    for i, j in g.edges:
        a[i - 1, j - 1] = 1.0
        a[j - 1, i - 1] = 1.0
    a.flags.writeable = False
    return a


def degrees(g: Graph) -> np.ndarray:
    d = np.zeros(g.n_nodes, dtype=int)
    for a, b in g.edges:
        d[a - 1] += 1
        d[b - 1] += 1
    return d


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability from node 1."""
    if g.n_nodes == 1:
        return True
    nbrs: dict[int, list[int]] = {v: [] for v in range(1, g.n_nodes + 1)}
    for a, b in g.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    seen = {1}
    queue = deque([1])
    while queue:
        v = queue.popleft()
        for w in nbrs[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n_nodes


def validate_fullerene(g: Graph) -> None:
    """Assert the fullerene graph invariants, raising ValueError on failure.

    Checks: even N, every degree exactly 3, edge count 3N/2, connectivity.
    The downstream spectral physics silently degrades on malformed graphs,
    so generators call this and fail loudly.
    """
    if g.n_nodes % 2 != 0:
        raise ValueError(f"fullerene node count must be even, got {g.n_nodes}")
    if g.n_edges != 3 * g.n_nodes // 2:
        raise ValueError(
            f"fullerene on {g.n_nodes} nodes needs {3 * g.n_nodes // 2} edges, "
            f"got {g.n_edges}"
        )
    d = degrees(g)
    if not np.all(d == 3):
        bad = int(np.argmin(d == 3)) + 1
        raise ValueError(f"node {bad} has degree {d[bad - 1]}, expected 3")
    if not is_connected(g):
        raise ValueError("graph is not connected")


def _cycle(nodes: list) -> list:
    """Edges of the cycle through nodes in order."""
    return list(zip(nodes, nodes[1:] + nodes[:1]))


def build_tube_fullerene(n: int) -> Graph:
    """Tube-isomer fullerene F_n for n a multiple of 10, n >= 30.

    Layers along the axis are the pentagon 1..5, the 10-cycles s..s+9 for
    s = 6, 16, ..., n-14, and the far-cap pentagon n-4..n. Each layer hands
    five ports, in rotational order, to the next: the pentagon's are 1..5;
    a ring bonds its even offsets s, s+2, ..., s+8 to them in order and
    hands on s+9, s+1, s+3, s+5, s+7; the far cap bonds n-4..n to the last
    ports in order. Turning every layer by one port (i -> i+1 mod 5 on the
    caps, o -> o+2 mod 10 on the rings) is therefore a C5 rotation of F_n.
    The edge sets are the original MATLAB generator's, pinned by checksum.
    Nodes 1..5 are the pentagon of interest; node n sits on the far cap.

    Raises
    ------
    ValueError
        If n is not an integer that is a multiple of 10 and at least 30.
    """
    if not (isinstance(n, (int, np.integer)) and n % 10 == 0 and n >= 30):
        raise ValueError(f"tube needs an integer multiple of 10 with n >= 30, got {n!r}")
    ports = [1, 2, 3, 4, 5]
    edges = _cycle(ports)
    for s in range(6, n - 13, 10):
        ring = list(range(s, s + 10))
        edges += _cycle(ring) + list(zip(ports, ring[::2]))
        ports = [s + 9, s + 1, s + 3, s + 5, s + 7]
    cap = list(range(n - 4, n + 1))
    edges += _cycle(cap) + list(zip(ports, cap))
    g = graph_from_edges(n, edges)
    validate_fullerene(g)
    return g


def build_c60_blocked() -> Graph:
    """C60 buckyball written as half the ball and its mirror image.

    Node i of block k (k = 0..5) is b(k, i) = 5k + 1 + (i mod 5); block 0 is
    the pentagon of interest. For i = 0..4 the half on nodes 1..30 has the
    pentagon cycle, the bonds between blocks 0-1, 1-2, 1-3, 2-3 (i to i-1),
    2-5, 3-4, 4-5, and one belt bond b(4,i)-(61-b(5,i+3)): 45 bonds. Their
    images under the mirror x -> 61-x make the other 45, so the ball is
    centrosymmetric by construction, and the C5 shift i -> i+1 in every
    block (mirrored on 31..60) commutes with the mirror.
    """

    def b(k, i):
        return 5 * k + 1 + i % 5

    half = []
    for i in range(5):
        half += [
            (b(0, i), b(0, i + 1)), (b(0, i), b(1, i)), (b(1, i), b(2, i)),
            (b(1, i), b(3, i)), (b(2, i), b(3, i - 1)), (b(2, i), b(5, i)),
            (b(3, i), b(4, i)), (b(4, i), b(5, i)), (b(4, i), 61 - b(5, i + 3)),
        ]
    g = graph_from_edges(60, half + [(61 - x, 61 - y) for x, y in half])
    validate_fullerene(g)
    return g


def _edge_list_text(g: Graph) -> str:
    """The canonical edge list: the line N, then an 'a b' line per sorted edge."""
    return f"{g.n_nodes}\n" + "\n".join(f"{a} {b}" for a, b in sorted(g.edges))


def save_graph(g: Graph, path, header=()) -> None:
    """Write the plain-text edge-list format: first line N, then 'a b' lines.

    Entries of header are emitted first as '#' comment lines, which
    load_graph skips.
    """
    lines = [h if h.startswith("#") else "# " + h for h in header]
    with open(path, "w") as fh:
        fh.write("\n".join([*lines, _edge_list_text(g)]) + "\n")


def load_graph(path) -> Graph:
    """Read the edge-list format written by save_graph.

    Lines starting with '#' are comments. Labels are 1-based; non-UTF-8 bytes,
    malformed lines, out-of-range labels, and duplicate edges raise ValueError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = [ln.strip() for ln in fh]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})") from None
    body = [ln for ln in raw if ln and not ln.startswith("#")]
    if not body:
        raise ValueError(f"{path}: empty graph file")
    try:
        n_nodes = int(body[0])
    except ValueError:
        raise ValueError(f"{path}: first line must be the node count") from None
    edges = []
    for ln in body[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: malformed edge line {ln!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}: malformed edge line {ln!r}") from None
        if not (1 <= a <= n_nodes and 1 <= b <= n_nodes):
            raise ValueError(
                f"{path}: edge ({a},{b}) out of range (labels are 1-based)"
            )
        edges.append((a, b))
    return graph_from_edges(n_nodes, edges)


def edge_checksum(g: Graph) -> str:
    """Order-independent SHA-256 over the canonical edge list."""
    return hashlib.sha256(_edge_list_text(g).encode()).hexdigest()
