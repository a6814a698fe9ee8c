"""Operation lists of the three benchmark workloads.

A plan is a JSON-serialisable list of operations, run in order inside one
fresh process. Each operation names the graphs it reads (for the
repeated-input share), how the worker runs it and how the parent checks
its output. The seed picks bound start nodes, eth observable nodes and
Haar seeds; it never changes the graphs or the operation list, and it
picks bound starts only among nodes that symmetry makes equivalent, so
the cost of a run does not depend on it.

Why these three (see README.md for the traced per-layer shares):

- bound-long: one long-horizon `bound` on C60, nearly all of it the lhs
  quadrature; spectral work is tiny.
- tube-1000: one large graph through gen, spectrum, limiting (CSV) and
  eth; eigh, the per-cluster loops and the CLI writers at scale, no lhs.
- family-small: many small graphs and short horizons, so fixed per-call
  costs and short-tau lhs cost show.
"""

from __future__ import annotations

import random

WORKLOADS = ("bound-long", "tube-1000", "family-small")

FAMILY_SIZES = tuple(range(30, 131, 10))
SHORT_TAU = ["--tau-max", "10", "--tau-count", "20"]
TAU_GRIDS = {"long": (0.1, 1000.0, 60), "short": (0.1, 10.0, 20)}
HAAR_SAMPLES = 200


def graph_size(key: str) -> int:
    """Node count of a graph key: 'C60' or 'F<N>' for the tube isomer F_N."""
    return 60 if key == "C60" else int(key[1:])


def graph_source(key: str) -> list:
    return ["--c60"] if key == "C60" else ["--tube", str(graph_size(key))]


def _cli(op_id, graphs, argv, out, check):
    return {
        "id": op_id,
        "kind": "cli",
        "graphs": list(graphs),
        "argv": argv + ["-o", out],
        "out": out,
        "check": check,
    }


def bound_op(key: str, start: int, observable: str | None, horizon: str) -> dict:
    extra = ["--observable", observable] if observable else []
    obs = observable or f"node:{start}"
    return _cli(
        f"bound:{key}:{obs}:{horizon}",
        [key],
        ["bound", *graph_source(key), "--start", str(start), *extra]
        + (SHORT_TAU if horizon == "short" else []),
        f"bound-{key}-{obs.replace(':', '')}-{horizon}.json",
        {"type": "bound", "graph": key, "start": start, "observable": obs,
         "tau": TAU_GRIDS[horizon]},
    )


def _bound_long(rng, smoke):
    # C60 is vertex-transitive: cost and reference values do not depend on X
    return [bound_op("C60", rng.randint(1, 60), None, "short" if smoke else "long")]


def _tube(rng, smoke):
    key = "F30" if smoke else "F1000"
    n = graph_size(key)
    gfile = f"{key}.txt"
    return [
        _cli(f"gen:{key}", [key], ["gen", *graph_source(key)], gfile,
             {"type": "gen", "n": n}),
        _cli(f"spectrum:{key}", [key], ["spectrum", "--graph", gfile],
             f"spectrum-{key}.json", {"type": "spectrum", "n": n}),
        _cli(f"limiting:{key}", [key],
             ["limiting", *graph_source(key), "--format", "csv"],
             f"limiting-{key}.csv", {"type": "limiting_csv", "n": n}),
        _cli(f"eth:{key}", [key],
             ["eth", *graph_source(key), "--observable", "position", "--entropies"],
             f"eth-{key}.json",
             {"type": "eth", "n": n, "observable": "position", "haar": False}),
    ]


def _family(rng, smoke):
    tubes = [f"F{n}" for n in ((30,) if smoke else FAMILY_SIZES)]
    ops = []
    for key in ["C60", *tubes]:
        n = graph_size(key)
        node = rng.randint(1, n)
        haar_seed = rng.randrange(2**31)
        ops += [
            _cli(f"spectrum:{key}", [key], ["spectrum", *graph_source(key)],
                 f"spectrum-{key}.json", {"type": "spectrum", "n": n}),
            _cli(f"limiting:{key}", [key], ["limiting", *graph_source(key)],
                 f"limiting-{key}.json", {"type": "limiting_json", "n": n}),
            _cli(f"eth:{key}", [key],
                 ["eth", *graph_source(key), "--observable", f"node:{node}",
                  "--entropies", "--haar-samples", str(HAAR_SAMPLES),
                  "--seed", str(haar_seed)],
                 f"eth-{key}.json",
                 {"type": "eth", "n": n, "observable": f"node:{node}", "haar": True}),
        ]
    # The adaptive lhs quadrature halves its step a start-dependent number
    # of times, so starts drawn from all N nodes made peak RSS 146 or 212 MB
    # depending on the seed. Nodes 1-5 are one orbit of the tubes' 5-fold
    # rotation: a node-projector bound from any of them is the same signal.
    third = "F30" if smoke else "F60"
    ops += [
        bound_op("F30", rng.randint(1, 5), None, "short"),
        bound_op("F30", 1, "position", "short"),
        bound_op(third, rng.randint(1, 5), None, "short"),
    ]
    family = f"{tubes[0][1:]}..{tubes[-1][1:]}"
    ops += [
        _cli("gibbs:family", tubes, ["gibbs", "--family", family], "gibbs-family.json",
             {"type": "gibbs_family", "sizes": [graph_size(t) for t in tubes]}),
        _cli("gibbs:sweep", [], ["gibbs", "--beta-sweep"], "gibbs-sweep.json",
             {"type": "gibbs_sweep"}),
        _cli("symmetry", ["C60"], ["symmetry"], "symmetry.json", {"type": "symmetry"}),
    ]
    ops += [
        {"id": f"time_average:{key}", "kind": "time_average", "graphs": [key],
         "n": graph_size(key), "check": {"type": "time_average", "n": graph_size(key)}}
        for key in tubes
    ]
    return ops


_PLANS = {"bound-long": _bound_long, "tube-1000": _tube, "family-small": _family}


def plan(workload: str, seed: int, smoke: bool = False) -> list:
    """The workload's operations for this seed; smoke swaps every graph for
    C60 or F30 and every horizon for the short one."""
    if workload not in _PLANS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _PLANS[workload](random.Random(seed), smoke)


def repeat_graph_share(ops: list) -> float:
    """Share of operations whose graphs an earlier operation already used."""
    seen = set()
    repeats = 0
    for op in ops:
        if op["graphs"] and seen.issuperset(op["graphs"]):
            repeats += 1
        seen.update(op["graphs"])
    return repeats / len(ops)
