"""One repetition of a workload plan in a fresh process.

    python3 -m bench.worker SPAWNED_NS RESULT_JSON [PLAN_JSON [--trace]]

SPAWNED_NS is the parent's time.monotonic_ns() just before it started this
process; setup_s runs from there until fullerwalk.cli is imported. Without
a plan the worker only measures setup. With one, it runs the operations in
order in the current directory, timing them as wall_s, and writes per-op
exit codes and errors, peak RSS and (with --trace) the spans as JSON.
"""

import json
import resource
import sys
import time
import traceback

import fullerwalk.cli

READY_NS = time.monotonic_ns()


def _time_average(n):
    from fullerwalk import dynamics, equilibration, graphs, spectral

    g = graphs.build_tube_fullerene(n)
    s = spectral.eigendecompose(graphs.adjacency(g))
    taus = equilibration.default_tau_grid()
    return dynamics.cumulative_time_average(s, 1, n, taus).tolist()


def run_op(op):
    """Run one operation; never raises. Returns its record for the parent."""
    record = {"id": op["id"], "rc": None, "error": None, "value": None}
    t0 = time.perf_counter()
    try:
        if op["kind"] == "cli":
            # looked up on the module so a traced run reaches the wrapper
            record["rc"] = fullerwalk.cli.main(op["argv"])
        else:
            record["value"] = _time_average(op["n"])
            record["rc"] = 0
    except SystemExit as exc:  # argparse usage errors
        record["rc"] = exc.code
    except Exception:  # one failing operation must not end the repetition
        record["error"] = traceback.format_exc()
    record["seconds"] = time.perf_counter() - t0
    return record


def main(argv):
    spawned_ns, result_path = int(argv[0]), argv[1]
    result = {
        "setup_s": (READY_NS - spawned_ns) / 1e9,
        "fullerwalk_file": fullerwalk.__file__,
    }
    if len(argv) > 2:
        with open(argv[2]) as fh:
            ops = json.load(fh)
        tracer = None
        if "--trace" in argv[3:]:
            from bench.trace import Tracer

            tracer = Tracer().install()
        t0 = time.perf_counter()
        result["ops"] = [run_op(op) for op in ops]
        result["wall_s"] = time.perf_counter() - t0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counts"] = tracer.counts
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
