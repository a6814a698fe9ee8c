"""fullerwalk benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload bound-long --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds src/fullerwalk. Each
repetition of the workload is one fresh worker process (bench/worker.py)
with BLAS pinned to one thread; repetitions start one after another
while the --seconds window is open. Outputs are checked against
independent references (bench/reference.py) after each repetition,
outside the timed region.

--trace 0 reports the end-to-end metrics: wall_s (median time to finish
the operations once set up), setup_s (median time from process start to
`fullerwalk.cli` imported, over every worker started), peak_rss_mb
(median peak RSS of a repetition). --trace 1 interleaves untraced and
traced repetitions and reports the per-layer metrics of bench/trace.py.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics; the line before it is the environment record. A full
record, with the spans of the last traced repetition, is written to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import checks, reference, trace, workloads  # noqa: E402

BLAS_THREADS = 1
# setup-only workers started before the first repetition; one more goes
# before every repetition, so the samples span the whole window
SETUP_SAMPLES = 4
# every run must end within 180 s, building included
TIME_LIMIT_S = 170.0
OUT_DIR = ROOT / ".bench_out"


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith(("_share", "_rate", "_err")):
        return "ratio"
    return "count"


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(ROOT),
    }


class Runner:
    """Starts worker processes for one benchmark run and keeps their records."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.setup_samples = []
        self.count = 0

    def spawn(self, extra=(), cwd=None):
        """Run one worker to completion; its result dict, or None if it failed."""
        self.count += 1
        result_path = self.workdir / f"result-{self.count}.json"
        cmd = [sys.executable, "-m", "bench.worker"]
        timeout = max(1.0, self.deadline - time.monotonic())
        spawned = time.monotonic_ns()
        try:
            proc = subprocess.run(
                cmd + [str(spawned), str(result_path), *extra],
                cwd=cwd or self.workdir,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result_path.is_file():
            print(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
            return None
        result = json.loads(result_path.read_text())
        if not Path(result["fullerwalk_file"]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"worker imported fullerwalk from {result['fullerwalk_file']}")
        self.setup_samples.append(result["setup_s"])
        return result


def run_repetition(runner, ops, plan_path, refs, traced, diag):
    """One worker over the whole plan, then its output checks."""
    rep_dir = runner.workdir / f"rep-{runner.count + 1}"
    rep_dir.mkdir()
    result = runner.spawn([str(plan_path)] + (["--trace"] if traced else []), cwd=rep_dir)
    records = {r["id"]: r for r in result["ops"]} if result else {}
    failures = {}
    written = 0
    for op in ops:
        msgs = checks.check_op(op, records.get(op["id"]), rep_dir, refs.get(op["id"]), diag)
        if msgs:
            failures[op["id"]] = msgs
        if op["kind"] == "cli" and (rep_dir / op["out"]).is_file():
            written += (rep_dir / op["out"]).stat().st_size
    shutil.rmtree(rep_dir)
    rep = {"traced": traced, "ok": result is not None, "failures": failures}
    if result is None:
        return rep, None
    rep.update(
        wall_s=result["wall_s"],
        peak_rss_mb=result["peak_rss_mb"],
        op_seconds={r["id"]: r["seconds"] for r in result["ops"]},
    )
    if traced:
        layer = trace.layer_metrics(result["spans"], result["counts"])
        cli_ops = [op for op in ops if op["kind"] == "cli"]
        layer["cli.bytes_written"] = written
        layer["cli.ops"] = len(cli_ops)
        layer["cli.failed_ops"] = sum(op["id"] in failures for op in cli_ops)
        layer["trace.unattributed_s"] = result["wall_s"] - sum(
            layer[f"{name}.self_s"] for name in trace.LAYERS
        )
        rep["layer"] = layer
    return rep, result.get("spans")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="C60/F30 stand-ins for every graph (tests)"
    )
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "fullerwalk" / "cli.py").is_file():
        print(f"error: no fullerwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    ops = workloads.plan(args.workload, args.seed, smoke=args.smoke)
    refs = reference.compute(ops)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(ops))
    runner = Runner(workdir, started + TIME_LIMIT_S)
    try:
        runner.spawn()  # warm-up: byte-compiles and pages in the imports
        runner.setup_samples.clear()
        for _ in range(SETUP_SAMPLES):
            runner.spawn()
        reps, spans, diag = [], None, {}
        # a repetition starts while the window is open, so even the longest
        # workload gets three for its median
        window_end = time.monotonic() + args.seconds
        last = 0.0
        while len(reps) < 1 + args.trace or (
            time.monotonic() < window_end and time.monotonic() + last <= runner.deadline
        ):
            t0 = time.monotonic()
            runner.spawn()
            # untraced, traced, traced, untraced, ...: a drift in machine
            # speed over the window hits both kinds alike
            traced = bool(args.trace) and len(reps) % 4 in (1, 2)
            rep, rep_spans = run_repetition(runner, ops, plan_path, refs, traced, diag)
            reps.append(rep)
            spans = rep_spans if traced and rep_spans is not None else spans
            last = time.monotonic() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops) * len(reps)
    failed = sum(len(r["failures"]) for r in reps)
    plain = [r for r in reps if r["ok"] and not r["traced"]]
    traced_reps = [r for r in reps if r["ok"] and r["traced"]]
    if not plain or (args.trace and not traced_reps):
        print("error: no repetition finished", file=sys.stderr)
        return 1

    wall = statistics.median(r["wall_s"] for r in plain)
    if args.trace:
        values = {
            name: statistics.median(r["layer"][name] for r in traced_reps)
            for name in traced_reps[0]["layer"]
        }
        traced_wall = statistics.median(r["wall_s"] for r in traced_reps)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - wall
        values["equilibration.lhs_max_rel_err"] = diag.get("lhs_max_rel_err", 0.0)
        values["workload.repeat_graph_share"] = workloads.repeat_graph_share(ops)
        values["workload.error_rate"] = failed / attempted
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(runner.setup_samples),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(values.items())}

    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "repetitions": reps,
        "setup_samples": runner.setup_samples,
        "metrics": metrics,
        "spans": spans,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record)
    )
    for rep in reps:
        for op_id, msgs in rep["failures"].items():
            print(f"FAILED {op_id}: {'; '.join(msgs)}", file=sys.stderr)

    print(
        f"{args.workload} seed {args.seed}: {len(reps)} repetitions "
        f"({len(traced_reps)} traced), {attempted} operations, {failed} failed"
    )
    print(f"error_rate {failed / attempted:.6g} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"env": env}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
