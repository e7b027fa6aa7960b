"""Benchmark of the kkls pipeline on three seeded workloads.

Run from the root of a checkout (the package is imported from ./src):

    python3 bench/run.py --workload model --seed 1 --seconds 30 --trace 0

A run draws its jobs from the seed, runs whole rounds of them one after
another in this process until the next round would pass ``--seconds``, and
checks every output.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates plain and traced rounds and reports the
per-layer metrics of the traced ones.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (host facts, every job's latency and problems) go to
``bench/out/<workload>-<seed>-trace<k>.json``, spans to ``*.spans.jsonl``.
"""

import time

_START = time.perf_counter()
_START_CPU = time.process_time()   # interpreter start-up before this line

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("model", "geometry", "exact")

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics, each a per-job mean over the traced rounds.  The suffix
# says what is read from the trace: ".s" and "_s" the time inside spans of
# that name, ".calls" their number, ".self_s" the module's self time;
# anything else is a counter.
PER_LAYER = (
    "entropy.kkls_coefficients.calls", "entropy.kkls_coefficients.s",
    "entropy.moment_table.s", "entropy.entropy_series.s",
    "entropy.w_of_eta.calls", "entropy.w_of_eta.s",
    "entropy.dW_matrix.calls", "entropy.dW_matrix.s", "entropy.self_s",
    "landau.free_energy.s", "landau.critical_points_4d.s",
    "landau.critical_points_4d.seeds", "landau.critical_points_4d.points",
    "landau.solve_fixed_point.s", "landau.solve_fixed_point.seeds",
    "landau.solve_fixed_point.solutions", "landau.self_s",
    "invariants.fit_invariant_basis.s", "invariants.linear_basis_series.s",
    "invariants.self_s",
    "polyser.substitute.float_s", "polyser.substitute.rational_s",
    "polyser.invert_map.float_s", "polyser.invert_map.rational_s",
    "polyser.log_series.s", "polyser.TruncSeries.constructed", "polyser.self_s",
    "reduction.residual_coeffs.s", "reduction.verify_reduction.s",
    "reduction.self_s",
    "critpoints.region_census.s", "critpoints.region_census.cells",
    "critpoints.branch_sweep.s", "critpoints.branch_sweep.steps",
    "critpoints.branch_sweep.events", "critpoints.census_at.calls",
    "critpoints.uniaxial_points.calls", "critpoints.biaxial_points.calls",
    "critpoints.swallowtail_section.s", "critpoints.bluebird_section.s",
    "critpoints.self_s",
    "groupact.elements.s", "groupact.molien_finite.s", "groupact.self_s",
    "singtools.k_determined.s", "singtools.versal_check.s", "singtools.self_s",
    "cli.write_csv.s", "cli.write_json.s", "cli.output_bytes", "cli.self_s",
)
# How much tracing costs: the median round wall time of the plain and the
# traced rounds of the same run, and their ratio minus one.
TRACE_OVERHEAD = {"trace.plain_wall_s": "s", "trace.traced_wall_s": "s",
                  "trace.overhead": "ratio", "trace.spans": "count"}

KKLS_MODULES = ("polyser", "groupact", "invariants", "entropy", "landau",
                "reduction", "critpoints", "singtools", "cli")


def per_layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def per_layer_value(name, inclusive, calls, self_time, counts):
    if name.endswith(".self_s"):
        return self_time[name[:-len(".self_s")]]
    if name.endswith(".calls"):
        return calls[name[:-len(".calls")]]
    if name.endswith(".s"):
        return inclusive[name[:-len(".s")]]
    if name.endswith("_s"):      # polyser.substitute.float_s -> span .float
        return inclusive[name[:-len("_s")]]
    return counts[name]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up():
    """Import every kkls module from ./src and build the default quadrature;
    return the package and the set-up time from the process's start."""
    if not (SRC / "kkls" / "__init__.py").is_file():
        raise SystemExit(f"error: no kkls package under {SRC}; run the "
                         "benchmark from the root of a kkls checkout")
    sys.path.insert(0, str(SRC))
    kkls = importlib.import_module("kkls")
    if Path(kkls.__file__).resolve().parent != SRC / "kkls":
        raise SystemExit(f"error: imported kkls from {kkls.__file__}, not {SRC}")
    for name in KKLS_MODULES:
        importlib.import_module(f"kkls.{name}")
    kkls.entropy.default_quadrature()
    return kkls, _START_CPU + (time.perf_counter() - _START)


def run_round(name, workload, seed, index, tracer, traced):
    """Run one round of jobs, then check their outputs."""
    draw, run, check, size = workload
    jobs = [draw(random.Random(f"{name}:{seed}:{index}:{slot}"), slot)
            for slot in range(size)]
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT))
    records = []
    round_start = time.perf_counter()
    for slot, job in enumerate(jobs):
        out = scratch / f"job{slot}"
        out.mkdir()
        sink = io.StringIO()
        start = time.perf_counter()
        tracer.active = traced
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                result = run(job, out)
            error = None
        except Exception:  # a failed job is counted, not fatal to the run
            result, error = None, traceback.format_exc(limit=3)
        finally:
            tracer.active = False
        records.append({"latency_s": time.perf_counter() - start, "error": error,
                        "out": out, "job": job, "result": result})
    wall = time.perf_counter() - round_start
    for rec in records:
        rec["problems"] = []
        if rec["error"] is None:
            try:
                rec["problems"] = check(rec["job"], rec["out"], rec["result"])
            except Exception:
                rec["problems"] = ["check raised: " + traceback.format_exc(limit=3)]
        del rec["out"], rec["job"], rec["result"]
    shutil.rmtree(scratch)
    return {"wall_s": wall, "traced": traced, "jobs": records}


def host_facts():
    import numpy
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main(argv=None):
    args = parse_args(argv)
    kkls, setup_s = set_up()
    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    if args.trace:
        tracer.install(kkls)
    rounds = []
    start = time.perf_counter()
    min_rounds = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(args.workload, WORKLOADS[args.workload],
                                args.seed, len(rounds), tracer, traced))
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed * (1 + 1 / len(rounds)) > args.seconds:
            break
    tracer.uninstall()

    jobs = [job for rnd in rounds for job in rnd["jobs"]]
    failed = sum(job["error"] is not None for job in jobs)
    problems = [p for job in jobs for p in job["problems"]]
    if args.trace:
        metrics = layer_metrics(tracer, rounds)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "job_p50_s": statistics.median(j["latency_s"] for j in jobs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = {**END_TO_END, **TRACE_OVERHEAD}
    summary = {"correct": not problems, "attempted": len(jobs), "failed": failed,
               "metrics": {name: {"value": value,
                                  "unit": units.get(name) or per_layer_unit(name)}
                           for name, value in metrics.items()}}
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "host": host_facts(), "setup_s": setup_s,
         "rounds": rounds, **summary}, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / f"{args.workload}-{args.seed}.spans.jsonl")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    for job in jobs:
        if job["error"]:
            print(f"failed job: {job['error']}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


def layer_metrics(tracer, rounds):
    inclusive, calls, self_time, counts, spans = tracer.layer_metrics()
    traced_jobs = sum(len(r["jobs"]) for r in rounds if r["traced"])
    metrics = {name: per_layer_value(name, inclusive, calls, self_time, counts)
               / traced_jobs for name in PER_LAYER}
    plain = statistics.median(r["wall_s"] for r in rounds if not r["traced"])
    traced = statistics.median(r["wall_s"] for r in rounds if r["traced"])
    metrics.update({"trace.plain_wall_s": plain, "trace.traced_wall_s": traced,
                    "trace.overhead": traced / plain - 1.0,
                    "trace.spans": spans / traced_jobs})
    return metrics


if __name__ == "__main__":
    sys.exit(main())
