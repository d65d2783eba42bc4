"""evlogic benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of entail-chain, ds-entail, sweep-wide, cli, or ``all`` for
each in turn.  Run from the root of an evlogic checkout; evlogic is
imported from its ``src`` directory.

With ``--trace 0`` a worker interpreter runs the workload's queries for
S seconds of query time, one at a time, and the run reports the median
and 90th percentile query latency, queries per second, the import time
of evlogic in a fresh interpreter (median of several) and the worker's
peak RSS.  Query times are in reference-host seconds: each is scaled
by the host's speed, calibrated next to it (see ``hostspeed``), so that
a busy neighbour does not read as a slower evlogic; the wall-clock
median and 90th percentile are printed beside them.  With ``--trace 1``
a fixed number of queries runs twice, once plain and once with every
layer wrapped (see ``tracing``), and the run reports per-layer times and
counts.

Every answer is checked against an independent reference after the
timed loop (see ``checks``).  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9
# A timed run goes on past --seconds until this many queries are done,
# so that ten samples lie beyond the 90th percentile.
MIN_QUERIES = 100
# Queries per pass of a traced run.  Fixed, so that its counts repeat
# exactly for a seed; each pass takes a few seconds at the parent commit.
TRACE_QUERIES = {"entail-chain": 80, "ds-entail": 60, "sweep-wide": 200, "cli": 100}
# Right answers whose corrupted variants must be rejected, per run.
SELF_CHECKS = 20


def _env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def import_seconds(module: str, repeats: int) -> float:
    """Median seconds to import ``module`` in a fresh interpreter, after
    one unmeasured import that leaves the bytecode cache warm.  Not
    scaled by ``hostspeed``: an import's time follows the host's speed
    less closely than the calibration does."""
    code = ("import time; t = time.perf_counter(); import {0} as m; "
            "print(time.perf_counter() - t); print(m.__file__)").format(module)
    samples = []
    for _ in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, path = done.stdout.split()
        if not Path(path).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"{module} imported from {path}, not from {ROOT / 'src'}")
        samples.append(float(seconds))
    return statistics.median(samples[1:])


def run_worker(job: dict) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                          cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"worker failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def verify(workload: str, seed: int, work: Path, answers: list[dict]) -> tuple[int, list[str]]:
    """Failed answers and what was wrong.  If the checker accepts a
    corrupted answer, it cannot be trusted and every answer counts as
    failed."""
    stream = workloads.GENERATORS[workload](seed, work)
    queries = [next(stream) for _ in answers]
    failed, problems, self_checked = 0, [], 0
    for i, (q, answer) in enumerate(zip(queries, answers)):
        why = checks.check(q, answer)
        if why:
            failed += 1
            problems.append(f"query {i} ({q.label}): {why}")
        elif self_checked < SELF_CHECKS:
            self_checked += 1
            if any(not checks.check(q, wrong) for wrong in checks.corrupted(answer)):
                problems.append(f"checker accepted a corrupted answer to query {i}")
    if any(p.startswith("checker") for p in problems):
        failed = len(answers)
    return failed, problems


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10)[-1]


def end_to_end(workload: str, seed: int, seconds: int, work: Path):
    setup = import_seconds("evlogic.cli" if workload == "cli" else "evlogic", SETUP_REPEATS)
    out = run_worker({"workload": workload, "seed": seed, "work": str(work),
                      "seconds": seconds, "min_count": MIN_QUERIES})
    failed, problems = verify(workload, seed, work, out["answers"])
    raw = out["times"]
    kind = out["calibration"]
    times = hostspeed.scale(raw, out["calibrations"], kind)
    print(f"{workload} seed {seed}: wall-clock query_s.p50 {statistics.median(raw):.6g} s, "
          f"p90 {_p90(raw):.6g} s; {kind} calibration median "
          f"{statistics.median(out['calibrations']):.6g} s "
          f"(reference {hostspeed.REFERENCE_S[kind]} s)")
    metrics = {
        "query_s.p50": _metric(statistics.median(times), "s"),
        "query_s.p90": _metric(_p90(times), "s"),
        "queries_per_s": _metric(len(times) / sum(times), "1/s"),
        "setup_s": _metric(setup, "s"),
        "peak_rss_mb": _metric(out["peak_rss_kb"] / 1024, "MB"),
    }
    return len(times), failed, problems, metrics


# name -> (unit, where the value comes from in a trace summary)
PER_LAYER = {
    "linsolve.solve_s": ("s", "total", "linsolve.solve"),
    "linsolve.solves": ("count", "counts", "linsolve.solves"),
    "linsolve.infeasible": ("count", "counts", "linsolve.infeasible"),
    "linsolve.pivots": ("count", "counts", "linsolve.pivots"),
    "linsolve.lp_rows": ("count", "counts", "linsolve.lp_rows"),
    "linsolve.lp_cols": ("count", "counts", "linsolve.lp_cols"),
    "linsolve.lp_nnz": ("count", "counts", "linsolve.lp_nnz"),
    "semantics.frame_s": ("s", "total", "semantics.frame"),
    "semantics.frame_calls": ("count", "counts", "semantics.frame_calls"),
    "semantics.frame_rows": ("count", "counts", "semantics.frame_rows"),
    "semantics.consistent_rows": ("count", "counts", "semantics.consistent_rows"),
    "semantics.atoms": ("count", "counts", "semantics.atoms"),
    "formula.parse_s": ("s", "total", "formula.parse"),
    "formula.parse_calls": ("count", "counts", "formula.parse_calls"),
    "problog.entail_s": ("s", "total", "problog.entail"),
    "problog.self_s": ("s", "self", "problog.entail"),
    "evidential.entail_s": ("s", "total", "evidential.entail"),
    "evidential.self_s": ("s", "self", "evidential.entail"),
    "evidential.combine_s": ("s", "total", "evidential.combine"),
    "evidential.combine_pairs": ("count", "counts", "evidential.combine_pairs"),
    "kb.load_s": ("s", "total", "kb.load"),
    "kb.load_calls": ("count", "counts", "kb.load_calls"),
    "cli.main_self_s": ("s", "self", "cli.main"),
}


def traced(workload: str, seed: int, work: Path):
    count = TRACE_QUERIES[workload]
    job = {"workload": workload, "seed": seed, "work": str(work), "count": count,
           "in_process": True}
    plain = run_worker(job)
    trace = run_worker(dict(job, trace=True))
    failed, problems = verify(workload, seed, work, plain["answers"])
    failed_traced, problems_traced = verify(workload, seed, work, trace["answers"])
    summary = trace["trace"]
    metrics = {name: _metric(summary[kind].get(key, 0), unit)
               for name, (unit, kind, key) in PER_LAYER.items()}
    metrics["cli.import_s"] = _metric(import_seconds("evlogic.cli", 3), "s")
    metrics["trace.queries"] = _metric(count, "count")
    metrics["trace.query_s"] = _metric(sum(trace["times"]), "s")
    metrics["trace.overhead_s"] = _metric(
        statistics.median(hostspeed.scale(trace["times"], trace["calibrations"], "arithmetic"))
        - statistics.median(hostspeed.scale(plain["times"], plain["calibrations"], "arithmetic")),
        "s")
    (work.parent / f"trace-{workload}-{seed}.json").write_text(json.dumps(summary))
    return 2 * count, failed + failed_traced, problems + problems_traced, metrics


def report(workload: str, seed: int, attempted: int, failed: int, metrics: dict):
    print(f"{workload} seed {seed}: {attempted} queries, {failed} failed, "
          f"failed_share {failed / attempted:.4f}")
    query_s = metrics.get("trace.query_s", {}).get("value")
    for name, m in metrics.items():
        share = ""
        if query_s and name in PER_LAYER and m["unit"] == "s":
            share = f"  ({m['value'] / query_s:.1%} of traced query time)"
        print(f"  {name:26s} {m['value']:.6g} {m['unit']}{share}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "evlogic" / "__init__.py").is_file():
        print(f"error: no evlogic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    total_attempted = total_failed = 0
    all_metrics, all_problems = {}, []
    for name in names:
        work = HERE / ".work" / f"{name}-{args.seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            if args.trace:
                attempted, failed, problems, metrics = traced(name, args.seed, work)
            else:
                attempted, failed, problems, metrics = end_to_end(
                    name, args.seed, args.seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        report(name, args.seed, attempted, failed, metrics)
        for p in problems[:10]:
            print(f"  FAILED {p}")
        total_attempted += attempted
        total_failed += failed
        all_problems += problems
        prefix = f"{name}." if args.workload == "all" else ""
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({
        "correct": not all_problems,
        "attempted": total_attempted,
        "failed": total_failed,
        "metrics": all_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
