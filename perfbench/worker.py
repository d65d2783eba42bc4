"""Runs one pass of a workload against evlogic in a fresh interpreter.

    python worker.py '<json job>'

The job names the workload, seed, a query directory and either a time
budget (``seconds``: run queries until that much query time is spent and
at least ``min_count`` queries are done) or a fixed query count
(``count``).  Queries come from the workload's seeded stream; each
is timed from its formula text to evlogic's answer, one at a time in a
closed loop.  With ``trace`` set, every evlogic layer is wrapped by
``tracing`` first.  With ``in_process`` set, ``cli`` queries call
``evlogic.cli.main`` here instead of starting ``python -m evlogic``.

Before each query and after the last, outside the queries' time, the
worker times a ``hostspeed`` calibration: interpreter start-up for
``python -m evlogic`` queries, exact arithmetic for the others.

The last line of stdout is a JSON object: the answers, the seconds of
each query, the calibrations and their kind, the peak RSS (of this
process, or on ``cli`` of the largest child, a ``python -m evlogic``
run, since the calibration's empty interpreters are smaller) and the
trace summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import hostspeed
import workloads

# Query time after which a timed pass stops even short of ``min_count``.
MAX_SECONDS = 120.0


def _library(evlogic, payload: dict):
    """The timed call for a library query, and its inputs made ready."""
    kind = payload["kind"]
    sentences = payload["sentences"]
    if kind == "entail":
        probs = [Fraction(p) for p in payload["probs"]]

        def call():
            s = evlogic.sentence_set((name, evlogic.parse(text)) for name, text in sentences)
            try:
                lo, hi = evlogic.entail_bounds(
                    s, probs, evlogic.parse(payload["target"]), payload["mode"])
            except evlogic.Incoherent:
                return {"incoherent": True}
            return {"bounds": [str(lo), str(hi)]}
        return call

    if kind == "ds-entail":
        intervals = [(Fraction(a), Fraction(b)) for a, b in payload["intervals"]]

        def call():
            s = evlogic.sentence_set((name, evlogic.parse(text)) for name, text in sentences)
            system = evlogic.IntervalSystem(
                s, tuple(evlogic.EvidentialInterval(a, b) for a, b in intervals))
            answer = evlogic.evidential_entail(
                system, evlogic.parse(payload["target"]),
                mode=payload["mode"], relation=payload["relation"])
            return {"bounds": [str(answer.spt), str(answer.pls)]}
        return call

    masses = [[(rows, Fraction(m)) for rows, m in payload[key]]
              for key in ("mass1", "mass2")]

    def call():
        s = evlogic.sentence_set((name, evlogic.parse(text)) for name, text in sentences)
        space = evlogic.interpretation_space(s)
        m1, m2 = (evlogic.mass_function(space, pairs) for pairs in masses)
        merged, conflict = evlogic.combine(m1, m2)
        return {"focal": [[sorted(e), str(m)] for e, m in merged.focal.items()],
                "conflict": str(conflict)}
    return call


def _cli(argv: list[str], in_process: bool):
    if in_process:
        from evlogic import cli

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return {"code": code, "stdout": out.getvalue()}
        return call

    def call():
        done = subprocess.run([sys.executable, "-m", "evlogic", *argv],
                              capture_output=True, text=True, timeout=120)
        return {"code": done.returncode, "stdout": done.stdout}
    return call


def _peak_rss_kb() -> int:
    """This process's own peak RSS.  ``getrusage`` would report at least
    the RSS of the parent that started it, which holds scipy."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _more(job: dict, done: int, wall: float) -> bool:
    if "count" in job:
        return done < job["count"]
    return wall < MAX_SECONDS and (wall < job["seconds"] or done < job["min_count"])


def main() -> int:
    job = json.loads(sys.argv[1])
    in_process = job.get("in_process", False)
    evlogic = None
    if job["workload"] != "cli":
        import evlogic
    elif in_process:
        import evlogic.cli  # loaded before tracing wraps it
    tracer = None
    if job.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    kind = "start" if job["workload"] == "cli" and not in_process else "arithmetic"
    calibrate = hostspeed.CALIBRATIONS[kind]
    stream = workloads.GENERATORS[job["workload"]](job["seed"], Path(job["work"]))
    answers, times, calibrations = [], [], []
    wall = 0.0
    while _more(job, len(times), wall):
        calibrations.append(calibrate())
        query = next(stream)
        payload = query.payload
        if payload["kind"] == "cli":
            call = _cli(payload["argv"], in_process)
        else:
            call = _library(evlogic, payload)
        if tracer:
            tracer.query = len(times)
        t0 = perf_counter()
        try:
            answer = call()
        except Exception as exc:  # any unexpected error is a failed query
            answer = {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = perf_counter() - t0
        times.append(elapsed)
        answers.append(answer)
        wall += elapsed
    calibrations.append(calibrate())

    if job["workload"] == "cli" and not in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = _peak_rss_kb()
    print(json.dumps({
        "answers": answers,
        "times": times,
        "calibrations": calibrations,
        "calibration": kind,
        "peak_rss_kb": peak_kb,
        "trace": tracer.summary() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
