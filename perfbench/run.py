"""The gammahom benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload em-fields --seed 1 --seconds 36 \
        --trace 0

Runs the workload's jobs one after another through ``gammahom.cli.main``
in this process, in the order the seed fixes, pass after pass until the
next pass would end after ``--seconds``.  Every job's decided output is
checked against ``reference.json``.  Prints each metric by name and unit,
then one JSON line; exits 1 when a job failed.

With ``--trace 0`` the end-to-end metrics are measured (set-up in fresh
processes, pass wall times, memory).  With ``--trace 1`` untraced and
traced passes alternate; the traced ones give the per-layer metrics and
the tracing overhead, and their spans are written to ``out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from jobs import WORKLOADS, job_id, job_order, prepare, run_job
from reference import compare, load_reference, outcome, undecided
from tracer import LAYER_METRICS, MODULES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_SAMPLES = 7
# A median needs more than one pass; a segal-checks pass takes ~18 s.
MIN_PASSES = 2
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "batch_s": "s", "slowest_job_s": "s",
                    "peak_rss_mb": "MB", "failed_frac": "ratio",
                    "undecided_degrees": "count"}
# failed_frac is 0 on a correct run and reaches the JSON line as "failed".
# undecided_degrees can only fall below the reference's count (0, 0 and 1
# per workload): a degree the reference decides and a run leaves undecided
# is a failure.  Neither can be a bounded metric, which must never be 0.
BOUNDED = ("batch_s", "slowest_job_s", "peak_rss_mb", "setup_s")


@dataclass
class Pass:
    wall: float = 0.0
    job_walls: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    undecided: int = 0


def measure_setup() -> list[float]:
    """Seconds from starting a fresh process to its ``ready`` line."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "ready.py")],
                                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(perf_counter() - start)
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"benchmark: set-up probe failed "
                             f"(exit {proc.returncode})")
    return samples


def run_pass(main, order, reference, tracer: Tracer | None = None) -> Pass:
    """One pass over the job list.  Garbage left by a job is collected
    before the next starts, untimed, as a fresh process per job would not
    carry it; the pass wall time is the sum of the job wall times."""
    result = Pass()
    for job in order:
        jid = job_id(job)
        gc.collect()
        if tracer is not None:
            tracer.begin_job(jid)
        start = perf_counter()
        try:
            code, stdout = run_job(main, job)
        except Exception:  # a job that raises is a failed request
            result.job_walls[jid] = perf_counter() - start
            result.failures.append(f"{jid}: raised\n{traceback.format_exc()}")
            continue
        result.job_walls[jid] = perf_counter() - start
        actual = outcome(job, code, stdout)
        result.undecided += len(undecided(actual))
        problems = compare(job, reference[jid], actual)
        if problems:
            result.failures.append(f"{jid}: {'; '.join(problems)}")
    result.wall = sum(result.job_walls.values())
    return result


def run_passes(seconds: float, step, at_least: int) -> list:
    """Call ``step`` until the next call would end after ``seconds``,
    predicting its length from the last one; at least ``at_least`` times."""
    results = []
    start = perf_counter()
    while True:
        step_start = perf_counter()
        results.append(step())
        last = perf_counter() - step_start
        if len(results) >= at_least \
                and perf_counter() - start + last > seconds:
            return results


def report(name: str, value: float, unit: str, note: str = ""):
    print(f"{name:<28} {value:>14.6g} {unit:<6} {note}".rstrip())


def measure(main, order, reference, seconds) -> tuple[dict, list[Pass]]:
    setup = measure_setup()
    passes = run_passes(seconds, lambda: run_pass(main, order, reference),
                        MIN_PASSES)
    walls = [p.wall for p in passes]
    slowest = [max(p.job_walls.values()) for p in passes]
    attempted = len(order) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    values = {
        "setup_s": statistics.median(setup),
        "batch_s": statistics.median(walls),
        "slowest_job_s": statistics.median(slowest),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed / attempted,
        "undecided_degrees": max(p.undecided for p in passes),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes, "
                   f"max {max(setup):.4f}",
        "batch_s": f"median of {len(walls)} passes, max {max(walls):.4f}",
        "slowest_job_s": f"median of {len(slowest)} passes, "
                         f"max {max(slowest):.4f}",
        "peak_rss_mb": "max resident set of this process",
        "failed_frac": f"{failed} of {attempted} jobs",
        "undecided_degrees": "per pass",
    }
    for name, unit in END_TO_END_UNITS.items():
        report(name, values[name], unit, notes[name])
    print("  passes " + " ".join(f"{w:.4f}" for w in walls) + " s")
    for jid in passes[0].job_walls:
        median = statistics.median(p.job_walls[jid] for p in passes)
        print(f"  job {median:9.4f} s  {jid}")
    metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
               for name in BOUNDED}
    return metrics, passes


def measure_traced(main, order, reference, seconds, workload):
    tracer = Tracer()
    traced_main = tracer.wrap(main, "cli.main")

    def pair():
        plain = run_pass(main, order, reference)
        tracer.install()
        try:
            traced = run_pass(traced_main, order, reference, tracer)
        finally:
            tracer.uninstall()
        return plain, traced

    pairs = run_passes(seconds, pair, 1)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    wall = sum(t.wall for t in traced)
    overhead = (statistics.median(t.wall for t in traced)
                / statistics.median(p.wall for p in plain) - 1)
    values = tracer.layer_metrics(len(traced), wall, overhead,
                                  sum(t.undecided for t in traced))
    for name, (unit, _) in LAYER_METRICS.items():
        report(name, values[name], unit)
    self_sum = sum(values[f"{m}.self_s"] for m in MODULES)
    print(f"per traced pass: module self times (tracer hooks in trace) "
          f"{self_sum:.4f} s + unspanned "
          f"{values['trace.unspanned_s']:.4f} s = traced wall "
          f"{wall / len(traced):.4f} s ({len(traced)} traced, "
          f"{len(plain)} untraced passes)")
    dump = BENCH / "out" / f"trace-{workload}.npz"
    tracer.dump(dump)
    print(f"spans written to {dump.relative_to(ROOT)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in LAYER_METRICS.items()}
    return metrics, plain + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    reference = load_reference()
    program = prepare(ROOT)
    order = job_order(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; job order:")
    for job in order:
        print(f"  {job_id(job)}")
    if args.trace:
        metrics, passes = measure_traced(program, order, reference,
                                         args.seconds, args.workload)
    else:
        metrics, passes = measure(program, order, reference, args.seconds)
    failures = [f for p in passes for f in p.failures]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures,
                      "attempted": len(order) * len(passes),
                      "failed": len(failures),
                      "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
