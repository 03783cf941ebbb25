"""Workload job lists and the in-process runner for ``gammahom.cli.main``.

A job is the CLI argument list of one ``compute`` or ``check`` invocation;
every job runs with ``--threads 1 --format json`` so that one client is
served at a time and its output can be checked against the reference.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from pathlib import Path

# Each workload loads a different layer; NOTES.md gives the reasons and the
# seed timings.  Job order within a workload is what the seed permutes.
WORKLOADS: dict[str, list[tuple[str, ...]]] = {
    # Field coefficients: time sits in tower and chain assembly (segal,
    # simplicial, gamma); packed F_2 and dense F_3 elimination are both hit.
    "em-fields": [
        ("compute", "--space", "ab:2", "--ring", "f2", "--max-degree", "3"),
        ("compute", "--space", "B(ab:2)", "--ring", "f2",
         "--max-degree", "3"),
        ("compute", "--space", "mu(2)*ab:2", "--ring", "f2",
         "--max-degree", "2"),
        ("compute", "--space", "wedge(ab:2,sphere)", "--ring", "f2",
         "--max-degree", "3"),
        ("compute", "--space", "ab:3", "--ring", "f3", "--max-degree", "2"),
    ],
    # Z and Q coefficients: every rank goes through the sparse Smith form;
    # the small jobs expose per-job fixed cost.
    "torsion-z": [
        ("compute", "--space", "ab:2,4", "--ring", "z", "--max-degree", "1"),
        ("compute", "--space", "ab:2", "--ring", "z", "--max-degree", "2"),
        ("compute", "--space", "ab:2", "--ring", "q", "--max-degree", "2"),
        ("compute", "--space", "sphere", "--ring", "z", "--max-degree", "3"),
        ("compute", "--space", "t:circle", "--ring", "z",
         "--max-degree", "2"),
    ],
    # Property suites: the same towers reached through maps (chains_of_map,
    # tower_map, induced-iso tests, coo_mul), including the one known budget
    # stop (wedge (1,2), degree 2).
    "segal-checks": [
        ("check", "--suite", "segal", "--space", "ab:2", "--ring", "f2",
         "--max-degree", "2"),
        ("check", "--suite", "square", "--space", "ab:2", "--ring", "z"),
        ("check", "--suite", "range", "--space", "ab:2", "--ring", "f2",
         "--max-degree", "3"),
    ],
}

FIXED_ARGS = ("--threads", "1", "--format", "json")

# A trivial request answered during set-up, so that first-call costs (the
# lazy scipy.sparse import in CooMatrix.to_scipy among them) are paid before
# any measured job.
WARMUP_JOB = ("compute", "--space", "sphere", "--ring", "z",
              "--max-degree", "1")


def job_id(job: tuple[str, ...]) -> str:
    return " ".join(job)


def job_order(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The workload's jobs in the order fixed by the seed."""
    jobs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(jobs)
    return jobs


def prepare(root: Path):
    """Import the program from the ``src`` directory under ``root`` and
    warm it up; returns ``gammahom.cli.main``.

    Raises SystemExit when the checkout holds no program sources, so that
    the benchmark never measures an installed copy by accident.
    """
    src = (root / "src").resolve()
    if not (src / "gammahom" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import gammahom
    from gammahom.chains import CooMatrix
    from gammahom.cli import main
    if src not in Path(gammahom.__file__).resolve().parents:
        raise SystemExit(f"benchmark: imported gammahom from "
                         f"{gammahom.__file__}, not from {src}")
    CooMatrix.zero((1, 1)).to_scipy()
    code, _ = run_job(main, WARMUP_JOB)
    if code != 0:
        raise SystemExit(f"benchmark: warm-up job exited with {code}")
    return main


def run_job(main, job: tuple[str, ...]) -> tuple[int, str]:
    """Run one job through the CLI entry point; returns the exit code and
    the captured standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([*job, *FIXED_ARGS])
    return code, out.getvalue()
