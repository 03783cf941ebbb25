"""Decided outputs of a job, and their comparison with the committed
reference (``reference.json``).

An outcome records the exit code, the group label of every degree the job
reports (``?`` when undecided) and the pass flag of every check report.
A degree the reference decides must be decided, with the same label: a new
undecided degree is a failure, so that deciding less never passes as a
speed-up.  A degree the reference leaves undecided (a known budget stop)
may be decided now; it counts in ``undecided_degrees`` while it stays
undecided.
"""

from __future__ import annotations

import json
from pathlib import Path

UNDECIDED = "?"

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Values known independently of this program (the mod-2 homology of HF_2,
# the sphere spectrum, and the free Gamma-spaces on a discrete set and on
# the circle); the committed reference must agree with them.
KNOWN_VALUES = {
    "compute --space ab:2 --ring f2 --max-degree 3":
        {"deg0": "F2", "deg1": "F2", "deg2": "F2", "deg3": "F2^2"},
    "compute --space sphere --ring z --max-degree 3":
        {"deg0": "Z", "deg1": "0", "deg2": "0", "deg3": "0"},
    "compute --space ab:2,4 --ring z --max-degree 1":
        {"deg0": "Z/2 + Z/4"},
    "compute --space t:circle --ring z --max-degree 2":
        {"deg0": "0", "deg1": "Z", "deg2": "0"},
}


def _degree_labels(result: dict, prefix: str) -> dict[str, str]:
    labels = {}
    for entry in result["degrees"]:
        decided = entry["group"] is not None \
            and entry["certificate"] != "unstable"
        labels[f"{prefix}deg{entry['degree']}"] = \
            entry["label"] if decided else UNDECIDED
    return labels


def outcome(job: tuple[str, ...], code: int, stdout: str) -> dict:
    """The decided output of one job run."""
    groups: dict[str, str] = {}
    passed: dict[str, bool] = {}
    if stdout.strip():
        payload = json.loads(stdout)
        if job[0] == "compute":
            groups.update(_degree_labels(payload, ""))
        else:
            for k, report in enumerate(payload["reports"]):
                rid = f"r{k}.{report['check']}"
                passed[rid] = report["passed"]
                for side, result in sorted(
                        (report.get("evidence") or {}).items()):
                    groups.update(_degree_labels(result, f"{rid}.{side}."))
    return {"exit": code, "groups": groups, "passed": passed}


def undecided(result: dict) -> set[str]:
    return {k for k, v in result["groups"].items() if v == UNDECIDED}


def _consistent_exit(job: tuple[str, ...], result: dict) -> int:
    """The exit code the CLI documents for this outcome."""
    if job[0] == "compute":
        return 3 if undecided(result) else 0
    return 0 if all(result["passed"].values()) else 1


def compare(job: tuple[str, ...], expected: dict,
            actual: dict) -> list[str]:
    """Differences between a job's outcome and its reference; empty when the
    job counts as correct."""
    problems = [f"{key}: expected {expected['groups'][key]}, got "
                f"{UNDECIDED} (undecided)"
                for key in sorted(undecided(actual) - undecided(expected))
                if key in expected["groups"]]
    for key in sorted(set(expected["groups"]) | set(actual["groups"])):
        want = expected["groups"].get(key)
        got = actual["groups"].get(key)
        if want is None or got is None:
            problems.append(f"{key}: expected {want}, got {got}")
        elif UNDECIDED not in (want, got) and want != got:
            problems.append(f"{key}: expected {want}, got {got}")
    for rid in sorted(set(expected["passed"]) | set(actual["passed"])):
        want = expected["passed"].get(rid)
        got = actual["passed"].get(rid)
        prefix = rid + "."
        reach = {k for k in undecided(actual) if k.startswith(prefix)}
        was = {k for k in undecided(expected) if k.startswith(prefix)}
        if reach != was:
            # Once every degree of a report is decided, the property it
            # checks must hold; while some are undecided it cannot pass.
            want = True if want is not None and not reach else got
        if want is None or got is None or want != got:
            problems.append(f"{rid}: expected passed={want}, got {got}")
    if undecided(expected) == undecided(actual):
        want_exit = expected["exit"]
    else:
        want_exit = _consistent_exit(job, actual)
    if actual["exit"] != want_exit:
        problems.append(f"exit code: expected {want_exit}, "
                        f"got {actual['exit']}")
    return problems


def known_value_problems(reference: dict) -> list[str]:
    """Disagreements between the reference and KNOWN_VALUES."""
    problems = []
    for jid, labels in KNOWN_VALUES.items():
        groups = reference.get(jid, {}).get("groups", {})
        for key, label in labels.items():
            if groups.get(key) != label:
                problems.append(f"{jid} {key}: reference has "
                                f"{groups.get(key)}, known value {label}")
    return problems


def load_reference() -> dict:
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    problems = known_value_problems(reference)
    if problems:
        raise SystemExit("benchmark: reference contradicts known values: "
                         + "; ".join(problems))
    return reference
