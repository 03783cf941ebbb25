"""Command-line surface: compute stable homology tables, run the check
suites, dump chain complexes.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 budget or size
limit exceeded (partial output with ? markers).  Output is byte-identical
across runs for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .chains import SCHEMA_VERSION, Ring, dumps_json, parse_ring
from .errors import LimitExceeded
from .segal import parse_space, spectrum_level
from .simplicial import DEFAULT_CELL_BUDGET, normalized_chains
from .stable import (DEFAULT_MAX_ITERATIONS, StableResult,
                     check_commuting_square, check_rho_iso, check_special,
                     check_smash_vanishing, check_stable_range,
                     check_wedge_iso, spectrum_homology)


@dataclass
class JobConfig:
    space: str
    ring: str = "z"
    max_degree: int = 3
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    cell_budget: int = DEFAULT_CELL_BUDGET
    threads: int = 1  # accepted and ignored: jobs run in one thread
    format: str = "table"
    out: str | None = None
    level: int = 1
    suite: str = "segal"

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if value is None and field.default is None:
                continue
            kind = int if field.type == "int" else str
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(
                    f"config field {field.name!r} must be "
                    f"{'an integer' if kind is int else 'a string'}, "
                    f"got {json.dumps(value, default=repr)}")
        if self.max_degree < 0 or self.max_iterations < 0 or self.level < 0:
            raise ValueError("degree, iteration and level bounds must be "
                             ">= 0")
        if self.cell_budget <= 0:
            raise ValueError("cell budget must be positive")
        if self.format not in ("table", "json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")
        parse_ring(self.ring)


_CONFIG_FIELDS = tuple(field.name for field in fields(JobConfig))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammahom",
        description="Stable homology of Gamma-spaces over Z, Q and F_p.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--space", help="space spec, e.g. ab:2, sphere, "
                                       "t:circle, B(ab:2), mu(2)*ab:2")
        p.add_argument("--ring", help="z | q | f2 | f3 | ... (default z)")
        p.add_argument("--max-degree", type=int, dest="max_degree")
        p.add_argument("--max-iterations", type=int, dest="max_iterations")
        p.add_argument("--cell-budget", type=int, dest="cell_budget")
        p.add_argument("--threads", type=int,
                       help="accepted and ignored: jobs run in one thread")
        p.add_argument("--format", choices=["table", "json", "csv"])
        p.add_argument("--out", help="write output to this path")
        p.add_argument("--config", help="JSON file with the same fields; "
                                        "explicit flags win")

    compute = sub.add_parser("compute",
                             help="stable homology table of a space")
    common(compute)
    check = sub.add_parser("check", help="run a property suite")
    common(check)
    check.add_argument("--suite",
                       choices=["segal", "square", "special", "range",
                                "all"])
    dump = sub.add_parser("dump",
                          help="dump the chain complex of a tower level")
    common(dump)
    dump.add_argument("--level", type=int,
                      help="tower level to dump (default 1)")
    return parser


def _load_config(args: argparse.Namespace) -> JobConfig:
    values: dict = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"config file {args.config} must hold a JSON "
                             "object of fields")
        unknown = set(data) - set(_CONFIG_FIELDS)
        if unknown:
            raise ValueError(f"unknown config fields {sorted(unknown)}")
        values.update(data)
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    if not values.get("space"):
        raise ValueError("a --space spec (or config entry) is required")
    return JobConfig(**values)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _load_config(args)
        space = parse_space(config.space)
        ring = parse_ring(config.ring)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"gammahom: {exc}", file=sys.stderr)
        return 2
    command = {"compute": _cmd_compute, "check": _cmd_check,
               "dump": _cmd_dump}[args.command]
    try:
        text, code = command(config, space, ring)
    except LimitExceeded as exc:
        print(f"gammahom: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"gammahom: {exc}", file=sys.stderr)
        return 2
    if not config.out:
        sys.stdout.write(text)
        return code
    try:
        Path(config.out).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"gammahom: {exc}", file=sys.stderr)
        return 2
    return code


# ---------------------------------------------------------------------------
# compute

def _cmd_compute(config: JobConfig, space, ring: Ring) -> tuple[str, int]:
    result = spectrum_homology(
        space, ring, config.max_degree,
        max_iterations=config.max_iterations,
        cell_budget=config.cell_budget)
    if config.format == "json":
        payload = result.to_json()
        payload["command"] = "compute"
        text = dumps_json(payload)
    elif config.format == "csv":
        text = _compute_csv(result)
    else:
        text = _compute_table(result)
    return text, 0 if result.all_stable else 3


def _compute_table(result: StableResult) -> str:
    ring = result.ring
    lines = [
        f"# space: {result.space}",
        f"# ring: {ring.name}",
        f"# special: {result.special.describe()}",
        f"# route: {'pre-spectrum' if result.pre_spectrum else 'spectrum'}",
        "degree  group         n  certificate",
    ]
    for i in range(result.i_max + 1):
        entry = result.entries[i]
        label = entry.group.label(ring) if entry.stable else "?"
        n = entry.stabilized_at if entry.stabilized_at is not None else "?"
        lines.append(f"{i:>6}  {label:<12} {n:>2}  {entry.certificate}")
    if result.budget_note:
        lines.append(f"# budget: {result.budget_note}")
    if result.unstable_above is not None:
        lines.append(f"# unstable above degree {result.unstable_above - 1}")
    return "\n".join(lines) + "\n"


def _compute_csv(result: StableResult) -> str:
    lines = ["degree,group,free_rank,torsion,stabilized_at,certificate"]
    for i in range(result.i_max + 1):
        entry = result.entries[i]
        if entry.stable:
            group = entry.group
            lines.append(",".join([
                str(i), group.label(result.ring), str(group.free_rank),
                ";".join(str(t) for t in group.torsion),
                str(entry.stabilized_at), entry.certificate]))
        else:
            lines.append(f"{i},?,?,?,?,{entry.certificate}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# check

def _cmd_check(config: JobConfig, space, ring: Ring) -> tuple[str, int]:
    kw = dict(cell_budget=config.cell_budget,
              max_iterations=config.max_iterations)
    reports = []
    suite = config.suite
    if suite in ("segal", "all"):
        reports.append(check_rho_iso(space, ring, config.max_degree, **kw))
        reports.append(
            check_wedge_iso(space, 1, 1, ring, config.max_degree, **kw))
        reports.append(
            check_wedge_iso(space, 1, 2, ring, config.max_degree, **kw))
        reports.append(
            check_smash_vanishing(space, 1, 1, ring, config.max_degree,
                                  **kw))
    if suite in ("square", "all"):
        reports.append(check_commuting_square(
            space, ring, cell_budget=config.cell_budget))
    if suite in ("special", "all"):
        reports.append(check_special(space, cell_budget=config.cell_budget))
    if suite in ("range", "all"):
        reports.append(check_stable_range(space, ring, config.max_degree,
                                          **kw))
    if config.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "check",
            "suite": suite,
            "space": config.space,
            "ring": ring.name,
            "passed": all(r.passed for r in reports),
            "reports": [r.to_json() for r in reports],
        }
        text = dumps_json(payload)
    elif config.format == "csv":
        lines = ["check,passed"]
        lines.extend(f"{r.name},{str(r.passed).lower()}" for r in reports)
        text = "\n".join(lines) + "\n"
    else:
        text = "\n".join(r.render_text() for r in reports) + "\n"
    return text, 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# dump

def _cmd_dump(config: JobConfig, space, ring: Ring) -> tuple[str, int]:
    complex_ = normalized_chains(spectrum_level(space, config.level), ring,
                                 config.max_degree, config.cell_budget)
    payload = complex_.to_json()
    payload.update({
        "command": "dump",
        "space": config.space,
        "level": config.level,
    })
    return dumps_json(payload), 0


if __name__ == "__main__":
    raise SystemExit(main())
