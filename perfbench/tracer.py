"""Outside-in tracer: spans around the public entry points of each module of
``gammahom``, recorded from the benchmark's own code.

``Tracer.install`` replaces each traced function or method with a wrapper
that records one span (name, start, end, parent span, job) per call, and
rebinds the name in every ``gammahom`` module that imported it with
``from .x import ...``.  Spans are kept in memory and written out at the
end.  Jobs run with one thread, so the spans of a job nest strictly and a
span's parent is the innermost open span.

A span's self time is its duration minus the part covered by its child
spans; summed per module, self times add up to the duration of the root
spans (one ``cli.main`` span per job).

Some entry points carry a hook that counts work at the boundary (hashing a
matrix handed to the rank, summing the cells of a complex).  A hook runs in a
``trace.hooks`` span of its own, outside the traced call's span, with
tracing off, so its time lands in the ``trace`` module and in no program
module.
"""

from __future__ import annotations

import hashlib
import json
import sys
import weakref
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("cli", "stable", "segal", "simplicial", "chains", "gamma",
           "trace")

# Layer time metrics: the time spent inside spans of these names, counting a
# span only when no enclosing span belongs to the same metric (ops nest, for
# instance MSSet.face evaluates MSSet.cell).
TIME_GROUPS = {
    "chains.snf_s": ("chains.smith_normal_form", "chains.matrix_rank[Z]"),
    "chains.rank_f2_s": ("chains.matrix_rank[F2]",),
    "chains.rank_fp_s": ("chains.matrix_rank[Fp]",),
    "chains.iso_s": ("chains.induced_map_is_iso_field",
                     "chains.induced_map_is_surjective_integer"),
    "chains.coo_mul_s": ("chains.coo_mul",),
    "chains.verify_s": ("chains.ChainComplex.verify_boundary_condition",),
    "chains.total_complex_s": ("chains.total_complex",),
    "chains.homology_s": ("chains.homology",),
    "simplicial.chains_s": ("simplicial.NormalizedChains",),
    "simplicial.ops_s": ("simplicial.MSSet.cell", "simplicial.MSSet.face",
                         "simplicial.MSSet.degeneracy",
                         "simplicial.MSMap.component"),
    "simplicial.chain_map_s": ("simplicial.chains_of_map",),
    "segal.action_s": ("segal.GammaSpace.map_action",),
    "segal.is_special_s": ("segal.is_special",),
    "segal.tower_map_s": ("segal.tower_map",),
    "gamma.smash_s": ("gamma.smash",),
    "stable.connectivity_s": ("stable.connectivity",),
}

# Call counts: the number of spans of these names.
CALL_COUNTS = {
    "chains.rank_calls": ("chains.smith_normal_form",
                          "chains.matrix_rank[Z]", "chains.matrix_rank[F2]",
                          "chains.matrix_rank[Fp]"),
    "chains.coo_mul_calls": ("chains.coo_mul",),
    "chains.verify_calls": ("chains.ChainComplex.verify_boundary_condition",),
    "simplicial.complexes": ("simplicial.NormalizedChains",),
    "simplicial.ops_calls": TIME_GROUPS["simplicial.ops_s"],
    "simplicial.chain_maps": ("simplicial.chains_of_map",),
    "segal.action_calls": ("segal.GammaSpace.map_action",),
    "segal.is_special_calls": ("segal.is_special",),
    "gamma.smash_calls": ("gamma.smash",),
    "gamma.pointed_maps": ("gamma.PointedMap",),
}

# Per-layer metric names, units and the direction that is better.
LAYER_METRICS = {
    **{name: ("s", "lower") for name in TIME_GROUPS},
    **{name: ("count", "lower") for name in CALL_COUNTS},
    **{f"{module}.self_s": ("s", "lower") for module in MODULES},
    "chains.elim_nnz": ("count", "lower"),
    "chains.f2_bytes_computed": ("bytes", "lower"),
    "chains.rank_empty_calls": ("count", "lower"),
    "chains.rank_repeat_ratio": ("ratio", "lower"),
    "chains.verify_per_complex": ("ratio", "lower"),
    "simplicial.points": ("count", "lower"),
    "simplicial.basis": ("count", "lower"),
    "simplicial.basis_ratio": ("ratio", "higher"),
    "segal.action_points": ("count", "lower"),
    "stable.levels": ("count", "lower"),
    "stable.budget_stops": ("count", "lower"),
    "stable.undecided_degrees": ("count", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.unspanned_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the time its children cover."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


def outermost_time(names, start, end, parent,
                   group_of_name: dict[int, int], groups: int) -> np.ndarray:
    """Per group, the summed duration of the spans of that group that have
    no ancestor in the same group.  Parents precede their children."""
    totals = np.zeros(groups)
    above = [0] * len(names)  # bit set of groups among the ancestors
    for i, (nid, p) in enumerate(zip(names, parent)):
        if p >= 0:
            g = group_of_name.get(names[p])
            above[i] = above[p] | (0 if g is None else 1 << g)
        g = group_of_name.get(nid)
        if g is not None and not above[i] >> g & 1:
            totals[g] += end[i] - start[i]
    return totals


def _content_key(p: int, shape, row, col, val) -> bytes:
    digest = hashlib.blake2b(repr((p, shape)).encode(), digest_size=16)
    for part in (row, col, val):
        digest.update(np.ascontiguousarray(part).data)
    return digest.digest()


class Tracer:
    """Records spans and counts for the jobs run while it is installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_job = array("i")
        self.jobs: list[str] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._quiet = [False]  # set while a hook runs: record no spans
        self._job = [-1]  # index of the current job in self.jobs
        self._ranked: set[bytes] = set()
        self._verified = weakref.WeakSet()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def begin_job(self, label: str):
        """Spans recorded from now on belong to a new job."""
        self._job[0] = len(self.jobs)
        self.jobs.append(label)
        self._ranked = set()
        self._verified = weakref.WeakSet()

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` with a span around every call.  ``before(args, kwargs)``
        may return a more specific span name; ``after(args, kwargs, result,
        error)`` sees the outcome."""
        default = self.name_id(name)
        hooks = self.name_id("trace.hooks")
        stack, job, quiet = self._stack, self._job, self._quiet
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, jobs = self.span_parent, self.span_job
        clock = perf_counter

        def hook(call, *hook_args):
            idx = len(names)
            names.append(hooks)
            parents.append(stack[-1] if stack else -1)
            jobs.append(job[0])
            ends.append(0.0)
            starts.append(clock())
            quiet[0] = True
            try:
                return call(*hook_args)
            finally:
                quiet[0] = False
                ends[idx] = clock()

        def traced(*args, **kwargs):
            if quiet[0]:
                return fn(*args, **kwargs)
            nid = default
            if before is not None:
                label = hook(before, args, kwargs)
                if label is not None:
                    nid = self.name_id(label)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(job[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            if after is None:
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
            result = error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                hook(after, args, kwargs, result, error)
            return result

        return traced

    # -- hooks that count work at the boundaries ---------------------------

    def _count_elimination(self, m, p: int = 0):
        """Count a matrix handed to the rank or the Smith form; over F_p
        (``p`` > 0) only its entries that are nonzero mod ``p``, the ones
        the kernel eliminates."""
        self.counts["chains.elim_nnz"] += m.nnz
        row, col, val = m.row, m.col, m.val
        if p:
            val = val % p
            kept = val != 0
            row, col, val = row[kept], col[kept], val[kept]
        if not len(val):
            # Answered at once, without elimination: no work to repeat.
            self.counts["chains.rank_empty_calls"] += 1
            return
        if p == 2:
            rows, cols = sorted(m.shape)
            self.counts["chains.f2_bytes_computed"] += \
                rows * ((cols + 63) // 64) * 8
        key = _content_key(p, m.shape, row, col, val)
        if key in self._ranked:
            self.counts["chains.rank_repeats"] += 1
        self._ranked.add(key)

    def _rank_before(self, args, kwargs):
        m = args[0]
        ring = args[1] if len(args) > 1 else kwargs["ring"]
        if ring.kind != "F":
            # Ranks over Z and Q both run the sparse Smith form.
            self._count_elimination(m)
            return "chains.matrix_rank[Z]"
        self._count_elimination(m, ring.p)
        return "chains.matrix_rank[F2]" if ring.p == 2 \
            else "chains.matrix_rank[Fp]"

    def _snf_before(self, args, kwargs):
        self._count_elimination(args[0])

    def _verify_before(self, args, kwargs):
        if args[0] not in self._verified:
            self._verified.add(args[0])
            self.counts["chains.verified_complexes"] += 1

    def _chains_after(self, args, kwargs, result, error):
        if error is not None:
            return
        chains = args[0]
        self.counts["simplicial.points"] += sum(
            chains.x.cell(idx).points for idx in chains.codes)
        self.counts["simplicial.basis"] += sum(
            len(codes) for codes in chains.codes.values())

    def _action_before(self, args, kwargs):
        self.counts["segal.action_points"] += args[1].source.points

    def _spectrum_after(self, args, kwargs, result, error):
        from gammahom.errors import BudgetExceeded
        if error is not None:
            if isinstance(error, (BudgetExceeded, MemoryError)):
                self.counts["stable.budget_stops"] += 1
            return
        self.counts["stable.levels"] += len(
            {n for entry in result.entries.values() for n, _ in entry.history})
        if result.budget_note is not None:
            self.counts["stable.budget_stops"] += 1

    # -- installation ------------------------------------------------------

    def _entry_points(self):
        from gammahom import chains, gamma, segal, simplicial, stable
        yield chains, "coo_mul", "chains.coo_mul", None, None
        yield chains, "matrix_rank", "chains.matrix_rank[Z]", \
            self._rank_before, None
        yield chains, "smith_normal_form", "chains.smith_normal_form", \
            self._snf_before, None
        yield chains, "homology", "chains.homology", None, None
        yield chains, "total_complex", "chains.total_complex", None, None
        yield chains, "induced_map_is_iso_field", \
            "chains.induced_map_is_iso_field", None, None
        yield chains, "induced_map_is_surjective_integer", \
            "chains.induced_map_is_surjective_integer", None, None
        yield chains.ChainComplex, "verify_boundary_condition", \
            "chains.ChainComplex.verify_boundary_condition", \
            self._verify_before, None
        yield gamma, "smash", "gamma.smash", None, None
        yield gamma.PointedMap, "__init__", "gamma.PointedMap", None, None
        yield simplicial.MSSet, "cell", "simplicial.MSSet.cell", None, None
        yield simplicial.MSSet, "face", "simplicial.MSSet.face", None, None
        yield simplicial.MSSet, "degeneracy", "simplicial.MSSet.degeneracy", \
            None, None
        yield simplicial.MSMap, "component", "simplicial.MSMap.component", \
            None, None
        yield simplicial.NormalizedChains, "__init__", \
            "simplicial.NormalizedChains", None, self._chains_after
        yield simplicial, "chains_of_map", "simplicial.chains_of_map", \
            None, None
        yield segal.GammaSpace, "map_action", "segal.GammaSpace.map_action", \
            self._action_before, None
        yield segal, "is_special", "segal.is_special", None, None
        yield segal, "tower_map", "segal.tower_map", None, None
        yield stable, "spectrum_homology", "stable.spectrum_homology", \
            None, self._spectrum_after
        yield stable, "connectivity", "stable.connectivity", None, None
        for attr in sorted(vars(stable)):
            if attr.startswith("check_"):
                yield stable, attr, f"stable.{attr}", None, None

    def install(self):
        """Wrap every entry point; ``uninstall`` restores the originals."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "gammahom" or name.startswith("gammahom.")]
        for owner, attr, name, before, after in list(self._entry_points()):
            original = vars(owner)[attr]
            traced = self.wrap(original, name, before, after)
            if isinstance(owner, type):
                setattr(owner, attr, traced)
                self._restore.append((owner, attr, original))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def arrays(self):
        """Copies of the span columns: name id, start, end, parent, job."""
        return (np.array(self.span_name, dtype=np.int32),
                np.array(self.span_start, dtype=np.float64),
                np.array(self.span_end, dtype=np.float64),
                np.array(self.span_parent, dtype=np.int64),
                np.array(self.span_job, dtype=np.int32))

    def module_self_times(self) -> dict[str, float]:
        names, start, end, parent, _ = self.arrays()
        own = self_times(start, end, parent)
        module_of = np.array([MODULES.index(n.split(".")[0])
                              for n in self.names] or [0], dtype=np.int64)
        per_module = np.bincount(module_of[names], weights=own,
                                 minlength=len(MODULES))
        return {m: float(per_module[k]) for k, m in enumerate(MODULES)}

    def root_time(self) -> float:
        _, start, end, parent, _ = self.arrays()
        roots = parent < 0
        return float((end[roots] - start[roots]).sum())

    def layer_metrics(self, passes: int, wall: float,
                      overhead_frac: float,
                      undecided_degrees: int) -> dict[str, float]:
        """Per-pass per-layer metrics over everything recorded."""
        names, start, end, parent, _ = self.arrays()
        group_names = list(TIME_GROUPS)
        group_of_name = {self._name_ids[n]: g
                         for g, metric in enumerate(group_names)
                         for n in TIME_GROUPS[metric] if n in self._name_ids}
        times = outermost_time(names.tolist(), start, end, parent.tolist(),
                               group_of_name, len(group_names))
        calls = np.bincount(names, minlength=len(self.names))
        metrics = {metric: float(times[g]) / passes
                   for g, metric in enumerate(group_names)}
        for metric, members in CALL_COUNTS.items():
            metrics[metric] = sum(int(calls[self._name_ids[n]])
                                  for n in members
                                  if n in self._name_ids) / passes
        for module, value in self.module_self_times().items():
            metrics[f"{module}.self_s"] = value / passes
        for key in ("chains.elim_nnz", "chains.f2_bytes_computed",
                    "chains.rank_empty_calls",
                    "simplicial.points", "simplicial.basis",
                    "segal.action_points", "stable.levels",
                    "stable.budget_stops"):
            metrics[key] = self.counts[key] / passes
        ranked = metrics["chains.rank_calls"] * passes \
            - self.counts["chains.rank_empty_calls"]
        metrics["chains.rank_repeat_ratio"] = \
            self.counts["chains.rank_repeats"] / ranked if ranked else 0.0
        verified = self.counts["chains.verified_complexes"]
        metrics["chains.verify_per_complex"] = \
            metrics["chains.verify_calls"] * passes / verified \
            if verified else 0.0
        points = self.counts["simplicial.points"]
        metrics["simplicial.basis_ratio"] = \
            self.counts["simplicial.basis"] / points if points else 0.0
        metrics["stable.undecided_degrees"] = undecided_degrees / passes
        metrics["trace.spans"] = len(names) / passes
        metrics["trace.unspanned_s"] = (wall - self.root_time()) / passes
        metrics["trace.overhead_frac"] = overhead_frac
        return metrics

    def dump(self, path: Path):
        """Write every span, with the name and job tables and the boundary
        counts, to ``path``."""
        names, start, end, parent, job = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, name=names, start=start, end=end,
                            parent=parent, job=job,
                            names=np.array(self.names),
                            jobs=np.array(self.jobs),
                            counts=np.array(json.dumps(dict(self.counts))))
