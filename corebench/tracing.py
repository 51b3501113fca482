"""Spans around the calls into each corewalk layer, for the traced run only.

Wrappers are installed at the names callers look up (``cli.validate_walk``,
``residue_walk.inverse_range``, ...), so nothing inside corewalk changes.
Spans stay in memory: [name, start_ns, end_ns, parent_index, op_index].
A layer's self time is its span minus the spans directly inside it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

CLASSIFY = "residue_walk.classify_residues"
COLD = CLASSIFY + ".cold"
WARM = CLASSIFY + ".warm"

# (module, attribute, span name); one span name may sit at several call sites
WRAP_POINTS = (
    ("cli", "main", "cli.main"),
    ("cli", "classify_residues", CLASSIFY),
    ("residue_walk", "classify_residues", CLASSIFY),
    ("cli", "lambda_profile", "residue_walk.lambda_profile"),
    ("oracle", "lambda_profile", "residue_walk.lambda_profile"),
    ("residue_walk", "size_from_bead_multiplicities", "abacus.size_from_bead_multiplicities"),
    ("residue_walk", "inverse_range", "modarith.inverse_range"),
    ("oracle", "inverse_range", "modarith.inverse_range"),
    ("cli", "validate_walk", "residue_walk.validate_walk"),
    ("cli", "check_sum_identity", "residue_walk.check_sum_identity"),
    ("cli", "check_symmetry", "residue_walk.check_symmetry"),
    ("cli", "check_st_lemmas", "residue_walk.check_st_lemmas"),
    ("cli", "profile_to_partition", "residue_walk.profile_to_partition"),
    ("cli", "bounds_report", "bounds.bounds_report"),
    ("cli", "theorem_interval_check", "bounds.theorem_interval_check"),
    ("bounds", "theorem_interval_check", "bounds.theorem_interval_check"),
    ("cli", "totient_sum_check", "bounds.totient_sum_check"),
    ("cli", "longest_walk_dp", "oracle.longest_walk_dp"),
    ("cli", "max_size_walk", "oracle.max_size_walk"),
    ("cli", "exhaustive_partition_search", "oracle.exhaustive_partition_search"),
    ("oracle", "is_p_core", "partitions.is_p_core"),
)

# per-layer metric -> (span name, "total" | "self"); values are summed over a run in ms
TIME_METRICS = {
    "residue_walk.validate_walk.self_ms": ("residue_walk.validate_walk", "self"),
    "modarith.inverse_range_ms": ("modarith.inverse_range", "total"),
    "abacus.size_from_bead_multiplicities_ms": ("abacus.size_from_bead_multiplicities", "total"),
    "residue_walk.lambda_profile.self_ms": ("residue_walk.lambda_profile", "self"),
    "residue_walk.check_sum_identity_ms": ("residue_walk.check_sum_identity", "total"),
    "residue_walk.check_symmetry_ms": ("residue_walk.check_symmetry", "total"),
    "residue_walk.check_st_lemmas_ms": ("residue_walk.check_st_lemmas", "total"),
    "residue_walk.profile_to_partition_ms": ("residue_walk.profile_to_partition", "total"),
    "bounds.bounds_report_ms": ("bounds.bounds_report", "total"),
    "bounds.theorem_interval_check_ms": ("bounds.theorem_interval_check", "total"),
    "bounds.totient_sum_check_ms": ("bounds.totient_sum_check", "total"),
    "oracle.longest_walk_dp.self_ms": ("oracle.longest_walk_dp", "self"),
    "oracle.max_size_walk.self_ms": ("oracle.max_size_walk", "self"),
    "oracle.exhaustive_partition_search_ms": ("oracle.exhaustive_partition_search", "total"),
    "partitions.is_p_core_ms": ("partitions.is_p_core", "total"),
    "cli.self_ms": ("cli.main", "self"),
}


class Tracer:
    """Installs span wrappers on the corewalk modules and records spans."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.profile_bytes = 0
        self.walk_edges = 0
        self._saved: list[tuple[object, str, object]] = []
        self._tables = modules["residue_walk"]._coprime_pair_tables

    def _wrap(self, func, name: str):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        cache_info = self._tables.cache_info
        classify = name == CLASSIFY

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            before = cache_info().misses if classify else 0
            span[1] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if classify:
                    span[0] = COLD if cache_info().misses != before else WARM

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in WRAP_POINTS:
            module = self.modules[module_name]
            func = getattr(module, attr)
            self._saved.append((module, attr, func))
            setattr(module, attr, self._wrap(func, name))

    def count_profile(self, profile) -> None:
        """Computed bytes and walk edges of a profile an op returned."""
        arrays = (profile.m, profile.b, profile.d, profile.c_prefix, profile.x, profile.y)
        self.profile_bytes += sum(a.nbytes for a in arrays)
        self.walk_edges += int(profile.m[1:].sum())

    def uninstall(self) -> None:
        while self._saved:
            module, attr, func = self._saved.pop()
            setattr(module, attr, func)

    def metrics(self) -> dict[str, float]:
        """Per-layer sums over every traced op, in ms, bytes or counts."""
        total: dict[str, int] = defaultdict(int)
        child: dict[str, int] = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        out = {}
        for metric, (name, kind) in TIME_METRICS.items():
            ns = total[name] - (child[name] if kind == "self" else 0)
            out[metric] = ns / 1e6
        out["residue_walk.classify_residues.cold_ms"] = total[COLD] / 1e6
        out["residue_walk.classify_residues.warm_ms"] = total[WARM] / 1e6
        out["residue_walk.profile_bytes"] = float(self.profile_bytes)
        out["residue_walk.walk_edges"] = float(self.walk_edges)
        return out
