"""Span recorders wrapped around the calls into each freeferm layer.

The wrappers live here, not in the program: ``install`` replaces the names
the CLI and the workloads look up (``freeferm.cli.two_rdm``,
``freeferm.io.read_program``, ``freeferm.shadows.ShadowAccumulator.merge``
and so on) with timing shims. A name that no longer exists is reported as an
absent layer and skipped, so the traced run survives refactors that rename
or delete private helpers.

Spans are kept in memory as (layer, start, end) and reduced to per-layer
busy time when the round ends. Worker threads of ``shadow-sim --threads 2``
record spans too, so busy time can exceed wall time; ``cli.self_s`` is the
part of each CLI call that the union of its layer spans leaves uncovered.
"""
from __future__ import annotations

import importlib
import os
import threading
import time
from contextlib import contextmanager

# layer metric (without the _s suffix) -> names the calls go through
LAYERS = {
    "shadows.two_rdm": ["freeferm.cli:two_rdm"],
    "shadows.mitigate": ["freeferm.cli:mitigate"],
    "shadows.estimates": ["freeferm.shadows:ShadowAccumulator.estimates"],
    "shadows.sample_bits": ["freeferm.cli:_sample_bits_batch"],
    "shadows.ensemble": ["freeferm.cli:_sample_ensemble_batch"],
    "shadows.noise": ["freeferm.shadows:NoiseModel.apply_batch"],
    "shadows.accumulate": ["freeferm.shadows:ShadowAccumulator.add_batch",
                           "freeferm.shadows:ShadowAccumulator.merge"],
    "shadows.frame": ["freeferm.shadows:_Frame"],
    "shadows.exact_two_rdm": ["freeferm.cli:exact_two_rdm"],
    "gaussian.slater_covariance": ["freeferm.cli:slater_covariance"],
    "io.write_estimates": ["freeferm.io:write_estimates"],
    "io.read_integrals": ["freeferm.io:read_integrals"],
    "io.read_matrix": ["freeferm.io:read_matrix"],
    "io.write_program": ["freeferm.io:write_program"],
    "io.read_program": ["freeferm.io:read_program"],
    "partition.majorana_form": ["freeferm.cli:majorana_form"],
    "partition.greedy": ["freeferm.cli:greedy_partition"],
    "partition.analytic": ["freeferm.cli:analytic_partition"],
    "partition.from_template": ["freeferm.cli:partition_from_template"],
    "partition.norms_report": ["freeferm.cli:norms_report"],
    "circuits.compile_naive": ["freeferm.cli:compile_naive"],
    "circuits.compile_blocked": ["freeferm.cli:compile_blocked"],
    "circuits.program_to_orthogonal": ["freeferm.circuits:program_to_orthogonal"],
}


def _count_snapshots(rec, args, result):
    rec.counts["shadows.snapshots"] += args[1].shape[0]  # add_batch(self, perms, ...)


def _count_two_rdm(rec, args, result):
    rec.counts["shadows.two_rdm_calls"] += 1


def _count_estimate_bytes(rec, args, result):
    rec.counts["io.estimates_bytes"] += os.path.getsize(args[0])


def _count_terms(rec, args, result):
    rec.counts["partition.terms"] += len(result.terms)


def _count_sets(rec, args, result):
    rec.counts["partition.sets"] += len(result.sets)


# counters read at the layer boundary, after the span has ended
COUNTERS = {
    "freeferm.shadows:ShadowAccumulator.add_batch": _count_snapshots,
    "freeferm.cli:two_rdm": _count_two_rdm,
    "freeferm.io:write_estimates": _count_estimate_bytes,
    "freeferm.cli:majorana_form": _count_terms,
    "freeferm.cli:greedy_partition": _count_sets,
    "freeferm.cli:partition_from_template": _count_sets,
}
COUNT_NAMES = ("shadows.snapshots", "shadows.two_rdm_calls", "io.estimates_bytes",
               "partition.terms", "partition.sets")


class Recorder:
    """In-memory spans and counts for one round."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.cli_spans: list[tuple[str, float, float]] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._count_lock = threading.Lock()  # add_batch runs on pool threads

    def _wrap(self, layer, target, fn):
        counter = COUNTERS.get(target)
        spans = self.spans

        def shim(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            spans.append((layer, start, time.perf_counter()))
            if counter is not None:
                with self._count_lock:
                    counter(self, args, result)
            return result

        return shim

    def install(self):
        """Replace every layer entry point; missing names are recorded as absent."""
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, path = target.split(":")
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                try:
                    for part in parents:
                        owner = getattr(owner, part)
                    fn = getattr(owner, attr)
                except AttributeError:
                    self.absent.append(target)
                    continue
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(layer, target, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    @contextmanager
    def cli_call(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.cli_spans.append((name, start, time.perf_counter()))

    def summary(self) -> dict:
        """Per-layer busy seconds, counts, and CLI time no layer span covers."""
        out = {f"{layer}_s": 0.0 for layer in LAYERS}
        for layer, start, end in self.spans:
            out[f"{layer}_s"] += end - start
        out.update(self.counts)
        self_s = 0.0
        for _, c_start, c_end in self.cli_spans:
            inside = [(max(s, c_start), min(e, c_end)) for _, s, e in self.spans
                      if s < c_end and e > c_start]
            self_s += (c_end - c_start) - _union_length(inside)
        out["cli.self_s"] = self_s
        out["cli.calls_s"] = sum(e - s for _, s, e in self.cli_spans)
        out["layers.covered_s"] = _union_length([(s, e) for _, s, e in self.spans])
        return out


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
