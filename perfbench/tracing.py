"""Span tracing of shiftdetect's public functions, from outside the package.

`Tracer.install` replaces each traced function with a wrapper in every
shiftdetect module namespace that holds it, so calls between layers (for
example `fdr.detect` -> `fdr.empirical_pvalues`, or `pfabound.pfa_bound` ->
`pfabound.autocorrelation`) are seen, not only the calls the benchmark makes.
Each call records one span: name, start, end, parent span and run id (one
run id per CLI call).  Spans stay in compact in-memory columns and are
written out when the run ends.

Work counts (flops, bytes, pixels, p-values) are computed from array shapes
and file sizes at the same boundaries; they are labelled as computed, not
measured by hardware counters.
"""

from __future__ import annotations

import array
import csv
import functools
import gzip
import inspect
import os
import sys
import time

import numpy as np

from shiftdetect.errors import DataError, NumericError

LAYERS = ("pipeline", "dictionary", "similarity", "teststat", "nullmodel",
          "fdr", "pfabound", "simulate", "cli")


def _maps_bytes(tracer, b, result):
    outdir, prefix = b["outdir"], b["prefix"]
    return {"bytes": sum(
        os.path.getsize(os.path.join(outdir, f"{prefix}_{n}.{ext}"))
        for n in b["output"].maps for ext in ("csv", "pgm"))}


def _path_bytes(tracer, b, result):
    return {"bytes": os.path.getsize(b["path"])}


def _score_counts(tracer, b, result):
    n, l = b["spectra"].shape
    m = b["atoms"].shape[0]
    return {"flops": 2 * n * m * l, "bytes": 8 * (n * l + m * l + n * m)}


def _generate_bytes(tracer, b, result):
    cube, truth = result
    return {"bytes": cube.data.nbytes + truth.h1_mask.nbytes
            + truth.amplitudes.nbytes + truth.true_shifts.nbytes}


# (module, attribute, span name, counter) -- the counter maps the tracer,
# the bound arguments (defaults applied) and the result to computed work
# counts.  Class methods are named "Class.method"; reading and writing an
# artifact share one span name.
TARGETS = (
    ("pipeline", "load_cube", "pipeline.load_cube", _path_bytes),
    ("pipeline", "save_cube", "pipeline.save_cube", _path_bytes),
    ("pipeline", "preprocess", "pipeline.preprocess", None),
    ("pipeline", "estimate_reference", "pipeline.estimate_reference", None),
    ("pipeline", "run_detection", "pipeline.run_detection", None),
    ("pipeline", "write_maps", "pipeline.write_maps", _maps_bytes),
    ("dictionary", "build_lss", "dictionary.build_lss", None),
    ("dictionary", "autocorrelation", "dictionary.autocorrelation", None),
    ("dictionary", "expected_max_gain", "dictionary.expected_max_gain", None),
    ("dictionary", "Dictionary.save_csv", "dictionary.artifact",
     _path_bytes),
    ("dictionary", "Dictionary.load_csv", "dictionary.artifact",
     _path_bytes),
    ("similarity", "score_matrix", "similarity.score_matrix", _score_counts),
    ("teststat", "compute_field", "teststat.compute_field",
     lambda t, b, r: {"pixels": r.n}),
    ("nullmodel", "fit_null", "nullmodel.fit_null", None),
    ("nullmodel", "empirical_pvalues", "nullmodel.empirical_pvalues",
     lambda t, b, r: {"values": r.size}),
    ("nullmodel", "NullModel.save_csv", "nullmodel.artifact",
     _path_bytes),
    ("nullmodel", "NullModel.load_csv", "nullmodel.artifact",
     _path_bytes),
    ("fdr", "detect", "fdr.detect",
     lambda t, b, r: t.note_decision(b["field"])),
    ("fdr", "bh_reject", "fdr.bh_reject", None),
    ("fdr", "qvalues", "fdr.qvalues", None),
    ("pfabound", "threshold_for_pfa", "pfabound.threshold_for_pfa", None),
    ("pfabound", "pfa_bound", "pfabound.pfa_bound", None),
    ("pfabound", "normal_cdf_3d", "pfabound.normal_cdf_3d", None),
    ("pfabound", "normal_cdf_2d", "pfabound.normal_cdf_2d", None),
    ("simulate", "generate", "simulate.generate", _generate_bytes),
    ("cli", "main", "cli", lambda t, b, r: {"errors": int(r != 0)}),
)

# Per-layer metrics reported by a traced run, with their units.  Every
# workload reports all of them; a layer a workload never enters reads 0.
METRICS = (
    ("pipeline.load_cube.self_s", "s"), ("pipeline.load_cube.bytes", "B"),
    ("pipeline.save_cube.self_s", "s"), ("pipeline.save_cube.bytes", "B"),
    ("pipeline.preprocess.self_s", "s"),
    ("pipeline.estimate_reference.self_s", "s"),
    ("pipeline.run_detection.self_s", "s"),
    ("pipeline.write_maps.self_s", "s"), ("pipeline.write_maps.bytes", "B"),
    ("dictionary.build_lss.self_s", "s"),
    ("dictionary.autocorrelation.calls", "count"),
    ("dictionary.autocorrelation.self_s", "s"),
    ("dictionary.expected_max_gain.self_s", "s"),
    ("dictionary.artifact.self_s", "s"), ("dictionary.artifact.bytes", "B"),
    ("similarity.score_matrix.self_s", "s"),
    ("similarity.score_matrix.flops", "flop"),
    ("similarity.score_matrix.bytes", "B"),
    ("teststat.compute_field.self_s", "s"),
    ("teststat.compute_field.pixels", "count"),
    ("nullmodel.fit_null.self_s", "s"),
    ("nullmodel.empirical_pvalues.self_s", "s"),
    ("nullmodel.empirical_pvalues.values", "count"),
    ("nullmodel.pvalue_evals_per_tested_px", "ratio"),
    ("nullmodel.artifact.self_s", "s"), ("nullmodel.artifact.bytes", "B"),
    ("fdr.detect.calls", "count"), ("fdr.detect.self_s", "s"),
    ("fdr.bh_reject.self_s", "s"), ("fdr.qvalues.self_s", "s"),
    ("pfabound.threshold_for_pfa.calls", "count"),
    ("pfabound.pfa_bound.calls", "count"),
    ("pfabound.pfa_bound.self_s", "s"),
    ("pfabound.normal_cdf_3d.calls", "count"),
    ("pfabound.normal_cdf_3d.self_s", "s"),
    ("pfabound.normal_cdf_2d.calls", "count"),
    ("pfabound.normal_cdf_2d.self_s", "s"),
    ("simulate.generate.calls", "count"), ("simulate.generate.self_s", "s"),
    ("simulate.generate.bytes", "B"),
    ("cli.self_s", "s"),
) + tuple((f"{layer}.errors", "count") for layer in LAYERS)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_col = array.array("i")
        self.parent_col = array.array("q")
        self.run_col = array.array("i")
        self.start_col = array.array("d")
        self.end_col = array.array("d")
        self._stack: list = []
        self.run_id = -1
        self.counts: dict = {}        # (run id, counter key) -> total
        self.decided: dict = {}       # run id -> {id(field): tested pixels}
        self.t0 = time.perf_counter()

    def begin_run(self, run_id: int) -> None:
        self.run_id = run_id

    def _add(self, key, value) -> None:
        k = (self.run_id, key)
        self.counts[k] = self.counts.get(k, 0) + value

    def wrap(self, span: str, fn, counter=None):
        layer = span.split(".")[0]
        nid = self._name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        sig = inspect.signature(fn)
        names, parents, runs = self.name_col, self.parent_col, self.run_col
        starts, ends, stack = self.start_col, self.end_col, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except (DataError, NumericError):
                self._add(f"{layer}.errors", 1)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(self, bound.arguments,
                                          result).items():
                    self._add(f"{span}.{key}", value)
            return result

        return traced

    def note_decision(self, field) -> dict:
        """Remember a field that a decision was made on; its pixels are the
        tested pixels of the p-value ratio.  Holding the field keeps its id
        unique for the run."""
        self.decided.setdefault(self.run_id, {})[id(field)] = (field, field.n)
        return {}

    def install(self) -> None:
        """Wrap every target in each shiftdetect namespace that holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "shiftdetect"
                                         or name.startswith("shiftdetect."))]
        for module_name, attr, span, counter in TARGETS:
            module = sys.modules[f"shiftdetect.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = self.wrap(span, raw.__func__, counter)
                    setattr(cls, meth, classmethod(wrapped))
                else:
                    setattr(cls, meth, self.wrap(span, raw, counter))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(span, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def columns(self):
        """Copies of the span columns (a view would pin the arrays' size)."""
        return tuple(np.array(col) for col in (
            self.name_col, self.parent_col, self.run_col, self.start_col,
            self.end_col))

    def layer_metrics(self, run_ids) -> dict:
        """Per-layer metrics summed over the given run ids (one workload
        pass): self time and calls from the spans, computed counts from the
        counters."""
        name, parent, run, start, end = self.columns()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        sel = np.isin(run, np.asarray(list(run_ids), dtype=np.int32))
        totals = {}
        for nid, span in enumerate(self.names):
            pick = sel & (name == nid)
            totals[f"{span}.self_s"] = float(self_time[pick].sum())
            totals[f"{span}.calls"] = int(np.count_nonzero(pick))
        for (rid, key), value in self.counts.items():
            if rid in run_ids:
                totals[key] = totals.get(key, 0) + value
        tested = sum(n for rid in run_ids
                     for _, n in self.decided.get(rid, {}).values())
        values = totals.get("nullmodel.empirical_pvalues.values", 0)
        totals["nullmodel.pvalue_evals_per_tested_px"] = \
            values / tested if tested else 0.0
        return {key: totals.get(key, 0) for key, _ in METRICS}

    def calls_by_parent(self, span: str, run_ids) -> dict:
        """Calls of `span` grouped by the name of the calling span."""
        name, parent, run, _, _ = self.columns()
        nid = self.names.index(span) if span in self.names else -1
        pick = (name == nid) & np.isin(run, np.asarray(list(run_ids),
                                                       dtype=np.int32))
        out = {}
        for p in parent[pick]:
            key = self.names[name[p]] if p >= 0 else "<benchmark>"
            out[key] = out.get(key, 0) + 1
        return out

    def write(self, path) -> None:
        """All spans as gzip'd CSV, times in seconds from tracer creation."""
        name, parent, run, start, end = self.columns()
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "parent", "run", "start_s",
                             "end_s"])
            for i in range(start.size):
                writer.writerow([i, self.names[name[i]], int(parent[i]),
                                 int(run[i]), "%.9f" % (start[i] - self.t0),
                                 "%.9f" % (end[i] - self.t0)])
