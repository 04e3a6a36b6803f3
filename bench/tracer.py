"""Per-layer tracing by wrapping public heckecells functions at run time.

Each wrapped call is a span (name, start, end, parent).  Self time is the
span's duration minus the time covered by its child spans; it is derived
as the spans close, so only aggregates stay in memory, plus the full span
records of the coarse operations in ``COARSE``.  Every layer runs serially
on one thread, so a layer's self time is the most a change to it can save.

``mult_gen`` (a cached, sub-microsecond call) is counted, not timed: a call
is a miss when it reaches ``AffineWeyl.mult``.  ``LaurentPoly`` arithmetic is
timed as one span name, ``laurent``.  Cache sizes are read from the memo
dictionaries of the contexts after every operation.
"""

from __future__ import annotations

import importlib
import sys
import time

# span name -> (module, attribute path) of the wrapped callables
TIMED = {
    "rootdata.tensor_multiplicity": [("rootdata", "RootDatum.tensor_multiplicity")],
    "rootdata.all_weights": [("rootdata", "RootDatum.all_weights")],
    "rootdata.in_root_lattice": [("rootdata", "RootDatum.in_root_lattice")],
    "affine.mult": [("affine", "AffineWeyl.mult")],
    "affine.from_word_str": [("affine", "AffineWeyl.from_word_str")],
    "affine.to_word": [("affine", "AffineWeyl.to_word")],
    "affine.bruhat_leq": [("affine", "AffineWeyl.bruhat_leq")],
    "affine.in_fW": [("affine", "AffineWeyl.in_fW")],
    "affine.enumerate_fW": [("affine", "AffineWeyl.enumerate_fW")],
    "affine.reduced_word": [("affine", "AffineWeyl.reduced_word")],
    "affine.alcove_of": [("affine", "AffineWeyl.alcove_of")],
    "laurent": [
        ("laurent", f"LaurentPoly.{m}")
        for m in ("__add__", "__sub__", "__neg__", "__mul__", "scale", "shift", "bar", "serialize", "deserialize")
    ],
    "hecke.asph_canonical": [("hecke", "AsphModule.canonical")],
    "hecke.asph_to_canonical": [
        ("hecke", "ZeroBasisProvider.asph_to_canonical"),
        ("hecke", "TableBasisProvider.asph_to_canonical"),
    ],
    "hecke.asph_mul_by_kl_gen": [("hecke", "AsphModule.mul_by_kl_gen")],
    "hecke.kl_basis": [("hecke", "Hecke.kl_basis")],
    "hecke.table_dump": [("hecke", "CanonicalBasisTable.dump_text"), ("hecke", "CanonicalBasisTable.dump_json")],
    "hecke.table_parse": [("hecke", "CanonicalBasisTable.parse")],
    # the constructor is where a table is validated
    "hecke.table_validate": [("hecke", "CanonicalBasisTable.__init__")],
    "cells.cell_edges": [("cells", "cell_edges")],
    "cells.right_cells": [("cells", "right_cells")],
    "tilting.fusion_multiplicity": [("tilting", "fusion_multiplicity")],
    "tilting.translate": [("tilting", "tensor_translate")],
    "orbits.build_orbit_table": [("orbits", "build_orbit_table")],
    "orbits.humphreys_predict": [("orbits", "humphreys_predict")],
    "diagram.render_cell_diagram": [("diagram", "render_cell_diagram")],
    "cli.main": [("cli", "main")],
}

# spans whose full records are kept and written out
COARSE = {
    "cli.main",
    "cells.right_cells",
    "cells.cell_edges",
    "hecke.table_dump",
    "hecke.table_parse",
    "hecke.table_validate",
    "orbits.build_orbit_table",
    "diagram.render_cell_diagram",
}

# layers with a <layer>.total_self_s metric (laurent is one span: laurent.self_s)
LAYERS = ("rootdata", "affine", "hecke", "cells", "tilting", "orbits", "diagram", "cli")

# the end-to-end metric and workload each per-layer metric should move,
# matched by the longest name prefix
SHOULD_MOVE = {
    "rootdata": "query_p90_ms, queries_per_s on query-mix",
    "rootdata.in_root_lattice": "wall_s on table-roundtrip",
    "affine": "wall_s on table-roundtrip; query_p50_ms on query-mix",
    "affine.mult_gen": "wall_s on cells-frontier",
    "affine.in_fW": "wall_s on cells-frontier",
    "affine.enumerate_fW": "wall_s on cells-frontier",
    "affine.reduced_word": "wall_s on cells-frontier",
    "affine.alcove_of": "query_p50_ms on query-mix",
    "laurent": "wall_s on cells-frontier and table-roundtrip",
    "hecke": "wall_s on cells-frontier; setup_s on query-mix",
    "hecke.kl_basis": "wall_s on table-roundtrip",
    "hecke.table": "wall_s on table-roundtrip",
    "cells": "wall_s on cells-frontier",
    "tilting": "query_p90_ms on query-mix",
    "orbits": "query_p50_ms on query-mix",
    "diagram": "wall_s on cells-frontier",
    "cli": "wall_s on cells-frontier",
    "cli.defect_escapes": "falls to 0 when the known-defect inputs get a typed error (query-mix)",
    "fail_frac": "stays 0: a failed operation is a regression",
    "trace": "tracing cost, not a program metric",
}


def should_move(metric: str) -> str:
    prefixes = [p for p in SHOULD_MOVE if metric == p or metric.startswith(p + ".")]
    return SHOULD_MOVE[max(prefixes, key=len)] if prefixes else ""

# metric name -> unit, in report order (calls/self_s pairs are expanded below)
_CALLS_AND_SELF = [
    "rootdata.tensor_multiplicity",
    "rootdata.all_weights",
    "rootdata.in_root_lattice",
    "affine.mult",
    "affine.from_word_str",
    "affine.to_word",
    "affine.bruhat_leq",
    "affine.in_fW",
    "affine.enumerate_fW",
    "affine.reduced_word",
    "affine.alcove_of",
    "hecke.asph_canonical",
    "hecke.asph_to_canonical",
    "hecke.asph_mul_by_kl_gen",
    "hecke.kl_basis",
    "tilting.fusion_multiplicity",
    "orbits.humphreys_predict",
]
_SELF_ONLY = [
    "hecke.table_dump",
    "hecke.table_parse",
    "hecke.table_validate",
    "cells.cell_edges",
    "cells.right_cells",
    "tilting.translate",
    "orbits.build_orbit_table",
    "diagram.render_cell_diagram",
    "cli.main",
]
COUNTS = [
    "hecke.asph_to_canonical.terms",
    "hecke.table_dump.bytes",
    "cells.ball_size",
    "cells.edges",
    "cells.components",
    "cells.trusted",
    "diagram.bytes",
    "cli.output_bytes",
    "cli.error_exits",
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit (values are per pass of the job list)."""
    units = {}
    for name in _CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in _SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    units["affine.mult_gen.calls"] = "count"
    units["affine.mult_gen.hit_ratio"] = "ratio"
    units["laurent.ops"] = "count"
    units["laurent.self_s"] = "s"
    units["hecke.asph_canonical.cache_entries"] = "count"
    units["hecke.kl_basis.cache_entries"] = "count"
    for name in COUNTS:
        units[name] = "bytes" if name.endswith("bytes") else "count"
    for layer in LAYERS:
        units[f"{layer}.total_self_s"] = "s"
    units["cli.defect_escapes"] = "count"
    units["fail_frac"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


def _cache_len(obj, *attrs) -> int:
    return sum(len(getattr(obj, a, ())) for a in attrs)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [child seconds, name]
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.spans: list[tuple] = []  # (name, start, end, parent)
        self.paused = [True]  # only operations are traced, not checks
        self.mult_gen = [0, 0]  # calls, misses
        self.contexts: list = []  # objects whose memo caches are sampled
        self.job_contexts: list = []  # contexts created by the running operation
        self.cache_max = {"hecke.asph_canonical.cache_entries": 0, "hecke.kl_basis.cache_entries": 0}

    # -- installation --------------------------------------------------------

    def install(self):
        post = {
            "hecke.asph_to_canonical": lambda r: self._count("hecke.asph_to_canonical.terms", len(r)),
            "hecke.table_dump": lambda r: self._count("hecke.table_dump.bytes", len(r)),
            "cells.cell_edges": lambda r: self._count("cells.edges", len(r)),
            "cells.right_cells": self._partition_counts,
            "diagram.render_cell_diagram": lambda r: self._count("diagram.bytes", len(r)),
        }
        for name, targets in TIMED.items():
            for module, path in targets:
                self._patch(module, path, lambda fn, name=name: self._timed(name, fn, post.get(name)))
        self._patch("affine", "AffineWeyl.mult_gen", self._counted_mult_gen)
        for cls in ("Hecke", "AsphModule", "TableBasisProvider"):
            self._patch("hecke", f"{cls}.__init__", self._registering)

    def _patch(self, module, path, make):
        mod = importlib.import_module(f"heckecells.{module}")
        *owner_path, attr = path.split(".")
        owner = mod
        for part in owner_path:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
            return
        wrapped = make(raw)
        setattr(owner, attr, wrapped)
        if not owner_path:
            # module-level function: replace every imported alias too
            for name, m in list(sys.modules.items()):
                if name == "heckecells" or name.startswith("heckecells."):
                    for k, v in list(vars(m).items()):
                        if v is raw:
                            setattr(m, k, wrapped)

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name, fn, post):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack, spans, paused = self.stack, self.spans, self.paused
        keep = name in COARSE
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            frame = [0.0, name]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur - frame[0]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += dur
                if keep:
                    spans.append((name, start, end, parent[1] if parent else None))
            if post is not None:
                post(result)
            return result

        return wrapper

    def _counted_mult_gen(self, fn):
        counter = self.mult_gen
        mult_calls = self.stats.setdefault("affine.mult", [0, 0.0])
        paused = self.paused

        def mult_gen(aw, a, i):
            if paused[0]:
                return fn(aw, a, i)
            before = mult_calls[0]
            out = fn(aw, a, i)
            counter[0] += 1
            if mult_calls[0] != before:
                counter[1] += 1
            return out

        return mult_gen

    def _registering(self, init):
        job_contexts = self.job_contexts

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            job_contexts.append(obj)

        return __init__

    def _count(self, name, n):
        self.counts[name] += n

    def _partition_counts(self, part):
        self._count("cells.ball_size", len(part.cell_of))
        self._count("cells.components", len(part.cells))
        self._count("cells.trusted", sum(part.trusted))

    # -- per-operation bookkeeping ------------------------------------------------

    def after_op(self):
        """Sample cache sizes; drop the contexts the operation created."""
        objs = self.contexts + self.job_contexts
        for metric, attrs in (
            ("hecke.asph_canonical.cache_entries", ("_canon_cache", "_canon")),
            ("hecke.kl_basis.cache_entries", ("_kl_cache",)),
        ):
            size = sum(_cache_len(o, *attrs) for o in objs)
            self.cache_max[metric] = max(self.cache_max[metric], size)
        self.job_contexts.clear()
        self.stack.clear()  # in case an escaping RecursionError broke a span

    def cli_outcome(self, out):
        """Count a CLI call's output; ``out`` is None when an exception escaped."""
        if out is None or out[0] != 0:
            self._count("cli.error_exits", 1)
        if out is not None:
            self._count("cli.output_bytes", len(out[1].encode("utf-8")))

    # -- report -------------------------------------------------------------------

    def metrics(self, passes: int, speed: float) -> dict[str, float]:
        """Per-layer values per pass (caches: largest size seen).

        Times are scaled by the host speed relative to nominal, like the
        end-to-end times.
        """
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls / passes
            out[f"{name}.self_s"] = self_s * speed / passes
        out["laurent.ops"] = out.pop("laurent.calls")
        calls, misses = self.mult_gen
        out["affine.mult_gen.calls"] = calls / passes
        out["affine.mult_gen.hit_ratio"] = 1.0 - misses / calls if calls else 0.0
        for name, n in self.counts.items():
            out[name] = n / passes
        out.update(self.cache_max)
        for layer in LAYERS:
            out[f"{layer}.total_self_s"] = sum(
                s for name, (_, s) in self.stats.items() if name.split(".")[0] == layer
            ) * speed / passes
        units = metric_units()
        return {k: v for k, v in out.items() if k in units}
