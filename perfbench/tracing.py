"""Outside-in tracer for the repstable layers.

The tracer wraps public functions of the package from here, without
editing the package: each function is replaced at the attribute its
callers resolve (a module global, a name another module imported with
``from ... import``, or a class attribute for methods).  Spans are linked
by a call stack (the benchmark is single-threaded), kept in memory, and
written out at the end of a run; :meth:`Tracer.uninstall` restores every
original function.

Hot leaf helpers (``GradedModule.eval_path``, ``GradedModule.act``,
``linalg.zeros``) are deliberately not wrapped, so that the traced run
stays close to the untraced one.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

# Wrapped functions, as (module, attribute path).  The metric names are
# "<module>.<attribute path>.<stat>".
TARGETS = [
    ("presentation", "parse_presentation"),
    ("presentation", "validate_gentle"),
    ("presentation", "AlgebraPresentation.path_normal_form"),
    ("repetitive", "build_repetitive_window"),
    ("repetitive", "RepetitiveWindow.enlarged"),
    ("repetitive", "RepetitiveWindow.projective"),
    ("linalg", "rref"),
    ("linalg", "solve"),
    ("linalg", "nullspace"),
    ("modules", "GradedModule.validate"),
    ("modules", "MorphismSystem.require_commutes"),
    ("modules", "MorphismSystem.solve"),
    ("modules", "hom_basis"),
    ("modules", "radical_hom"),
    ("modules", "splitness"),
    ("modules", "kernel_cokernel"),
    ("modules", "socle_radical"),
    ("modules", "injective_hull"),
    ("modules", "decompose"),
    ("modules", "find_isomorphism"),
    ("strings", "string_module"),
    ("strings", "enumerate_strings"),
    ("strings", "projective_words"),
    ("strings", "ar_sequence"),
    ("strings", "knit_component"),
    ("stable", "triangle_from_ses"),
    ("stable", "ar_triangle_from_sequence"),
    ("stable", "classify_irreducible"),
    ("stable", "rad_square_membership"),
    ("stable", "check_ar_axioms"),
    ("stable", "verify_shape_table"),
    ("cli", "cmd_knit"),
    ("cli", "cmd_triangles"),
    ("cli", "cmd_example4"),
]

# Per-layer metrics: name -> (unit, better).  Every traced run reports all
# of them; a layer the workload never enters reads 0.
_CALLS = "count", "lower"
_SECS = "s", "lower"
LAYER_METRICS = {
    "linalg.rref.calls": _CALLS,
    "linalg.rref.self_s": _SECS,
    "linalg.rref.cells": _CALLS,
    "linalg.rref.nnz_ratio": ("ratio", "higher"),
    "linalg.rref.max_cells": _CALLS,
    "linalg.solve.calls": _CALLS,
    "linalg.nullspace.calls": _CALLS,
    "modules.MorphismSystem.require_commutes.calls": _CALLS,
    "modules.MorphismSystem.require_commutes.self_s": _SECS,
    "modules.MorphismSystem.solve.calls": _CALLS,
    "modules.MorphismSystem.solve.self_s": _SECS,
    "modules.GradedModule.validate.calls": _CALLS,
    "modules.GradedModule.validate.total_s": _SECS,
    "modules.hom_basis.calls": _CALLS,
    "modules.hom_basis.total_s": _SECS,
    "modules.radical_hom.calls": _CALLS,
    "modules.radical_hom.total_s": _SECS,
    "modules.splitness.calls": _CALLS,
    "modules.splitness.total_s": _SECS,
    "modules.kernel_cokernel.calls": _CALLS,
    "modules.kernel_cokernel.total_s": _SECS,
    "modules.socle_radical.calls": _CALLS,
    "modules.socle_radical.total_s": _SECS,
    "modules.injective_hull.calls": _CALLS,
    "modules.injective_hull.total_s": _SECS,
    "modules.decompose.calls": _CALLS,
    "modules.decompose.total_s": _SECS,
    "modules.find_isomorphism.calls": _CALLS,
    "modules.find_isomorphism.total_s": _SECS,
    "modules.find_isomorphism.none": _CALLS,
    "strings.string_module.calls": _CALLS,
    "strings.string_module.distinct": _CALLS,
    "strings.string_module.reuse_ratio": ("ratio", "lower"),
    "strings.string_module.total_s": _SECS,
    "strings.enumerate_strings.calls": _CALLS,
    "strings.enumerate_strings.total_s": _SECS,
    "strings.projective_words.calls": _CALLS,
    "strings.projective_words.total_s": _SECS,
    "strings.ar_sequence.calls": _CALLS,
    "strings.ar_sequence.total_s": _SECS,
    "strings.ar_sequence.enlargements": _CALLS,
    "strings.knit_component.calls": _CALLS,
    "strings.knit_component.total_s": _SECS,
    "presentation.AlgebraPresentation.path_normal_form.calls": _CALLS,
    "presentation.AlgebraPresentation.path_normal_form.self_s": _SECS,
    "repetitive.build_repetitive_window.calls": _CALLS,
    "repetitive.build_repetitive_window.total_s": _SECS,
    "repetitive.RepetitiveWindow.projective.calls": _CALLS,
    "repetitive.RepetitiveWindow.projective.total_s": _SECS,
    "stable.triangle_from_ses.calls": _CALLS,
    "stable.triangle_from_ses.total_s": _SECS,
    "stable.ar_triangle_from_sequence.calls": _CALLS,
    "stable.ar_triangle_from_sequence.total_s": _SECS,
    "stable.classify_irreducible.calls": _CALLS,
    "stable.classify_irreducible.total_s": _SECS,
    "stable.verify_shape_table.calls": _CALLS,
    "stable.verify_shape_table.total_s": _SECS,
    "stable.check_ar_axioms.calls": _CALLS,
    "stable.check_ar_axioms.total_s": _SECS,
    "stable.check_ar_axioms.universe_size": _CALLS,
    "stable.rad_square_membership.calls": _CALLS,
    "stable.rad_square_membership.total_s": _SECS,
    "stable.rad_square_membership.universe_size": _CALLS,
    "stable.rad_square_membership.span_vectors": _CALLS,
    "cli.cmd_knit.total_s": _SECS,
    "cli.cmd_triangles.total_s": _SECS,
    "cli.cmd_example4.self_s": _SECS,
}

# The field has no call boundary of its own, so these metrics are also
# reported per field of the operation that caused them.
FIELD_SPLIT = [
    "linalg.rref.calls",
    "linalg.rref.self_s",
    "linalg.rref.cells",
    "modules.MorphismSystem.require_commutes.self_s",
    "modules.MorphismSystem.solve.self_s",
    "modules.hom_basis.total_s",
    "modules.socle_radical.total_s",
    "modules.injective_hull.total_s",
    "strings.string_module.total_s",
    "stable.check_ar_axioms.total_s",
]
FIELDS = ("qq", "gf101")
for _name in FIELD_SPLIT:
    for _fld in FIELDS:
        LAYER_METRICS["%s.%s" % (_name, _fld)] = LAYER_METRICS[_name]

# Reported next to the layer metrics: the wall time of a traced pass, the
# base of every layer share, and traced wall_s / untraced wall_s.
WALL_METRIC = "trace.wall_s"
OVERHEAD_METRIC = "trace.overhead"
LAYER_METRICS[WALL_METRIC] = _SECS
LAYER_METRICS[OVERHEAD_METRIC] = ("ratio", "lower")


def _resolve(path):
    """(owner, attribute name, function) for a TARGETS entry."""
    module = importlib.import_module("repstable." + path[0])
    owner = module
    parts = path[1].split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


def _count_nonzeros(a):
    return sum(1 for row in a for x in row if x)


class Tracer:
    """Span recorder and per-layer counters for one traced run.

    ``field`` names the field of the operation in progress (``"qq"``,
    ``"gf101"`` or None); the split metrics accumulate under it.
    ``pass_no`` separates passes when distinct string modules are counted.
    Counters from traced child processes are appended to ``child_raws``;
    ``spans_path`` is the prefix of their span files.
    """

    def __init__(self, spans_path=None):
        self.field = None
        self.pass_no = 0
        self.child_raws = []
        self.spans_path = spans_path
        self._stack = []            # open spans: [name, child seconds, id]
        self._names = []
        self._span_parent = array("q")
        self._span_name = array("H")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stats = {}            # (name, field) -> [calls, total, self]
        self._counts = {}           # (name, field) -> number
        self._max_cells = 0
        self._string_keys = set()
        self._patched = []          # (owner, attribute, original)

    # -- installing and removing the wrappers -------------------------------

    def install(self):
        # Resolve (and so import) every layer before patching any, so that
        # no module binds a wrapper by ``from ... import`` while loading.
        resolved = [(path, *_resolve(path)) for path in TARGETS]
        originals = {}
        for path, owner, attr, fn in resolved:
            wrapper = self._wrap("%s.%s" % path, fn)
            originals[id(fn)] = wrapper
            self._patch(owner, attr, fn, wrapper)
        # Names imported with ``from ... import`` are separate module
        # globals bound to the original object; rebind those as well.
        for modname, module in list(sys.modules.items()):
            if modname != "repstable" and not modname.startswith("repstable."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._patch(module, attr, value, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        perf = time.perf_counter
        name_idx = len(self._names)
        self._names.append(name)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if before is not None:
                # Counting is tracer work: keep it out of the parent's
                # self time.
                h0 = perf()
                before(args)
                if parent is not None:
                    parent[1] += perf() - h0
            span_id = len(self._span_start)
            frame = [name, 0.0, span_id]
            self._span_parent.append(parent[2] if parent else -1)
            self._span_name.append(name_idx)
            self._span_start.append(0.0)
            self._span_end.append(0.0)
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                elapsed = t1 - t0
                self._span_start[span_id] = t0
                self._span_end[span_id] = t1
                if parent is not None:
                    parent[1] += elapsed
                st = self._stats.get((name, self.field))
                if st is None:
                    st = self._stats[(name, self.field)] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += elapsed
                st[2] += elapsed - frame[1]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _add(self, name, value):
        key = (name, self.field)
        self._counts[key] = self._counts.get(key, 0) + value

    def _parent_name(self):
        return self._stack[-1][0] if self._stack else None

    # -- per-function counters (called around the wrapped call) -------------

    def _before_linalg_rref(self, args):
        a = args[1]
        rows = len(a)
        cells = rows * (len(a[0]) if rows else 0)
        self._add("linalg.rref.cells", cells)
        self._add("linalg.rref.nnz", _count_nonzeros(a))
        self._max_cells = max(self._max_cells, cells)

    def _before_linalg_solve(self, args):
        a = args[1]
        if self._parent_name() == "stable.rad_square_membership" and a:
            self._add("stable.rad_square_membership.span_vectors", len(a[0]))

    def _before_strings_string_module(self, args):
        win, w, fld = args[:3]
        self._string_keys.add((self.pass_no, win.lo, win.hi, repr(fld),
                               w.source, w.letters))

    def _before_repetitive_RepetitiveWindow_enlarged(self, args):
        if any(frame[0] == "strings.ar_sequence" for frame in self._stack):
            self._add("strings.ar_sequence.enlargements", 1)

    def _before_stable_check_ar_axioms(self, args):
        self._add("stable.check_ar_axioms.universe_size", len(args[1]))

    def _before_stable_rad_square_membership(self, args):
        self._add("stable.rad_square_membership.universe_size", len(args[1]))

    def _after_modules_find_isomorphism(self, args, result):
        if result is None:
            self._add("modules.find_isomorphism.none", 1)

    # -- results ------------------------------------------------------------

    def raw(self):
        """Plain counters, summable across runs and processes."""
        return {
            "stats": [[n, f, *v] for (n, f), v in self._stats.items()],
            "counts": [[n, f, v] for (n, f), v in self._counts.items()],
            "max_cells": self._max_cells,
            "distinct_strings": len(self._string_keys),
        }

    def write_spans(self, path):
        """Write every span as a TSV line: id, parent id, name, start and
        end in microseconds from the first span."""
        t0 = self._span_start[0] if self._span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_us\tend_us\n")
            names = self._names
            for i in range(len(self._span_start)):
                fh.write("%d\t%d\t%s\t%.1f\t%.1f\n" % (
                    i, self._span_parent[i], names[self._span_name[i]],
                    (self._span_start[i] - t0) * 1e6,
                    (self._span_end[i] - t0) * 1e6))


def merge_raw(raws):
    """Sum raw counters from several tracers (e.g. one per CLI process)."""
    stats, counts = {}, {}
    max_cells = distinct = 0
    for raw in raws:
        for name, fld, calls, total, self_s in raw["stats"]:
            st = stats.setdefault((name, fld), [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
        for name, fld, value in raw["counts"]:
            counts[(name, fld)] = counts.get((name, fld), 0) + value
        max_cells = max(max_cells, raw["max_cells"])
        distinct += raw["distinct_strings"]
    return {
        "stats": [[n, f, *v] for (n, f), v in stats.items()],
        "counts": [[n, f, v] for (n, f), v in counts.items()],
        "max_cells": max_cells,
        "distinct_strings": distinct,
    }


def layer_metrics(raw, passes):
    """Per-layer metric values, per pass of the workload's job."""
    by_field = {}       # (name, stat) -> {field: value}

    def put(name, stat, fld, value):
        slot = by_field.setdefault((name, stat), {})
        slot[fld] = slot.get(fld, 0) + value

    for name, fld, calls, total, self_s in raw["stats"]:
        put(name, "calls", fld, calls)
        put(name, "total_s", fld, total)
        put(name, "self_s", fld, self_s)
    for name, fld, value in raw["counts"]:
        base, stat = name.rsplit(".", 1)
        put(base, stat, fld, value)

    def total(key, fld=None):
        slot = by_field.get(key, {})
        return slot.get(fld, 0) if fld else sum(slot.values())

    out = {}
    for metric in LAYER_METRICS:
        if metric in (WALL_METRIC, OVERHEAD_METRIC):
            continue
        fld = None
        name = metric
        if metric.rsplit(".", 1)[1] in FIELDS:
            name, fld = metric.rsplit(".", 1)
        base, stat = name.rsplit(".", 1)
        out[metric] = total((base, stat), fld) / passes
    out["linalg.rref.max_cells"] = raw["max_cells"]
    cells = total(("linalg.rref", "cells"))
    out["linalg.rref.nnz_ratio"] = (total(("linalg.rref", "nnz")) / cells
                                    if cells else 0.0)
    calls = total(("strings.string_module", "calls"))
    out["strings.string_module.distinct"] = raw["distinct_strings"] / passes
    out["strings.string_module.reuse_ratio"] = (
        1.0 - raw["distinct_strings"] / calls if calls else 0.0)
    return out
