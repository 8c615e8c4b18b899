"""Opt-in span tracer for the benchmark's traced run.

The tracer wraps public names of the ``moritacat`` modules from outside:
every public module-level function, and a fixed list of public methods
of public classes (the ``@`` operator of ``ExactMatrix`` and the
``MatrixSpan`` constructor among them).  A wrapped function is replaced
wherever a module holds it, so ``from .scalar import nullspace``
bindings and function-local imports are traced too.  Cheap accessors
(``ExactMatrix.entry``, scalar arithmetic) are not wrapped: their time
counts as self time of the traced caller.

Spans live in flat in-memory arrays (name, start, end, parent, operation
id) and are written out once, after the timed loop.  A span's self time
is its duration minus the time its child spans cover.  The tracer
records only while ``active`` is set; the untraced runs never install it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array
from collections import defaultdict

LAYERS = (
    "scalar",
    "starcat",
    "completion",
    "semisimple",
    "homotopy",
    "ktheory",
    "presentations",
    "jsonio",
    "cli",
)

# Public methods of public classes that are layer boundaries.
METHODS = {
    "scalar": {
        "ExactMatrix": ("__matmul__", "rank", "inverse"),
        "MatrixSpan": ("__init__",),
    },
    "starcat": {"StarFunctor": ("apply",)},
    "completion": {
        "LazySaturation": ("block_generators", "hom_basis"),
        "SaturationFunctor": ("apply",),
        "ExtendedFunctor": ("apply_object", "apply_arrow"),
    },
}

# The public elimination entry points of the scalar layer.
ELIMINATE = {
    "scalar.nullspace": lambda a, kw: _rows_cols(a[0]),
    "scalar.echelon_basis": lambda a, kw: _rows_cols(a[0]),
    "scalar.vector_in_span": lambda a, kw: (len(a[1]) + 1) * len(a[0]),
    "scalar.linear_combination": lambda a, kw: (len(a[0]) + 1) * len(a[1]),
    "scalar.span_membership": lambda a, kw: (len(a[1]) + 1) * a[0].rows * a[0].cols,
    "scalar.solve_right": lambda a, kw: a[0].rows * (a[0].cols + a[1].cols),
    "scalar.MatrixSpan.__init__": lambda a, kw: len(a[3]) * a[1] * a[2],
    "scalar.ExactMatrix.rank": lambda a, kw: a[0].rows * a[0].cols,
    "scalar.ExactMatrix.inverse": lambda a, kw: a[0].rows * a[0].cols,
}


def _rows_cols(rows):
    if not isinstance(rows, (list, tuple)):
        return 0
    return len(rows) * (len(rows[0]) if rows else 0)


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_child = array("d")
        self._stack = []
        self.counters = defaultdict(int)
        self._eliminate_depth = 0
        self.eliminate_sizes = array("q")  # entries of each outermost call
        self.decompose_info = None
        self._lru = None

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every public function and the listed methods, replacing
        each wherever a ``moritacat`` module binds it."""
        modules = {
            layer: importlib.import_module(f"moritacat.{layer}") for layer in LAYERS
        }
        everywhere = list(modules.values()) + [
            importlib.import_module("moritacat"),
            importlib.import_module("moritacat.generate"),
        ]
        replacements = {}
        for layer, mod in modules.items():
            for name, value in list(vars(mod).items()):
                if name.startswith("_") or inspect.isclass(value):
                    continue
                if not callable(value) or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if name == "decompose":
                    self._lru = value
                replacements[id(value)] = (
                    value,
                    self._wrap(f"{layer}.{name}", value),
                )
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", raw))
        for mod in everywhere:
            for name, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])

    def _intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, qualname, fn):
        nid = self._intern(qualname)
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, child = self.span_start, self.span_end, self.span_child
        counters = self.counters
        eliminate = ELIMINATE.get(qualname)
        is_matmul = qualname == "scalar.ExactMatrix.__matmul__"
        is_generators = qualname == "completion.LazySaturation.block_generators"
        is_witness = qualname == "semisimple.are_morita_equivalent"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if is_matmul:
                a, b = args
                counters["scalar.matmul.madds"] += a.rows * a.cols * getattr(b, "cols", 0)
            if eliminate is not None:
                if tracer._eliminate_depth == 0:
                    size = eliminate(args, kwargs)
                    counters["scalar.eliminate.calls"] += 1
                    counters["scalar.eliminate.entries"] += size
                    tracer.eliminate_sizes.append(size)
                tracer._eliminate_depth += 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            child.append(0.0)
            stack.append(idx)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[idx] = end
                stack.pop()
                if stack:
                    child[stack[-1]] += end - start
                if eliminate is not None:
                    tracer._eliminate_depth -= 1
            if is_generators:
                counters["completion.block_generators.entries"] += sum(
                    g.rows * g.cols for g in result
                )
            elif is_witness and result[0] and result[1] is None:
                counters["semisimple.witness.missing"] += 1
            return result

        return traced

    # -- recording window -----------------------------------------------

    def start(self):
        if self._lru is not None and hasattr(self._lru, "cache_info"):
            self.decompose_info = self._lru.cache_info()
        self.active = True

    def stop(self):
        self.active = False
        if self.decompose_info is not None:
            before, after = self.decompose_info, self._lru.cache_info()
            self.counters["semisimple.decompose.misses"] = after.misses - before.misses

    # -- results ----------------------------------------------------------

    def totals(self):
        """Per wrapped name: calls, calls from outside the name's layer,
        and self seconds."""
        calls = defaultdict(int)
        entries = defaultdict(int)
        self_s = defaultdict(float)
        names = self.names
        layer_of = [name.split(".", 1)[0] for name in names]
        span_name, parent = self.span_name, self.span_parent
        for i in range(len(span_name)):
            nid = span_name[i]
            name = names[nid]
            calls[name] += 1
            p = parent[i]
            if p < 0 or layer_of[span_name[p]] != layer_of[nid]:
                entries[name] += 1
            self_s[name] += (self.span_end[i] - self.span_start[i]) - self.span_child[i]
        return calls, entries, self_s

    def write(self, path):
        """Write every span as one CSV line: name, start, end, parent
        index, operation id (times in seconds from the first span)."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(
                    f"{names[self.span_name[i]]},{self.span_start[i] - t0:.7f},"
                    f"{self.span_end[i] - t0:.7f},{self.span_parent[i]},{self.span_op[i]}\n"
                )


def _ms(seconds):
    return seconds * 1000.0


def layer_metrics(tracer, extra_counts):
    """The per-layer metrics named in BENCHMARK.json, from the spans and
    counters of one traced run.  ``extra_counts`` carries what the
    benchmark measures itself (JSON bytes in and out)."""
    calls, entries, self_s = tracer.totals()
    c = tracer.counters

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    def ms(*names):
        return _ms(sum(self_s.get(x, 0.0) for x in names))

    def layer_ms(layer):
        return _ms(sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer))

    def prefixed(prefix, pred):
        return [k for k in set(calls) if k.startswith(prefix) and pred(k)]

    def ratio(hits, total):
        return hits / total if total else 0.0

    eliminate = list(ELIMINATE)
    extend = ("completion.ExtendedFunctor.apply_object", "completion.ExtendedFunctor.apply_arrow")
    validate = ("starcat.validate_category", "starcat.validate_functor")
    lift = ("presentations.rlp_lift", "presentations.sum_lift")
    pushout = ("presentations.pushout_interval", "presentations.pushout_rn")
    parse = prefixed("jsonio.", lambda k: k.endswith("_from_json") or k == "jsonio.parse_document")
    emit = prefixed(
        "jsonio.", lambda k: k.endswith("_to_json") or k in ("jsonio.dumps", "jsonio.to_document")
    )
    hb_calls = n("completion.LazySaturation.hom_basis")
    bg_calls = n("completion.LazySaturation.block_generators")
    dec_calls = n("semisimple.decompose")
    dec_misses = c.get("semisimple.decompose.misses", dec_calls)
    values = {
        "scalar.matmul.calls": (n("scalar.ExactMatrix.__matmul__"), "count"),
        "scalar.matmul.madds": (c["scalar.matmul.madds"], "count"),
        "scalar.matmul.self_ms": (ms("scalar.ExactMatrix.__matmul__"), "ms"),
        "scalar.eliminate.calls": (c["scalar.eliminate.calls"], "count"),
        "scalar.eliminate.entries": (c["scalar.eliminate.entries"], "count"),
        "scalar.eliminate.self_ms": (ms(*eliminate), "ms"),
        "scalar.range_projection.calls": (n("scalar.range_projection"), "count"),
        "scalar.range_projection.self_ms": (ms("scalar.range_projection"), "ms"),
        "scalar.self_ms": (layer_ms("scalar"), "ms"),
        "starcat.star_category.calls": (n("starcat.star_category"), "count"),
        "starcat.star_category.self_ms": (ms("starcat.star_category"), "ms"),
        "starcat.validate.calls": (n(*validate), "count"),
        "starcat.validate.self_ms": (ms(*validate), "ms"),
        "starcat.self_ms": (layer_ms("starcat"), "ms"),
        "completion.hom_basis.calls": (hb_calls, "count"),
        "completion.block_generators.calls": (bg_calls, "count"),
        "completion.hom_basis.hit_ratio": (ratio(hb_calls - bg_calls, hb_calls), "ratio"),
        "completion.block_generators.entries": (c["completion.block_generators.entries"], "count"),
        "completion.hom_basis.self_ms": (ms("completion.LazySaturation.hom_basis"), "ms"),
        "completion.is_morita_equivalence.calls": (n("completion.is_morita_equivalence"), "count"),
        "completion.is_morita_equivalence.self_ms": (ms("completion.is_morita_equivalence"), "ms"),
        "completion.extend.self_ms": (ms(*extend), "ms"),
        "completion.self_ms": (layer_ms("completion"), "ms"),
        "semisimple.decompose.calls": (dec_calls, "count"),
        "semisimple.decompose.misses": (dec_misses, "count"),
        "semisimple.decompose.hit_ratio": (ratio(dec_calls - dec_misses, dec_calls), "ratio"),
        "semisimple.decompose.self_ms": (ms("semisimple.decompose"), "ms"),
        "semisimple.minimal_projection.calls": (n("semisimple.minimal_projection"), "count"),
        "semisimple.minimal_projection.self_ms": (ms("semisimple.minimal_projection"), "ms"),
        "semisimple.matrix_units.calls": (n("semisimple.matrix_units"), "count"),
        "semisimple.matrix_units.self_ms": (ms("semisimple.matrix_units"), "ms"),
        "semisimple.object_class.calls": (n("semisimple.object_class"), "count"),
        "semisimple.object_class.self_ms": (ms("semisimple.object_class"), "ms"),
        "semisimple.witness.missing": (c["semisimple.witness.missing"], "count"),
        "semisimple.self_ms": (layer_ms("semisimple"), "ms"),
        "homotopy.representative_functor.calls": (n("homotopy.representative_functor"), "count"),
        "homotopy.representative_functor.self_ms": (ms("homotopy.representative_functor"), "ms"),
        "homotopy.class_of_functor.self_ms": (ms("homotopy.class_of_functor"), "ms"),
        "homotopy.self_ms": (layer_ms("homotopy"), "ms"),
        "ktheory.self_ms": (layer_ms("ktheory"), "ms"),
        "presentations.fibrancy_probe.self_ms": (ms("presentations.fibrancy_probe"), "ms"),
        "presentations.lift.self_ms": (ms(*lift), "ms"),
        "presentations.pushout.self_ms": (ms(*pushout), "ms"),
        "presentations.self_ms": (layer_ms("presentations"), "ms"),
        "jsonio.parse.calls": (sum(entries.get(x, 0) for x in parse), "count"),
        "jsonio.parse.bytes": (extra_counts.get("jsonio.parse.bytes", 0), "B"),
        "jsonio.parse.self_ms": (ms(*parse), "ms"),
        "jsonio.emit.bytes": (extra_counts.get("jsonio.emit.bytes", 0), "B"),
        "jsonio.emit.self_ms": (ms(*emit), "ms"),
        "cli.main.calls": (n("cli.main"), "count"),
        "cli.self_ms": (layer_ms("cli"), "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
