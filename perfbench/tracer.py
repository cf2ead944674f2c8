"""Span tracer for the sobolex benchmark, applied to the program from outside.

The program carries no tracing of its own.  `instrument()` replaces each
traced function or method with a wrapper, in every `sobolex.*` module that
binds it (modules bind names with `from .x import y`), and records one span
per call: name, start, end and parent span.  Span ids are unique within one
request, which is one process.  A span name starts with its layer, the
module's name, so a layer's totals are sums over that prefix.

A span's self time is its duration minus the time its child spans cover.
The wrapper's own bookkeeping (hooks, clock reads, span storage) is removed
from the parent's self time as well and reported as `overhead_s`, so self
times approximate those of an untraced run.  `Fraction` arithmetic is not
wrapped, so it is charged to the layer that calls it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array


class Tracer:
    """Spans and counters of one process, kept in memory until `dump`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self.overhead_s = 0.0
        self.missing: list[str] = []  # traced names the program no longer has
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return self._ids[name]

    def add(self, counter: str, amount: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def note_distinct(self, counter: str, key) -> None:
        self.distinct.setdefault(counter, set()).add(key)

    def wrap(self, fn, name: str, after=None):
        """Return `fn` recording a span `name`; `after(tracer, args, kwargs,
        result)` runs outside the span, to count work."""
        nid = self.name_id(name)
        clock, stack = self.clock, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = clock()
            span = self._next_id
            self._next_id = span + 1
            frame = [span, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.calls[nid] += 1
                self.total_s[nid] += dur
                self.self_s[nid] += dur - frame[1]
                self.span_id.append(span)
                self.span_name.append(nid)
                self.span_parent.append(parent)
                self.span_start.append(t0)
                self.span_end.append(t1)
            if after is not None:
                after(self, args, kwargs, result)
            t_out = clock()
            self.overhead_s += (t_out - t_in) - dur
            if stack:
                stack[-1][1] += t_out - t_in
            return result

        return traced

    def count(self, fn, counter: str):
        """Return `fn` counting its calls in `counter`, without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] = counts.get(counter, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        return {
            "names": self.names,
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "counts": self.counts,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "overhead_s": self.overhead_s,
            "spans": len(self.span_name),
            "missing": self.missing,
        }

    def dump(self, prefix: str, request: str) -> None:
        """Write the summary to `prefix.json` and the spans to `prefix.spans`:
        five little-endian columns (span id int64, name id int32, parent span
        id int64 or -1, start and end float64 seconds), one after the other,
        each `spans` entries long, in the order the spans ended."""
        with open(prefix + ".spans", "wb") as fh:
            for column in (self.span_id, self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                if sys.byteorder != "little":
                    column = array(column.typecode, column)
                    column.byteswap()
                column.tofile(fh)
        with open(prefix + ".json", "w") as fh:
            json.dump(dict(self.summary(), request=request), fh)


# -- what is traced, and the counters attached to it -----------------------

def _mul_terms(tracer, args, kwargs, result):
    f, g = args
    tracer.add("polynomials.mul.term_products",
               len(f) * (len(g) if hasattr(g, "_terms") else 1))


def _restrict_key(tracer, args, kwargs, result):
    f, zeroed = args if len(args) == 2 else (args[0], kwargs["zeroed"])
    tracer.note_distinct("polynomials.restrict", (hash(f), frozenset(zeroed)))


def _construct_key(fn_name):
    def after(tracer, args, kwargs, result):
        tracer.note_distinct("bases.construct", (fn_name, args, tuple(kwargs.items())))
    return after


def _integral_terms(tracer, args, kwargs, result):
    tracer.add("moments.integral.terms", len(args[0]))


def _gram_entries(tracer, args, kwargs, result):
    tracer.add("products.gram.entries", sum(len(row) for row in result.matrix))


def _rank_cells(tracer, args, kwargs, result):
    rows = args[0]
    tracer.add("linalg.rank.cells", len(rows) * len(rows[0]) if rows else 0)


# (module, attribute path, span name, after hook).  A target that a later
# version of the program no longer has is skipped and listed as missing.
TARGETS = [
    ("polynomials", "Polynomial.__mul__", "polynomials.mul", _mul_terms),
    ("polynomials", "Polynomial.__rmul__", "polynomials.mul", _mul_terms),
    ("polynomials", "Polynomial.__add__", "polynomials.add", None),
    ("polynomials", "Polynomial.__radd__", "polynomials.add", None),
    ("polynomials", "Polynomial.partial", "polynomials.partial", None),
    ("polynomials", "Polynomial.substitute", "polynomials.substitute", None),
    ("polynomials", "Polynomial.restrict", "polynomials.restrict", _restrict_key),
    ("weighted", "WeightedForm.single", "weighted.single", None),
    ("weighted", "WeightedForm.__add__", "weighted.add", None),
    ("weighted", "WeightedForm.scale", "weighted.scale", None),
    ("weighted", "WeightedForm.derivative", "weighted.derivative", None),
    ("weighted", "WeightedForm.directional", "weighted.directional", None),
    ("weighted", "WeightedForm.divide_by_weight", "weighted.divide_by_weight", None),
    ("bases", "eigencheck", "bases.eigencheck", None),
    ("moments", "inner_product", "moments.inner_product", None),
    ("moments", "integral", "moments.integral", _integral_terms),
    ("moments", "face_inner_product", "moments.face_inner_product", None),
    ("moments", "vertex_eval", "moments.vertex_eval", None),
    ("products", "gram", "products.gram", _gram_entries),
    ("linalg", "rank", "linalg.rank", _rank_cells),
    ("spaces", "u_space", "spaces.u_space", None),
    ("spaces", "h_space", "spaces.h_space", None),
    ("spaces", "verify_u_space", "spaces.verify_u_space", None),
    ("cli", "main", "cli.main", None),
] + [
    ("bases", name, "bases.construct", _construct_key(name))
    for name in ("rodrigues_element", "permuted_element", "monomial_element")
] + [
    ("linalg", name, "linalg." + name, None)
    for name in ("determinant", "leading_principal_minors", "solve_combination",
                 "coefficient_matrix", "poly_rank", "spans_equal", "in_span")
]


def _discovered(modules: dict) -> list[tuple]:
    """Every product class's `value` and every `suite_*` function."""
    out = []
    products = modules.get("products")
    for name, cls in sorted(vars(products).items() if products else ()):
        if inspect.isclass(cls) and "value" in vars(cls):
            out.append(("products", f"{name}.value", "products.value", None))
    suites = modules.get("suites")
    for name in sorted(vars(suites) if suites else ()):
        if name.startswith("suite_"):
            out.append(("suites", name, "suites." + name[len("suite_"):], None))
    return out


def instrument(tracer: Tracer) -> None:
    """Wrap every traced name of the `sobolex` package in place; note in
    `tracer.missing` the targets that this version of the package lacks."""
    import sobolex.cli  # noqa: F401  (imports every module the CLI reaches)

    modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
               if name.startswith("sobolex.")}
    package_modules = [mod for name, mod in sys.modules.items()
                       if name == "sobolex" or name.startswith("sobolex.")]
    missing = tracer.missing
    poly = getattr(modules.get("polynomials"), "Polynomial", None)
    if poly is None:
        missing.append("polynomials:Polynomial.__init__")
    else:
        poly.__init__ = tracer.count(poly.__init__, "polynomials.constructed")
    for module, path, span, after in TARGETS + _discovered(modules):
        owner = modules.get(module)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            missing.append(f"{module}:{path}")
            continue
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, span, after)))
            continue
        wrapped = tracer.wrap(raw, span, after)
        setattr(owner, attr, wrapped)
        if classes:
            continue
        for mod in package_modules:  # rebind every `from .x import name`
            if getattr(mod, attr, None) is raw:
                setattr(mod, attr, wrapped)
