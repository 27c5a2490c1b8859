"""Per-layer tracing of the drinfeld package, installed from outside.

Every function and method defined in a layer module is replaced by a
wrapper.  A call that stays inside its caller's layer is only counted; a
call that crosses into another layer opens a span.  Spans are merged by
call path, so a node of the span tree holds the count, total time and self
time (total minus child spans) of every call along one path inside one
request.  A few functions also get an observer that reads their arguments
and results for the per-layer counters.

Everything stays in memory until the pass ends; `uninstall()` puts the
original functions back.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("ffarith", "congruence", "curveinv", "qdiv", "useries", "weights", "cli")

# Methods left alone: attribute protocol and class machinery.
_SKIP = {
    "__getattribute__", "__getattr__", "__setattr__", "__delattr__",
    "__new__", "__init_subclass__", "__class_getitem__", "__subclasshook__",
}

# Call counts reported per layer, by the qualified name of the wrapped callable.
COUNTED = {
    "ffarith.field_new.calls": "ffarith.Fq.__init__",
    "ffarith.elem_mul.calls": "ffarith.FqElem.__mul__",
    "ffarith.elem_inverse.calls": "ffarith.FqElem.inverse",
    "ffarith.poly_mul.calls": "ffarith.PolyA.__mul__",
    "ffarith.poly_divmod.calls": "ffarith.PolyA.__divmod__",
    "ffarith.poly_gcd.calls": "ffarith.PolyA.gcd",
    "ffarith.ratk_new.calls": "ffarith.RatK.__init__",
    "ffarith.is_square_k.calls": "ffarith.is_square_k",
    "ffarith.parse_poly.calls": "ffarith.parse_poly",
    "congruence.if_unit.calls": "congruence.Mat2.if_unit",
    "congruence.member.calls": "congruence.member",
    "curveinv.invariants.calls": "curveinv.assemble_invariants",
    "qdiv.presentation.calls": "qdiv.presentation",
    "useries.split.calls": "useries.split",
}


class _Node:
    """One call path of the span tree within one request."""

    __slots__ = ("id", "parent", "name", "layer", "request", "children",
                 "count", "total", "self_time", "first_start", "last_end")

    def __init__(self, ident, parent, name, layer, request):
        self.id = ident
        self.parent = parent
        self.name = name
        self.layer = layer
        self.request = request
        self.children = {}
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.first_start = None
        self.last_end = None


class Tracer:
    def __init__(self, package):
        self.package = package
        self.counts = {}  # qualified name -> [calls]
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.stats = dict.fromkeys(
            ("field_new_s", "if_unit_hits", "member_true", "search_box",
             "search_witnesses", "cusp_vectors", "cusp_orbits", "monomials",
             "h0_total", "kernels", "relations", "budget_exits", "coeffs"), 0)
        self.stats["field_new_s"] = 0.0
        self.nodes = []
        self._layer_stack = ["bench"]
        self._node = None
        self._child_time = 0.0
        self._patches = []

    # ----------------------------------------------------------- requests

    def begin_request(self, request_id):
        root = _Node(len(self.nodes), None, "request", "bench", request_id)
        self.nodes.append(root)
        self._node = root
        self._child_time = 0.0

    def end_request(self):
        self._node = None

    # -------------------------------------------------------------- spans

    def _span(self, fn, name, layer, args, kwargs):
        parent = self._node
        node = parent.children.get(name)
        if node is None:
            node = _Node(len(self.nodes), parent.id, name, layer, parent.request)
            parent.children[name] = node
            self.nodes.append(node)
        outer_child_time = self._child_time
        self._child_time = 0.0
        self._node = node
        self._layer_stack.append(layer)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            elapsed = end - start
            own = elapsed - self._child_time
            self._layer_stack.pop()
            self._node = parent
            self._child_time = outer_child_time + elapsed
            node.count += 1
            node.total += elapsed
            node.self_time += own
            if node.first_start is None:
                node.first_start = start
            node.last_end = end
            self.self_time[layer] += own

    def _wrap(self, fn, layer, name):
        cell = self.counts.setdefault(name, [0])
        stack = self._layer_stack
        span = self._span
        observe = _OBSERVERS.get(name)

        params = _plain_params(fn)
        if observe is None and params is not None:
            # Same parameter names as fn, so keyword calls still work, and no
            # packing of *args/**kwargs on the hot path: with the generic
            # wrapper alone trace.overhead_frac read 1.05 to 1.24 on search
            # and cusps, against 0.35 to 0.92 (model.trace in record.json).
            names = ", ".join(params)
            src = (
                "def traced(%s):\n"
                "    _t_cell[0] += 1\n"
                "    if _t_stack[-1] is _t_layer:\n"
                "        return _t_fn(%s)\n"
                "    return _t_span(_t_fn, _t_name, _t_layer, (%s,), {})\n"
                % (names, names, names)
            )
            scope = {"_t_cell": cell, "_t_stack": stack, "_t_layer": layer, "_t_fn": fn,
                     "_t_span": span, "_t_name": name}
            exec(src, scope)
            return functools.wraps(fn)(scope["traced"])
        if observe is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                cell[0] += 1
                if stack[-1] is layer:
                    return fn(*args, **kwargs)
                return span(fn, name, layer, args, kwargs)
            return traced

        stats = self.stats

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            cell[0] += 1
            start = perf_counter()
            try:
                if stack[-1] is layer:
                    result = fn(*args, **kwargs)
                else:
                    result = span(fn, name, layer, args, kwargs)
            except Exception as exc:
                observe(stats, args, kwargs, None, exc, perf_counter() - start)
                raise
            observe(stats, args, kwargs, result, None, perf_counter() - start)
            return result
        return observed

    # ------------------------------------------------------------ install

    def install(self):
        modules = {layer: sys.modules["%s.%s" % (self.package, layer)] for layer in LAYERS}
        replaced = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap(obj, layer, "%s.%s" % (layer, attr))
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, (BaseException, enum.Enum))):
                    self._wrap_class(obj, layer)
        # Rebind every module-level name that refers to a wrapped function,
        # including names imported into other modules and the package.
        holders = list(modules.values()) + [sys.modules[self.package]]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj)) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def _wrap_class(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            if attr in _SKIP:
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if inspect.isfunction(obj):
                new = self._wrap(obj, layer, name)
            elif isinstance(obj, staticmethod):
                new = staticmethod(self._wrap(obj.__func__, layer, name))
            elif isinstance(obj, classmethod):
                new = classmethod(self._wrap(obj.__func__, layer, name))
            elif isinstance(obj, property) and obj.fget is not None:
                new = property(self._wrap(obj.fget, layer, name), obj.fset, obj.fdel, obj.__doc__)
            else:
                continue
            self._patch(cls, attr, new)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches = []

    # ------------------------------------------------------------ results

    def calls(self, name):
        return self.counts.get(name, [0])[0]

    def span_records(self):
        """The span tree as plain records: one per call path per request."""
        return [
            {
                "id": n.id, "parent": n.parent, "name": n.name, "layer": n.layer,
                "request": n.request, "count": n.count,
                "total_s": n.total, "self_s": n.self_time,
                "first_start": n.first_start, "last_end": n.last_end,
            }
            for n in self.nodes
        ]


def _plain_params(fn):
    """fn's parameter names when all are plain positional-or-keyword ones
    without defaults, else None."""
    params = list(inspect.signature(fn).parameters.values())
    if not params or any(
        p.kind is not p.POSITIONAL_OR_KEYWORD or p.default is not p.empty for p in params
    ):
        return None
    return [p.name for p in params]


# ---------------------------------------------------------------- observers
#
# Each observer receives (stats, args, kwargs, result, exc, seconds).  They
# read plain attributes only, so they call nothing that is being traced.


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _obs_field_new(stats, args, kwargs, result, exc, seconds):
    stats["field_new_s"] += seconds


def _obs_if_unit(stats, args, kwargs, result, exc, seconds):
    if result is not None:
        stats["if_unit_hits"] += 1


def _obs_member(stats, args, kwargs, result, exc, seconds):
    if result:
        stats["member_true"] += 1


_SEARCH_PARAMS = {"full": 4, "gamma1": 4, "gamma0": 5}


def _obs_search(stats, args, kwargs, result, exc, seconds):
    if exc is not None:
        return
    group = _arg(args, kwargs, 0, "G")
    bound = _arg(args, kwargs, 1, "deg_bound")
    field = group.level.field if group.level is not None else _arg(args, kwargs, 2, "field")
    stats["search_box"] += (field.q ** (bound + 1)) ** _SEARCH_PARAMS[group.family]
    stats["search_witnesses"] += len(result)


def _obs_cusps(stats, args, kwargs, result, exc, seconds):
    if exc is None:
        stats["cusp_vectors"] += result.total
        stats["cusp_orbits"] += len(result.reps)


def _obs_presentation(stats, args, kwargs, result, exc, seconds):
    if exc is not None:
        if type(exc).__name__ == "WorkBoundError":
            stats["budget_exits"] += 1
        return
    for log in result.degree_logs:
        stats["monomials"] += log.monomial_count
        stats["h0_total"] += log.h0
        stats["kernels"] += log.kernel_count
        stats["relations"] += len(log.new_relations)


def _obs_parse_useries(stats, args, kwargs, result, exc, seconds):
    if exc is None:
        stats["coeffs"] += len(result.coeffs)


_OBSERVERS = {
    "ffarith.Fq.__init__": _obs_field_new,
    "congruence.Mat2.if_unit": _obs_if_unit,
    "congruence.member": _obs_member,
    "curveinv.elliptic_search": _obs_search,
    "curveinv.cusps": _obs_cusps,
    "qdiv.presentation": _obs_presentation,
    "useries.parse_useries": _obs_parse_useries,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, output_bytes, nonzero_exit, overhead_frac):
    """The per-layer metrics of one traced pass, by name: (value, unit)."""
    c, s = tracer.calls, tracer.stats
    total_self = sum(tracer.self_time.values())
    m = {}
    for name, qual in COUNTED.items():
        m[name] = (c(qual), "count")
    for layer in LAYERS:
        m["%s.self_frac" % layer] = (_ratio(tracer.self_time[layer], total_self), "frac")
    m["ffarith.field_new.s"] = (s["field_new_s"], "s")
    m["congruence.if_unit.hit_ratio"] = (_ratio(s["if_unit_hits"], c("congruence.Mat2.if_unit")), "frac")
    m["congruence.member.true_ratio"] = (_ratio(s["member_true"], c("congruence.member")), "frac")
    m["curveinv.search.box"] = (s["search_box"], "count")
    m["curveinv.search.witnesses"] = (s["search_witnesses"], "count")
    m["curveinv.search.yield"] = (_ratio(s["search_witnesses"], s["search_box"]), "frac")
    m["curveinv.cusps.vectors"] = (s["cusp_vectors"], "count")
    m["curveinv.cusps.orbits"] = (s["cusp_orbits"], "count")
    m["qdiv.monomials"] = (s["monomials"], "count")
    m["qdiv.h0_total"] = (s["h0_total"], "count")
    m["qdiv.kernels"] = (s["kernels"], "count")
    m["qdiv.relation_yield"] = (_ratio(s["relations"], s["kernels"]), "frac")
    m["qdiv.budget_exits"] = (s["budget_exits"], "count")
    m["useries.coeffs"] = (s["coeffs"], "count")
    m["weights.calls"] = (
        sum(n[0] for q, n in tracer.counts.items() if q.startswith("weights.")), "count")
    m["cli.output_bytes"] = (output_bytes, "bytes")
    m["cli.nonzero_exit"] = (nonzero_exit, "count")
    m["trace.overhead_frac"] = (overhead_frac, "frac")
    return m
