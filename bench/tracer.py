"""Span tracer that wraps ehrmat's public functions from outside.

Modules such as `genfun` import `triangulate_cone` and friends by name,
so a wrapper only takes effect where the caller looks the name up. The
tracer therefore replaces every binding of a wrapped function in every
loaded `ehrmat` module with one shared wrapper, and restores them all
on `uninstall`.

Spans (id, name, start, end, parent id, instance id) stay in memory;
`summary` turns them into per-layer self times and counts.
"""

import functools
import itertools
import sys
import time

# Functions that get a span: (module, attribute, span name).
SPANNED = [
    ("ehrmat.cli", "load_document", "cli.load_document"),
    ("ehrmat.cli", "parse_document", "cli.parse_document"),
    ("ehrmat.matroid", "check_matroid_axioms", "matroid.check_matroid_axioms"),
    ("ehrmat.matroid", "check_polymatroid_axioms",
     "matroid.check_polymatroid_axioms"),
    ("ehrmat.vertices", "enumerate_vertices", "vertices.enumerate_vertices"),
    # VertexSet.adjacency calls this once, on first access
    ("ehrmat.vertices", "_compute_adjacency", "vertices.adjacency"),
    ("ehrmat.cones", "tangent_cone", "cones.tangent_cone"),
    ("ehrmat.cones", "triangulate_cone", "cones.triangulate_cone"),
    ("ehrmat.cones", "pick_generic_y", "cones.pick_generic_y"),
    ("ehrmat.cones", "facet_normals_unimodular",
     "cones.facet_normals_unimodular"),
    ("ehrmat.cones", "assert_unimodular", "cones.assert_unimodular"),
    ("ehrmat.cones", "half_open_decompose", "cones.half_open_decompose"),
    ("ehrmat.genfun", "affine_lattice_basis", "genfun.affine_lattice_basis"),
    ("ehrmat.genfun", "to_working", "genfun.to_working"),
    ("ehrmat.genfun", "build_genfun", "genfun.build_genfun"),
    ("ehrmat.specialize", "find_lambda", "specialize.find_lambda"),
    ("ehrmat.specialize", "weights", "specialize.weights"),
    ("ehrmat.specialize", "ehrhart_polynomial",
     "specialize.ehrhart_polynomial"),
    ("ehrmat.specialize", "count", "specialize.count"),
    ("ehrmat.hstar", "ehrhart_to_hstar", "hstar.ehrhart_to_hstar"),
    ("ehrmat.hstar", "uniform_hstar", "hstar.uniform_hstar"),
    ("ehrmat.hstar", "katzman", "hstar.katzman"),
    ("ehrmat.bruteforce", "count_direct", "bruteforce.count_direct"),
    ("ehrmat.bruteforce", "ehrhart_by_interpolation",
     "bruteforce.ehrhart_by_interpolation"),
]

# Functions that are only counted, because they are called too often
# for a span each: (module, attribute, counter name).
COUNTED = [
    ("ehrmat.exactmath", "solve_unimodular", "exactmath.solve_unimodular_calls"),
    ("ehrmat.exactmath", "mat_rank", "exactmath.mat_rank_calls"),
    ("ehrmat.exactmath", "solve_linear", "exactmath.solve_linear_calls"),
    ("ehrmat.hstar", "uniform_conjecture_report", "hstar.scan_rows"),
]

# Per-layer time metrics: name -> (span names, how). "self" sums self
# times; "inclusive" sums whole spans not nested in another span of the
# same group.
TIME_METRICS = {
    "cli.parse_s": (["cli.load_document", "cli.parse_document"], "inclusive"),
    "cli.main_s": (["cli.main"], "self"),
    "matroid.axioms_s": (["matroid.check_matroid_axioms",
                          "matroid.check_polymatroid_axioms"], "self"),
    "vertices.enumerate_s": (["vertices.enumerate_vertices"], "self"),
    "vertices.adjacency_s": (["vertices.adjacency"], "self"),
    "cones.tangent_s": (["cones.tangent_cone"], "self"),
    "cones.triangulate_s": (["cones.triangulate_cone"], "self"),
    "cones.pick_y_s": (["cones.pick_generic_y"], "self"),
    "cones.normals_s": (["cones.facet_normals_unimodular",
                         "cones.assert_unimodular"], "self"),
    "cones.half_open_s": (["cones.half_open_decompose"], "self"),
    "genfun.lattice_basis_s": (["genfun.affine_lattice_basis"], "self"),
    "genfun.to_working_s": (["genfun.to_working"], "self"),
    "genfun.build_s": (["genfun.build_genfun"], "self"),
    "specialize.find_lambda_s": (["specialize.find_lambda"], "self"),
    "specialize.weights_s": (["specialize.weights"], "self"),
    "specialize.ehrhart_s": (["specialize.ehrhart_polynomial"], "self"),
    "specialize.count_s": (["specialize.count"], "self"),
    "hstar.transform_s": (["hstar.ehrhart_to_hstar"], "self"),
    "hstar.uniform_hstar_s": (["hstar.uniform_hstar"], "self"),
    "hstar.katzman_s": (["hstar.katzman"], "self"),
    "bruteforce.count_s": (["bruteforce.count_direct"], "self"),
    "bruteforce.interp_s": (["bruteforce.ehrhart_by_interpolation"], "self"),
}

COUNT_METRICS = [
    "matroid.rank_calls",
    "vertices.count",
    "vertices.edges",
    "cones.pieces",
    "genfun.terms",
    "exactmath.solve_unimodular_calls",
    "exactmath.mat_rank_calls",
    "exactmath.solve_linear_calls",
    "specialize.weights_calls",
    "specialize.max_beta",
    "specialize.beta_classes",
    "hstar.scan_rows",
    "bruteforce.points",
]


class Tracer:
    """Records spans and counts for one pass over a workload."""

    def __init__(self):
        self.spans = []        # (id, name, start, end, parent, instance)
        self.stack = []
        self._ids = itertools.count()
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.instance = None
        self.per_instance = {}  # instance -> captured properties
        self._restore = []

    # -- recording ----------------------------------------------------

    def begin_instance(self, idx):
        self.instance = idx
        self.per_instance[idx] = {"vertices": None, "terms": None,
                                  "beta_classes": set()}

    def span(self, name, fn, *args, **kwargs):
        sid = next(self._ids)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, name, start, end, parent, self.instance))

    def _on_result(self, name, args, result):
        c = self.counts
        inst = self.per_instance.get(self.instance)
        if name == "vertices.enumerate_vertices":
            c["vertices.count"] += len(result.vertices)
            if inst is not None and inst["vertices"] is None:
                inst["vertices"] = list(result.vertices)
        elif name == "vertices.adjacency":
            c["vertices.edges"] += sum(len(a) for a in result) // 2
        elif name == "cones.triangulate_cone":
            c["cones.pieces"] += len(result)
        elif name == "genfun.build_genfun":
            c["genfun.terms"] += len(result.terms)
            if inst is not None and inst["terms"] is None:
                inst["terms"] = len(result.terms)
        elif name == "specialize.weights":
            betas = args[0]
            c["specialize.weights_calls"] += 1
            c["specialize.max_beta"] = max(
                [c["specialize.max_beta"]] + [abs(b) for b in betas])
            if inst is not None:
                inst["beta_classes"].add(tuple(sorted(betas)))
        elif name == "bruteforce.count_direct":
            c["bruteforce.points"] += result

    # -- installation -------------------------------------------------

    def install(self):
        """Wrap every function in SPANNED and COUNTED, and the rank
        oracle, wherever an ehrmat module binds it."""
        for modname, attr, name in SPANNED:
            self._rebind(getattr(sys.modules[modname], attr),
                         self._spanning(name))
        for modname, attr, name in COUNTED:
            self._rebind(getattr(sys.modules[modname], attr),
                         self._counting(name))
        rank_cls = sys.modules["ehrmat.matroid"].RankFunction
        original = rank_cls.__dict__["rank"]
        wrapped = self._counting("matroid.rank_calls")(original)
        for attr in ("rank", "__call__"):
            if rank_cls.__dict__.get(attr) is original:
                self._restore.append((rank_cls, attr, original))
                setattr(rank_cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _rebind(self, original, make_wrapper):
        wrapped = make_wrapper(original)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ehrmat"
                                   or modname.startswith("ehrmat.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def _spanning(self, name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = self.span(name, fn, *args, **kwargs)
                self._on_result(name, args, result)
                return result
            return wrapper
        return make

    def _counting(self, counter):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[counter] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    # -- summary ------------------------------------------------------

    def summary(self):
        """Per-span-name totals (calls, total and self seconds) and the
        per-layer metrics of TIME_METRICS and COUNT_METRICS."""
        child = {}
        parent_of = {}
        name_of = {}
        for sid, name, start, end, parent, _ in self.spans:
            parent_of[sid] = parent
            name_of[sid] = name
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        by_name = {}
        for sid, name, start, end, _, _ in self.spans:
            row = by_name.setdefault(name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child.get(sid, 0.0)

        def outermost(sid, group):
            p = parent_of[sid]
            while p is not None:
                if name_of[p] in group:
                    return False
                p = parent_of[p]
            return True

        layers = {}
        for metric, (names, how) in TIME_METRICS.items():
            if how == "self":
                layers[metric] = sum(by_name.get(n, {}).get("self_s", 0.0)
                                     for n in names)
            else:
                group = set(names)
                layers[metric] = sum(
                    (end - start
                     for sid, name, start, end, _, _ in self.spans
                     if name in group and outermost(sid, group)), 0.0)
        inst_classes = sum(len(v["beta_classes"])
                           for v in self.per_instance.values())
        counts = dict(self.counts, **{"specialize.beta_classes": inst_classes})
        layers.update(counts)
        return {"spans": by_name, "layers": layers}
