"""Outside-in span tracer for the robinsym layers.

`Tracer.install` wraps every public function of the layer modules, plus
`MeasuredMesh.validate`, and rebinds each wrapper at every name in
`robinsym.*` that bound the original.  The rebinding matters: `cli` imports
`refine`, `generate_domain`, `radius_for_volume`, `distribution_function`,
`schwarz_rearrangement` and `solve_symmetrized_poisson` by name, so patching
only the defining module would miss those calls.

Each call appends one span (name, start, end, parent, mesh id) to an
in-memory list; nothing is written until `write_spans`.  A span's self time
is its duration minus the durations of its direct children.  Mesh levels
are learnt from the meshes `generate_domain` (level 0) and `refine` (input
level + 1) return; a span whose first argument is a mesh, field or problem
takes that mesh's level, any other span its parent's.
"""

import collections
import sys
import time
import types

LAYERS = ("cli", "mesh", "fem", "radial", "rearrange", "model_geometry",
          "verify")
LEVELS = (0, 1, 2)
TOTAL = "total"     # group key of whole-run figures, beside the mesh levels

# (span name, stat) pairs reported for the whole run
TOTAL_METRICS = [
    ("cli.run", "self_s"),
    ("mesh.generate_domain", "self_s"),
    ("mesh.refine", "calls"), ("mesh.refine", "self_s"),
    ("mesh.MeasuredMesh.validate", "self_s"),
    ("mesh.length_factor", "calls"), ("mesh.length_factor", "self_s"),
    ("fem.assemble", "calls"), ("fem.assemble", "self_s"),
    ("fem.solve_robin_poisson", "calls"), ("fem.solve_robin_poisson", "self_s"),
    ("fem.solve_robin_poisson", "distinct_ratio"),
    ("fem.solve_robin_eigen", "calls"), ("fem.solve_robin_eigen", "self_s"),
    ("fem.solve_robin_eigen", "distinct_ratio"),
    ("radial.solve_radial_eigen", "calls"),
    ("radial.solve_radial_eigen", "self_s"),
    ("radial.solve_radial_eigen", "distinct_ratio"),
    ("radial.solve_symmetrized_poisson", "calls"),
    ("radial.solve_symmetrized_poisson", "self_s"),
    ("model_geometry.radius_for_volume", "calls"),
    ("model_geometry.radius_for_volume", "self_s"),
    ("model_geometry.volume_profile", "calls"),
    ("model_geometry.volume_profile", "self_s"),
    ("rearrange.distribution_function", "calls"),
    ("rearrange.distribution_function", "self_s"),
    ("rearrange.distribution_function", "distinct_ratio"),
    ("rearrange.schwarz_rearrangement", "self_s"),
    ("rearrange.lorentz_norm", "calls"), ("rearrange.lorentz_norm", "self_s"),
    ("verify.check_bossel_daners", "self_s"),
    ("verify.check_lemma_31", "self_s"),
]

# (span name, stat, levels) reported per mesh level as `<name>.<stat>.L<k>`;
# generate_domain only ever makes level 0 and refine only levels 1 and 2
LEVEL_METRICS = [
    ("mesh.refine", "calls", (1, 2)), ("mesh.refine", "self_s", (1, 2)),
    ("mesh.MeasuredMesh.validate", "self_s", LEVELS),
    ("mesh.length_factor", "calls", LEVELS),
    ("mesh.length_factor", "self_s", LEVELS),
    ("fem.assemble", "calls", LEVELS), ("fem.assemble", "self_s", LEVELS),
] + [
    (name, stat, LEVELS)
    for name in ("fem.solve_robin_poisson", "fem.solve_robin_eigen",
                 "rearrange.distribution_function")
    for stat in ("calls", "self_s", "distinct_ratio")
]


def metric_names():
    """Every per-layer metric name the tracer reports, in report order."""
    names = [f"{name}.{stat}" for name, stat in TOTAL_METRICS]
    names.append("verify.self_s")
    names += [f"{name}.{stat}.L{k}" for name, stat, levels in LEVEL_METRICS
              for k in levels]
    names.append("trace.overhead_s")
    return names


def metric_unit(name):
    if name.endswith(".calls") or ".calls." in name:
        return "count"
    return "ratio" if "distinct_ratio" in name else "s"


# input identity per deduplicable function, as a solve cache would key it
_DISTINCT_KEYS = {
    "fem.solve_robin_poisson": lambda a, kw: (id(a[0].mesh), a[0].beta),
    "fem.solve_robin_eigen": lambda a, kw: (
        id(a[0]), a[1] if len(a) > 1 else kw["beta"]),
    "radial.solve_radial_eigen": lambda a, kw: (
        a[0].space, a[0].radius, a[1] if len(a) > 1 else kw["beta"]),
    "rearrange.distribution_function": lambda a, kw: id(a[0]),
}


class Tracer:
    def __init__(self):
        self.spans = []             # [name, start, end, parent, mesh id]
        self.keys = {name: [] for name in _DISTINCT_KEYS}
        self.mesh_levels = {}       # id(mesh) -> level
        self._alive = []            # keeps keyed objects alive so ids stay unique
        self._stack = []

    # -- installation ------------------------------------------------------

    def install(self):
        import robinsym.cli  # noqa: F401  (imports every layer)
        from robinsym import fem, mesh

        self._mesh_cls = mesh.MeasuredMesh
        self._carriers = (mesh.ScalarField, fem.RobinProblem)
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"robinsym.{layer}"]
            for attr, value in vars(module).items():
                if (not attr.startswith("_")
                        and isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    originals[value] = self._wrap(name, value)
        for module_name, module in list(sys.modules.items()):
            if module_name != "robinsym" and not module_name.startswith("robinsym."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in originals:
                    setattr(module, attr, originals[value])
        mesh.MeasuredMesh.validate = self._wrap(
            "mesh.MeasuredMesh.validate", mesh.MeasuredMesh.validate)

    def _wrap(self, name, fn):
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        mesh_cls, carriers = self._mesh_cls, self._carriers
        on_return = {"mesh.generate_domain": self._register_base,
                     "mesh.refine": self._register_refined}.get(name)
        keyer = _DISTINCT_KEYS.get(name)
        keys, alive = self.keys.get(name), self._alive

        def traced(*args, **kwargs):
            mesh_id = None
            if args:
                a0 = args[0]
                if type(a0) is mesh_cls:
                    mesh_id = id(a0)
                elif type(a0) in carriers:
                    mesh_id = id(a0.mesh)
            if keyer is not None:
                keys.append(keyer(args, kwargs))
                alive.append(args[0])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, mesh_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if on_return is not None:
                on_return(span, args, result)
            return result

        return traced

    def _register_base(self, span, args, mesh):
        self._alive.append(mesh)
        self.mesh_levels[id(mesh)] = 0
        span[4] = id(mesh)

    def _register_refined(self, span, args, mesh):
        self._alive.append(mesh)
        parent = self.mesh_levels.get(id(args[0]))
        if parent is not None:
            self.mesh_levels[id(mesh)] = parent + 1
        span[4] = id(mesh)

    # -- reduction ---------------------------------------------------------

    def _span_levels(self):
        levels = []
        for name, _, _, parent, mesh_id in self.spans:
            level = self.mesh_levels.get(mesh_id)
            if level is None and parent >= 0:
                level = levels[parent]
            levels.append(level)
        return levels

    @staticmethod
    def _groups(name, level):
        """The whole-run group and, when the level is known, the level's."""
        if level is None:
            return ((name, TOTAL),)
        return ((name, TOTAL), (name, level))

    def stats(self):
        """{(span name, level or TOTAL): [calls, self seconds]}"""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.defaultdict(lambda: [0, 0.0])
        for (name, start, end, _, _), level, inner in zip(
                self.spans, self._span_levels(), child):
            own = end - start - inner
            for key in self._groups(name, level):
                out[key][0] += 1
                out[key][1] += own
        return out

    def distinct_ratios(self):
        """{(span name, level or TOTAL): distinct inputs / calls}"""
        levels = self._span_levels()
        per = collections.defaultdict(list)
        by_name = collections.defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[0] in self.keys:
                by_name[span[0]].append(levels[i])
        for name, keys in self.keys.items():
            for key, level in zip(keys, by_name[name]):
                for group in self._groups(name, level):
                    per[group].append(key)
        return {k: len(set(v)) / len(v) for k, v in per.items()}

    def metrics(self):
        """Per-layer metrics except trace.overhead_s.

        A distinct ratio is 1 when the function is not called at all, since
        nothing was computed twice.
        """
        stats, ratios = self.stats(), self.distinct_ratios()

        def value(name, stat, level):
            if stat == "distinct_ratio":
                return ratios.get((name, level), 1.0)
            calls, own = stats.get((name, level), (0, 0.0))
            return calls if stat == "calls" else own

        out = {f"{n}.{s}": value(n, s, TOTAL) for n, s in TOTAL_METRICS}
        out["verify.self_s"] = sum(
            own for (name, level), (_, own) in stats.items()
            if level == TOTAL and name.startswith("verify."))
        for name, stat, levels in LEVEL_METRICS:
            for k in levels:
                out[f"{name}.{stat}.L{k}"] = value(name, stat, k)
        return out

    def write_spans(self, path):
        levels = self._span_levels()
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,level\n")
            for i, ((name, start, end, parent, _), level) in enumerate(
                    zip(self.spans, levels)):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},"
                         f"{'' if level is None else level}\n")
