"""Config-driven experiment runner.

A run reads one JSON document, builds the requested domain at every
refinement level, solves the Robin problems, symmetrizes the discrete data,
executes the configured checks per (beta, level) cell, and writes a CSV
summary, JSON-line reports, and plot-ready curves.  Output ordering is fixed
by the cell key (beta index, level, check index), never by completion time,
so identical configs produce byte-identical summaries.

Exit codes: 0 all checks passed at the finest level, 1 a check failed there,
2 the config was rejected, 3 a solver broke down.
"""

import dataclasses
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import fem, radial, verify
from .fem import RobinProblem
from .mesh import (MAX_VERTICES, MeasuredMesh, MeshFormatError,
                   MeshInvariantError, ScalarField, generate_domain, load_mesh,
                   refine, save_mesh, warped_profile)
from .model_geometry import ModelSpace
from .rearrange import LorentzDivergenceError, SphereOverflowError
from .verify import HypothesisRangeError

if TYPE_CHECKING:  # only the command line parses arguments, in build_parser
    import argparse


class ConfigError(ValueError):
    """The configuration document is structurally or semantically invalid."""


# ---------------------------------------------------------------------------
# source expressions

_TOKEN = re.compile(
    r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*/^()]))")

_FUNCTIONS = {"exp": np.exp, "sin": np.sin, "cos": np.cos}
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "^": np.power}
_CONSTANTS = {"pi": math.pi, "e": math.e}
_VARIABLES = ("x", "y", "r")


class SourceExpression:
    """Arithmetic over chart coordinates: + - * / ^, exp/sin/cos, x, y, r.

    Parsed by recursive descent into postfix code of numbers, variable names
    and numpy ufuncs, which evaluation runs on a stack: a config can never
    smuggle code into the run, and no expression is too deep to evaluate.
    One nested too deeply to parse is a ConfigError.
    """

    def __init__(self, text: str):
        self.text = text
        self._tokens = self._lex(text)
        self._pos = 0
        self._code = []
        try:
            self._expr()
        except RecursionError:
            raise ConfigError("expression nests too deeply") from None
        if self._pos != len(self._tokens):
            raise ConfigError(
                f"unexpected {self._tokens[self._pos]!r} in expression {text!r}")

    @staticmethod
    def _lex(text):
        tokens, pos = [], 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                if text[pos:].strip():
                    raise ConfigError(f"bad character {text[pos]!r} in expression")
                break
            num, name, op = m.groups()
            if num is not None:
                tokens.append(("num", float(num)))
            elif name is not None:
                tokens.append(("name", name))
            else:
                tokens.append(("op", "^" if op == "**" else op))
            pos = m.end()
        return tokens

    def _peek(self):
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _take(self, op):
        tok = self._peek()
        if tok is not None and tok == ("op", op):
            self._pos += 1
            return True
        return False

    def _left_assoc(self, operand, ops):
        operand()
        while (tok := self._peek()) in [("op", op) for op in ops]:
            self._pos += 1
            operand()
            self._code.append(_BINARY[tok[1]])

    def _expr(self):
        self._left_assoc(self._term, "+-")

    def _term(self):
        self._left_assoc(self._factor, "*/")

    def _factor(self):
        if self._take("-"):
            self._factor()
            self._code.append(np.negative)
            return
        self._atom()
        if self._take("^"):
            self._factor()
            self._code.append(np.power)

    def _atom(self):
        tok = self._peek()
        if tok is None:
            raise ConfigError(f"expression {self.text!r} ends early")
        self._pos += 1
        kind, value = tok
        if kind == "num":
            self._code.append(value)
        elif kind == "name" and value in _FUNCTIONS:
            if not self._take("("):
                raise ConfigError(f"{value} needs parentheses")
            self._expr()
            if not self._take(")"):
                raise ConfigError(f"unclosed argument of {value}")
            self._code.append(_FUNCTIONS[value])
        elif kind == "name" and value in _CONSTANTS:
            self._code.append(_CONSTANTS[value])
        elif kind == "name" and value in _VARIABLES:
            self._code.append(value)
        elif kind == "name":
            raise ConfigError(f"unknown name {value!r} in expression")
        elif (kind, value) == ("op", "("):
            self._expr()
            if not self._take(")"):
                raise ConfigError("unbalanced parentheses")
        else:
            raise ConfigError(f"unexpected {value!r} in expression {self.text!r}")

    def __call__(self, x, y):
        env = {"x": np.asarray(x, dtype=float),
               "y": np.asarray(y, dtype=float)}
        env["r"] = np.hypot(env["x"], env["y"])
        stack = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for op in self._code:
                if isinstance(op, np.ufunc):
                    args = stack[-op.nin:]
                    del stack[-op.nin:]
                    stack.append(op(*args))
                else:
                    stack.append(env[op] if isinstance(op, str) else op)
        return np.broadcast_to(stack.pop(), env["x"].shape).astype(float)


# ---------------------------------------------------------------------------
# check registry

@dataclasses.dataclass(frozen=True)
class CheckDef:
    params: tuple               # required parameter names
    torsion_only: bool
    description: str
    ranges: str
    run: object                 # (mesh, cell's solve record, space, params) -> reports
    # (space, params) -> None, or raises HypothesisRangeError; checked at load
    in_range: object = lambda sp, pm: None


_CHECKS = {
    "thm1.1": CheckDef(
        params=("p", "q"), torsion_only=False,
        description="Lorentz-norm comparison of the solution against its "
                    "symmetrized twin for a general non-negative source",
        ranges="q=1: 0 < p <= n/(2n-2); q=2: p <= n/(3n-4) (kappa=0), "
               "p <= n/(3n-3) (kappa=1, n>=3), p <= 1 (kappa=1, n=2)",
        run=lambda m, r, sp, pm: [verify.check_theorem_main1(r, pm["p"], pm["q"])],
        in_range=lambda sp, pm: verify._main1_range(sp, pm["p"], pm["q"])),
    "thm1.2": CheckDef(
        params=("p", "q"), torsion_only=True,
        description="Lorentz-norm comparison for the torsion problem "
                    "(unit source), with its wider admissible range",
        ranges="q=1: 0 < p <= n/(n-2), any p for n=2; q=2: same range, "
               "kappa=0 only",
        run=lambda m, r, sp, pm: [verify.check_theorem_main2(r, pm["p"], pm["q"])],
        in_range=lambda sp, pm: verify._main2_range(sp, pm["p"], pm["q"])),
    "thm1.2-pointwise": CheckDef(
        params=(), torsion_only=True,
        description="Pointwise bound of the rearranged torsion solution by "
                    "the symmetrized profile",
        ranges="n=2, kappa=0 only",
        run=lambda m, r, sp, pm: [verify.check_theorem_main2(r, pointwise=True)],
        in_range=lambda sp, pm: verify._pointwise_range(sp)),
    "min-comparison": CheckDef(
        params=(), torsion_only=False,
        description="Minimum of the solution against the boundary value of "
                    "the symmetrized profile",
        ranges="any space",
        run=lambda m, r, sp, pm: [verify.check_min_comparison(r)]),
    "measure-bound": CheckDef(
        params=(), torsion_only=False,
        description="Superlevel measures of the solution bounded by the "
                    "matched ball volumes at every threshold",
        ranges="any space",
        run=lambda m, r, sp, pm: [verify.check_measure_bound(r)]),
    "level-set-chain": CheckDef(
        params=(), torsion_only=False,
        description="Differential level-set inequality at 20 thresholds "
                    "evenly spaced between the minimum and maximum of u",
        ranges="any space",
        run=lambda m, r, sp, pm: verify.check_lemma_31(r, _auto_thresholds(r))),
    "flux-identity": CheckDef(
        params=(), torsion_only=False,
        description="Integrated level-set identity at threshold infinity: "
                    "boundary flux equals the source integral over beta",
        ranges="any space",
        run=lambda m, r, sp, pm: [verify.check_lemma_32(r, math.inf)]),
    "isoperimetric": CheckDef(
        params=(), torsion_only=False,
        description="Weighted boundary measure against the isoperimetric "
                    "profile at the domain's weighted volume",
        ranges="any space",
        run=lambda m, r, sp, pm: [verify.check_isoperimetric(m, sp)]),
    "saint-venant": CheckDef(
        params=(), torsion_only=True,
        description="Torsional rigidity bounded by the matched ball's "
                    "weighted rigidity",
        ranges="any space",
        run=lambda m, r, sp, pm: [verify.check_saint_venant(r)]),
    "bossel-daners": CheckDef(
        params=(), torsion_only=False,
        description="First Robin eigenvalue bounded below by the matched "
                    "ball's eigenvalue",
        ranges="any space",
        run=lambda m, r, sp, pm: [verify.check_bossel_daners(r)]),
}


def list_checks(as_json=False, stream=None):
    stream = stream or sys.stdout
    if as_json:
        payload = [
            {"id": cid, "description": d.description, "parameters": list(d.params),
             "admissible": d.ranges, "torsion_only": d.torsion_only}
            for cid, d in sorted(_CHECKS.items())
        ]
        stream.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    for cid, d in sorted(_CHECKS.items()):
        params = ", ".join(d.params) if d.params else "none"
        stream.write(f"{cid}\n    {d.description}\n"
                     f"    parameters: {params}\n    admissible: {d.ranges}\n")


# ---------------------------------------------------------------------------
# configuration

_SOURCE_TORSION = "torsion"


@dataclasses.dataclass(frozen=True)
class CheckRequest:
    check_id: str
    params: dict


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    space: ModelSpace
    domain: dict
    source: object              # "torsion" | SourceExpression | ("field", path)
    beta: tuple
    checks: tuple
    h: float
    refine_levels: int
    output_dir: str
    resolved: dict              # every defaulted parameter, echoed


def _need(doc, key, typ, what):
    if key not in doc:
        raise ConfigError(f"missing {what} field {key!r}")
    value = doc[key]
    if typ is float and isinstance(value, int):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{what} field {key!r} must be a finite real") from None
    if not isinstance(value, typ):
        raise ConfigError(f"{what} field {key!r} must be {typ.__name__}")
    return value


def _first_boolean(doc):
    """The path, like ``checks[0].q``, of the first boolean in a JSON
    document, or None.  The walk keeps its own stack, so no nesting depth
    that json.load accepts can exhaust Python's."""
    stack = [(doc, "")]
    while stack:
        value, where = stack.pop()
        if isinstance(value, bool):
            return where
        if isinstance(value, dict):
            items = [(v, f"{where}.{k}" if where else k) for k, v in value.items()]
        elif isinstance(value, list):
            items = [(v, f"{where}[{i}]") for i, v in enumerate(value)]
        else:
            continue
        stack.extend(reversed(items))
    return None


def load_config(path: str, output_dir: str | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, an integer past the digit limit, undecodable bytes
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    # no field takes a boolean, and Python would read true as the number 1
    if (where := _first_boolean(doc)) is not None:
        raise ConfigError(f"field {where!r} is a boolean; no config field takes one")

    space_doc = _need(doc, "space", dict, "config")
    try:
        space = ModelSpace(kappa=space_doc.get("kappa", 0),
                           n=space_doc.get("n", 2),
                           alpha=space_doc.get("alpha", 1.0))
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"space: {exc}") from exc

    checks_doc = _need(doc, "checks", list, "config")
    if not checks_doc:
        raise ConfigError("checks must be a non-empty list")
    checks = []
    for entry in checks_doc:
        if isinstance(entry, str):
            entry = {"id": entry}
        if not isinstance(entry, dict) or "id" not in entry:
            raise ConfigError(f"check entry {entry!r} needs an 'id'")
        cid = entry["id"]
        if cid not in _CHECKS:
            known = ", ".join(sorted(_CHECKS))
            raise ConfigError(f"unknown check {cid!r}; known: {known}")
        cdef = _CHECKS[cid]
        params = {k: entry[k] for k in entry if k != "id"}
        missing = [k for k in cdef.params if k not in params]
        if missing:
            raise ConfigError(f"check {cid}: missing parameters {missing}")
        extra = [k for k in params if k not in cdef.params]
        if extra:
            raise ConfigError(f"check {cid}: unknown parameters {extra}")
        if "p" in params:
            params["p"] = _need(params, "p", float, f"check {cid}")
        # hypothesis ranges are enforced at load so a bad (p, q) never
        # reaches a solver; n=2 meshability is checked after, deliberately
        try:
            cdef.in_range(space, params)
        except (HypothesisRangeError, OverflowError) as exc:  # n beyond double range
            raise ConfigError(f"check {cid}: {exc}") from exc
        checks.append(CheckRequest(check_id=cid, params=params))

    domain = _need(doc, "domain", dict, "config")
    if ("kind" in domain) == ("mesh" in domain):
        raise ConfigError("domain needs exactly one of 'kind' or 'mesh'")
    if "mesh" in domain and not os.path.exists(domain["mesh"]):
        raise ConfigError(f"domain mesh file {domain['mesh']!r} does not exist")
    if space.n != 2:
        raise ConfigError(
            f"meshed runs are two-dimensional; space has n={space.n}")

    source_doc = doc.get("source", _SOURCE_TORSION)
    if source_doc == _SOURCE_TORSION:
        source = _SOURCE_TORSION
    elif isinstance(source_doc, dict) and set(source_doc) == {"expr"}:
        source = SourceExpression(str(source_doc["expr"]))
    elif isinstance(source_doc, dict) and set(source_doc) == {"field"}:
        if not os.path.exists(source_doc["field"]):
            raise ConfigError(
                f"source field file {source_doc['field']!r} does not exist")
        source = ("field", source_doc["field"])
    else:
        raise ConfigError(
            "source must be \"torsion\", {\"expr\": ...} or {\"field\": ...}")
    torsion_needed = [c.check_id for c in checks
                      if _CHECKS[c.check_id].torsion_only]
    if torsion_needed and source != _SOURCE_TORSION:
        raise ConfigError(
            f"checks {torsion_needed} compare the torsion problem and "
            "require the \"torsion\" source")

    beta = doc.get("beta", [1.0])
    try:
        beta_ok = (isinstance(beta, list) and beta
                   and all(isinstance(b, (int, float))
                           and math.isfinite(b) and b > 0 for b in beta))
    except OverflowError:  # an integer beyond double range
        beta_ok = False
    if not beta_ok:
        raise ConfigError("beta must be a non-empty list of positive reals")

    h = _need(doc, "h", float, "config")
    if not (h > 0.0 and math.isfinite(h)):
        raise ConfigError(f"h must be a positive real, got {h}")
    levels = doc.get("refine_levels", 0)
    if not isinstance(levels, int) or levels < 0:
        raise ConfigError("refine_levels must be an integer >= 0")
    if isinstance(source, tuple) and levels > 0:
        raise ConfigError("a field source fixes its own mesh; "
                          "refine_levels must be 0")

    out = output_dir or doc.get("output_dir")
    if not out:
        raise ConfigError("output_dir missing (config field or --output-dir)")

    resolved = {
        "space": {"kappa": space.kappa, "n": space.n, "alpha": space.alpha},
        "domain": domain,
        "source": source_doc,
        "beta": [float(b) for b in beta],
        "h": h,
        "refine_levels": levels,
        "checks": [dict({"id": c.check_id}, **c.params) for c in checks],
        "output_dir": str(out),
    }
    return ExperimentConfig(
        space=space, domain=domain, source=source,
        beta=tuple(float(b) for b in beta), checks=tuple(checks),
        h=h, refine_levels=levels, output_dir=str(out), resolved=resolved)


# ---------------------------------------------------------------------------
# pipeline

class SolverStageError(RuntimeError):
    def __init__(self, stage, exc):
        super().__init__(f"{stage}: {exc}")
        self.stage = stage


# library failures of a solve or a check on a valid config: exit status 3
_SOLVER_ERRORS = (
    fem.SolverConvergenceError, fem.SingularGeometryError, fem.EigenSignError,
    fem.SingularSystemError,
    radial.EigenBracketError, radial.DegenerateBallError,
    LorentzDivergenceError, SphereOverflowError,
)


def _build_domain(domain: dict, h: float) -> MeasuredMesh:
    """The mesh of a domain document, shaped like a config's ``"domain"``:
    ``{"mesh": path}`` loads a saved mesh; otherwise ``"kind"`` names a
    generator, which takes the document's other fields as its parameters,
    ``h`` as its target_h, ``"geometry"`` (default ``"flat"``) and a
    ``"warp"`` of ``{"profile": name, "c": value}``.  A polygon's
    ``"points"`` are pairs of numbers or of number strings.  A document the
    generator or the loader refuses is a ConfigError."""
    domain = dict(domain)
    try:
        if "mesh" in domain:
            return load_mesh(domain["mesh"])
        kind = domain.pop("kind")
        geometry = domain.pop("geometry", "flat")
        warp_doc = domain.pop("warp", None)
        warp = None
        if warp_doc is not None:
            if not isinstance(warp_doc, dict):
                raise TypeError('warp must be {"profile": ..., "c": ...}')
            warp = warped_profile(warp_doc["profile"], float(warp_doc["c"]))
        if kind == "polygon" and "points" in domain:
            domain["points"] = [tuple(map(float, pt)) for pt in domain["points"]]
        return generate_domain(kind, target_h=h, geometry=geometry,
                               warp=warp, **domain)
    except KeyError as exc:
        raise ConfigError(f"domain: missing field {exc}") from exc
    except (ValueError, TypeError, OverflowError, OSError) as exc:
        raise ConfigError(f"domain: {exc}") from exc


def _check_refined_size(mesh: MeasuredMesh, levels: int):
    """Refuse ``levels`` refinements whose finest mesh would pass the vertex
    ceiling, counted exactly and without refining: a level adds a vertex per
    edge, splits each edge in two and each triangle into four, so
    V' = V + E, E' = 2E + 3T and T' = 4T."""
    v, t = len(mesh.vertices), len(mesh.triangles)
    e = (3 * t + len(mesh.boundary_edges)) // 2  # interior edges have two sides
    for level in range(1, levels + 1):
        v, e, t = v + e, 2 * e + 3 * t, 4 * t
        if v > MAX_VERTICES:
            raise ConfigError(
                f"refine_levels: level {level} would have {v} vertices, "
                f"more than the ceiling of {MAX_VERTICES} (2**21)")


def _source_field(config, mesh) -> ScalarField | None:
    if config.source == _SOURCE_TORSION:
        return None
    if isinstance(config.source, SourceExpression):
        values = config.source(mesh.vertices[:, 0], mesh.vertices[:, 1])
        if not np.all(np.isfinite(values)):
            raise ConfigError("source expression evaluates to non-finite values")
        if float(np.min(values)) < 0.0:
            raise ConfigError("source expression is negative on the domain; "
                              "the comparison needs f >= 0")
        return ScalarField(mesh=mesh, values=values)
    try:
        field = fem.load_field(config.source[1])
    except (OSError, MeshFormatError, MeshInvariantError) as exc:
        raise ConfigError(f"source field: {exc}") from exc
    if (len(field.values) != len(mesh.vertices)
            or not np.array_equal(field.mesh.vertices, mesh.vertices)):
        raise ConfigError("source field lives on a different mesh than the domain")
    return ScalarField(mesh=mesh, values=field.values)


def _auto_thresholds(rec: verify.SolveRecord, count=20):
    """Up to ``count`` thresholds evenly spaced strictly inside (min u, max u),
    so roundoff in u moves them only by roundoff; as many as there are
    distribution breakpoint gaps inside, when that is fewer."""
    bks = np.asarray(rec.dist.breakpoints, dtype=float)
    mids = 0.5 * (bks[:-1] + bks[1:])
    umin, umax = float(np.min(rec.u.values)), float(np.max(rec.u.values))
    take = min(count, int(np.sum((mids > umin) & (mids < umax))))
    return umin + (umax - umin) * np.arange(1, take + 1) / (take + 1)


def _level_problems(config, mesh) -> dict:
    """A level's problems, one per beta; a source the comparison does not
    take (negative somewhere, or zero everywhere) is a ConfigError."""
    source = _source_field(config, mesh)
    try:
        return {beta: RobinProblem(mesh=mesh, beta=beta, source=source)
                for beta in config.beta}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _run_cell(cell, mesh, rec, space) -> list:
    beta, level, request = cell
    cid = request.check_id
    try:
        reports = _CHECKS[cid].run(mesh, rec, space, request.params)
    except _SOLVER_ERRORS as exc:
        raise SolverStageError(f"check {cid} (beta={beta}, level={level})", exc)
    tagged = []
    for rep in reports:
        ctx = dict(rep.context)
        ctx["level"] = level
        ctx["verify_op"] = rep.check_id
        ctx.setdefault("beta", beta)
        tagged.append(dataclasses.replace(rep, check_id=cid, context=ctx))
    return tagged


def _write_plot(path, header, columns):
    rows = zip(*(np.asarray(col, dtype=float).tolist() for col in columns))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _write_plots(config, solves, out_dir):
    plots = os.path.join(out_dir, "plots")
    os.makedirs(plots, exist_ok=True)
    for ib, beta in enumerate(config.beta):
        for level, records in enumerate(solves):
            if beta not in records:
                continue
            rec = records[beta]
            dist, ball, v = rec.dist, rec.ball, rec.v
            t = np.linspace(0.0, float(np.max(rec.u.values)), 257)
            _write_plot(os.path.join(plots, f"mu_b{ib}_L{level}.csv"),
                        ("t", "mu"), (t, dist.evaluate(t)))
            usharp = rec.ustar
            r = np.linspace(0.0, ball.radius, 257)
            _write_plot(os.path.join(plots, f"usharp_b{ib}_L{level}.csv"),
                        ("r", "usharp", "v"),
                        (r, np.interp(r, usharp.grid, usharp.values),
                         np.interp(r, v.grid, v.values)))


def _write_gap_tables(config, reports, out_dir):
    plots = os.path.join(out_dir, "plots")
    os.makedirs(plots, exist_ok=True)
    for ib, beta in enumerate(config.beta):
        for request in config.checks:
            rows = [(r.context.get("h", math.nan), r.gap)
                    for r in reports
                    if r.check_id == request.check_id and not r.skipped
                    and r.context.get("beta") == beta]
            if not rows:
                continue
            hs = np.array([row[0] for row in rows])
            gaps = np.array([row[1] for row in rows])
            order = np.argsort(-hs, kind="stable")
            _write_plot(
                os.path.join(plots, f"gap_{request.check_id}_b{ib}.csv"),
                ("h", "gap"), (hs[order], gaps[order]))


def run(config: ExperimentConfig, jobs: int = 1, stream=None) -> int:
    stream = stream or sys.stdout
    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config_resolved.json"), "w") as fh:
        json.dump(config.resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")

    meshes = [_build_domain(config.domain, config.h)]
    _check_refined_size(meshes[0], config.refine_levels)
    problems = [_level_problems(config, meshes[0])]
    for _ in range(config.refine_levels):
        meshes.append(refine(meshes[-1]))
        problems.append(_level_problems(config, meshes[-1]))

    cells = [(beta, level, request) for beta in config.beta
             for level in range(len(meshes)) for request in config.checks]
    space = config.space

    # every record is built before any check runs, so cells (and worker
    # threads) only read them.  The finest level goes first: its factor sets
    # the peak memory, so it runs before the coarser levels' records are
    # held.  Levels on one ball share their twins through one table.
    solves = [{} for _ in meshes]
    if any(c.check_id != "isoperimetric" for c in config.checks):
        eigen = any(c.check_id == "bossel-daners" for c in config.checks)
        twins = {}
        for level in reversed(range(len(meshes))):
            try:
                records = verify.solve_records(list(problems[level].values()),
                                               space, eigen, twins)
            except _SOLVER_ERRORS as exc:
                betas = ", ".join(map(str, problems[level]))
                raise SolverStageError(
                    f"solve (beta={betas}, h={meshes[level].mesh_size():g})", exc)
            solves[level] = dict(zip(problems[level], records))

    def run_cell(cell):
        beta, level, _ = cell
        return _run_cell(cell, meshes[level], solves[level].get(beta), space)

    if jobs > 1:
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = [run_cell(cell) for cell in cells]

    reports = [rep for cell_reports in results for rep in cell_reports]
    verify.reports_to_csv(reports, os.path.join(out_dir, "summary.csv"))
    verify.reports_to_jsonl(reports, os.path.join(out_dir, "reports.jsonl"))
    _write_plots(config, solves, out_dir)
    _write_gap_tables(config, reports, out_dir)

    finest = len(meshes) - 1
    failed = [
        rep for (_, level, _), reps in zip(cells, results) if level == finest
        for rep in reps if not rep.skipped and not rep.passed
    ]
    stream.write(f"{len(reports)} report lines -> {out_dir}\n")
    for rep in failed:
        stream.write(
            f"FAILED {rep.check_id}: lhs={rep.lhs!r} rhs={rep.rhs!r} "
            f"tol={rep.tolerance!r} (beta={rep.context.get('beta')})\n")
    if failed:
        stream.write(f"{len(failed)} check(s) failed at the finest level\n")
        return 1
    stream.write("all checks passed at the finest level\n")
    return 0


# ---------------------------------------------------------------------------
# mesh subcommands

def _mesh_gen(args) -> int:
    domain = {"kind": args.kind, "geometry": args.geometry}
    for name in ("radius", "side", "theta", "r_inner", "r_outer",
                 "angle0", "angle1", "n_boundary"):
        if getattr(args, name) is not None:
            domain[name] = getattr(args, name)
    if args.points is not None:
        domain["points"] = [chunk.split(",")
                            for chunk in args.points.replace(";", " ").split()]
    if args.warp_profile is not None:
        domain["warp"] = {"profile": args.warp_profile}
        if args.warp_c is not None:
            domain["warp"]["c"] = args.warp_c
    try:
        mesh = _build_domain(domain, args.h)
    except ConfigError as exc:
        print(f"mesh gen: {exc}", file=sys.stderr)
        return 2
    save_mesh(mesh, args.out)
    print(f"{len(mesh.vertices)} vertices, {len(mesh.triangles)} triangles, "
          f"h={mesh.mesh_size():g} -> {args.out}")
    return 0


def _mesh_validate(args) -> int:
    try:
        mesh = load_mesh(args.file)
    except (MeshFormatError, MeshInvariantError, OSError) as exc:
        print(f"mesh validate: {exc}", file=sys.stderr)
        return 2
    print(f"valid: {len(mesh.vertices)} vertices, {len(mesh.triangles)} "
          f"triangles, {len(mesh.boundary_edges)} boundary edges, "
          f"geometry={mesh.geometry}, h={mesh.mesh_size():g}, "
          f"measure={mesh.total_measure():g}")
    return 0


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> "argparse.ArgumentParser":
    import argparse

    parser = argparse.ArgumentParser(
        prog="robinsym",
        description="Symmetrization comparisons for Robin boundary problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--jobs", type=int, default=1)

    p_list = sub.add_parser("list-checks", help="list available checks")
    p_list.add_argument("--json", action="store_true")

    p_mesh = sub.add_parser("mesh", help="mesh utilities")
    mesh_sub = p_mesh.add_subparsers(dest="mesh_command", required=True)
    p_gen = mesh_sub.add_parser("gen", help="generate and save a mesh")
    p_gen.add_argument("kind")
    p_gen.add_argument("--h", type=float, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--geometry", default="flat")
    p_gen.add_argument("--radius", type=float)
    p_gen.add_argument("--side", type=float)
    p_gen.add_argument("--theta", type=float)
    p_gen.add_argument("--r-inner", type=float, dest="r_inner")
    p_gen.add_argument("--r-outer", type=float, dest="r_outer")
    p_gen.add_argument("--angle0", type=float)
    p_gen.add_argument("--angle1", type=float)
    p_gen.add_argument("--points")
    p_gen.add_argument("--n-boundary", type=int, dest="n_boundary")
    p_gen.add_argument("--warp-profile", dest="warp_profile")
    p_gen.add_argument("--warp-c", type=float, dest="warp_c")
    p_val = mesh_sub.add_parser("validate", help="validate a mesh file")
    p_val.add_argument("file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-checks":
        list_checks(as_json=args.json)
        return 0
    if args.command == "mesh":
        if args.mesh_command == "gen":
            return _mesh_gen(args)
        return _mesh_validate(args)
    if args.jobs < 1:
        print("run: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        config = load_config(args.config, output_dir=args.output_dir)
        return run(config, jobs=args.jobs)
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    except SolverStageError as exc:
        print(f"solver: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
