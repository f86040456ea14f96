"""Span tracer installed around torofree's public functions from outside the package.

``Tracer.install`` rebinds every layer function listed in LAYERS to a wrapper
that records one span per call: layer code, job id, parent span, start and end
(``time.perf_counter`` seconds).  The rebinding covers every loaded torofree
module that holds the function (``classify``'s imported ``divides``, the
package namespace, class dictionaries such as ``Poly.__radd__``) and every
default argument that refers to it (``verify``'s ``action=repmods.act``), so
the program takes the same code paths traced as untraced.

Spans stay in memory, in flat arrays, until ``summary`` folds them into
per-layer call counts and self times.  A span's self time is its duration
minus the durations of its direct children; each job runs inside a root
``job`` span, so the self times of all spans sum to the traced job time.
"""

from __future__ import annotations

import sys
import time
import types
from array import array
from contextlib import contextmanager

# (metric name, module, attribute); "Class.method" names a class attribute.
LAYERS = [
    ("polyalg.init", "torofree.polyalg", "Poly.__init__"),
    ("polyalg.add", "torofree.polyalg", "Poly.__add__"),
    ("polyalg.mul", "torofree.polyalg", "Poly.__mul__"),
    ("polyalg.shift", "torofree.polyalg", "Poly.shift"),
    ("polyalg.divide", "torofree.polyalg", "divides"),
    ("liealg.bracket", "torofree.liealg", "bracket"),
    ("liealg.finite_algebra", "torofree.liealg", "finite_algebra"),
    ("liealg.basis_of", "torofree.liealg", "basis_of"),
    ("repmods.act", "torofree.repmods", "act"),
    ("repmods.act_element", "torofree.repmods", "act_element"),
    ("repmods.generator_bracket", "torofree.repmods", "generator_bracket"),
    ("repmods.base_action_polys", "torofree.repmods", "base_action_polys"),
    ("verify.bracket_compat", "torofree.verify", "bracket_compat_check"),
    ("verify.central_identity", "torofree.verify", "central_identity_check"),
    ("verify.freeness", "torofree.verify", "freeness_check"),
    ("verify.eva_twist", "torofree.verify", "eva_twist_check"),
    ("verify.degree_reduction", "torofree.verify", "degree_reduction_check"),
    ("verify.jacobi", "torofree.verify", "jacobi_check"),
    ("verify.cocycle_identity", "torofree.verify", "cocycle_identity_check"),
    ("verify.lemma_pa", "torofree.verify", "lemma_pa_property"),
    ("classify.principal_search", "torofree.classify", "principal_witness_search"),
    ("classify.witness_verify", "torofree.classify", "witness_verify"),
    ("classify.quotient_search", "torofree.classify", "quotient_certificate_search"),
    ("classify.irrep_lookup", "torofree.classify", "irrep_A"),
    ("classify.irrep_build", "torofree.classify", "build_irrep_A"),
    ("classify.nullspace", "torofree.classify", "nullspace"),
    ("classify.mat_vec", "torofree.classify", "mat_vec"),
    ("classify.quotient_verify", "torofree.classify", "verify_quotient_certificate"),
    ("classify.cyclicity", "torofree.classify", "cyclicity_check"),
    ("classify.recover", "torofree.classify", "recover_parameters"),
    # oracle evaluations are the eval callbacks of oracles made by oracle_from_spec
    ("classify.oracle_eval", "torofree.classify", "oracle_from_spec"),
    ("classify.iso", "torofree.classify", "iso_test"),
    ("cli.main", "torofree.cli", "main"),
]

LAYER_NAMES = [name for name, _, _ in LAYERS]
JOB = 0  # layer code of the root span around each job

# (ratio metric, counter of successes, layer whose call count is the base)
RATIOS = [
    ("classify.irrep.cache_hit_ratio", "irrep_hits", "classify.irrep_lookup"),
    ("classify.principal_search.hit_ratio", "principal_hits", "classify.principal_search"),
    ("classify.quotient_search.hit_ratio", "quotient_hits", "classify.quotient_search"),
    ("classify.cyclicity.success_ratio", "cyclicity_ok", "classify.cyclicity"),
]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in LAYER_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["polyalg.mul.ops"] = "count"
    units["classify.mat_vec.ops"] = "count"
    units["classify.irrep_build.max_dim"] = "dim"
    for ratio, _, _ in RATIOS:
        units[ratio] = "ratio"
        units[f"{ratio}.base"] = "count"
    units["cli.startup_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _terms(x) -> int:
    terms = getattr(x, "terms", None)
    return len(terms) if terms is not None else 1


class Tracer:
    def __init__(self):
        self.code = array("i")
        self.job = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.stack: list[int] = []
        self.job_id = -1
        self.counters = {
            "polyalg.mul.ops": 0,
            "classify.mat_vec.ops": 0,
            "classify.irrep_build.max_dim": 0,
            "principal_hits": 0,
            "quotient_hits": 0,
            "cyclicity_ok": 0,
        }
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def _open(self, code: int) -> int:
        ix = len(self.start)
        self.code.append(code)
        self.job.append(self.job_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.child.append(0.0)
        self.stack.append(ix)
        return ix

    def _close(self, ix: int, t0: float, t1: float) -> None:
        self.stack.pop()
        self.start[ix] = t0
        self.end[ix] = t1
        if self.stack:
            self.child[self.stack[-1]] += t1 - t0

    @contextmanager
    def job_span(self, job_id: int):
        """Root span around one job; returns its duration via the yielded list."""
        self.job_id = job_id
        ix = self._open(JOB)
        out = [0.0]
        t0 = time.perf_counter()
        try:
            yield out
        finally:
            t1 = time.perf_counter()
            self._close(ix, t0, t1)
            out[0] = t1 - t0
            self.job_id = -1

    def wrap(self, code: int, fn, post=None):
        """fn with a span of the given layer code around every call."""
        opened, closed, clock = self._open, self._close, time.perf_counter

        def traced(*args, **kwargs):
            ix = opened(code)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(ix, t0, clock())
            if post is not None:
                post(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters computed at the layer boundaries ---------------------------

    def _posts(self) -> dict:
        c = self.counters
        oracle_code = LAYER_NAMES.index("classify.oracle_eval") + 1

        def mul(args, result):
            c["polyalg.mul.ops"] += _terms(args[0]) * _terms(args[1])

        def mat_vec(args, result):
            c["classify.mat_vec.ops"] += len(args[0]) * len(args[1])

        def irrep_build(args, result):
            c["classify.irrep_build.max_dim"] = max(c["classify.irrep_build.max_dim"], result.dim)

        def counter(key, test):
            def post(args, result):
                if test(result):
                    c[key] += 1
            return post

        def oracle(args, result):
            result.eval = self.wrap(oracle_code, result.eval)

        return {
            "polyalg.mul": mul,
            "classify.mat_vec": mat_vec,
            "classify.irrep_build": irrep_build,
            "classify.principal_search": counter("principal_hits", lambda r: r is not None),
            "classify.quotient_search": counter("quotient_hits", lambda r: r is not None),
            "classify.cyclicity": counter("cyclicity_ok", bool),
            "classify.oracle_eval": oracle,
        }

    # -- installation ----------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Rebind every layer function in every loaded torofree module."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "torofree" or name.startswith("torofree."))
        ] + list(extra_modules)
        owners = list(modules)
        for m in modules:
            owners += [v for v in vars(m).values()
                       if isinstance(v, type) and v.__module__.startswith("torofree")]
        functions = [v for owner in owners for v in vars(owner).values()
                     if isinstance(v, types.FunctionType)]
        posts = self._posts()
        for code, (name, modname, attr) in enumerate(LAYERS, start=1):
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                orig = vars(getattr(mod, cls_name))[meth]
            else:
                orig = getattr(mod, attr)
            if name == "classify.oracle_eval":
                # a plain wrapper: the span goes around each oracle's eval callback
                post = posts[name]

                def replacement(*args, _orig=orig, _post=post, **kwargs):
                    result = _orig(*args, **kwargs)
                    _post(args, result)
                    return result
            else:
                replacement = self.wrap(code, orig, posts.get(name))
            self._rebind(orig, replacement, owners, functions)

    def _rebind(self, orig, new, owners, functions) -> None:
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is orig:
                    self._undo.append((owner, key, value))
                    setattr(owner, key, new)
        for fn in functions:
            if fn.__defaults__ and any(d is orig for d in fn.__defaults__):
                self._undo.append((fn, "__defaults__", fn.__defaults__))
                fn.__defaults__ = tuple(new if d is orig else d for d in fn.__defaults__)
            if fn.__kwdefaults__ and any(d is orig for d in fn.__kwdefaults__.values()):
                self._undo.append((fn, "__kwdefaults__", fn.__kwdefaults__))
                fn.__kwdefaults__ = {
                    k: new if d is orig else d for k, d in fn.__kwdefaults__.items()
                }

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        return [e - s - c for s, e, c in zip(self.start, self.end, self.child)]

    def summary(self) -> dict:
        """Per-layer calls and self times, counters, ratios with their bases."""
        n_layers = len(LAYERS) + 1
        calls = [0] * n_layers
        self_s = [0.0] * n_layers
        for code, st in zip(self.code, self.self_times()):
            calls[code] += 1
            self_s[code] += st
        out: dict[str, float] = {}
        for code, name in enumerate(LAYER_NAMES, start=1):
            out[f"{name}.calls"] = calls[code]
            out[f"{name}.self_s"] = self_s[code]
        c = dict(self.counters)
        c["irrep_hits"] = (
            out["classify.irrep_lookup.calls"] - out["classify.irrep_build.calls"]
        )
        out["polyalg.mul.ops"] = c["polyalg.mul.ops"]
        out["classify.mat_vec.ops"] = c["classify.mat_vec.ops"]
        out["classify.irrep_build.max_dim"] = c["classify.irrep_build.max_dim"]
        for ratio, key, base_layer in RATIOS:
            base = out[f"{base_layer}.calls"]
            out[ratio] = c[key] / base if base else 0.0
            out[f"{ratio}.base"] = base
        out["job.calls"] = calls[JOB]
        out["job.self_s"] = self_s[JOB]
        return out


def merge(summaries: list[dict]) -> dict:
    """Sum per-layer summaries of several traced processes (cli children)."""
    out: dict[str, float] = {}
    for s in summaries:
        for k, v in s.items():
            if k == "classify.irrep_build.max_dim":
                out[k] = max(out.get(k, 0), v)
            elif not any(k == r or k == f"{r}.base" for r, _, _ in RATIOS):
                out[k] = out.get(k, 0) + v
    for ratio, key, base_layer in RATIOS:
        base = out.get(f"{base_layer}.calls", 0)
        hits = sum(s.get(ratio, 0.0) * s.get(f"{ratio}.base", 0) for s in summaries)
        out[ratio] = hits / base if base else 0.0
        out[f"{ratio}.base"] = base
    return out
