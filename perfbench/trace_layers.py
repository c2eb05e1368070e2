"""Spans around the package's public functions, wrapped from outside.

Nothing under ``src/`` changes: ``Tracer.install`` replaces each traced
function with a wrapper that records a span (name, start, end, parent span)
for the current op, and rebinds every reference the package holds to it,
because internal calls go through names bound at import time: module
globals in every ``schedmech`` module (``certificates`` imports
``lpt_star``, the CLI imports the checkers), the rule classes' ``__call__``
(which also covers the ``RULES`` entries and the rule singletons),
``Instance.__init__``, ``Mechanism.run`` and ``vcg_mechanism.payment_fn``.

``Aggregate`` turns the recorded spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path) -> span name.  The layer is the part before the
# first dot.
TRACED = {
    ("cli", "main"): "cli",
    ("core", "Instance.__init__"): "core.instance",
    ("allocations", "LptStar.__call__"): "allocations.lpt_star",
    ("allocations", "VcgAllocate.__call__"): "allocations.vcg",
    ("allocations", "TwoMachineOpt.__call__"): "allocations.two_opt",
    ("allocations", "AtFractional.__call__"): "allocations.at_fractional",
    ("allocations", "opt_makespan"): "allocations.opt_makespan",
    ("workcurve", "build_workcurve"): "workcurve.build",
    ("workcurve", "build_response_curve"): "workcurve.build",
    ("workcurve", "expected_workcurve"): "workcurve.expected",
    ("workcurve", "integrate"): "workcurve.integrate",
    ("workcurve", "piecewise_integral"): "workcurve.integrate",
    ("payments", "vcg_payments"): "payments.vcg_payments",
    ("payments", "ef_chain_payments"): "payments.ef_chain_payments",
    ("payments", "extract_h"): "payments.extract_h",
    ("payments", "_mechanism_curve"): "payments.curve_cache",
    ("payments", "HFunction.__call__"): "payments.h_function",
    ("payments", "Mechanism.run"): "payments.mechanism_run",
    ("properties", "check_truthful"): "properties.truthful",
    ("properties", "check_monotone"): "properties.monotone",
    ("properties", "check_envy_free"): "properties.envy_free",
    ("properties", "check_ir"): "properties.ir",
    ("properties", "check_anonymous"): "properties.anonymous",
    ("properties", "check_scalable"): "properties.scalable",
    ("properties", "check_local_efficiency"): "properties.local_efficiency",
    ("properties", "approx_ratio"): "properties.approx_ratio",
    ("exactlp", "solve_feasibility"): "exactlp.solve",
    ("exactlp", "irreducible_infeasible_subset"): "exactlp.iis",
    ("certificates", "theorem5_certificate"): "certificates.theorem5",
    ("certificates", "theorem7_certificate"): "certificates.theorem7",
    ("certificates", "theorem1_harness"): "certificates.theorem1",
    ("certificates", "lemma6_g"): "certificates.lemma6",
    ("certificates", "payment_polytope_feasible"): "certificates.polytope",
}

LAYERS = ("cli", "core", "allocations", "workcurve", "payments", "properties", "exactlp", "certificates")
RULE_SPANS = frozenset(
    ("allocations.lpt_star", "allocations.vcg", "allocations.two_opt",
     "allocations.at_fractional", "allocations.opt_makespan")
)

# Which spans each workload must reach, and which it must bypass.
REACHES = {
    "sweep": {"cli", "core.instance", "allocations.lpt_star", "allocations.vcg", "allocations.two_opt",
              "allocations.opt_makespan", "payments.vcg_payments", "payments.ef_chain_payments",
              "payments.mechanism_run", "properties.truthful", "properties.monotone",
              "properties.envy_free", "properties.ir", "properties.anonymous", "properties.scalable",
              "properties.local_efficiency", "properties.approx_ratio"},
    "curves": {"cli", "core.instance", "allocations.lpt_star", "allocations.vcg", "allocations.two_opt",
               "allocations.at_fractional", "allocations.opt_makespan", "workcurve.build",
               "workcurve.expected", "workcurve.integrate", "payments.vcg_payments", "payments.extract_h",
               "payments.curve_cache", "payments.h_function", "payments.mechanism_run",
               "properties.scalable", "certificates.theorem5", "certificates.theorem7",
               "certificates.theorem1", "certificates.lemma6"},
    "polytope": {"cli", "core.instance", "allocations.lpt_star", "allocations.vcg", "allocations.two_opt",
                 "allocations.at_fractional", "allocations.opt_makespan", "exactlp.solve", "exactlp.iis",
                 "certificates.polytope"},
}
BYPASSES = {"sweep": ("workcurve", "exactlp"), "curves": ("exactlp",), "polytope": ("workcurve",)}


# Per-span facts the derived metrics need, from (args, result).
_EXTRA = {
    "workcurve.build": lambda args, result: [len(result.breakpoints), bool(result.approximate)],
    "exactlp.solve": lambda args, result: len(args[1]),
    "certificates.polytope": lambda args, result: result.n_constraints,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def begin_op(self):
        self.spans = []
        self.stack = []

    def end_op(self):
        """The op's spans as [name, parent, start, end, extra], times in
        seconds from the first span's start."""
        base = self.spans[0][2] if self.spans else 0.0
        return [[n, p, s - base, e - base, x] for n, p, s, e, x in self.spans]

    def _wrap(self, name, fn):
        tracer = self
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            record = [name, tracer.stack[-1] if tracer.stack else -1, time.perf_counter(), 0.0, None]
            spans.append(record)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                tracer.stack.pop()
            if extra is not None:
                record[4] = extra(args, result)
            return result

        return wrapper

    def install(self):
        modules = {
            short: sys.modules[f"schedmech.{short}"]
            for short in ("cli", "core", "allocations", "workcurve", "payments", "properties",
                          "exactlp", "certificates")
        }
        replaced = {}
        for (short, path), name in TRACED.items():
            owner = modules[short]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            setattr(owner, attr, wrapper)
            replaced[id(original)] = (original, wrapper)
        # Rebind names the package bound at import time.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "schedmech" or mod_name.startswith("schedmech.")):
                continue
            for key, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
        payments = modules["payments"]
        hit = replaced.get(id(payments.vcg_mechanism.payment_fn))
        if hit is not None:
            payments.vcg_mechanism.payment_fn = hit[1]


# ---------------------------------------------------------------------------
# Aggregation


class Aggregate:
    """Per-layer totals over the spans of many ops."""

    def __init__(self):
        self.calls = {name: 0 for name in set(TRACED.values())}
        self.self_s = {name: 0.0 for name in set(TRACED.values())}
        self.total_s = 0.0
        self.workcurve_inclusive_s = 0.0
        self.probes = 0
        self.breakpoints = 0
        self.approximate = 0
        self.cache_misses = 0
        self.memo_misses = 0
        self.truthful_runs = 0
        self.monotone_evals = 0
        self.solve_rows = 0
        self.iis_solves = 0
        self.polytope_rows = 0
        self.max_self_gap_s = 0.0
        self.ops = 0

    def add_op(self, spans):
        """Fold one op's spans in; returns the op's root (cli) span time."""
        self.ops += 1
        child_s = [0.0] * len(spans)
        for name, parent, start, end, extra in spans:
            if parent >= 0:
                child_s[parent] += end - start
        cache_misses, memo_misses = set(), set()
        self_sum = root_s = 0.0
        for idx, (name, parent, start, end, extra) in enumerate(spans):
            own = (end - start) - child_s[idx]
            self_sum += own
            self.calls[name] += 1
            self.self_s[name] += own
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(p)
                p = spans[p][1]
            names = [spans[a][0] for a in ancestors]
            prop = next((a for a in names if a.startswith("properties.")), None)
            if parent < 0:
                root_s += end - start
            if name in RULE_SPANS:
                self.probes += "workcurve.build" in names
                self.monotone_evals += prop == "properties.monotone"
            elif name == "workcurve.build":
                self.breakpoints += extra[0]
                self.approximate += int(extra[1])
                if parent >= 0 and names[0] == "payments.curve_cache":
                    cache_misses.add(parent)
            elif name == "payments.extract_h":
                owner = next((a for a in ancestors if spans[a][0] == "payments.h_function"), None)
                if owner is not None:
                    memo_misses.add(owner)
            elif name == "payments.mechanism_run":
                self.truthful_runs += prop == "properties.truthful"
            elif name == "exactlp.solve":
                self.solve_rows += extra
                self.iis_solves += "exactlp.iis" in names
            elif name == "certificates.polytope":
                self.polytope_rows += extra
            if name.startswith("workcurve.") and not any(a.startswith("workcurve.") for a in names):
                self.workcurve_inclusive_s += end - start
        self.cache_misses += len(cache_misses)
        self.memo_misses += len(memo_misses)
        self.total_s += root_s
        self.max_self_gap_s = max(self.max_self_gap_s, abs(self_sum - root_s))
        return root_s

    def metrics(self):
        out = {}
        for name in sorted(self.calls):
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        total = self.total_s or 1.0
        for layer in LAYERS:
            layer_s = sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)
            out[f"{layer}.share"] = (layer_s / total, "fraction")
        out["workcurve.inclusive_share"] = (self.workcurve_inclusive_s / total, "fraction")
        out["workcurve.probes"] = (self.probes, "count")
        out["workcurve.probes_per_breakpoint"] = (self.probes / max(self.breakpoints, 1), "ratio")
        out["workcurve.approximate"] = (self.approximate, "count")
        for key, name, misses in (("curve_cache", "payments.curve_cache", self.cache_misses),
                                  ("h_memo", "payments.h_function", self.memo_misses)):
            calls = self.calls[name]
            out[f"payments.{key}.hit_ratio"] = ((calls - misses) / calls if calls else 0.0, "ratio")
        out["properties.truthful.runs_per_check"] = (
            self.truthful_runs / max(self.calls["properties.truthful"], 1), "ratio")
        out["properties.monotone.evals_per_check"] = (
            self.monotone_evals / max(self.calls["properties.monotone"], 1), "ratio")
        out["exactlp.solve.rows"] = (self.solve_rows, "count")
        out["exactlp.iis.solves_per_call"] = (self.iis_solves / max(self.calls["exactlp.iis"], 1), "ratio")
        out["certificates.polytope.rows"] = (self.polytope_rows, "count")
        out["trace.ops"] = (self.ops, "count")
        return out

