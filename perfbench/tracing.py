"""Per-layer tracing of tensalg from outside the library.

Wrappers go on the attribute each caller looks up: every tensalg module
global bound to a traced function is replaced, and methods are replaced on
their class.  A span records its name, start, end and parent and stays in
memory until the run writes it out; self time is a span's duration minus
the time its direct children cover.  The ``FinLattice`` methods are only
counted, in a pass of their own, because a wrapper costs more than the
method.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from time import perf_counter

# (module, attribute, span name); the name is the layer that owns the work
SPANNED = (
    ("generators", "draw_instance", "generators.draw_instance"),
    ("vmodule", "enumerate_module_homs", "vmodule.enumerate_module_homs"),
    ("vmodule", "power_module", "vmodule.power_module"),
    ("fsemilattice", "construct_FJ", "fsemilattice.construct_FJ"),
    ("fsemilattice", "validate_fsemilattice",
     "fsemilattice.validate_fsemilattice"),
    ("fsemilattice", "is_f_hom", "nucleus.is_f_hom"),
    ("nucleus", "prenucleus_from_pairs", "nucleus.prenucleus_from_pairs"),
    ("nucleus", "closure_of", "nucleus.closure_of"),
    ("nucleus", "quotient", "nucleus.quotient"),
    ("nucleus", "prenucleus_violation", "nucleus.prenucleus_violation"),
    ("functors", "tensor", "functors.tensor"),
    ("functors", "tensor_pairs_encoded", "functors.tensor_pairs_encoded"),
    ("functors", "hom_frame", "functors.hom_frame"),
    ("functors", "hom_frame_relation", "functors.hom_frame_relation"),
    ("adjunctions", "check_triangles_adjunction1", "adjunctions.adj1"),
    ("adjunctions", "check_triangles_adjunction2", "adjunctions.adj2"),
    ("adjunctions", "check_triangles_adjunction3", "adjunctions.adj3"),
) + tuple(
    ("adjunctions", f"check_naturality_{sq}", "adjunctions.naturality")
    for sq in ("eta", "eps", "phi", "psi", "nu", "mu"))

# (module, class, method, span name)
SPANNED_METHODS = (
    ("adjunctions", "TuplePairNucleus", "n", "adjunctions.lazy_nucleus"),
)

COUNTED_METHODS = ("leq", "join2", "decode", "meet")

ADJUNCTION_SPANS = ("adjunctions.adj1", "adjunctions.adj2",
                    "adjunctions.adj3", "adjunctions.naturality")

# every per-layer metric, in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("generators.redraws", "count"),
    ("vmodule.enumerate_module_homs.s", "s"),
    ("vmodule.enumerate_module_homs.calls", "count"),
    ("vmodule.homs_returned", "count"),
    ("vmodule.power_module.s", "s"),
    ("fsemilattice.construct_FJ.self_s", "s"),
    ("fsemilattice.validate_fsemilattice.s", "s"),
    ("fsemilattice.validate_fsemilattice.calls", "count"),
    ("fsemilattice.construct_FJ.scaling_exp", "exponent"),
    ("nucleus.prenucleus_from_pairs.self_s", "s"),
    ("nucleus.closure_of.self_s", "s"),
    ("nucleus.quotient.self_s", "s"),
    ("nucleus.prenucleus_violation.s", "s"),
    ("nucleus.prenucleus_violation.calls", "count"),
    ("nucleus.is_f_hom.s", "s"),
    ("nucleus.saturated_pairs", "count"),
    ("nucleus.fixed_points", "count"),
    ("functors.tensor.self_s", "s"),
    ("functors.tensor_pairs_encoded.s", "s"),
    ("functors.hom_frame.self_s", "s"),
    ("functors.hom_frame_relation.s", "s"),
    ("functors.power_elements", "count"),
    ("functors.quotient_elements", "count"),
    ("functors.quotient_ratio", "ratio"),
    ("functors.hom_frame_points", "count"),
    ("functors.tensor.scaling_exp", "exponent"),
    ("adjunctions.adj1.self_s", "s"),
    ("adjunctions.adj2.self_s", "s"),
    ("adjunctions.adj3.self_s", "s"),
    ("adjunctions.construct_FJ.s", "s"),
    ("adjunctions.lazy_nucleus.s", "s"),
    ("adjunctions.lazy_nucleus.calls", "count"),
    ("adjunctions.naturality.s", "s"),
    ("adjunctions.checks", "count"),
    ("adjunctions.sampled_checks", "count"),
    ("lattice.leq.calls", "count"),
    ("lattice.join2.calls", "count"),
    ("lattice.decode.calls", "count"),
    ("lattice.meet.calls", "count"),
    ("trace.overhead_ratio", "ratio"),
)

# check names that say they sampled or restricted their domain
SAMPLED_SUFFIXES = ("-sampled", "-image")


class Tracer:
    """Spans and counters for one traced pass, kept in memory."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []     # [name, start, end, parent, outer]
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.rung_times: dict[str, dict[int, list[float]]] = {}
        self.power = 0                  # power size of the running instance
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # installing ----------------------------------------------------------

    def _modules(self):
        return [m for name, m in sys.modules.items()
                if m is not None and (name == "tensalg"
                                      or name.startswith("tensalg."))]

    def _rebind(self, orig, wrapper):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install_spans(self):
        for mod, attr, name in SPANNED:
            orig = getattr(getattr(self.lib, mod), attr, None)
            if orig is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            self._rebind(orig, self._spanned(orig, name))
        for mod, cls_name, meth, name in SPANNED_METHODS:
            cls = getattr(getattr(self.lib, mod), cls_name, None)
            orig = getattr(cls, meth, None) if cls is not None else None
            if orig is None:
                self.missing.append(f"{mod}.{cls_name}.{meth}")
                continue
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._spanned(orig, name))

    def install_counters(self):
        cls = self.lib.lattice.FinLattice
        for meth in COUNTED_METHODS:
            orig = getattr(cls, meth, None)
            if orig is None:
                self.missing.append(f"lattice.FinLattice.{meth}")
                continue
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._counted(orig, f"lattice.{meth}.calls"))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # wrappers ------------------------------------------------------------

    def _spanned(self, orig, name):
        spans, stack, active = self.spans, self.stack, self.active
        active.setdefault(name, 0)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   active[name] == 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            active[name] += 1
            rec[1] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                active[name] -= 1
                stack.pop()
            if after is not None:
                try:
                    after(args, kwargs, result, rec)
                except (AttributeError, IndexError, TypeError):
                    # the result changed shape; tracing must not fail the run
                    if name not in self.missing:
                        self.missing.append(name)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _counted(self, orig, name):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args):
            counts[name] += 1
            return orig(*args)

        wrapper.__wrapped__ = orig
        return wrapper

    def bump(self, name: str, k: int = 1):
        self.counts[name] = self.counts.get(name, 0) + k

    def _rung(self, name, rec):
        if self.power and rec[4]:
            self.rung_times.setdefault(name, {}).setdefault(
                self.power, []).append(rec[2] - rec[1])

    def _after_generators_draw_instance(self, args, kwargs, result, rec):
        attempt = args[2] if len(args) > 2 else kwargs.get("attempt", 0)
        if attempt:
            self.bump("generators.redraws")

    def _after_vmodule_enumerate_module_homs(self, args, kwargs, result, rec):
        self.bump("vmodule.homs_returned", len(result))

    def _after_nucleus_prenucleus_from_pairs(self, args, kwargs, result, rec):
        self.bump("nucleus.saturated_pairs", len(result[1]))

    def _after_nucleus_quotient(self, args, kwargs, result, rec):
        self.bump("nucleus.fixed_points", len(result.fixed))

    def _after_functors_tensor(self, args, kwargs, result, rec):
        self.bump("functors.power_elements", result.power.n)
        self.bump("functors.quotient_elements", result.quotient.n)
        self._rung("functors.tensor", rec)

    def _after_functors_hom_frame(self, args, kwargs, result, rec):
        self.bump("functors.hom_frame_points", result.n)

    def _after_fsemilattice_construct_FJ(self, args, kwargs, result, rec):
        self._rung("fsemilattice.construct_FJ", rec)

    # reading -------------------------------------------------------------

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds of outermost spans and
        self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for k, (name, start, end, _, outer) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            if outer:
                row["s"] += end - start
            row["self_s"] += end - start - child[k]
        return table

    def seconds_under(self, name: str, ancestors: tuple[str, ...]) -> float:
        """Inclusive seconds of ``name`` spans called inside an ancestor."""
        total = 0.0
        for rec in self.spans:
            if rec[0] != name or not rec[4]:
                continue
            parent = rec[3]
            while parent >= 0 and self.spans[parent][0] not in ancestors:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += rec[2] - rec[1]
        return total

    def scaling(self, name: str) -> tuple[float, dict[int, float]]:
        """Least-squares slope of log(median time) on log(power size) over
        the rungs, and the per-rung median times."""
        per_rung = {p: statistics.median(ts)
                    for p, ts in sorted(self.rung_times.get(name, {}).items())}
        if len(per_rung) < 2:
            return 0.0, per_rung
        xs = [math.log(p) for p in per_rung]
        ys = [math.log(max(t, 1e-9)) for t in per_rung.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs))
        return slope, per_rung

    def write(self, fh):
        """Spans as one JSON array per line: name, start, end, parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        for name, start, end, parent, _ in self.spans:
            fh.write(json.dumps([name, round(start - t0, 9),
                                 round(end - t0, 9), parent]) + "\n")


def layer_metrics(tracer: Tracer, checks: int, sampled: int,
                  overhead: float) -> tuple[dict[str, float], dict]:
    """Every per-layer metric, plus the per-rung times behind the slopes."""
    t = tracer.span_table()

    def get(name, field):
        return t.get(name, {}).get(field, 0)

    c = tracer.counts
    fj_exp, fj_rungs = tracer.scaling("fsemilattice.construct_FJ")
    tn_exp, tn_rungs = tracer.scaling("functors.tensor")
    power = c.get("functors.power_elements", 0)
    quot = c.get("functors.quotient_elements", 0)
    values = {
        "generators.redraws": c.get("generators.redraws", 0),
        "vmodule.enumerate_module_homs.s":
            get("vmodule.enumerate_module_homs", "s"),
        "vmodule.enumerate_module_homs.calls":
            get("vmodule.enumerate_module_homs", "calls"),
        "vmodule.homs_returned": c.get("vmodule.homs_returned", 0),
        "vmodule.power_module.s": get("vmodule.power_module", "s"),
        "fsemilattice.construct_FJ.self_s":
            get("fsemilattice.construct_FJ", "self_s"),
        "fsemilattice.validate_fsemilattice.s":
            get("fsemilattice.validate_fsemilattice", "s"),
        "fsemilattice.validate_fsemilattice.calls":
            get("fsemilattice.validate_fsemilattice", "calls"),
        "fsemilattice.construct_FJ.scaling_exp": fj_exp,
        "nucleus.prenucleus_from_pairs.self_s":
            get("nucleus.prenucleus_from_pairs", "self_s"),
        "nucleus.closure_of.self_s": get("nucleus.closure_of", "self_s"),
        "nucleus.quotient.self_s": get("nucleus.quotient", "self_s"),
        "nucleus.prenucleus_violation.s":
            get("nucleus.prenucleus_violation", "s"),
        "nucleus.prenucleus_violation.calls":
            get("nucleus.prenucleus_violation", "calls"),
        "nucleus.is_f_hom.s": get("nucleus.is_f_hom", "s"),
        "nucleus.saturated_pairs": c.get("nucleus.saturated_pairs", 0),
        "nucleus.fixed_points": c.get("nucleus.fixed_points", 0),
        "functors.tensor.self_s": get("functors.tensor", "self_s"),
        "functors.tensor_pairs_encoded.s":
            get("functors.tensor_pairs_encoded", "s"),
        "functors.hom_frame.self_s": get("functors.hom_frame", "self_s"),
        "functors.hom_frame_relation.s":
            get("functors.hom_frame_relation", "s"),
        "functors.power_elements": power,
        "functors.quotient_elements": quot,
        "functors.quotient_ratio": quot / power if power else 0.0,
        "functors.hom_frame_points": c.get("functors.hom_frame_points", 0),
        "functors.tensor.scaling_exp": tn_exp,
        "adjunctions.adj1.self_s": get("adjunctions.adj1", "self_s"),
        "adjunctions.adj2.self_s": get("adjunctions.adj2", "self_s"),
        "adjunctions.adj3.self_s": get("adjunctions.adj3", "self_s"),
        "adjunctions.construct_FJ.s": tracer.seconds_under(
            "fsemilattice.construct_FJ", ADJUNCTION_SPANS),
        "adjunctions.lazy_nucleus.s": get("adjunctions.lazy_nucleus", "s"),
        "adjunctions.lazy_nucleus.calls":
            get("adjunctions.lazy_nucleus", "calls"),
        "adjunctions.naturality.s": get("adjunctions.naturality", "s"),
        "adjunctions.checks": checks,
        "adjunctions.sampled_checks": sampled,
        "trace.overhead_ratio": overhead,
    }
    for meth in COUNTED_METHODS:
        values[f"lattice.{meth}.calls"] = c.get(f"lattice.{meth}.calls", 0)
    rungs = {
        "fsemilattice.construct_FJ": {"scaling_exp": fj_exp,
                                      "median_s_by_power": fj_rungs},
        "functors.tensor": {"scaling_exp": tn_exp,
                            "median_s_by_power": tn_rungs},
    }
    return values, rungs
