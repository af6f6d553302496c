"""Outside-in span tracer for the dynbif modules.

:func:`install` wraps the public entry points of each ``dynbif`` module from
outside: every namespace that holds a wrapped function gets the wrapper (so
``dynamics.roots_blackbox`` and ``families.roots_blackbox`` are both timed),
the evaluator factories return timed closures, and a few hot methods are
counted.  Spans (name, start, end, parent) are kept in memory and written
out when the run ends; :func:`layer_metrics` derives inclusive and self
times and the counters from them.
"""

from __future__ import annotations

import collections
import importlib
import sys
import time

import numpy as np

# (module, attribute) -> span name.  A "Class.method" attribute patches the
# class.  Self times are summed per module, the part of the name before ".".
SPANS = {
    ("dynbif.aberth", "aberth_solve"): "aberth.solve",
    ("dynbif.aberth", "pairwise_sums"): "aberth.repulsion",
    ("dynbif.cpoly", "roots_blackbox"): "cpoly.roots_blackbox",
    ("dynbif.cpoly", "ComplexPolynomial.__call__"): "cpoly.poly_eval",
    ("dynbif.dynamics", "backward_cloud"): "dynamics.cloud",
    ("dynbif.dynamics", "exact_cycles"): "dynamics.exact_cycles",
    ("dynbif.dynamics", "cycle_multiplier"): "dynamics.multiplier",
    ("dynbif.lyapunov", "lyap_periodic"): "lyapunov.periodic",
    ("dynbif.lyapunov", "lyap_poly_closed_form"): "lyapunov.reference",
    ("dynbif.families", "centers_1d"): "families.centers_1d",
    ("dynbif.families", "centers_2d"): "families.centers_2d",
    ("dynbif.families", "_pca3_center_system"): "families.system2d",
    ("dynbif.families", "_assign_multiplicities"): "families.multiplicity",
    ("dynbif.families", "component_count"): "families.count",
    ("dynbif.families", "multiplier_continuation"): "families.continuation",
    ("dynbif.families", "quad_cycle_multiplier"): "families.cycle_multiplier",
    ("dynbif.families", "pca3_cycle_multiplier"): "families.cycle_multiplier",
    ("dynbif.equidist", "center_measure"): "equidist.center_measure",
    ("dynbif.equidist", "binned_distance"): "equidist.distance",
    ("dynbif.equidist", "GridDensity.from_measure"): "equidist.distance",
    ("dynbif.equidist", "moment"): "equidist.moment",
    ("dynbif.equidist", "pern_circle_measure"): "equidist.circle_measure",
    ("dynbif.cli", "write_csv"): "cli.write",
    ("dynbif.cli", "write_pgm"): "cli.write",
    ("dynbif.cli", "_write_atomic"): "cli.write",
    ("dynbif.cli", "_sha256"): "cli.digest",
}
# evaluator factories: the closures they return are timed under this name
FACTORIES = {
    ("dynbif.dynamics", "period_wedge_evaluator"): "dynamics.eval",
    ("dynbif.families", "quad_center_evaluator"): "families.center_eval",
}
# counted, not timed: their time stays in the caller's self time
COUNTED = {
    ("dynbif.dynamics", "RationalMapLift.apply"): "dynamics.apply_calls",
}
LAYERS = ("aberth", "cpoly", "dynamics", "lyapunov", "families", "equidist",
          "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counters: collections.Counter = collections.Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as a span.  ``after(args, result, parent)`` updates
        the counters on return, given the enclosing span's name.  A direct
        re-entry under the same name (a recursion, or one write helper
        calling another) stays in the outer span."""
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def timed(*args, **kwargs):
            parent = spans[open_[-1]][0] if open_ else None
            if parent == name:
                result = fn(*args, **kwargs)
            else:
                rec = [name, 0.0, 0.0, open_[-1] if open_ else -1]
                open_.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    open_.pop()
            if after is not None:
                after(args, result, parent)
            return result

        timed.__wrapped__ = fn
        return timed

    def count(self, name: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted


def _counter_hooks(tr: Tracer) -> dict:
    c = tr.counters

    def sweep(args, result, parent):
        z, active = args[0], args[1]
        c["aberth.sweeps"] += 1
        c["aberth.pair_evals"] += int(np.count_nonzero(active)) * len(z)

    def blackbox(args, result, parent):
        # root yield of the period-n solve: distinct roots over the degree
        if parent == "dynamics.exact_cycles":
            c["dynamics.roots_found"] += len(result.roots)
            c["dynamics.roots_target"] += int(args[1])

    def poly_eval(args, result, parent):
        c["cpoly.poly_evals"] += 1

    def points(name):
        def hook(args, result, parent):
            c[name] += int(np.size(args[0]))
        return hook

    def circle_measure(args, result, parent):
        # paths kept: atoms that survived path loss and the multiplier
        # re-check
        c["families.continuation_kept"] += len(result.measure.atoms)

    def written(args, result, parent):
        c["cli.bytes_written"] += len(args[1])

    return {
        "aberth.repulsion": sweep,
        "cpoly.roots_blackbox": blackbox,
        "cpoly.poly_eval": poly_eval,
        "families.system2d": points("families.system2d_points"),
        "equidist.circle_measure": circle_measure,
        "dynamics.eval": points("dynamics.eval_points"),
        "families.center_eval": points("families.center_eval_points"),
        "_write_atomic": written,
    }


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dynbif" or
                                  name.startswith("dynbif."))]


def _replace_everywhere(orig, new) -> None:
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def _patch(key, make) -> None:
    modname, attr = key
    mod = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, staticmethod):
            setattr(cls, meth, staticmethod(make(raw.__func__)))
        else:
            setattr(cls, meth, make(raw))
        return
    orig = getattr(mod, attr)
    _replace_everywhere(orig, make(orig))


def install(tr: Tracer) -> None:
    """Patch every traced entry point of the imported dynbif modules."""
    hooks = _counter_hooks(tr)
    for key, name in SPANS.items():
        hook = hooks.get(key[1], hooks.get(name))
        _patch(key, lambda fn, name=name, hook=hook: tr.wrap(name, fn, hook))
    for key, name in FACTORIES.items():
        def make(factory, name=name, hook=hooks[name]):
            def traced_factory(*args, **kwargs):
                return tr.wrap(name, factory(*args, **kwargs), hook)
            traced_factory.__wrapped__ = factory
            return traced_factory
        _patch(key, make)
    for key, name in COUNTED.items():
        _patch(key, lambda fn, name=name: tr.count(name, fn))


def layer_metrics(spans: list, counters: dict, wall: float) -> dict:
    """Per-layer metrics of one traced iteration: inclusive and self times
    per span name, counters, self time per module, and the uncovered part
    of ``wall`` that no span holds."""
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    incl = collections.Counter()
    own = collections.Counter()
    calls = collections.Counter()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    covered = 0.0
    for i, (name, _, _, parent) in enumerate(spans):
        incl[name] += dur[i]
        own[name] += dur[i] - child[i]
        calls[name] += 1
        layer_self[name.split(".")[0]] += dur[i] - child[i]
        if parent < 0:
            covered += dur[i]
    ct = collections.Counter(counters)

    def ratio(num, den):
        return num / den if den else 0.0

    s, n = "s", "count"
    out = {
        "aberth.solve_s": (incl["aberth.solve"], s),
        "aberth.repulsion_s": (incl["aberth.repulsion"], s),
        "aberth.sweeps": (ct["aberth.sweeps"], n),
        "aberth.pair_evals": (ct["aberth.pair_evals"], n),
        "cpoly.blackbox_self_s": (own["cpoly.roots_blackbox"], s),
        "cpoly.poly_evals": (ct["cpoly.poly_evals"], n),
        "cpoly.poly_eval_s": (incl["cpoly.poly_eval"], s),
        "dynamics.eval_points": (ct["dynamics.eval_points"], n),
        "dynamics.eval_s": (incl["dynamics.eval"], s),
        "dynamics.cloud_s": (incl["dynamics.cloud"], s),
        "dynamics.extract_self_s": (own["dynamics.exact_cycles"], s),
        "dynamics.apply_calls": (ct["dynamics.apply_calls"], n),
        "dynamics.multiplier_s": (incl["dynamics.multiplier"], s),
        "dynamics.root_yield": (ratio(ct["dynamics.roots_found"],
                                      ct["dynamics.roots_target"]), "ratio"),
        "lyapunov.periodic_s": (incl["lyapunov.periodic"], s),
        "lyapunov.reference_s": (incl["lyapunov.reference"], s),
        "families.centers_1d_s": (incl["families.centers_1d"], s),
        "families.center_eval_points": (ct["families.center_eval_points"],
                                        n),
        "families.center_eval_s": (incl["families.center_eval"], s),
        "families.centers_2d_s": (incl["families.centers_2d"], s),
        "families.system2d_points": (ct["families.system2d_points"], n),
        "families.system2d_s": (incl["families.system2d"], s),
        "families.dedupe_s": (own["families.centers_2d"], s),
        "families.multiplicity_s": (incl["families.multiplicity"], s),
        "families.count_self_s": (own["families.count"], s),
        "families.continuation_calls": (calls["families.continuation"], n),
        "families.continuation_s": (incl["families.continuation"], s),
        "families.continuation_yield": (
            ratio(ct["families.continuation_kept"],
                  calls["families.continuation"]), "ratio"),
        "families.cycle_multiplier_s": (incl["families.cycle_multiplier"], s),
        "equidist.center_measure_self_s": (own["equidist.center_measure"],
                                           s),
        "equidist.distance_s": (incl["equidist.distance"], s),
        "equidist.moment_s": (incl["equidist.moment"], s),
        "equidist.circle_measure_self_s": (own["equidist.circle_measure"],
                                           s),
        "cli.write_s": (incl["cli.write"], s),
        "cli.digest_s": (incl["cli.digest"], s),
        "cli.bytes_written": (ct["cli.bytes_written"], "bytes"),
    }
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = (value, s)
    out["trace.uncovered_s"] = (wall - covered, s)
    out["trace.wall_s"] = (wall, s)
    out["trace.spans"] = (len(spans), n)
    return out
