"""In-process spans around the public functions of each paracount module.

`Tracer.install()` rebinds every traced function, in every paracount module
that binds it by name, to a wrapper that records a span (name, start, end,
parent, instance id); `uninstall()` restores the originals.  Spans stay in
memory until the run writes them out.  A layer's self time is its span's
duration minus the time of its direct child spans.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from paracount import cnf as cnfm
from paracount import selftest as stm

# (layer, module, function); several functions may feed one layer.
LAYERS = [
    ("graphs.parse", "graphs", "graph_from_json"),
    ("graphs.walk_matrix", "graphs", "walk_count_matrix"),
    ("walks.reach", "walks", "count_reach"),
    ("walks.logreach", "walks", "count_log_reach_b"),
    ("walks.logwalk", "walks", "count_log_walk_b"),
    ("walks.reachcolour", "walks", "count_reach_colour"),
    ("cnf.reach2cnf", "cnf", "count_log_reach2_cnf"),
    ("cnf.cyclecover", "cnf", "count_cycle_cover2_cnf"),
    ("cnf.parse", "cnf", "parse_dimacs"),
    ("fo.mc_local", "fo", "count_mc_local"),
    ("fo.mc_brute", "fo", "count_mc"),
    ("fo.parse", "fo", "formula_from_json"),
    ("fo.parse", "fo", "structure_from_json"),
    ("homs.path_star", "homs", "count_hom_path_star"),
    ("homs.oracle", "homs", "count_hom_oracle"),
    ("homs.oracle", "homs", "enumerate_homs"),
    ("pdet.clow", "pdet", "pdet_clow"),
    ("pdet.direct", "pdet", "pdet_direct"),
    ("pdet.involution", "pdet", "eta"),
    ("bp.fast", "bp", "bp_count_fast"),
    ("bp.certify", "bp", "check_read_once_certified"),
    ("bp.parse", "bp", "bp_from_json"),
    ("bp.acc", "bp", "bp_count_acc"),
    ("bp.stagger", "bp", "stagger"),
    ("reductions.transform", "reductions", "reduce_hom_to_reach"),
    ("reductions.transform", "reductions", "reduce_reach_colour_to_hom"),
    ("reductions.transform", "reductions", "reduce_reach_to_mc"),
    ("reductions.transform", "reductions", "reduce_reach_to_pdet"),
    ("reductions.verify", "reductions", "verify_parsimonious"),
]

#: Layers measured outside spans (startup) or by the span around `cli.main`.
EXTRA_LAYERS = ["cli.startup", "cli.self"]


def layer_names() -> list[str]:
    names = EXTRA_LAYERS + [layer for layer, _, _ in LAYERS]
    names += [f"selftest.{name}" for name, _ in stm.PROPERTIES]
    return list(dict.fromkeys(names))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, instance]
        self.stack: list[int] = []
        self.instance: str | None = None
        self.counters: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        # A layer re-entered from itself (recursion, or one public function
        # of a layer calling another) stays one span.
        if self.stack and self.spans[self.stack[-1]][0] == name:
            yield
            return
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.instance])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, name, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) if name else nullcontext():
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, fn, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "paracount" and not modname.startswith("paracount."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        paracount = sys.modules["paracount"]
        for layer, modname, attr in LAYERS:
            fn = getattr(getattr(paracount, modname), attr)
            on_result = None
            if attr == "pdet_clow":
                on_result = self._count("pdet.clow_abs_value", abs)
            self._rebind(fn, self._wrap(layer, fn, on_result))
        pdm = paracount.pdet
        counts = pdm.clow_parity_counts
        self._rebind(counts, self._wrap(None, counts, self._count("pdet.clow_sequences", sum)))
        # A classmethod is bound on its class, not in a module namespace.
        original = cnfm.EdgeCNF.__dict__["from_dimacs_literals"]
        self._restore.append((cnfm.EdgeCNF, "from_dimacs_literals", original))
        cnfm.EdgeCNF.from_dimacs_literals = classmethod(
            self._wrap("cnf.parse", original.__func__)
        )
        for i, (name, prop) in enumerate(stm.PROPERTIES):
            self._restore.append((stm.PROPERTIES, i, (name, prop)))
            stm.PROPERTIES[i] = (name, self._wrap(f"selftest.{name}", prop))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, list):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    def _count(self, counter: str, measure):
        def record(result):
            self.counters[counter] += measure(result)

        return record

    def self_times(self, instances: set[str] | None = None) -> dict[str, tuple[float, int]]:
        """Per layer: (self time in ms, number of spans), over the spans of
        the given instance ids, or of all."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _, instance) in enumerate(self.spans):
            if instances is not None and instance not in instances:
                continue
            totals[name][0] += (end - start - child[i]) * 1000
            totals[name][1] += 1
        return {name: (ms, calls) for name, (ms, calls) in totals.items()}
