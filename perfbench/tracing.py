"""Per-layer spans and counts, recorded from outside evlogic.

``install`` wraps the public entry point of each evlogic module in
place, in every evlogic module that imported it by name, so calls made
inside evlogic are traced as well.  A span records its name, start, end,
the span that called it and the query it belongs to; spans stay in
memory until ``summary`` adds them up.  Counts are taken at the same
boundaries, outside the spans' timed interval.

The one private name touched is ``linsolve._Tableau.pivot``, counted
and not timed, because no public call reports pivots.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

from evlogic import errors, linsolve

# span name -> (module, attribute) of each wrapped entry point
_ENTRY_POINTS = {
    "formula.parse": [("evlogic.formula", "parse")],
    "semantics.frame": [("evlogic.semantics", "interpretation_space")],
    "linsolve.solve": [("evlogic.linsolve", "solve")],
    "problog.entail": [("evlogic.problog", "entail_bounds")],
    "evidential.entail": [("evlogic.evidential", "evidential_entail")],
    "evidential.combine": [("evlogic.evidential", "combine")],
    "kb.load": [("evlogic.kb", name) for name in (
        "load_kb", "load_mass", "load_joint", "load_extension", "load_focal")],
    "cli.main": [("evlogic.cli", "main")],
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, query]
        self.counts: Counter = Counter()
        self.query = 0
        self._stack: list[int] = []

    def _wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before:
                before(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.query]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except errors.Infeasible:
                if name == "linsolve.solve":
                    self.counts["linsolve.infeasible"] += 1
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if after:
                after(result)
            return result
        return traced

    def _before_solve(self, lp, direction="minimize"):
        self.counts["linsolve.solves"] += 1
        self.counts["linsolve.lp_rows"] += len(lp.constraints)
        self.counts["linsolve.lp_cols"] += lp.num_vars
        self.counts["linsolve.lp_nnz"] += sum(len(c.coeffs) for c in lp.constraints)

    def _after_frame(self, space):
        self.counts["semantics.frame_calls"] += 1
        self.counts["semantics.frame_rows"] += space.size
        self.counts["semantics.consistent_rows"] += len(space.consistent_indices)
        self.counts["semantics.atoms"] += len(space.sentences.atom_names)

    def _before_combine(self, m1, m2):
        self.counts["evidential.combine_pairs"] += len(m1.focal) * len(m2.focal)

    def _count(self, key):
        def bump(*args, **kwargs):
            self.counts[key] += 1
        return bump

    def install(self):
        hooks = {
            "formula.parse": (self._count("formula.parse_calls"), None),
            "semantics.frame": (None, self._after_frame),
            "linsolve.solve": (self._before_solve, None),
            "evidential.combine": (self._before_combine, None),
            "kb.load": (self._count("kb.load_calls"), None),
        }
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "evlogic" or name.startswith("evlogic."))]
        for span, targets in _ENTRY_POINTS.items():
            before, after = hooks.get(span, (None, None))
            for module_name, attr in targets:
                if module_name not in sys.modules:
                    continue
                original = getattr(sys.modules[module_name], attr)
                traced = self._wrap(span, original, before, after)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, traced)

        pivot = linsolve._Tableau.pivot
        counts = self.counts

        def counted_pivot(tableau, *args):
            counts["linsolve.pivots"] += 1
            return pivot(tableau, *args)

        linsolve._Tableau.pivot = counted_pivot

    def summary(self) -> dict:
        """Total and self seconds per span name, and the counts."""
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                p = self.spans[parent]
                child[p[0]] += end - start
        return {
            "total": dict(total),
            "self": {name: total[name] - child[name] for name in total},
            "counts": dict(self.counts),
            "spans": [s[:] for s in self.spans],
        }
