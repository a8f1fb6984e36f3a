"""Span tracing from outside the program.

`Tracer.install` replaces the public functions of each kcsp module by a
timing wrapper, in the defining module and in every kcsp module that
imported the name, so a call made from inside the package is traced as
well and spans nest (cli -> harness -> oracle / ppsz / dpll).  Hot inner
loops (NarrowTracker methods, ppsz._iterate, is_satisfying) are left
alone.  A layer's self time is its span's duration minus the time its
child spans cover.

Spans are kept in memory and attributed to the current bucket: "setup"
while inputs are built, "pass" while operations run, None (not recorded)
during correctness checks.
"""

from __future__ import annotations

import functools
import sys
import time


def _solve_count(result, *_, **__):
    return {"ppsz.iterations": result.iterations_used, "ppsz.successes": result.status == "SAT"}


def _estimate_count(result, *_, **__):
    return {
        "ppsz.iterations": result.params["trials"],
        "ppsz.successes": result.stats["successes"],
    }


def _enumerate_count(result, instance, *_, **__):
    return {"oracle.points": instance.d**instance.n, "oracle.solutions": len(result)}


# (defining module, attribute, layer, counter).  A counter maps the result
# and the call's arguments to per-layer counts.
TARGETS = [
    ("kcsp.generators", "gen_uniform", "generators.gen", None),
    ("kcsp.generators", "gen_model_rb", "generators.gen", None),
    ("kcsp.generators", "gen_coloring", "generators.gen", None),
    ("kcsp.generators", "gen_latin", "generators.gen", None),
    ("kcsp.generators", "gen_nqueens", "generators.gen", None),
    ("kcsp.core", "parse_instance", "core.parse", None),
    ("kcsp.core", "serialize_instance", "core.serialize", None),
    ("kcsp.oracle", "enumerate_solutions", "oracle.enumerate", _enumerate_count),
    ("kcsp.oracle", "isolation_degrees", "oracle.isolation", None),
    ("kcsp.oracle", "verify_lemma2", "oracle.isolation", None),
    ("kcsp.oracle", "avg_narrow_count", "oracle.narrow_avg", lambda r, *_, **__: {"oracle.orders": r.orders}),
    ("kcsp.dpll", "solve_dpll", "dpll.solve", lambda r, *_, **__: {"dpll.nodes": r.nodes}),
    ("kcsp.ppsz", "solve_ppsz", "ppsz.solve", _solve_count),
    ("kcsp.harness", "estimate_iteration_success", "harness.estimate", _estimate_count),
    ("kcsp.harness", "verify_campaign", "harness.campaign", None),
    ("kcsp.harness", "node_growth_experiment", "harness.campaign", None),
    ("kcsp.analysis", "char_root", "analysis.char_root", None),
    ("kcsp.cli", "cli_dispatch", "cli.dispatch", None),
    ("kcsp.cli", "_cmd_gen", "cli.gen", None),
    ("kcsp.cli", "_cmd_solve", "cli.solve", None),
    ("kcsp.cli", "_cmd_oracle", "cli.oracle", None),
    ("kcsp.cli", "_cmd_verify", "cli.verify", None),
    ("kcsp.cli", "_cmd_analyze", "cli.analyze", None),
    ("kcsp.cli", "_cmd_bench", "cli.bench", None),
]


class Tracer:
    def __init__(self):
        self.bucket = None
        self.rounds = {"setup": 0, "pass": 0}
        self.self_s = {}    # (bucket, layer) -> seconds
        self.total_s = {}   # (bucket, layer) -> seconds, children included
        self.counts = {}    # (bucket, name) -> count
        self.spans = []     # (id, parent id, layer, bucket, start, end)
        self._stack = []    # [span id, accumulated child seconds]

    def wrap(self, layer, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bucket = self.bucket
            if bucket is None:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                key = (bucket, layer)
                self.total_s[key] = self.total_s.get(key, 0.0) + duration
                self.self_s[key] = self.self_s.get(key, 0.0) + duration - frame[1]
                self.spans[span_id] = (span_id, parent, layer, bucket, start, end)
            if counter is not None:
                for name, value in counter(result, *args, **kwargs).items():
                    self.counts[(bucket, name)] = self.counts.get((bucket, name), 0) + value
            return result

        return traced

    def install(self) -> None:
        import kcsp

        modules = [m for name, m in sorted(sys.modules.items()) if name == "kcsp" or name.startswith("kcsp.")]
        for module_name, attr, layer, counter in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(layer, original, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

        # Construction and the first by_var access (a cached property) are the build layer.
        cls = kcsp.CspInstance
        cls.__init__ = self.wrap(
            "core.build", cls.__init__, lambda _, inst, *__, **___: {"core.nogoods": len(inst.nogoods)}
        )
        cls.by_var.func = self.wrap("core.build", cls.by_var.func)

    def per_round(self, table, key) -> float:
        """Setup cost per setup plus pass cost per pass."""
        return sum(table.get((b, key), 0.0) / r for b, r in self.rounds.items() if r)
