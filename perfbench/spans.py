"""Traced runs: spans around the public functions of each atmod layer.

A hook replaces every reference to a public function in the loaded
``atmod.*`` modules, so calls made through a name imported with ``from
... import`` are seen as well as calls through the defining module.
Each call records a span (function, parent span, start, end) in memory;
the spans are aggregated into per-layer metrics only after the traced
inputs have run.  Every hook must match a function, or tracing fails.
"""

import sys
import time
from array import array

# (module, function) pairs; the layer is the module name without "atmod.".
HOOKS = (
    ("atmod.cli", "main"),
    ("atmod.theory", "parse_theory"),
    ("atmod.theory", "validate"),
    ("atmod.formulas", "cnf_clauses"),
    ("atmod.engine", "satisfiable"),
    ("atmod.engine", "prime_implicates"),
    ("atmod.engine", "new_cons"),
    ("atmod.kernels", "find_model"),
    ("atmod.kernels", "enum_models"),
    ("atmod.kernels", "saturate"),
    ("atmod.analysis", "implicit_static_laws"),
    ("atmod.analysis", "implicit_inexec_laws"),
    ("atmod.analysis", "check_postulate"),
    ("atmod.repairs", "suggest_repairs"),
    ("atmod.semantics", "big_model"),
    ("atmod.semantics", "prune_fixpoint"),
    ("atmod.report", "diagnose"),
    ("atmod.report", "render_json"),
)

NAMES = tuple("%s.%s" % (mod[len("atmod."):], fn) for mod, fn in HOOKS)
_INDEX = {name: i for i, name in enumerate(NAMES)}
_DETECTION = {_INDEX["analysis.implicit_static_laws"],
              _INDEX["analysis.implicit_inexec_laws"]}

# Arguments (and results) that some metrics need, kept per span.
_KEEP_ARGS = {"formulas.cnf_clauses", "engine.prime_implicates",
              "kernels.saturate", "analysis.implicit_static_laws",
              "semantics.prune_fixpoint"}
_KEEP_RESULT = {"kernels.saturate", "analysis.implicit_static_laws",
                "analysis.implicit_inexec_laws", "repairs.suggest_repairs",
                "semantics.big_model", "semantics.prune_fixpoint"}


class HookError(RuntimeError):
    """A hook names a function the program no longer has."""


class Tracer:
    """Installs the hooks and records spans until ``uninstall``."""

    def __init__(self):
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.args = {}       # span -> positional arguments
        self.results = {}    # span -> return value
        self._stack = [-1]
        self._undo = []

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "atmod" or name.startswith("atmod.")}
        for (modname, fname), name in zip(HOOKS, NAMES):
            original = getattr(modules.get(modname), fname, None)
            if not callable(original):
                self.uninstall()
                raise HookError("no function %s.%s to trace"
                                % (modname, fname))
            wrapper = self._wrap(name, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo = []

    def clear(self):
        for seq in (self.fn, self.parent, self.start, self.end):
            del seq[:]
        self.args.clear()
        self.results.clear()

    def _wrap(self, name, original):
        index = _INDEX[name]
        keep_args = name in _KEEP_ARGS
        keep_result = name in _KEEP_RESULT
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(fn)
            fn.append(index)
            parent.append(stack[-1])
            end.append(0.0)
            if keep_args:
                self.args[span] = args
            stack.append(span)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if keep_result:
                self.results[span] = result
            return result

        traced.__wrapped__ = original
        return traced


def aggregate(tracer):
    """Per-function totals of one traced input, from its spans."""
    n = len(NAMES)
    calls = [0] * n
    incl = [0.0] * n
    child = [0.0] * len(tracer.fn)
    spans = {name: [] for name in NAMES}
    redetect = 0.0
    repairs = _INDEX["repairs.suggest_repairs"]
    for span, f in enumerate(tracer.fn):
        dur = tracer.end[span] - tracer.start[span]
        calls[f] += 1
        incl[f] += dur
        spans[NAMES[f]].append(span)
        p = tracer.parent[span]
        if p >= 0:
            child[p] += dur
            if f in _DETECTION and tracer.fn[p] == repairs:
                redetect += dur
    selfs = [0.0] * n
    for span, f in enumerate(tracer.fn):
        selfs[f] += tracer.end[span] - tracer.start[span] - child[span]
    out = {}
    for i, name in enumerate(NAMES):
        out[name + ".calls"] = calls[i]
        out[name + ".incl_s"] = incl[i]
        out[name + ".self_s"] = selfs[i]
    out["repairs.redetect_s"] = redetect
    out.update(_work_counts(tracer, spans))
    return out


def _work_counts(tracer, spans):
    args = tracer.args
    # A call that raised has no result.
    results = {name: [tracer.results[s] for s in spans[name]
                      if s in tracer.results] for name in _KEEP_RESULT}
    out = {}
    out["formulas.cnf_clauses.distinct"] = len(
        {args[s][0] for s in spans["formulas.cnf_clauses"]})
    out["engine.prime_implicates.distinct"] = len(
        {tuple(args[s][0]) for s in spans["engine.prime_implicates"]})
    out["kernels.saturate.clauses_in"] = sum(
        len(args[s][0]) for s in spans["kernels.saturate"])
    out["kernels.saturate.clauses_out"] = sum(
        len(r) for r in results["kernels.saturate"])
    subsets = 0
    for s in spans["analysis.implicit_static_laws"]:
        theory, action = args[s][0], args[s][1]
        laws = len(theory.effects_for(action)) + len(
            theory.inexecs_for(action))
        subsets += ((1 << laws) - 1) * len(theory.execs_for(action))
    out["analysis.subsets"] = subsets
    out["analysis.findings"] = sum(
        len(r) for name in ("analysis.implicit_static_laws",
                            "analysis.implicit_inexec_laws")
        for r in results[name])
    out["repairs.suggest_repairs.kept"] = sum(
        len(r) for r in results["repairs.suggest_repairs"])
    worlds = edges = pairs = 0
    for model in results["semantics.big_model"]:
        w = len(model.worlds)
        worlds += w
        edges += sum(len(e) for e in model.relation.values())
        pairs += w * w * len(model.relation)
    out["semantics.big_model.worlds"] = worlds
    out["semantics.big_model.edges"] = edges
    out["semantics.big_model.pairs"] = pairs
    # Worlds a prune removed: those of the big models built inside it,
    # less those of the pruned model it returned.
    big_in = {}
    for s in spans["semantics.big_model"]:
        if s in tracer.results:
            p = tracer.parent[s]
            big_in[p] = big_in.get(p, 0) + len(tracer.results[s].worlds)
    prune = spans["semantics.prune_fixpoint"]
    out["semantics.prune_fixpoint.distinct"] = len({args[s][0]
                                                    for s in prune})
    out["semantics.prune_fixpoint.worlds_pruned"] = sum(
        big_in.get(s, 0) - len(tracer.results[s].worlds)
        for s in prune if s in tracer.results)
    return out
