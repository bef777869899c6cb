"""Span tracing of the program's layers, from outside the program.

The layers are the modules of ``bornbox``.  ``install`` wraps every public
function that one module imports from another, replacing the name in each
importing module's namespace (the modules bind names with ``from .x import
y``, so patching the defining module alone would miss those calls).  The
defining module's own name is left alone: a call inside one layer is not a
boundary crossing.  Three more wrappers sit inside layers: the estimator
handles' ``estimate`` methods (samplers calls them through an object), the
heavy-prefix search in ``samplers``, and JSON emission in ``cli``.

A span is ``[name, start, end, parent, op]``, kept in memory and written out
by ``Tracer.dump`` when the run ends.  A wrapped call made while the
innermost open span has the same key (its layer, or the stage for searches
and emission) is not recorded, so a layer calling itself through a patched
name, or ``to_json`` recursing, yields one span.

Counters that need a call's arguments or result (draws, synthesized gates,
computed amplitude updates, emitted bytes, heavy prefixes kept) are
accumulated by per-wrapper hooks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter

LAYERS = ("circuits", "stabcore", "polybox", "samplers", "oracle",
          "experiments", "cli")
TABLEAU_CALLS = ("stabcore.tableau_from_gates", "stabcore.inverse_tableau",
                 "stabcore.apply_tableau")
QUERY_CALLS = ("polybox.estimate", "polybox.evaluate")
BUILD_CALLS = ("oracle.exact_distribution", "oracle.exact_probability",
               "oracle.prod_probabilities")
PARSE_CALLS = ("circuits.parse_circuit", "circuits.parse_pattern")
EMIT_CALLS = ("cli.to_json", "cli._emit")
SEARCH = "samplers.search"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.info: dict[int, float] = {}
        self.op = -1
        self._open: list[int] = []
        self._keys: list[str] = []

    def call(self, name: str, key: str, fn, args, kwargs, hook=None):
        if self._keys and self._keys[-1] == key:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(span)
        self._open.append(idx)
        self._keys.append(key)
        if hook is not None:
            hook(self, idx, args, None, False)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
            self._keys.pop()
        if hook is not None:
            hook(self, idx, args, result, True)
        return result

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": names, "counts": dict(self.counts),
                       "spans": [[code[s[0]], s[1], s[2], s[3], s[4]]
                                 for s in self.spans]}, fh)


# ---------------------------------------------------------------------------
# Hooks: called before the call (done False) and after it returns
# ---------------------------------------------------------------------------

def _amp_updates(circuit) -> int:
    """Amplitude updates of a dense oracle build, computed from the input:
    branches x gates x 2^n (an X-program row counts as one gate)."""
    kind = type(circuit).__name__
    if kind == "ProdCircuit":
        mixed = sum(1 for v in circuit.state.bloch
                    if math.fsum(c * c for c in v) < 1.0 - 1e-12)
        return (1 << mixed) * len(circuit.gates) << circuit.n
    if kind == "IqpCircuit":
        return len(circuit.rows) << circuit.n
    if kind == "EncodedCircuit":
        return _amp_updates(circuit.inner)
    return 0


def _on_build(tracer, idx, args, result, done):
    if not done:
        tracer.counts["oracle.builds"] += 1
        tracer.counts["oracle.amp_updates"] += _amp_updates(args[0])


def _on_query(tracer, idx, args, result, done):
    if not done:
        return
    tracer.counts["polybox.draws"] += result.samples_used
    parent = tracer.spans[idx][3]
    if parent >= 0 and tracer.spans[parent][0] == SEARCH:
        tracer.counts["samplers.queries"] += 1
        tracer.counts["samplers.kept"] += result.value >= tracer.info[parent]


def _on_search(tracer, idx, args, result, done):
    if not done:
        tracer.info[idx] = args[2]  # heavy_prefixes(est, circuit, threshold, ...)


def _on_synthesis(tracer, idx, args, result, done):
    if done:
        tracer.counts["stabcore.gates_synthesized"] += len(result)


def _on_emit(tracer, idx, args, result, done):
    if not done:
        tracer.counts["cli.emit_bytes"] += sum(len(line) + 1 for line in args[0])


HOOKS = {"oracle.exact_distribution": _on_build,
         "oracle.exact_probability": _on_build,
         "oracle.prod_probabilities": _on_build,
         "polybox.estimate": _on_query,
         "polybox.evaluate": _on_query,
         "stabcore.synthesize_gates": _on_synthesis,
         "cli._emit": _on_emit,
         SEARCH: _on_search}


# ---------------------------------------------------------------------------
# Installing and removing the wrappers
# ---------------------------------------------------------------------------

def _wrapper(tracer: Tracer, name: str, key: str, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, key, fn, args, kwargs, hook)
    return traced


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Patch the program; returns what ``uninstall`` needs to undo it."""
    modules = {layer: importlib.import_module(f"bornbox.{layer}")
               for layer in LAYERS}
    patches = []

    def patch(owner, attr, name, key):
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, _wrapper(tracer, name, key, original))

    for importer in modules.values():
        for attr, obj in list(vars(importer).items()):
            home = getattr(obj, "__module__", "")
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or home == importer.__name__
                    or home.removeprefix("bornbox.") not in LAYERS):
                continue
            layer = home.removeprefix("bornbox.")
            patch(importer, attr, f"{layer}.{attr}", layer)
    polybox = modules["polybox"]
    for cls in (polybox.ProdPolyBox, polybox.IqpPolyBox, polybox.CePolyBox,
                polybox.OraclePolyBox):
        patch(cls, "estimate", "polybox.estimate", "polybox")
    patch(modules["samplers"], "heavy_prefixes", SEARCH, SEARCH)
    patch(modules["cli"], "to_json", "cli.to_json", "cli.emit")
    patch(modules["cli"], "_emit", "cli._emit", "cli.emit")
    return patches


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def run_traced_op(tracer: Tracer, op_index: int, run_command, argv):
    """One op under a root span ``cli.run_command``."""
    tracer.op = op_index
    return tracer.call("cli.run_command", "cli", run_command, (argv,), {})


# ---------------------------------------------------------------------------
# Span arithmetic and the per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    own = self_times(spans)
    calls: Counter = Counter()
    busy: Counter = Counter()
    layer_self: Counter = Counter()
    for (name, start, end, _, _), s in zip(spans, own):
        calls[name] += 1
        busy[name] += end - start
        layer_self[name.split(".")[0]] += s

    def total(counter, names):
        return sum(counter[n] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counts
    searches = calls[SEARCH]
    return {
        "stabcore.tableau_calls": total(calls, TABLEAU_CALLS),
        "stabcore.tableau_s": total(busy, TABLEAU_CALLS),
        "stabcore.clifford_draws": calls["stabcore.random_clifford"],
        "stabcore.clifford_draw_s": busy["stabcore.random_clifford"],
        "stabcore.synthesis_s": busy["stabcore.synthesize_gates"],
        "stabcore.gates_synthesized": c["stabcore.gates_synthesized"],
        "polybox.queries": total(calls, QUERY_CALLS),
        "polybox.draws": c["polybox.draws"],
        "polybox.query_s": total(busy, QUERY_CALLS),
        "polybox.self_s": layer_self["polybox"],
        "polybox.draws_per_s": ratio(c["polybox.draws"], layer_self["polybox"]),
        "samplers.searches": searches,
        "samplers.queries_per_search": ratio(c["samplers.queries"], searches),
        "samplers.heavy_ratio": ratio(c["samplers.kept"], c["samplers.queries"]),
        "samplers.search_s": busy[SEARCH],
        "samplers.self_s": layer_self["samplers"],
        "oracle.builds": c["oracle.builds"],
        "oracle.build_s": total(busy, BUILD_CALLS),
        "oracle.amp_updates": c["oracle.amp_updates"],
        "oracle.amp_updates_per_s": ratio(c["oracle.amp_updates"],
                                          total(busy, BUILD_CALLS)),
        "experiments.calls": sum(n for name, n in calls.items()
                                 if name.startswith("experiments.")),
        "experiments.self_s": layer_self["experiments"],
        "circuits.parse_calls": total(calls, PARSE_CALLS),
        "circuits.parse_s": total(busy, PARSE_CALLS),
        "cli.self_s": layer_self["cli"],
        "cli.emit_s": total(busy, EMIT_CALLS),
        "cli.emit_bytes": c["cli.emit_bytes"],
    }
