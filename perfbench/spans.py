"""Layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions of each jensenchain module at
every site that imports them (a function imported with ``from .x import f``
is a separate binding in the importing module, so each binding is
replaced).  Each wrapper records a span (layer, start, end, parent) and,
for some layers, a count of the work handed in: integrand evaluations for
quadrature, objective evaluations for the golden-section search, t values
for phi, bytes parsed, numbers rendered.  Spans are kept per operation and
folded into per-layer self times when the operation ends.

A target that no longer exists is recorded in ``missing_targets``; a layer
none of whose targets exist is reported as missing instead of crashing.
"""

import dataclasses
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

ROOT_LAYER = "cli.main"
_BOOKKEEPING = "_bookkeeping"  # the tracer's own counting work, excluded from every layer

# layer -> "module:attribute" targets; Class.method targets patch the class
LAYERS = {
    "cli.verify": ["cli:cmd_verify", "cli:run_verify", "cli:_verify_jensen",
                   "cli:_verify_scalar_app", "cli:_verify_matrixpower"],
    "cli.parse": ["cli:_load_document", "cli:_parse_function", "cli:_parse_weights",
                  "cli:_parse_points", "cli:_parse_space", "cli:_parse_p", "cli:_parse_hadamard"],
    "cli.render": ["cli:render_json"],
    "refine.instance": ["refine:JensenInstance.__post_init__",
                        "refine:HadamardWeights.__post_init__", "refine:matrix_instance"],
    "refine.phi": ["refine:phi_values", "refine:phi"],
    "refine.closed": ["refine:phi_integral_closed"],
    "refine.quad": ["refine:phi_integral_quad"],
    "refine.chain": ["refine:chain_at_t", "refine:chain_integral", "refine:chain_hadamard",
                     "refine:chain_matrix", "refine:phi_convexity_check"],
    "refine.tighten": ["refine:tighten"],
    "numerics.simpson": ["numerics:adaptive_simpson"],
    "numerics.golden": ["numerics:golden_section_minimize"],
    "means": ["means:ln_identric", "means:log_mean", "means:pow_integral_mean", "means:identric",
              "means:logarithmic", "means:p_logarithmic", "means:integral_mean"],
    # catalog evaluators and closed-form integral means live on each spec returned by
    # get_function, so the spec's callables are wrapped as get_function hands them out
    "functions.evaluate": ["functions:get_function"],
    "measures.validate": ["measures:ProbabilityVector.__post_init__",
                          "measures:WeightFunction.__post_init__",
                          "measures:DoublyStochasticMatrix.__post_init__",
                          "measures:embed_doubly_stochastic", "measures:validate_weight"],
    "measures.generate": ["measures:random_doubly_stochastic", "measures:random_weight",
                          "measures:sinkhorn_normalize", "measures:rank_one_weight",
                          "measures:interpolate_weight"],
    "apps.chain": ["apps:agm_chain", "apps:kyfan_chain", "apps:lp_chain", "apps:power_sum_chain",
                   "apps:matrix_power_bounds", "apps:harmonic_chain", "apps:_t_quadrature"],
}

# per-op means reported by a traced run, in the order of BENCHMARK.json
SPAN_METRICS = (
    "numerics.simpson.evals", "numerics.simpson.self_ms", "refine.quad.self_ms",
    "refine.phi.calls", "refine.phi.points", "refine.phi.self_ms", "refine.closed.self_ms",
    "means.calls", "means.self_ms", "functions.evaluate.calls", "functions.evaluate.self_ms",
    "cli.parse.self_ms", "cli.parse.kb", "measures.validate.calls", "measures.validate.self_ms",
    "cli.render.self_ms", "cli.render.numbers", "measures.generate.self_ms",
    "numerics.golden.evals", "numerics.golden.self_ms", "refine.tighten.self_ms",
    "cli.verify.self_ms", "refine.instance.self_ms", "apps.chain.self_ms",
    "refine.chain.self_ms", "cli.main.self_ms",
)


def count_numbers(obj):
    """Numeric leaves of a report object (what render_json prints as numbers)."""
    if isinstance(obj, dict):
        return sum(count_numbers(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(count_numbers(v) for v in obj)
    if isinstance(obj, bool):
        return 0
    return int(isinstance(obj, (int, float, np.integer, np.floating)))


def self_times(spans):
    """Per-layer self time and entry count of one operation's spans.

    spans: list of (layer, start_ns, end_ns, parent_index or None).  A
    span's self time is its duration minus its children's durations; an
    entry is a span whose parent belongs to another layer.
    """
    child = [0] * len(spans)
    for layer, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    self_ns = defaultdict(int)
    entries = Counter()
    for i, (layer, start, end, parent) in enumerate(spans):
        self_ns[layer] += end - start - child[i]
        if parent is None or spans[parent][0] != layer:
            entries[layer] += 1
    return self_ns, entries


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.self_ns = Counter()
        self.entries = Counter()
        self.ops = 0
        self.missing_targets = []
        self.missing_layers = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def enter(self, layer):
        self.spans.append([layer, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else None])
        self.stack.append(len(self.spans) - 1)

    def exit(self):
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()

    def end_op(self):
        self_ns, entries = self_times(self.spans)
        self.self_ns.update(self_ns)
        self.entries.update(entries)
        self.spans.clear()
        self.ops += 1

    def span(self, layer, fn, hook=None):
        """fn wrapped in a span of layer; hook(args) may count work or swap arguments."""
        tracer = self

        def wrapper(*args, **kwargs):
            if hook is not None:
                tracer.enter(_BOOKKEEPING)
                try:
                    args = hook(args)
                finally:
                    tracer.exit()
            tracer.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        def counting(*args):
            counts[key] += 1
            return fn(*args)

        return counting

    # -- hooks that count the work handed to a layer -----------------------

    def _hook(self, layer, attr):
        counts = self.counts
        if layer in ("numerics.simpson", "numerics.golden"):
            key = layer + ".evals"
            return lambda args: (self.counted(key, args[0]),) + tuple(args[1:])
        if attr == "phi_values":
            def points(args):
                counts["refine.phi.points"] += int(np.size(args[1]))
                return args
            return points
        if attr == "_load_document":
            def kb(args):
                counts["cli.parse.kb"] += os.path.getsize(args[0]) / 1024.0
                return args
            return kb
        if attr == "render_json":
            def numbers(args):
                counts["cli.render.numbers"] += count_numbers(args[0])
                return args
            return numbers
        return None

    def _spec_wrapper(self, fn):
        """get_function returning specs whose evaluate/integral_mean are traced."""
        tracer = self

        def get_function(*args, **kwargs):
            spec = fn(*args, **kwargs)
            im = spec.integral_mean
            return dataclasses.replace(
                spec,
                evaluate=tracer.span("functions.evaluate", spec.evaluate),
                integral_mean=None if im is None else tracer.span("functions.evaluate", im),
            )

        get_function.__wrapped__ = fn
        return get_function

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package="jensenchain"):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for layer, targets in LAYERS.items():
            found = 0
            for target in targets:
                mod_name, _, attr = target.partition(":")
                module = sys.modules.get(f"{package}.{mod_name}")
                owner, _, method = attr.rpartition(".")
                holder = getattr(module, owner, None) if owner else module
                original = getattr(holder, method, None) if holder is not None else None
                if original is None:
                    self.missing_targets.append(target)
                    continue
                found += 1
                if layer == "functions.evaluate":
                    new = self._spec_wrapper(original)
                else:
                    new = self.span(layer, original, self._hook(layer, method))
                if owner:
                    self._patch(holder, method, new)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, new)
            if not found:
                self.missing_layers.append(layer)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-op means of every span metric whose layer could be traced."""
        ops = max(self.ops, 1)
        out = {}
        for name in SPAN_METRICS:
            layer, _, kind = name.rpartition(".")
            if layer in self.missing_layers:
                continue
            if kind == "self_ms":
                value = self.self_ns[layer] / 1e6 / ops
            elif kind == "calls":
                value = self.entries[layer] / ops
            else:
                value = self.counts[name] / ops
            out[name] = value
        return out
