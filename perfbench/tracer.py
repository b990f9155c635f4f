"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of every adnoise module from the
outside; the program itself carries no instrumentation.  Modules import
each other's functions by name (cli holds emit_table, parse_config,
override and serialize_config; phonons holds coupling_matrix), so install()
rebinds a wrapped function in every adnoise namespace that holds it, and
uninstall() puts the originals back.

Spans stay in memory as [label, start, end, parent index, op id] and are
written out once at the end.  A span's self time is its duration minus
the durations of its direct children; calls are single-threaded, so
children never overlap.
"""

import functools
import importlib
import inspect
import json
import pkgutil
import statistics
from collections import Counter
from time import perf_counter

import numpy as np

# Scalar helpers called once per rate pair or quadrature node: a span on
# them would time the tracer rather than the layer.
HOT_HELPERS = frozenset({"bose_occupation", "dipole_field_kernel"})
# In cli only the entry point gets a span: header and row building in the
# cmd_* functions is the cli layer's own work.
SPANNED_ONLY = {"adnoise.cli": frozenset({"main"})}

# (name, unit, better) of every per-layer metric; Tracer.summary says how
# each is taken per op.
LAYER_METRICS = (
    ("boundstates.solve.self_s", "s", "lower"),
    ("boundstates.auto_grid.self_s", "s", "lower"),
    ("boundstates.coupling_matrix.self_s", "s", "lower"),
    ("boundstates.grid_points", "count", "lower"),
    ("boundstates.states_kept", "count", "higher"),
    ("boundstates.near_zero_discarded", "count", "lower"),
    ("potential.inner_barrier.self_s", "s", "lower"),
    ("potential.evaluate.calls", "count", "lower"),
    ("dipoles.dipole_ladder.self_s", "s", "lower"),
    ("dipoles.induced_dipole.calls", "count", "lower"),
    ("phonons.build_rate_matrix.self_s", "s", "lower"),
    ("phonons.build_rate_matrix.calls", "count", "lower"),
    ("phonons.stationary_distribution.self_s", "s", "lower"),
    ("phonons.transition_rate.calls", "count", "lower"),
    ("phonons.rate_pairs", "count", "lower"),
    ("phonons.masked_pairs", "count", "lower"),
    ("spectrum.correlation_modes.self_s", "s", "lower"),
    ("spectrum.evaluate_spectrum.self_s", "s", "lower"),
    ("spectrum.arrhenius_fit.self_s", "s", "lower"),
    ("spectrum.modes", "count", "lower"),
    ("spectrum.lorentzian_terms", "count", "lower"),
    ("trapnoise.sample_surface.self_s", "s", "lower"),
    ("trapnoise.mc_field_noise.self_s", "s", "lower"),
    ("trapnoise.distance_scaling_fit.self_s", "s", "lower"),
    ("trapnoise.kernel_integral_constant.self_s", "s", "lower"),
    ("trapnoise.samples", "count", "lower"),
    ("trapnoise.rejects", "count", "lower"),
    ("trapnoise.accept_ratio", "1", "higher"),
    ("trapnoise.source_terms", "count", "lower"),
    ("tables.render_table.self_s", "s", "lower"),
    ("tables.emit_table.self_s", "s", "lower"),
    ("tables.cells", "count", "lower"),
    ("tables.bytes", "bytes", "lower"),
    ("config.parse_config.self_s", "s", "lower"),
    ("config.serialize_config.self_s", "s", "lower"),
    ("config.serialize_config.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_solve(c, args, kwargs, states):
    c["boundstates.grid_points"] += states.grid.n_points
    c["boundstates.states_kept"] += states.n_states
    c["boundstates.near_zero_discarded"] += states.near_zero_discarded


def _count_rate_matrix(c, args, kwargs, r):
    n = r.n_states
    c["phonons.rate_pairs"] += n * (n - 1) // 2
    c["phonons.masked_pairs"] += int(r.cutoff_mask.sum()) // 2


def _count_modes(c, args, kwargs, spec):
    c["spectrum.modes"] += spec.n_modes


def _count_lorentzians(c, args, kwargs, values):
    c["spectrum.lorentzian_terms"] += (_arg(args, kwargs, 0, "spec").n_modes
                                       * np.size(values))


def _count_sample(c, args, kwargs, sample):
    c["trapnoise.samples"] += 1
    c["trapnoise.placed"] += sample.n
    c["trapnoise.rejects"] += sample.rejects


def _count_field_sum(c, args, kwargs, value):
    c["trapnoise.source_terms"] += _arg(args, kwargs, 0, "sample").n


def _count_table(c, args, kwargs, text):
    c["tables.cells"] += (len(_arg(args, kwargs, 0, "columns"))
                          * len(_arg(args, kwargs, 1, "rows")))
    c["tables.bytes"] += len(text) if text.isascii() else len(text.encode())


# Counters taken from a wrapped call's arguments and result.
PROBES = {
    "boundstates.solve": _count_solve,
    "phonons.build_rate_matrix": _count_rate_matrix,
    "spectrum.correlation_modes": _count_modes,
    "spectrum.evaluate_spectrum": _count_lorentzians,
    "trapnoise.sample_surface": _count_sample,
    "trapnoise.mc_field_noise": _count_field_sum,
    "tables.render_table": _count_table,
}


def package_modules(package):
    """The package and every module in it, imported."""
    return [package] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(package.__path__,
                                         package.__name__ + ".")]


def traced_functions(modules):
    """{label: function} of every public function the tracer wraps."""
    found = {}
    for mod in modules:
        only = SPANNED_ONLY.get(mod.__name__)
        short = mod.__name__.split(".", 1)[-1]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and name not in HOT_HELPERS
                    and (only is None or name in only)):
                found[f"{short}.{name}"] = obj
    return found


class Tracer:
    """Wraps the package's public functions while installed."""

    def __init__(self, package):
        self.modules = package_modules(package)
        self.spans = []          # [label, start, end, parent, op]
        self.counts = {}         # op id -> Counter
        self._stack = []
        self._op = None
        self._wrapped = {
            id(fn): (fn, self._wrap(fn, label))
            for label, fn in traced_functions(self.modules).items()}
        self._rebound = []

    def _wrap(self, fn, label):
        spans, stack, probe = self.spans, self._stack, PROBES.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(self.counts[self._op], args, kwargs, result)
            return result
        return traced

    def begin_op(self, op_id):
        """Attribute the spans and counts that follow to op_id."""
        self._op = op_id
        self.counts[op_id] = Counter()

    def install(self):
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                entry = self._wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, name, entry[1])
                    self._rebound.append((mod, name, obj))

    def uninstall(self):
        for mod, name, obj in self._rebound:
            setattr(mod, name, obj)
        self._rebound.clear()

    def self_times(self):
        selfs = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def summary(self, n_ops):
        """Per-op means of <label>.self_s, <label>.calls and every counter,
        plus trapnoise.accept_ratio and trace.self_sum_s, the median over
        ops of an op's summed self time."""
        totals = Counter()
        per_op = Counter()
        for span, self_s in zip(self.spans, self.self_times()):
            totals[span[0] + ".self_s"] += self_s
            totals[span[0] + ".calls"] += 1
            per_op[span[4]] += self_s
        for counts in self.counts.values():
            totals.update(counts)
        out = {key: value / n_ops for key, value in totals.items()}
        out["trace.self_sum_s"] = statistics.median(per_op.values())
        drawn = totals["trapnoise.placed"] + totals["trapnoise.rejects"]
        out["trapnoise.accept_ratio"] = (totals["trapnoise.placed"] / drawn
                                         if drawn else 0.0)
        return out

    def write(self, path):
        """One JSON line per span: label, start, end, parent, op, self_s."""
        with open(path, "w") as f:
            for span, self_s in zip(self.spans, self.self_times()):
                f.write(json.dumps(span + [self_s]) + "\n")
