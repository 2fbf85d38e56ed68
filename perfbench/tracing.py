"""Outside-in tracing of indirgof: spans around the public functions of each layer.

The program is not edited.  :class:`Tracer` replaces each hooked function at
every ``indirgof`` module attribute that refers to it (``indirgof.cli.cv_select``
and ``indirgof.bandwidth.cv_select`` alike), because callers look functions
up through the attribute of their own module.  Each call records a span:
name, start, end, parent span and the id of the benchmark operation it
belongs to.  Spans stay in memory and are written out when the run ends.

A hook whose function no longer exists is listed in ``Tracer.missing``; the
metrics derived from it are reported as missing instead of failing the run.
"""

import functools
import importlib
import sys
import time

#: Hooked functions, as ``<module>.<function>`` under the ``indirgof`` package.
HOOKS = (
    "cli.main", "cli.load_csv",
    "bandwidth.cv_select", "bandwidth.loo_score",
    "spectral.enumerate_lattice", "spectral.weight_matrix",
    "estimation.fit", "estimation.estimate_density", "estimation.estimate_coeffs",
    "khmaladze.decide", "khmaladze.transform", "khmaladze.build_scan",
    "khmaladze.gamma_quadrature", "khmaladze.brownian_sup_quantile",
    "nulls.score_h", "nulls.check_fisher_information",
    "simulation.power_study", "simulation.run_single_rep", "simulation.generate",
)

#: Per-layer metrics: name, unit and whether higher is better.  A name
#: ``<hook>.ms``, ``<hook>.self_ms`` or ``<hook>.calls`` is the hook's total
#: time, self time or call count per unit of work; the others are computed
#: from counters (see ``Tracer.layer_metrics``).
PER_LAYER = (
    ("cli.load_csv.ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("bandwidth.cv_select.ms", "ms", "lower"),
    ("bandwidth.loo_score.calls", "count", "lower"),
    ("bandwidth.loo_score.self_ms", "ms", "lower"),
    ("bandwidth.cv_select.peak_alloc_mb", "MB", "lower"),
    ("spectral.weight_matrix.calls", "count", "lower"),
    ("spectral.weight_matrix.ms", "ms", "lower"),
    ("spectral.weight_matrix.gflop", "GFLOP", "lower"),
    ("spectral.weight_matrix.gflop_per_s", "GFLOP/s", "higher"),
    ("spectral.enumerate_lattice.calls", "count", "lower"),
    ("spectral.enumerate_lattice.ms", "ms", "lower"),
    ("spectral.lattice_size_max", "count", "lower"),
    ("estimation.fit.ms", "ms", "lower"),
    ("estimation.fit.self_ms", "ms", "lower"),
    ("estimation.estimate_density.ms", "ms", "lower"),
    ("estimation.estimate_coeffs.ms", "ms", "lower"),
    ("khmaladze.decide.ms", "ms", "lower"),
    ("khmaladze.transform.self_ms", "ms", "lower"),
    ("khmaladze.build_scan.self_ms", "ms", "lower"),
    ("khmaladze.gamma_quadrature.calls", "count", "lower"),
    ("khmaladze.gamma_quadrature.ms", "ms", "lower"),
    ("khmaladze.brownian_sup_quantile.ms", "ms", "lower"),
    ("nulls.score_h.calls", "count", "lower"),
    ("nulls.score_h.ms", "ms", "lower"),
    ("nulls.check_fisher_information.ms", "ms", "lower"),
    ("simulation.generate.ms", "ms", "lower"),
    ("simulation.run_single_rep.ms", "ms", "lower"),
    ("simulation.scaling_eff", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Column of ``Tracer.hook_totals`` for each per-hook statistic.
_STATS = {"calls": 0, "ms": 1, "self_ms": 2}

# The hook each computed metric derives from; it is missing when that is.
_SOURCES = {
    "bandwidth.cv_select.peak_alloc_mb": "bandwidth.cv_select",
    "spectral.weight_matrix.gflop": "spectral.weight_matrix",
    "spectral.weight_matrix.gflop_per_s": "spectral.weight_matrix",
    "spectral.lattice_size_max": "spectral.enumerate_lattice",
    "simulation.scaling_eff": "simulation.power_study",
}


class Tracer:
    """Wraps the hooked functions while installed and collects their spans."""

    def __init__(self):
        self.spans = []      # (span id, parent id, op id, hook, start ns, end ns)
        self.missing = {}    # hook or counter -> reason
        self.flop = 0
        self.lattice_size_max = 0
        self.op_id = None
        self._next_id = 0
        self._stack = []
        self._patches = []

    def install(self):
        package = [m for name, m in list(sys.modules.items())
                   if name == "indirgof" or name.startswith("indirgof.")]
        for hook in HOOKS:
            module_name, attr = hook.rsplit(".", 1)
            try:
                module = importlib.import_module(f"indirgof.{module_name}")
            except ImportError as exc:
                self.missing[hook] = f"module not importable: {exc}"
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing[hook] = f"indirgof.{hook} no longer exists"
                continue
            wrapper = self._wrap(hook, original)
            for owner in package:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, key, original))
                        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, hook, fn):
        count = _COUNTERS.get(hook)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span_id, parent, self.op_id, hook, start, end))
            if count is not None:
                try:
                    count(self, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, ValueError) as exc:
                    self.missing.setdefault(f"{hook} counter", f"{type(exc).__name__}: {exc}")
            return result

        return traced

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,op_id,name,start_ns,end_ns\n")
            for span_id, parent, op_id, hook, start, end in sorted(self.spans):
                parent = "" if parent is None else parent
                fh.write(f"{span_id},{parent},{op_id},{hook},{start},{end}\n")

    def hook_totals(self):
        """Per hook: [calls, total ns, self ns]."""
        child_ns = {}
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        totals = {}
        for span_id, _, _, hook, start, end in self.spans:
            row = totals.setdefault(hook, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns.get(span_id, 0)
        return totals

    def layer_metrics(self, units, extra):
        """Per-layer metric values per unit of work.

        ``extra`` holds the values measured outside the spans.  Returns the
        values and, for each metric whose hook or counter is missing, the
        name of that hook; such a metric reads 0.
        """
        totals = self.hook_totals()
        wm_ns = totals.get("spectral.weight_matrix", [0, 0, 0])[1]
        computed = {
            "spectral.weight_matrix.gflop": self.flop * 1e-9 / units,
            "spectral.weight_matrix.gflop_per_s": self.flop / wm_ns if wm_ns else 0.0,
            "spectral.lattice_size_max": float(self.lattice_size_max),
        }
        values, missing = {}, {}
        for name, _, _ in PER_LAYER:
            hook, stat = name.rsplit(".", 1)
            if stat not in _STATS:
                hook = _SOURCES.get(name, hook)
            gone = [h for h in (hook, f"{hook} counter") if h in self.missing]
            if gone:
                missing[name] = gone[0]
                values[name] = 0.0
            elif name in extra:
                values[name] = extra[name]
            elif name in computed:
                values[name] = computed[name]
            else:
                row = totals.get(hook, [0, 0, 0])
                scale = 1.0 if stat == "calls" else 1e-6
                values[name] = row[_STATS[stat]] * scale / units
        return values, missing

    def layer_shares(self, op_hook):
        """Self time of each layer (module) as a share of the operation spans."""
        totals = self.hook_totals()
        op_ns = totals.get(op_hook, [0, 1, 0])[1] or 1
        shares = {}
        for hook, (_, _, self_ns) in totals.items():
            layer = hook.split(".", 1)[0]
            shares[layer] = shares.get(layer, 0.0) + self_ns / op_ns
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def _count_weight_matrix(tracer, args, kwargs, result):
    lattice = args[0] if args else kwargs["lattice"]
    n = result.shape[0]
    # Two real rank-N products of an (n, N) by an (N, n) matrix.
    tracer.flop += 4 * n * n * lattice.size


def _count_lattice(tracer, args, kwargs, result):
    tracer.lattice_size_max = max(tracer.lattice_size_max, result.size)


_COUNTERS = {
    "spectral.weight_matrix": _count_weight_matrix,
    "spectral.enumerate_lattice": _count_lattice,
}
