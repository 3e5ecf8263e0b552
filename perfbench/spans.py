"""Span recording around softlev's public functions, for the traced run.

Nothing under ``src/`` is instrumented.  ``Tracer.install`` wraps each
layer function listed in ``LAYERS`` and rebinds every name that points at
the original, in every loaded ``softlev`` module, because callers look the
function up either as a module attribute (``_kernels.h2_tv``) or under the
name they imported (``from .rng import derive_seed``).  ``uninstall`` puts
the originals back, so untraced repetitions in the same process run the
plain code.

A span is ``(id, name, start, end, parent, thread, extra)``, kept in memory
and written out by the caller.  The parent is the innermost open span of the
same thread (-1 at the top), so a layer's self time is its duration minus the
durations of its direct children.
"""

import inspect
import itertools
import json
import math
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# metric name -> (module, attribute) of each function recorded under it
LAYERS = {
    "harness.sweep_point": [("softlev.harness", "sweep_point")],
    "harness.bound_suite": [("softlev.harness", "run_bound_suite")],
    "harness.invariance_suite": [("softlev.harness", "run_invariance_suite")],
    "harness.taylor": [("softlev.harness", "run_taylor_check")],
    "harness.write_csv": [("softlev.harness", "write_csv")],
    "optimize.max_hellinger": [
        ("softlev.optimize", "max_hellinger_softmax"),
        ("softlev.optimize", "max_hellinger_leverage"),
    ],
    "optimize.max_variance": [
        ("softlev.optimize", "max_variance_softmax"),
        ("softlev.optimize", "max_variance_leverage"),
    ],
    **{
        f"kernels.{k}": [("softlev._kernels", k)]
        for k in (
            "softmax_h2_objective",
            "softmax_var_objective",
            "leverage_h2_objective",
            "leverage_var_objective",
            "leverage_probs",
            "leverage_w_parts",
            "softmax_probs",
            "h2_tv",
            "row_gram_gap",
        )
    },
    "hypotest.estimate_success": [("softlev.hypotest", "estimate_success")],
    "hypotest.estimate_sample_complexity": [("softlev.hypotest", "estimate_sample_complexity")],
    "rng.derive_seed": [("softlev.rng", "derive_seed")],
    "rng.generator": [("softlev.rng", "generator")],
    "leverage.pmf": [("softlev.leverage", "leverage_pmf")],
    "softmax.pmf": [("softlev.softmax", "softmax_pmf")],
    "distributions.construct": [("softlev.distributions", "DiscreteDistribution.__init__")],
    "distributions.distance": [("softlev.distributions", "tv"), ("softlev.distributions", "hellinger_sq")],
    "numerics.row_gram_gap": [("softlev.numerics", "row_gram_gap")],
}
# Not reported itself: the span around the grid loop of a sweep, whose
# duration and thread budget give harness.grid_efficiency.
GRID = ("harness.grid", ("softlev.harness", "_gather_grid"))

OBJECTIVES = tuple(f"kernels.{k}_objective" for k in ("softmax_h2", "softmax_var", "leverage_h2", "leverage_var"))
OPTIMIZERS = ("optimize.max_hellinger", "optimize.max_variance")


def _resolve(modname, attr):
    owner = sys.modules[modname]
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def _qr_flops_x3(a):
    """Three times the Householder QR flops of k stacked n x d matrices,
    k (2 n d^2 - 2 d^3 / 3) with n >= d, as an exact integer: the sum must
    not depend on the order in which threads append."""
    shape = np.shape(a)
    n, d = max(shape[-2:]), min(shape[-2:])
    return math.prod(shape[:-2]) * (6 * n * d * d - 2 * d ** 3)


def _extra_optimize(args, kwargs, result):
    return (result.iterations_used, bool(result.converged))


def _extra_grid(args, kwargs, result):
    return args[0].threads


class Tracer:
    """Records spans for one traced repetition; install, run, uninstall."""

    def __init__(self):
        self.spans = []
        self.qr_flops_x3 = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo = []

    def _wrap(self, name, fn, extra=None):
        spans, ids, local = self.spans, self._ids, self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            spans.append((sid, name, t0, t1, parent, threading.get_ident(), extra and extra(args, kwargs, result)))
            return result

        return traced

    def _rebind(self, attr, orig, wrapped):
        # Private aliases stay: _kernels binds each public kernel to a
        # private implementation, whose internal calls are not public calls.
        for modname, mod in list(sys.modules.items()):
            if modname != "softlev" and not modname.startswith("softlev."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig and (key == attr or not key.startswith("_")):
                    self._undo.append((mod, key, val))
                    setattr(mod, key, wrapped)

    def install(self):
        from softlev import hypotest

        sig = inspect.signature(hypotest.estimate_success)

        def extra_success(args, kwargs, result):
            bound = sig.bind(*args, **kwargs).arguments
            return (bound["m"], bound["trials"])

        extras = {
            "optimize.max_hellinger": _extra_optimize,
            "optimize.max_variance": _extra_optimize,
            "hypotest.estimate_success": extra_success,
            GRID[0]: _extra_grid,
        }
        for name, targets in [*LAYERS.items(), (GRID[0], [GRID[1]])]:
            for modname, attr in targets:
                owner, last = _resolve(modname, attr)
                orig = getattr(owner, last)
                wrapped = self._wrap(name, orig, extras.get(name))
                if isinstance(owner, type):
                    self._undo.append((owner, last, orig))
                    setattr(owner, last, wrapped)
                else:
                    self._rebind(last, orig, wrapped)

        qr, flops = np.linalg.qr, self.qr_flops_x3

        def counted_qr(a, *args, **kwargs):
            flops.append(_qr_flops_x3(a))
            return qr(a, *args, **kwargs)

        self._undo.append((np.linalg, "qr", qr))
        np.linalg.qr = counted_qr

    def uninstall(self):
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()

    def write(self, path):
        """One JSON array per line: id, name, start, end, parent, thread, extra."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self):
        """Per-layer counts and times; counts repeat exactly across runs."""
        calls, total, child, own = Counter(), defaultdict(float), defaultdict(float), defaultdict(float)
        by_id = {}
        for sid, name, t0, t1, parent, *_ in self.spans:
            by_id[sid] = (name, parent)
            calls[name] += 1
            total[name] += t1 - t0
            child[parent] += t1 - t0
        for sid, name, t0, t1, *_ in self.spans:
            own[name] += t1 - t0 - child[sid]
        out = {}
        for name in LAYERS:
            out.update({f"{name}.calls": calls[name], f"{name}.s": total[name], f"{name}.self_s": own[name]})

        def under_optimizer(sid):
            parent = by_id[sid][1]
            while parent != -1:
                name, parent_of_parent = by_id[parent]
                if name in OPTIMIZERS:
                    return True
                parent = parent_of_parent
            return False

        opt = [extra for _, n, *_, extra in self.spans if n in OPTIMIZERS]
        iterations = sum(it for it, _ in opt)
        evals = sum(1 for sid, n, *_ in self.spans if n in OBJECTIVES and under_optimizer(sid))
        grids = [(t1 - t0, threads) for _, n, t0, t1, _, _, threads in self.spans if n == GRID[0]]
        grid_budget = sum(dur * threads for dur, threads in grids)
        tests = [extra for _, n, *_, extra in self.spans if n == "hypotest.estimate_success"]
        searches = calls["hypotest.estimate_sample_complexity"]
        probes = sum(
            1
            for _, n, _, _, parent, *_ in self.spans
            if n == "hypotest.estimate_success" and parent != -1 and by_id[parent][0] == "hypotest.estimate_sample_complexity"
        )
        out.update(
            {
                "harness.grid_efficiency": total["harness.sweep_point"] / grid_budget if grid_budget else 0.0,
                "optimize.iterations": iterations,
                "optimize.objective_evals": evals,
                "optimize.evals_per_iteration": evals / iterations if iterations else 0.0,
                "optimize.converged_ratio": sum(c for _, c in opt) / len(opt) if opt else 0.0,
                "kernels.qr.calls": len(self.qr_flops_x3),
                "kernels.qr.flops_computed": sum(self.qr_flops_x3) / 3,
                "hypotest.probes_per_search": probes / searches if searches else 0.0,
                "hypotest.trials": sum(2 * trials for _, trials in tests),
                "hypotest.samples_drawn": sum(2 * trials * m for m, trials in tests),
            }
        )
        return out


def is_timing(name):
    """Timings vary from run to run; every other per-layer metric must repeat exactly."""
    return name.endswith((".s", "_s", "grid_efficiency"))
