"""Per-layer spans around pinvreg's public functions, installed from outside
the package.

Each target function is replaced by a timing wrapper in every `pinvreg.*`
module that holds it: its defining module and each `from ... import` site.
Target methods are replaced on their class. Spans (name, start, end, parent,
operation) are appended to flat arrays in memory and turned into per-layer
self times when the run ends. Everything runs in one thread, so a span's
children never overlap and self time is duration minus the children's
durations. A target the program no longer has is reported as absent.
"""

import os
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

ROOT = "cli.main"


def _points(args, kwargs, result) -> int:
    return int(np.shape(result)[0]) if np.ndim(result) else 1


def _size(args, kwargs, result) -> int:
    return int(np.size(result))


def _file_bytes(position: int):
    """Size of the file the call wrote or read, passed as `path`."""
    def count(args, kwargs, result) -> int:
        return os.path.getsize(args[position] if len(args) > position else kwargs["path"])
    return count


@dataclass(frozen=True)
class Target:
    """One layer metric: the functions it wraps ("Class.method" for methods),
    extra counters computed from (args, kwargs, result), and the error class
    whose raises it counts."""

    name: str
    module: str
    attrs: tuple
    counters: dict = field(default_factory=dict)
    error: str | None = None


TARGETS = (
    Target("sampling.inverse_beta_cdf", "pinvreg.sampling", ("inverse_beta_cdf",),
           {"points": _size}),
    Target("sampling.cdf_transform", "pinvreg.sampling", ("cdf_transform",)),
    Target("sampling.sample_beta", "pinvreg.sampling", ("sample_beta_on_I", "sample_beta_unit")),
    Target("sampling.derive_rng", "pinvreg.sampling", ("derive_rng",)),
    Target("jacobi.table", "pinvreg.jacobi", ("JacobiBasis.table",), {"points": _points}),
    Target("jacobi.quadrature", "pinvreg.jacobi", ("JacobiBasis.quadrature",)),
    Target("design.build_design", "pinvreg.design", ("build_design",)),
    Target("design.spectral_report", "pinvreg.design", ("spectral_report",),
           {"near_singular": lambda a, k, r: int(r.near_singular)}),
    Target("design.mc_condition_number", "pinvreg.design", ("mc_condition_number",)),
    Target("regression.fit", "pinvreg.regression", ("fit",), error="StabilityError"),
    Target("regression.ransac_fit", "pinvreg.regression", ("ransac_fit",)),
    Target("regression.predict", "pinvreg.regression", ("NpregModel.predict",),
           {"points": _points}),
    Target("regression.weierstrass", "pinvreg.regression", ("weierstrass",)),
    Target("regression.save_model", "pinvreg.regression", ("save_model",),
           {"bytes": _file_bytes(1)}),
    Target("krr.sinc_kernel", "pinvreg.krr", ("sinc_kernel",), {"entries": _size}),
    Target("krr.krr_fit", "pinvreg.krr", ("krr_fit",), error="RegularizationError"),
    Target("krr.cross_validate", "pinvreg.krr", ("cross_validate",)),
    Target("krr.predict", "pinvreg.krr", ("KrrModel.predict",)),
    Target("lfr.simulate_problem", "pinvreg.lfr", ("simulate_problem",)),
    Target("lfr.block_gram", "pinvreg.lfr", ("block_gram",)),
    Target("lfr.lfr_fit", "pinvreg.lfr", ("lfr_fit",), error="SingularBlockError"),
    Target("timeseries.load_series_csv", "pinvreg.timeseries", ("load_series_csv",),
           {"rows": lambda a, k, r: r.m, "bytes": _file_bytes(0)}),
    Target("timeseries.fit_series", "pinvreg.timeseries", ("fit_series",)),
    Target("bench.runner", "pinvreg.bench",
           ("run_table1", "run_table2", "run_table3", "run_table4", "run_timeseries",
            "run_lfr_sim")),
    Target("bench.write", "pinvreg.bench", ("ExperimentResult.write",), {"bytes": _file_bytes(1)}),
)
# Called too often and too cheaply for a span: only counted, their time
# stays with the caller.
COUNTED = (Target("sampling.derive_seed", "pinvreg.sampling", ("derive_seed",)),)


def _resolve(module: str, attr: str):
    """(owner class or None, original object) or None when absent."""
    mod = sys.modules.get(module)
    if mod is None:
        return None
    cls_name, _, method = attr.rpartition(".")
    if cls_name:
        cls = getattr(mod, cls_name, None)
        if cls is None or method not in vars(cls):
            return None
        return cls, vars(cls)[method]
    original = getattr(mod, attr, None)
    return None if original is None else (None, original)


class Tracer:
    """Records spans for the targets while installed; one instance per run."""

    def __init__(self, targets=TARGETS):
        self.names = [ROOT] + [t.name for t in targets]
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.op = -1
        self.counts = {}
        self.absent = []
        self._functions = {}    # id(original) -> (original, wrapper)
        self._methods = []      # (class, method name, original, wrapper)
        for target in targets:
            self.counts.update((f"{target.name}.{k}", 0) for k in target.counters)
            if target.error:
                self.counts[f"{target.name}.errors"] = 0
        self.counts.update((f"{t.name}.calls", 0) for t in COUNTED)
        errors = sys.modules.get("pinvreg.errors")
        for target in targets:
            error = getattr(errors, target.error, None) if target.error else None
            if target.error and error is None:
                self.absent.append(f"pinvreg.errors.{target.error}")
            self._add(target, lambda original, t=target, e=error: self._span(t, original, e))
        for target in COUNTED:
            self._add(target, lambda original, t=target: self._counter(t.name + ".calls", original))

    def _add(self, target: Target, make_wrapper) -> None:
        found = False
        for attr in target.attrs:
            resolved = _resolve(target.module, attr)
            if resolved is None:
                self.absent.append(f"{target.module}.{attr}")
                continue
            found = True
            owner, original = resolved
            wrapper = make_wrapper(original)
            if owner is None:
                self._functions[id(original)] = (original, wrapper)
            else:
                self._methods.append((owner, attr.rpartition(".")[2], original, wrapper))
        if not found:
            self.absent.append(target.name)

    def _span(self, target: Target, fn, error):
        name_id = self.name_ids[target.name]
        counters = [(f"{target.name}.{k}", f) for k, f in target.counters.items()]
        error_key = f"{target.name}.errors"
        catch = error if error is not None else ()
        stack, counts = self._stack, self.counts
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, clock = self.span_start, self.span_end, time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                for key, count in counters:
                    counts[key] += count(args, kwargs, result)
                return result
            except catch:
                counts[error_key] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _counter(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def root(self, fn):
        """`fn` (the CLI entry) as the root span of each operation."""
        return self._span(Target(ROOT, "", ()), fn, None)

    @contextmanager
    def installed(self):
        """Patch every import site of every present target; restore on exit."""
        patched = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pinvreg" or n.startswith("pinvreg."))]
        try:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    hit = self._functions.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(mod, key, hit[1])
                        patched.append((mod, key, value))
            for owner, method, original, wrapper in self._methods:
                setattr(owner, method, wrapper)
                patched.append((owner, method, original))
            yield self
        finally:
            for owner, key, original in reversed(patched):
                setattr(owner, key, original)

    def summary(self, walls: dict) -> dict:
        """Per-layer totals over all operations.

        walls maps operation id -> wall seconds measured around the call. The
        uncovered part of an operation is its wall time minus its root span:
        the time of the timing wrapper itself. Layer self times plus the
        uncovered part add up to the wall time by construction, since each
        span's duration is subtracted once from its parent's.
        """
        name = np.frombuffer(self.span_name, dtype=np.intc)
        parent = np.frombuffer(self.span_parent, dtype=np.intc)
        op = np.frombuffer(self.span_op, dtype=np.intc)
        duration = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        covered = np.zeros_like(duration)
        child = parent >= 0
        np.add.at(covered, parent[child], duration[child])
        self_time = duration - covered

        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        out = dict(self.counts)
        for i, n in enumerate(self.names):
            out[f"{n}.calls"] = int(calls[i])
            out[f"{n}.self_s"] = float(self_s[i])

        ops = np.array(sorted(walls), dtype=np.intc)
        wall = np.array([walls[i] for i in ops])
        n_ops = int(ops.max()) + 1 if len(ops) else 0
        root = np.zeros(n_ops)
        np.add.at(root, op[~child], duration[~child])
        uncovered = wall - root[ops]
        out["tracing.uncovered_s"] = float(uncovered.sum())
        out["tracing.wall_s"] = float(wall.sum())
        return out

    def dump(self, path) -> None:
        np.savez(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, dtype=np.intc),
            parent=np.frombuffer(self.span_parent, dtype=np.intc),
            op=np.frombuffer(self.span_op, dtype=np.intc),
            start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end),
        )
