"""Spans around chernflat's public functions, installed from outside.

``Tracer.install`` wraps each traced function and rebinds the wrapper at
every place the original is bound: the defining module and every chernflat
module that imported it by name (``cli``, ``classify``, ``deform``, ``forms``
and ``constructions`` each hold their own ``split``, for example).  A span is
``[name, job, start, end, parent, self]`` with times in seconds; self time is
the span minus the spans it directly encloses.  Spans stay in memory and are
written out when the run ends.

Two counters are not spans: ``GaussianRational`` multiplications and
additions (the reflected operators included), and the shape of the largest
``kernel_from_rows`` system per job.
"""

from __future__ import annotations

import functools
import sys
import time

TRACED = [
    "cli.main",
    "fileio.load_model",
    "lie.jacobi_defect",
    "lie.lower_central_series",
    "lie.center",
    "lie.Subspace",
    "acs.split",
    "acs.is_chern_flat",
    "acs.is_qk_chern_flat",
    "acs.nijenhuis",
    "acs.check_center_j_invariant",
    "acs.two_step_certificate",
    "acs.reframed_constants",
    "forms.exterior_d",
    "forms.is_quasi_kaehler",
    "constructions.from_holomorphic_constants",
    "classify.normal_form",
    "classify.random_frame_scramble",
    "deform.deformation_space",
    "linalg.kernel_from_rows",
    "linalg.rank_of_rows",
    "linalg.inverse",
    "linalg.det",
]

COUNTERS = ["scalars.mul.calls", "scalars.add.calls"]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.job = None
        self._stack: list = []     # open spans: [span index, enclosed child time]
        self._patches: list = []   # (owner, attribute, original) for uninstall
        self.counts = {name: 0 for name in COUNTERS}
        self.kernel_shapes: dict = {}   # job -> (rows, cols) of its largest system
        self.job_counts: dict = {}      # job -> {counter: operations}
        self._counts_before: dict = {}

    # -- spans ---------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            span = [name, self.job, clock(), 0.0, parent, 0.0]
            spans.append(span)
            stack.append([index, 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                _, child = stack.pop()
                span[3] = end
                duration = end - span[2]
                span[5] = duration - child
                if stack:
                    stack[-1][1] += duration

        return traced

    def _kernel_wrapper(self, fn):
        @functools.wraps(fn)
        def kernel_from_rows(ncols, rows):
            rows = list(rows)
            best = self.kernel_shapes.get(self.job, (0, 0))
            if len(rows) * ncols > best[0] * best[1]:
                self.kernel_shapes[self.job] = (len(rows), ncols)
            return fn(ncols, rows)

        return kernel_from_rows

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(a, b):
            counts[key] += 1
            return fn(a, b)

        return counted

    # -- installation ----------------------------------------------------------------

    def _rebind(self, original, replacement) -> int:
        bound = 0
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "chernflat" or mod_name.startswith("chernflat.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)
                    bound += 1
        return bound

    def install(self) -> None:
        """Wrap every traced function; raises if one cannot be found."""
        lie = sys.modules["chernflat.lie"]
        scalars = sys.modules["chernflat.scalars"]
        for name in TRACED:
            module_name, attr = name.split(".")
            if name == "lie.Subspace":
                init = lie.Subspace.__init__
                self._patches.append((lie.Subspace, "__init__", init))
                lie.Subspace.__init__ = self._wrap(name, init)
                continue
            original = getattr(sys.modules[f"chernflat.{module_name}"], attr)
            wrapped = original
            if name == "linalg.kernel_from_rows":
                wrapped = self._kernel_wrapper(original)
            if not self._rebind(original, self._wrap(name, wrapped)):
                raise RuntimeError(f"traced function {name} is bound nowhere")
        cls = scalars.GaussianRational
        for key, dunder in (("scalars.mul.calls", "__mul__"), ("scalars.add.calls", "__add__")):
            original = vars(cls)[dunder]
            wrapped = self._counter(key, original)
            for attr, value in list(vars(cls).items()):
                if value is original:   # __rmul__ and __radd__ are aliases
                    self._patches.append((cls, attr, original))
                    setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- per-job aggregation ----------------------------------------------------------

    def begin(self, job) -> None:
        self.job = job
        self._counts_before = dict(self.counts)

    def end(self) -> None:
        self.job_counts[self.job] = {
            key: self.counts[key] - self._counts_before[key] for key in COUNTERS
        }
        self.job = None

    def per_job(self) -> dict:
        """{job: {name: [self seconds, calls]}} over every traced function."""
        out: dict = {}
        for name, job, _start, _end, _parent, self_s in self.spans:
            entry = out.setdefault(job, {n: [0.0, 0] for n in TRACED})[name]
            entry[0] += self_s
            entry[1] += 1
        return out


def calibrate(samples: int = 20000) -> tuple:
    """Added cost of one span and of one counted operation, in seconds."""
    def noop(a=None, b=None):
        return a

    tracer = Tracer()
    span = tracer._wrap("calibration", noop)
    counted = tracer._counter("scalars.mul.calls", noop)
    clock = time.perf_counter
    best = [float("inf")] * 3
    for _ in range(5):
        for slot, fn in enumerate((noop, span, counted)):
            t = clock()
            for _ in range(samples):
                fn(1, 2)
            best[slot] = min(best[slot], (clock() - t) / samples)
        tracer.spans.clear()
    return max(best[1] - best[0], 0.0), max(best[2] - best[0], 0.0)
