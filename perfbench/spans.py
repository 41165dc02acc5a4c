"""In-memory span tracer for the traced benchmark run.

`Tracer.install` wraps the public netstab functions listed in `TARGETS` at
every module attribute that binds them: netstab re-imports names across its
modules (``stability.step``, ``harness.control_law``, ``cli.certify``...),
so wrapping only the defining module would miss most calls.  Each call
records one span ``[name, start, end, parent, op]``; `op` is the benchmark
operation (set with `Tracer.op`) that was running.  Spans stay in memory
until `write` dumps them at the end of the run.

Timed runs never install a tracer.  The traced run is separate; after its
traced pass, it times calls made alternately with and without a tracer to
give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import os
import sys
import time

# (defining module, function) pairs; the span name is "<module>.<function>".
TARGETS = (
    ("network", "topological_sort"),
    ("diagrams", "demand_batch"),
    ("diagrams", "supply_batch"),
    ("diagrams", "demand_all"),
    ("diagrams", "supply_all"),
    ("diagrams", "audit_demand_curve"),
    ("diagrams", "audit_supply_margin"),
    ("dynamics", "step"),
    ("dynamics", "compute_flows"),
    ("control", "control_law"),
    ("control", "synthesize"),
    ("equilibrium", "solve_uep"),
    ("equilibrium", "fit_supply_scale"),
    ("equilibrium", "equilibrium_residual"),
    ("stability", "certify"),
    ("stability", "drain_constants"),
    ("stability", "build_gamma"),
    ("stability", "spectral_radius"),
    ("stability", "contraction_check"),
    ("harness", "run_scenario"),
    ("harness", "mass_balance_residuals"),
    ("harness", "export_csv"),
    ("harness", "reproduce_suite"),
    ("cli", "main"),
)

NAME, START, END, PARENT, OP = range(5)


def _rows(args, kwargs, result):
    X = kwargs.get("X", args[2] if len(args) > 2 else None)
    return len(X)


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(kwargs.get("path", args[1] if len(args) > 1 else None))


def _n_evaluated(args, kwargs, result):
    return result.n_evaluated


# Per-call quantities recorded next to the span, keyed by span name.
EXTRAS = {
    "diagrams.demand_batch": _rows,
    "harness.export_csv": _csv_bytes,
    "stability.drain_constants": _n_evaluated,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.extra: dict[int, float] = {}
        self._stack: list[int] = []
        self._op: str | None = None
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def op(self, name: str):
        """Attribute the spans opened inside the block to operation `name`."""
        prev, self._op = self._op, name
        try:
            yield
        finally:
            self._op = prev

    def _wrap(self, name, fn):
        spans, stack, extra = self.spans, self._stack, self.extra
        measure = EXTRAS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self._op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if measure is not None:
                extra[idx] = measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each target function with a recorder."""
        import netstab

        modules = [m for key, m in sys.modules.items()
                   if key == "netstab" or key.startswith("netstab.")]
        for mod_name, fn_name in TARGETS:
            original = getattr(getattr(netstab, mod_name), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Dump spans as gzip TSV: name, start, end, parent, op, extra."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("idx\tname\tstart\tend\tparent\top\textra\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t"
                         f"{s[PARENT]}\t{s[OP]}\t{self.extra.get(i, '')}\n")


class Summary:
    """Per-name aggregates of a finished trace."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        self.spans = spans
        self.extra = tracer.extra
        n = len(spans)
        child = [0.0] * n
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child[i]
            if not self.within(i, name):  # busy time counts the outermost call
                self.busy[name] = self.busy.get(name, 0.0) + dur
        self.root_s = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)

    def within(self, i: int, name: str) -> bool:
        """True when a strict ancestor of span i is named `name`."""
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def count(self, name: str, op: str | None = None,
              inside: str | None = None) -> int:
        """Calls of `name`, optionally only in operation `op` or under `inside`."""
        return sum(1 for i, s in enumerate(self.spans)
                   if s[NAME] == name and (op is None or s[OP] == op)
                   and (inside is None or self.within(i, inside)))

    def extra_sum(self, name: str, inside: str | None = None) -> float:
        return sum(v for i, v in self.extra.items()
                   if self.spans[i][NAME] == name
                   and (inside is None or self.within(i, inside)))
