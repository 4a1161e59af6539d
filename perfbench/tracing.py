"""Spans around the public entry points of each ``exposure_glm`` module.

The wrappers live in the benchmark, not in the library: ``install``
replaces module and class attributes that callers look up at call time
(``exposure_glm.cli.fit``, ``Portfolio.__init__``, ...) and returns a
function that puts the originals back.  A span is the list
``[name, start, end, parent, op, note]``; spans stay in memory until the
worker writes them out.  The first dotted part of a span name is the
module the time is charged to.
"""

import functools
import time


class Tracer:
    """Span recorder of one worker process; ``op`` tags spans with their operation."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = 0

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(index)
        return self.spans[index]

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op, func, *args):
        """Call ``func(*args)`` as operation ``op`` under a root span named ``op``."""
        self.op = op
        span = self._open("op")
        try:
            return func(*args)
        finally:
            self._close(span)

    def wrap(self, func, name, note=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span[5] = note(result)
            return result

        return traced


def _fit_note(result):
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def install(tracer):
    """Wrap every traced entry point; return a function that removes the wrappers."""
    import exposure_glm as eg
    from exposure_glm import cli, claim_count, estimators, model_core, solver

    targets = [
        (cli, "main", "cli.command", None),
        (cli, "ingest_csv", "cli.ingest", None),
        (model_core, "validate_design", "model_core.rank_check", None),
        (claim_count, "validate_design", "model_core.rank_check", None),
        (solver, "quasi_loglik", "model_core.objective", None),
        (eg.Portfolio, "__init__", "model_core.build", None),
        (eg.Portfolio, "from_arrays", "model_core.build", None),
        (estimators, "coefficient_covariance", "estimators.covariance", None),
        (eg.CountData, "from_arrays", "claim_count.build", None),
    ]
    for owner in (eg, cli):
        targets += [
            (owner, "fit", "solver.fit", _fit_note),
            (owner, "individual_gaps", "balance.gaps", None),
            (owner, "class_report", "balance.class_report", len),
            (owner, "balance_factor", "balance.factor", None),
            (owner, "portfolio_gap", "balance.factor", None),
        ]
    targets += [
        (eg, "covariance_dominance", "estimators.dominance", None),
        (eg, "moment_ordering", "estimators.moments", None),
        (eg, "poisson_fit", "claim_count.poisson", None),
        (eg, "zip_nonequivalence_check", "claim_count.zip", None),
    ]

    originals = []
    for owner, attr, name, note in targets:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        originals.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, note)))
        else:
            setattr(owner, attr, tracer.wrap(raw, name, note))

    def uninstall():
        for owner, attr, raw in reversed(originals):
            setattr(owner, attr, raw)

    return uninstall


MODULES = ("cli", "model_core", "solver", "balance", "estimators", "claim_count")


def summarize(spans, op):
    """Per-layer figures of operation ``op`` from the full span list.

    Self time is a span's duration minus the time its direct children
    cover (calls are sequential, so children never overlap).  ``total``
    sums, per span name, the spans not nested inside a span of the same
    name; ``own`` sums self time per span name and ``self`` per module,
    the root span's under ``op``; ``notes`` lists what each span recorded
    about its result.
    """
    members = [i for i, span in enumerate(spans) if span[4] == op]
    covered = {}
    for i in members:
        parent = spans[i][3]
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + spans[i][2] - spans[i][1]
    total, count, own, self_time, notes = {}, {}, {}, {}, {}
    for i in members:
        name, start, end, parent, _, note = spans[i]
        module = name.split(".")[0]
        span_self = end - start - covered.get(i, 0.0)
        own[name] = own.get(name, 0.0) + span_self
        self_time[module] = self_time.get(module, 0.0) + span_self
        count[name] = count.get(name, 0) + 1
        notes.setdefault(name, []).append(note)
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            total[name] = total.get(name, 0.0) + end - start
    return {"total": total, "count": count, "own": own, "self": self_time, "notes": notes}
