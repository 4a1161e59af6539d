"""Worker processes started by ``run.py``; not meant to be run by hand.

    python3 child.py cli SRC SPANS ARG...
        Import ``exposure_glm`` from SRC and call ``exposure_glm.cli.main``
        with the remaining arguments, as the ``exposure-glm`` console
        script does.  SPANS is ``-`` for an untraced run, else the file
        the traced run writes its spans and import time to.

    python3 child.py profile SRC SEED OPERATIONS TRACE N RESULT
        After a warm-up, run OPERATIONS p-profile analyses on books
        0, 1, ... of N contracts (``-``: the workload's size) drawn from
        SEED; with TRACE=1 each analysis is followed by a traced repeat
        on the same book.  Writes RESULT as JSON.

Everything beyond the standard library is imported inside functions, so
that the CLI child's import time covers ``exposure_glm`` alone.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

P_GRID = [i / 10 for i in range(11, 20)]
MOMENT_ROWS = 4
WARMUP_N = 2000


def _import(src):
    sys.path.insert(0, src)
    import exposure_glm
    import exposure_glm.cli

    expected = Path(src).resolve() / "exposure_glm"
    if Path(exposure_glm.__file__).resolve().parent != expected:
        raise SystemExit(f"exposure_glm imported from {exposure_glm.__file__}, not {expected}")
    return exposure_glm


def run_cli(src, spans_path, argv):
    start = time.perf_counter()
    eg = _import(src)
    import_s = time.perf_counter() - start
    if spans_path == "-":
        return eg.cli.main(argv)
    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        return tracer.run_op(0, eg.cli.main, argv)
    finally:
        Path(spans_path).write_text(json.dumps({"import_s": import_s, "spans": tracer.spans}))


def analyse(eg, book):
    """One p-profile analysis: build, sweep p, then the claim-count companion."""
    portfolio = eg.Portfolio.from_arrays(book.exposures, book.losses, book.covariates)
    rows = portfolio.design[:MOMENT_ROWS]
    sweep = []
    for p in P_GRID:
        family = eg.TweedieFamily(p=p)
        offset = eg.fit(portfolio, eg.WeightScheme.OFFSET, family)
        ratio = eg.fit(portfolio, eg.WeightScheme.RATIO, family)
        dominance = eg.covariance_dominance(portfolio, offset.beta_hat, family)
        moments = [eg.moment_ordering(x, offset.beta_hat, portfolio, family) for x in rows]
        factors = (eg.balance_factor(portfolio, offset), eg.balance_factor(portfolio, ratio))
        sweep.append((p, offset, ratio, dominance, moments, factors))
    counts = eg.CountData.from_arrays(book.exposures, book.counts, book.covariates)
    poisson = (eg.poisson_fit(counts, "offset"), eg.poisson_fit(counts, "ratio"))
    return sweep, poisson, eg.zip_nonequivalence_check(counts)


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _timed_analysis(eg, book, call):
    """Run and check one analysis; an analysis that raises fails all its units."""
    import checks

    wall, cpu = time.perf_counter(), _cpu_s()
    try:
        outcome = call(eg, book)
        error = None
    except Exception:  # the operation boundary: record and go on
        error = traceback.format_exc(limit=3)
    record = {"wall_s": time.perf_counter() - wall, "cpu_s": _cpu_s() - cpu}
    units = len(P_GRID) * (2 + 1 + MOMENT_ROWS + 2) + 2
    if error is not None:
        record.update(attempted=units, failed=units, problems=[["check", error]], info={})
        return record
    attempted, problems, info = checks.check_profile(book, *outcome)
    record.update(attempted=attempted, failed=len(problems), problems=problems, info=info)
    return record


def run_profile(src, seed, operations, trace, n, result_path):
    eg = _import(src)
    import gen
    from tracing import Tracer, install

    sizes = {} if n == "-" else {"n": int(n)}
    _timed_analysis(eg, gen.profile_book(seed, n=WARMUP_N), analyse)
    tracer = Tracer()
    records, traced, inputs = [], [], []
    for index in range(operations):
        book = gen.profile_book(seed, index=index, **sizes)
        properties = book.properties()
        properties["array_bytes"], properties["sha256"] = gen.array_digest(book)
        inputs.append(properties)
        records.append(_timed_analysis(eg, book, analyse))
        if trace:
            uninstall = install(tracer)
            try:
                traced.append(_timed_analysis(
                    eg, book, lambda *args: tracer.run_op(index, analyse, *args)))
            finally:
                uninstall()
    result = {
        "inputs": inputs,
        "records": records,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


def main(argv):
    mode, src, *rest = argv
    if mode == "cli":
        return run_cli(src, rest[0], rest[1:])
    if mode == "profile":
        seed, operations, trace, n, result_path = rest
        return run_profile(src, int(seed), int(operations), trace == "1", n, result_path)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
